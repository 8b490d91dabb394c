"""Diagonal tables, ground spaces, matrix-free operators, psi_+."""

import itertools
import tracemalloc

import numpy as np
import pytest

from shortpath import hilbert, instances
from shortpath.hilbert import (
    BudgetError,
    MatrixFreeOperator,
    OperatorSpec,
    energy_of,
    evaluate_hz,
    ground_space,
    parity_masks,
    psi_plus,
    psi_plus_overlap,
)

from conftest import dense_x, hand_single_term, hand_triangle, degeneracy_ladder


def test_single_term_energies_by_hand():
    table = evaluate_hz(hand_single_term())
    # index bit i is the Z_i eigenvalue, 0 -> +1: states 00 and 11 have +1
    assert np.array_equal(table.energies, [1.0, -1.0, -1.0, 1.0])
    assert table.e0 == -1.0 and table.gap == 2.0


def test_energy_of_matches_table_streaming():
    inst = instances.generate("sk_gaussian", 8, seed=4)
    table = evaluate_hz(inst)
    for u in (0, 1, 100, 255):
        assert energy_of(inst, u) == pytest.approx(table.energies[u], abs=1e-12)


def _hand_d3():
    """N=6, four D=3 terms with integer weights."""
    terms = [((0, 1, 2), 1.0), ((1, 3, 5), -2.0), ((2, 4, 5), 3.0), ((0, 3, 4), -1.0)]
    return instances.build_instance(6, 3, terms)


def _gaussian_instance(n, degree, n_terms, seed):
    rng = np.random.default_rng(seed)
    subsets = list(itertools.combinations(range(n), degree))
    picks = rng.choice(len(subsets), size=n_terms, replace=False)
    return instances.build_instance(
        n, degree, [(subsets[i], float(rng.standard_normal())) for i in picks])


def _integer_cases():
    cases = [pytest.param(instances.generate("sk_pm", 10, seed=seed),
                          id=f"sk_pm N=10 seed={seed}") for seed in (1, 2)]
    cases += [pytest.param(inst, id=label) for label, inst, _n0 in degeneracy_ladder()]
    cases.append(pytest.param(_hand_d3(), id="hand D=3"))
    return cases


@pytest.mark.parametrize("inst", _integer_cases())
def test_table_equals_energy_of_bitwise_for_integer_weights(inst):
    # energy_of sums the terms one by one, in the order the old per-term loop did
    energies = evaluate_hz(inst).energies
    expected = [energy_of(inst, u) for u in range(energies.size)]
    assert np.array_equal(energies, expected)


@pytest.mark.parametrize("inst", [
    instances.generate("sk_gaussian", 10, seed=4),
    _gaussian_instance(9, 3, 40, seed=7),
], ids=["sk_gaussian", "gaussian-d3"])
def test_table_matches_energy_of_for_gaussian_weights(inst):
    energies = evaluate_hz(inst).energies
    expected = np.array([energy_of(inst, u) for u in range(energies.size)])
    assert np.max(np.abs(energies - expected)) <= 1e-12 * inst.j_tot


def test_walsh_hadamard_matches_dense_hadamard():
    n = 5
    signs = np.array([[(-1.0) ** (u & m).bit_count() for m in range(1 << n)]
                      for u in range(1 << n)])
    c = np.random.default_rng(3).standard_normal(1 << n)
    expected = signs @ c
    hilbert._walsh_hadamard(c, n)
    assert np.allclose(c, expected, atol=1e-12)


@pytest.mark.parametrize("inst", [
    instances.generate("sk_gaussian", 12, seed=5),
    _gaussian_instance(10, 4, 60, seed=2),
], ids=["sk_gaussian-d2", "gaussian-d4"])
def test_even_degree_energies_are_flip_symmetric_exactly(inst):
    # ~u = (2^N - 1) - u, so reversing the table maps E(u) to E(~u)
    energies = evaluate_hz(inst).energies
    assert np.array_equal(energies, energies[::-1])


def test_evaluate_hz_peak_memory_below_three_tables():
    n = 16
    inst = instances.generate("sk_gaussian", n, seed=1)
    tracemalloc.start()
    try:
        evaluate_hz(inst)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (1 << n) * 8


@pytest.mark.parametrize("terms", [
    # ground band split by 2.2e-16 when the terms are summed one by one
    [((0, 1), 0.2), ((0, 2), 0.7), ((0, 3), 0.1), ((0, 4), 0.2), ((1, 2), 0.7),
     ((1, 3), 0.3), ((1, 4), 0.2), ((2, 3), 0.1), ((2, 4), 0.1), ((3, 4), 0.7)],
    # split by 2.2e-16 both one by one and in butterfly order
    [((0, 1), -0.1), ((0, 2), -0.3), ((0, 3), 0.3), ((0, 4), 0.1), ((1, 2), 0.2),
     ((1, 3), 0.7), ((1, 4), -0.2), ((2, 3), 0.1), ((2, 4), -0.3), ((3, 4), -0.3)],
], ids=["split-by-term-loop", "split-by-both-orders"])
def test_gap_skips_energies_inside_the_degeneracy_band(terms):
    # the gap is measured from the band edge, so it agrees with n0 = 4
    table = evaluate_hz(instances.build_instance(5, 2, terms))
    ground = ground_space(table)
    assert ground.n0 == 4
    outside = np.delete(table.energies, ground.ground_indices)
    assert table.gap == outside.min() - table.e0
    assert table.gap > 0.1


def test_budget_error_mentions_streaming_alternative():
    inst = instances.build_instance(6, 2, [((0, 1), 1.0)])
    with pytest.raises(BudgetError, match="energy_of"):
        evaluate_hz(inst, max_qubits=5)


def test_ground_space_of_degeneracy_ladder():
    for label, inst, n0 in degeneracy_ladder():
        table = evaluate_hz(inst)
        ground = ground_space(table)
        assert ground.n0 == n0, label
        assert ground.gap_certified, label
        assert np.all(np.diff(ground.ground_indices) > 0)


def test_triangle_ground_space():
    ground = ground_space(evaluate_hz(hand_triangle()))
    assert ground.n0 == 6
    assert ground.e0 == -1.0


def test_gap_certification_boundary():
    # gap exactly 1 certifies; gap 0.5 does not
    unit = instances.build_instance(2, 2, [((0, 1), 0.5)])
    assert ground_space(evaluate_hz(unit)).gap_certified
    small = instances.build_instance(2, 2, [((0, 1), 0.25)])
    assert not ground_space(evaluate_hz(small)).gap_certified


def test_ground_space_reads_the_gap_from_the_table():
    # gap_certified comes from table.gap, so the call holds one boolean mask
    # and the ground indices, not a copy of the excluded energies
    table = evaluate_hz(instances.generate("sk_gaussian", 16, seed=0))
    tracemalloc.start()
    try:
        ground = ground_space(table)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * table.energies.nbytes
    assert ground.gap_certified == (table.gap >= 1 - 1e-9)


def test_x_operator_matches_dense_matrix():
    # N = 1, 2, 3 use a corner of the low-bit block, N = 5 the whole block,
    # and N = 6, 9 the block plus per-bit flips above it
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 6, 9):
        xd = dense_x(n)
        v = rng.standard_normal(1 << n)
        got = hilbert._apply_x(v, n)
        assert np.allclose(got, xd @ v, atol=1e-12)
        # batch form agrees column by column
        batch = rng.standard_normal((1 << n, 3))
        got_b = hilbert._apply_x(batch, n)
        assert np.allclose(got_b, xd @ batch, atol=1e-12)
        # a column-major batch gives the same columns
        got_f = hilbert._apply_x(np.asfortranarray(batch), n)
        assert np.array_equal(got_f, got_b)


def test_x_operator_is_exact_on_small_integers():
    # every partial sum is a small integer, so any summation order is exact
    n = 12
    rng = np.random.default_rng(1)
    u = np.arange(1 << n)

    def gathered(v):
        return sum(v[u ^ (1 << i)] for i in range(n))

    v = rng.integers(-4, 5, 1 << n).astype(np.float64)
    assert np.array_equal(hilbert._apply_x(v, n), gathered(v))
    batch = rng.integers(-4, 5, (1 << n, 3)).astype(np.float64)
    assert np.array_equal(hilbert._apply_x(batch, n), gathered(batch))
    assert np.array_equal(hilbert._apply_x(np.asfortranarray(batch), n), gathered(batch))


def test_xk_chain_holds_at_most_two_iterates():
    # (X/N)^K divides each iterate in place, so two 2^N iterates besides the
    # input are the peak, whether _apply_x returns an owning array or a view
    n = 16
    amps = np.random.default_rng(2).standard_normal(1 << n)
    tracemalloc.start()
    try:
        hilbert._apply_xk_over_n(amps, n, 8)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (1 << n) * 8


def test_psi_plus_is_top_x_eigenvector():
    n = 5
    psi = psi_plus(n)
    assert np.linalg.norm(psi) == pytest.approx(1.0) and np.ptp(psi) == 0.0
    table = evaluate_hz(instances.build_instance(n, 1, [((0,), 1.0)]))
    xpsi = MatrixFreeOperator(OperatorSpec("X"), table).apply(psi)
    assert np.allclose(xpsi, n * psi, atol=1e-12)


def test_hs_operator_example_by_hand():
    # N=2 single term, B=1, K=1: H|00> = |00> - (1/2)(|01> + |10>)
    inst = hand_single_term()
    table = evaluate_hz(inst)
    spec = OperatorSpec("HS", big_b=1.0, k=1)
    out = MatrixFreeOperator(spec, table).apply(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, -0.5, -0.5, 0.0], atol=1e-15)


def test_qhsq_zeroes_ground_rows_and_columns():
    inst = hand_single_term()
    table = evaluate_hz(inst)
    ground = ground_space(table)
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=1.0, k=1), table, ground)
    assert np.array_equal(op.support, [0, 3])
    mat = op.apply(np.eye(2))
    hs = MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=1), table).apply(np.eye(4))
    assert np.allclose(mat, hs[np.ix_(op.support, op.support)], atol=1e-15)
    assert np.allclose(mat, mat.T, atol=1e-12)


def test_even_k_parity_blocks_commute():
    # for even K, HS maps each parity sector to itself
    inst = instances.generate("sk_pm", 6, seed=2)
    table = evaluate_hz(inst)
    even, odd = parity_masks(6)
    op = MatrixFreeOperator(OperatorSpec("HS", big_b=0.7, k=2), table)
    v = np.zeros(64)
    v[np.flatnonzero(even)[:5]] = 1.0
    out = op.apply(v)
    assert np.allclose(out[odd], 0.0)


def test_parity_restricted_operator_is_projection_conjugate():
    inst = instances.generate("sk_pm", 5, seed=3)
    table = evaluate_hz(inst)
    full = MatrixFreeOperator(OperatorSpec("HS", big_b=0.5, k=2), table)
    blocked = MatrixFreeOperator(
        OperatorSpec("HS", big_b=0.5, k=2, parity_block="even"), table)
    even, _ = parity_masks(5)
    assert np.array_equal(full.support, np.arange(32))
    assert np.array_equal(blocked.support, np.flatnonzero(even))
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32)
    ve = np.where(even, v, 0.0)
    assert np.array_equal(blocked.apply(v[even]), full.apply(ve)[even])


def test_psi_plus_overlap_is_l1_for_nonnegative_states():
    state = np.zeros(16)
    state[[0, 3, 7]] = 3**-0.5
    assert psi_plus_overlap(state) == pytest.approx(2.0**-2 * np.abs(state).sum())
    with pytest.raises(ValueError, match="2\\^N"):
        psi_plus_overlap(np.ones(6))


def test_hs_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec("HS", big_b=-1.0, k=1)
    with pytest.raises(ValueError):
        OperatorSpec("HS", big_b=1.0, k=0)
