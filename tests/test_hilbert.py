"""Diagonal tables, ground spaces, matrix-free operators, named states."""

import numpy as np
import pytest

from shortpath import hilbert, instances
from shortpath.hilbert import (
    BudgetError,
    HsParams,
    MatrixFreeOperator,
    OperatorSpec,
    apply_operator,
    energy_of,
    evaluate_hz,
    ground_space,
    make_state,
    parity_masks,
    project,
    psi_plus_overlap,
)

from conftest import hand_single_term, hand_triangle, degeneracy_ladder


def _dense_x(n):
    dim = 1 << n
    x = np.zeros((dim, dim))
    for u in range(dim):
        for i in range(n):
            x[u ^ (1 << i), u] += 1.0
    return x


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


def test_make_state_variants():
    psi = make_state("psi_plus", 4)
    assert psi.norm() == pytest.approx(1.0)
    assert np.all(psi.amplitudes == 0.25)
    basis = make_state("basis", 3, u=5)
    assert basis.amplitudes[5] == 1.0 and basis.l1() == 1.0
    uni = make_state("uniform_on", 3, support=[1, 2, 4, 7])
    assert uni.norm() == pytest.approx(1.0)
    assert np.count_nonzero(uni.amplitudes) == 4
    rnd = make_state("random_on", 3, support=[1, 2], seed=9)
    assert rnd.norm() == pytest.approx(1.0)
    assert np.count_nonzero(rnd.amplitudes) == 2
    with pytest.raises(ValueError):
        make_state("basis", 3, u=8)
    with pytest.raises(ValueError):
        make_state("uniform_on", 3, support=[])


def test_x_operator_matches_dense_matrix():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        xd = _dense_x(n)
        v = rng.standard_normal(1 << n)
        got = hilbert._apply_x(v, n)
        assert np.allclose(got, xd @ v, atol=1e-12)
        # batch form agrees column by column
        batch = rng.standard_normal((1 << n, 3))
        got_b = hilbert._apply_x(batch, n)
        assert np.allclose(got_b, xd @ batch, atol=1e-12)


def test_psi_plus_is_top_x_eigenvector():
    n = 5
    psi = make_state("psi_plus", n)
    table = evaluate_hz(instances.build_instance(n, 1, [((0,), 1.0)]))
    xpsi = apply_operator(OperatorSpec("X"), table, None, psi)
    assert np.allclose(xpsi.amplitudes, n * psi.amplitudes, atol=1e-12)


def test_hs_operator_example_by_hand():
    # N=2 single term, B=1, K=1, s=1: H|00> = |00> - (1/2)(|01> + |10>)
    inst = hand_single_term()
    table = evaluate_hz(inst)
    spec = OperatorSpec("HS", s=1.0, big_b=1.0, k=1)
    out = apply_operator(spec, table, None, make_state("basis", 2, u=0))
    assert np.allclose(out.amplitudes, [1.0, -0.5, -0.5, 0.0], atol=1e-15)


def test_qhsq_zeroes_ground_rows_and_columns():
    inst = hand_single_term()
    table = evaluate_hz(inst)
    ground = ground_space(table)
    op = MatrixFreeOperator(OperatorSpec("QHSQ", s=1.0, big_b=1.0, k=1), table, ground)
    mat = op.apply(np.eye(4))
    assert np.allclose(mat[ground.ground_indices, :], 0.0)
    assert np.allclose(mat[:, ground.ground_indices], 0.0)
    assert np.allclose(mat, mat.T, atol=1e-12)


def test_even_k_parity_blocks_commute():
    # for even K, HS maps each parity sector to itself
    inst = instances.generate("sk_pm", 6, seed=2)
    table = evaluate_hz(inst)
    even, odd = parity_masks(6)
    op = MatrixFreeOperator(OperatorSpec("HS", s=1.0, big_b=0.7, k=2), table)
    v = np.zeros(64)
    v[np.flatnonzero(even)[:5]] = 1.0
    out = op.apply(v)
    assert np.allclose(out[odd], 0.0)


def test_parity_restricted_operator_is_projection_conjugate():
    inst = instances.generate("sk_pm", 5, seed=3)
    table = evaluate_hz(inst)
    full = MatrixFreeOperator(OperatorSpec("HS", s=1.0, big_b=0.5, k=2), table)
    blocked = MatrixFreeOperator(
        OperatorSpec("HS", s=1.0, big_b=0.5, k=2, parity_block="even"), table)
    even, _ = parity_masks(5)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32)
    ve = np.where(even, v, 0.0)
    assert np.allclose(blocked.apply(v), np.where(even, full.apply(ve), 0.0), atol=1e-12)


def test_project_p_q_partition_and_idempotence():
    inst = hand_triangle()
    ground = ground_space(evaluate_hz(inst))
    psi = make_state("psi_plus", 3)
    p = project(psi, "P", ground)
    q = project(psi, "Q", ground)
    assert np.allclose(p.amplitudes + q.amplitudes, psi.amplitudes)
    assert p.inner(q) == 0.0
    assert np.array_equal(project(p, "P", ground).amplitudes, p.amplitudes)


def test_psi_plus_overlap_is_l1_for_nonnegative_states():
    state = make_state("uniform_on", 4, support=[0, 3, 7])
    assert psi_plus_overlap(state) == pytest.approx(2.0**-2 * state.l1())


def test_hsparams_validation():
    with pytest.raises(ValueError):
        HsParams(big_b=-1.0, k=1)
    with pytest.raises(ValueError):
        HsParams(big_b=1.0, k=0)
    with pytest.raises(ValueError):
        HsParams(big_b=1.0, k=1, s=1.5)
