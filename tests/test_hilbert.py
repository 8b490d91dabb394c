"""Diagonal tables, ground spaces, matrix-free operators, psi_+."""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shortpath import hilbert, instances
from shortpath.hilbert import (
    BudgetError,
    DiagonalTable,
    MatrixFreeOperator,
    OperatorSpec,
    energy_of,
    evaluate_hz,
    ground_space,
    psi_plus_overlap,
)

from conftest import (
    DEGENERACY_BAND_TERMS,
    dense_x,
    degeneracy_ladder,
    field_unique_ground,
    hand_single_term,
    hand_triangle,
)


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


def _one_term_per_high_mask(weights):
    """N=11, D=6: for each of the first len(weights) of the 32 masks h on the
    high 5 qubits, one term on h and the first 6 - |h| low qubits.  Every term
    has low bits, so the split needs r = len(weights) columns, and its matmul
    and G have r + 1: at r = 32 it counts 68.6 multiply-adds per entry, at
    r = 31 66.5 and at r = 30 64.4, against the full transform's 66."""
    terms = [(tuple(range(6 - h.bit_count())) + tuple(6 + q for q in range(5) if h >> q & 1),
              float(w)) for h, w in zip(range(32), weights)]
    return instances.build_instance(11, 6, terms)


def _signs(size, seed):
    return np.where(np.random.default_rng(seed).random(size) < 0.5, -1.0, 1.0).tolist()


def _table_and_transform_bits(monkeypatch, inst):
    """The instance's table and the bit counts of the transforms that made it:
    [low, high] for the split, [N] for the full transform."""
    bits = []
    transform = hilbert.walsh_hadamard

    def recording(c, n_qubits):
        bits.append(n_qubits)
        return transform(c, n_qubits)

    monkeypatch.setattr(hilbert, "walsh_hadamard", recording)
    return evaluate_hz(inst).energies, bits


@pytest.mark.parametrize("inst, bits", [
    pytest.param(instances.generate("sk_pm", 10, seed=1), [5, 5], id="sk_pm N=10"),
    pytest.param(instances.generate("sk_pm", 13, seed=1), [7, 6], id="sk_pm N=13"),
    # r = 15 high masks: 16 columns count 48.5 against 48
    pytest.param(instances.build_instance(9, 4, zip(itertools.combinations(range(9), 4),
                                                    _signs(126, 9))),
                 [9], id="all 4-subsets of 9"),
    pytest.param(_one_term_per_high_mask(_signs(32, 11)), [11], id="one term per high mask"),
    # the margin: r columns would count under 66 at r = 31, r + 1 do not
    pytest.param(_one_term_per_high_mask(_signs(31, 12)), [11], id="31 high masks"),
    pytest.param(_one_term_per_high_mask(_signs(30, 13)), [6, 5], id="30 high masks"),
    pytest.param(instances.build_instance(1, 1, [((0,), -2.0)]), [1], id="N=1"),
    pytest.param(hand_single_term(), [2], id="N=2"),  # 2 columns count 5 against 4
    pytest.param(field_unique_ground(5), [3, 2], id="D=1"),
    pytest.param(instances.build_instance(8, 2, zip(itertools.combinations(range(4, 8), 2),
                                                    _signs(6, 8))),
                 [4, 4], id="high bits only"),
    pytest.param(instances.build_instance(8, 2, [((0, j), 1.0 - 2 * (j % 3 == 0))
                                                 for j in range(1, 8)]),
                 [4, 4], id="no high-only term"),
])
def test_split_or_full_transform_equals_energy_of_bitwise(monkeypatch, inst, bits):
    # integer weights give exact sums in any order, on either path
    energies, transform_bits = _table_and_transform_bits(monkeypatch, inst)
    assert transform_bits == bits
    assert np.array_equal(energies, [energy_of(inst, u) for u in range(energies.size)])


@pytest.mark.parametrize("inst, bits", [
    pytest.param(instances.generate("sk_gaussian", 10, seed=4), [5, 5], id="split"),
    pytest.param(_one_term_per_high_mask(np.random.default_rng(3).standard_normal(32)),
                 [11], id="full"),
])
def test_split_or_full_transform_matches_energy_of_for_gaussian_weights(monkeypatch, inst,
                                                                       bits):
    energies, transform_bits = _table_and_transform_bits(monkeypatch, inst)
    assert transform_bits == bits
    expected = np.array([energy_of(inst, u) for u in range(energies.size)])
    assert np.max(np.abs(energies - expected)) <= 1e-12 * inst.j_tot


def test_full_transform_is_the_coefficient_transform_bit_for_bit():
    # all 6-subsets of 12 qubits: r = 63 columns count 97 multiply-adds per
    # entry against 68, so the table is walsh_hadamard of c[m_t] = w_t itself
    masks = np.array([sum(1 << q for q in s) for s in itertools.combinations(range(12), 6)])
    weights = np.random.default_rng(6).standard_normal(masks.size)
    c = np.zeros(1 << 12)
    c[masks] = weights
    assert np.array_equal(hilbert.walsh_table(masks, weights, 12),
                          hilbert.walsh_hadamard(c, 12))


def test_walsh_hadamard_matches_dense_hadamard():
    # one to three 5-qubit chunks, with every remainder mod 5
    rng = np.random.default_rng(3)
    for n in range(1, 12):
        signs = np.array([[(-1.0) ** (u & m).bit_count() for m in range(1 << n)]
                          for u in range(1 << n)])
        c = rng.integers(-7, 8, size=1 << n).astype(np.float64)
        expected = signs @ c
        assert np.array_equal(hilbert.walsh_hadamard(c, n), expected), n
        c = rng.standard_normal(1 << n)
        expected = signs @ c
        assert np.allclose(hilbert.walsh_hadamard(c, n), expected, atol=1e-12), n


def test_walsh_hadamard_allocates_at_most_one_extra_vector():
    n = 16
    c = np.random.default_rng(5).standard_normal(1 << n)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        hilbert.walsh_hadamard(c, n)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= c.nbytes + (1 << 14)


def _digests_under_one_and_two_blas_threads(script):
    """Number of distinct lines the script prints under OPENBLAS_NUM_THREADS
    1 and 2, each in a fresh interpreter."""
    # the child does not inherit pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": pythonpath,
                                   "OPENBLAS_NUM_THREADS": threads}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    return len(digests)


def test_evaluate_hz_bits_do_not_depend_on_blas_threads():
    script = ("import hashlib; from shortpath import hilbert, instances; "
              "inst = instances.generate('sk_gaussian', 14, seed=1); "
              "print(hashlib.sha256(hilbert.evaluate_hz(inst).energies.tobytes()).hexdigest())")
    assert _digests_under_one_and_two_blas_threads(script) == 1


@pytest.mark.parametrize("inst", [
    instances.generate("sk_gaussian", 12, seed=5),
    instances.generate("sk_gaussian", 13, seed=5),
    _gaussian_instance(10, 4, 60, seed=2),
], ids=["sk_gaussian-d2", "sk_gaussian-d2-odd-n", "gaussian-d4"])
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


def test_split_tabulation_peaks_below_one_and_a_half_tables():
    # the split writes its one matmul into the table; its other arrays have
    # r columns of 2^low or 2^high entries
    n = 16
    inst = instances.generate("sk_gaussian", n, seed=1)
    tracemalloc.start()
    try:
        evaluate_hz(inst)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << n) * 8


@pytest.mark.parametrize("terms", [terms for _id, terms in DEGENERACY_BAND_TERMS],
                         ids=[name for name, _terms in DEGENERACY_BAND_TERMS])
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


def _x_operator(n):
    """The X kind on N qubits; it reads nothing of the table but N."""
    table = hilbert.DiagonalTable(n_qubits=n, energies=np.zeros(1 << n), e0=0.0, gap=None)
    return MatrixFreeOperator(OperatorSpec("X"), table).apply


def test_x_operator_matches_dense_matrix():
    # N = 1, 2, 3 use a corner of the 5-bit Hadamard chunk, N = 5 the whole
    # chunk, and N = 6, 9 more chunks above it
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 6, 9):
        xd = dense_x(n)
        apply_x = _x_operator(n)
        v = rng.standard_normal(1 << n)
        got = apply_x(v)
        assert np.allclose(got, xd @ v, atol=1e-12)
        # batch form agrees column by column
        batch = rng.standard_normal((1 << n, 3))
        got_b = apply_x(batch)
        assert np.allclose(got_b, xd @ batch, atol=1e-12)
        # a column-major batch gives the same columns
        got_f = apply_x(np.asfortranarray(batch))
        assert np.array_equal(got_f, got_b)


def test_x_operator_is_exact_on_small_integers():
    # the transforms of integers are integers, and the scale (N - 2|h|)/2^N
    # is an integer over a power of two, so every partial sum is exact
    n = 12
    rng = np.random.default_rng(1)
    u = np.arange(1 << n)
    apply_x = _x_operator(n)

    def gathered(v):
        return sum(v[u ^ (1 << i)] for i in range(n))

    v = rng.integers(-4, 5, 1 << n).astype(np.float64)
    assert np.array_equal(apply_x(v), gathered(v))
    batch = rng.integers(-4, 5, (1 << n, 3)).astype(np.float64)
    assert np.array_equal(apply_x(batch), gathered(batch))
    assert np.array_equal(apply_x(np.asfortranarray(batch)), gathered(batch))


@pytest.mark.parametrize("block, k", [
    pytest.param(None, 1, id="full-1"), pytest.param(None, 2, id="full-2"),
    pytest.param(None, 27, id="full-27"), pytest.param("even", 2, id="even-2"),
    pytest.param("even", 28, id="even-28")])
def test_xk_chain_holds_at_most_two_iterates(block, k):
    # the pair transforms one copy of the input and its transform ping-pongs
    # with one more array, with the operator's cached scale: two vectors
    # besides the input are the peak
    n = 16
    op = MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=k, parity_block=block),
                            DiagonalTable(n, np.zeros(1 << n), 0.0, None))
    amps = np.random.default_rng(2).standard_normal(op.shape[0])
    tracemalloc.start()
    try:
        op.xk(amps)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * amps.nbytes


@pytest.mark.parametrize("n", range(1, 10))
def test_xk_over_n_matches_dense_power(n):
    # every K is the transform pair: xk_over_n on the full space, and an
    # operator's xk on its own coordinates, a parity block's for even K
    rng = np.random.default_rng(n)
    xd = dense_x(n) / n
    table = DiagonalTable(n, np.zeros(1 << n), 0.0, None)
    for k, block in itertools.product([1, 2, 3, 8, 27], [None, "even", "odd"]):
        if block is not None and k % 2:
            continue
        power = np.linalg.matrix_power(xd, k)
        cols = _block_basis(n, block) if block else np.arange(1 << n)
        expect = power[np.ix_(cols, cols)]
        xk = MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=k, parity_block=block),
                                table).xk
        v = rng.standard_normal(cols.size)
        np.testing.assert_allclose(xk(v), expect @ v, rtol=0, atol=1e-13)
        batch = rng.standard_normal((cols.size, 3))
        got_c = xk(batch)
        np.testing.assert_allclose(got_c, expect @ batch, rtol=0, atol=1e-13)
        assert np.array_equal(xk(np.asfortranarray(batch)), got_c), (k, block)
        if block is None:
            assert np.array_equal(hilbert.xk_over_n(v, n, k), xk(v)), k
            assert np.array_equal(hilbert.xk_over_n(batch, n, k), got_c), k


@pytest.mark.parametrize("n", [8, 9])
def test_flip_sector_operator_is_the_projected_block_operator(n):
    # a flip-sector operator is L^T op L, L = flip_lift: the isometry onto
    # (|h> + f|2^M - 1 - h>)/sqrt(2); F keeps a block's coordinates for even N
    table = evaluate_hz(instances.generate("sk_pm", n, seed=2))
    ground = ground_space(table)
    assert ground.n0 > 1
    cases = 0
    for k, kind, f in itertools.product([1, 2, 3, 8, 27], ["HS", "QHSQ"], [1, -1]):
        blocks = [None] + (["even", "odd"] if k % 2 == 0 and n % 2 == 0 else [])
        for block in blocks:
            spec = OperatorSpec(kind, big_b=1.3, k=k, parity_block=block)
            whole = _dense(MatrixFreeOperator(spec, table, ground))
            op = MatrixFreeOperator(replace(spec, flip_sector=f), table, ground)
            lift = hilbert.flip_lift(np.eye(op.shape[0]), f)
            assert op.shape[0] == whole.shape[0] // 2
            want = lift.T @ whole @ lift
            np.testing.assert_allclose(_dense(op), want, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want)))
            cases += 1
    assert cases == (36 if n % 2 == 0 else 20)


def _dense(op):
    return op.apply(np.eye(op.shape[0]))



_REFERENCE_HADAMARD = (-1.0) ** np.bitwise_count(np.arange(32)[:, None] & np.arange(32))


def _reference_walsh_hadamard(c, n_qubits):
    """walsh_hadamard before its chunk plan was cached: every chunk's block
    and view are made per call, and the first chunk's output is a new array."""
    flat = c.reshape(-1, order="F")
    b = min(n_qubits, 5)
    src, dst = (flat.reshape(-1, 1 << b) @ _REFERENCE_HADAMARD[:1 << b, :1 << b]).ravel(), flat
    for low in range(b, n_qubits, 5):
        b = min(n_qubits - low, 5)
        shape = (-1, 1 << b, 1 << low)
        np.matmul(_REFERENCE_HADAMARD[:1 << b, :1 << b], src.reshape(shape),
                  out=dst.reshape(shape))
        src, dst = dst, src
    return src.reshape(c.shape, order="F")


def _reference_xk(op, amps):
    """The transform pair on a column-major copy of amps, whatever it is."""
    low = op.shape[0].bit_length() - 1
    c = np.array(amps, order="F")
    c[op.ground_coords] = 0.0
    c = _reference_walsh_hadamard(c, low)
    np.multiply(c.T, op.xk_scale, out=c.T)
    return _reference_walsh_hadamard(c, low)


def _reference_apply(op, amps):
    diag = op.diagonal if amps.ndim == 1 else op.diagonal[:, None]
    out = diag * amps
    if op.spec.big_b != 0.0:
        xk = _reference_xk(op, amps)
        xk[op.ground_coords] = 0.0
        out -= op.spec.big_b * xk
    return out


def _operators_on(m):
    """HS and QHSQ at K=2, B = 0 and 1.3, on every coordinate space of M = m
    qubits: the full space of N = m, a parity block or flip sector of N =
    m + 1, and a flip sector of a block of an even N = m + 2."""
    layouts = [(m, None, None)]
    layouts += [(m + 1, block, None) for block in ("even", "odd")]
    layouts += [(m + 1, None, flip) for flip in (1, -1)]
    if m % 2 == 0:
        layouts += [(m + 2, block, flip) for block in ("even", "odd") for flip in (1, -1)]
    for n, block, flip in layouts:
        inst = (instances.generate("sk_pm", n, seed=1) if n > 1
                else instances.build_instance(1, 1, [((0,), -2.0)]))
        table = evaluate_hz(inst)
        ground = ground_space(table)
        for kind, big_b in itertools.product(["HS", "QHSQ"], [0.0, 1.3]):
            spec = OperatorSpec(kind, big_b=big_b, k=2, parity_block=block, flip_sector=flip)
            yield MatrixFreeOperator(spec, table, ground)


@pytest.mark.parametrize("m", range(1, 14))
def test_products_keep_the_bits_of_the_copying_transform_pair(m):
    # a vector read where it lies, its one-column batch, a row-major batch
    # and a strided view all give the bits of the pair that copied every input
    rng = np.random.default_rng(m)
    cases = 0
    for op in _operators_on(m):
        dim = op.shape[0]
        assert dim == 1 << m
        v = rng.standard_normal(dim)
        batch = rng.standard_normal((dim, 3))
        strided = rng.standard_normal((dim, 2))[:, 1]
        for amps in (v, v[:, None], batch, np.asfortranarray(batch), strided):
            kept = amps.copy()
            assert np.array_equal(op.xk(amps), _reference_xk(op, amps)), op.spec
            assert np.array_equal(op.apply(amps), _reference_apply(op, amps)), op.spec
            assert np.array_equal(amps, kept), op.spec
        assert np.array_equal(op.apply(v), op.apply(v[:, None])[:, 0]), op.spec
        cases += 1
    assert cases == (36 if m % 2 == 0 else 20)


def _sector_pair_and_hs_qhsq_pair():
    """Two pairs of operators with the same bit count: the F = +1 and F = -1
    sectors of sk_pm N=10's odd block, and H_s and QH_sQ on its F = +1 one,
    where QH_sQ has a ground coordinate to zero."""
    table = evaluate_hz(instances.generate("sk_pm", 10, seed=3))
    ground = ground_space(table)

    def make(kind, flip):
        return MatrixFreeOperator(OperatorSpec(kind, big_b=1.3, k=2, parity_block="odd",
                                               flip_sector=flip), table, ground)
    return [lambda: (make("HS", 1), make("HS", -1)), lambda: (make("HS", 1), make("QHSQ", 1))]


@pytest.mark.parametrize("make", _sector_pair_and_hs_qhsq_pair(), ids=["sectors", "hs-qhsq"])
def test_operators_applied_in_turn_give_the_bits_of_each_alone(make):
    # each operator's vector products run in its own work arrays, so products
    # of two operators of one bit count, in turn, are those of each alone
    rng = np.random.default_rng(11)
    alone = make()
    vectors = rng.standard_normal((6, alone[0].shape[0]))
    want = [[op.apply(v) for v in vectors] for op in alone]
    want_xk = [[op.xk(v) for v in vectors] for op in make()]
    in_turn = make()
    got = [[], []]
    got_xk = [[], []]
    for v in vectors:
        for i, op in enumerate(in_turn):
            got[i].append(op.apply(v))
            got_xk[i].append(op.xk(v))
    for i, op in enumerate(in_turn):
        for g, w, r in zip(got[i], want[i], (_reference_apply(op, v) for v in vectors)):
            assert np.array_equal(g, w) and np.array_equal(g, r), op.spec
        for g, w in zip(got_xk[i], want_xk[i]):
            assert np.array_equal(g, w), op.spec


@pytest.mark.parametrize("make", _sector_pair_and_hs_qhsq_pair(), ids=["sectors", "hs-qhsq"])
def test_a_held_product_is_unchanged_by_later_calls(make):
    # apply and xk return new arrays: the Lanczos basis keeps each apply
    # result, and bwpt each xk column, while the operator works on
    for op in make():
        rng = np.random.default_rng(12)
        v = rng.standard_normal(op.shape[0])
        assert op.ground_coords.size == (op.spec.kind == "QHSQ")
        held = [op.apply(v), op.xk(v), op.apply(v[:, None]), op.xk(v[:, None])]
        kept = [h.copy() for h in held]
        for _ in range(3):
            w = rng.standard_normal(op.shape[0])
            later = [op.apply(w), op.xk(w), op.apply(w[:, None]), op.xk(w[:, None])]
        for h, k in zip(held, kept):
            assert np.array_equal(h, k), op.spec
            assert not any(np.shares_memory(h, x) for x in later), op.spec


def test_a_dropped_operator_is_freed_at_del():
    # the chunk plans are shared per bit count and point at no operator, so
    # an operator is freed by reference counting alone, not by the collector
    table = evaluate_hz(instances.generate("sk_pm", 8, seed=2))
    gc.disable()
    try:
        op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=1.3, k=2, parity_block="even",
                                             flip_sector=1), table, ground_space(table))
        op.apply(np.ones(op.shape[0]))
        op.apply(np.ones((op.shape[0], 2)))
        dropped = weakref.ref(op)
        del op
        assert dropped() is None
    finally:
        gc.enable()

def test_flip_sectors_need_a_flip_symmetric_coordinate_space():
    table = evaluate_hz(instances.generate("sk_pm", 7, seed=1))
    with pytest.raises(ValueError, match="onto the other"):
        MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=2, parity_block="even",
                                        flip_sector=1), table)
    with pytest.raises(ValueError, match="odd degree"):
        MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=1, flip_sector=-1),
                           evaluate_hz(_hand_d3()))
    with pytest.raises(ValueError, match="flip_sector"):
        OperatorSpec("HS", flip_sector=0)
    with pytest.raises(ValueError, match="not X"):
        OperatorSpec("X", flip_sector=1)


def test_operator_bits_do_not_depend_on_blas_threads():
    # HS at K=2 on the even block and QHSQ at K=3 and K=1 on the full space:
    # the transform pair and the diagonal, under 1 and 2 OpenBLAS threads
    script = ("import hashlib; import numpy as np; "
              "from shortpath import hilbert, instances; "
              "table = hilbert.evaluate_hz(instances.generate('sk_gaussian', 14, seed=1)); "
              "ground = hilbert.ground_space(table); "
              "specs = [hilbert.OperatorSpec('HS', big_b=1.3, k=2, parity_block='even'), "
              "hilbert.OperatorSpec('QHSQ', big_b=1.3, k=3), "
              "hilbert.OperatorSpec('QHSQ', big_b=1.3, k=1)]; "
              "digest = hashlib.sha256(); "
              "ops = [hilbert.MatrixFreeOperator(s, table, ground) for s in specs]; "
              "[digest.update(op.apply(np.random.default_rng(4).standard_normal(op.shape[0]))"
              ".tobytes()) for op in ops]; "
              "print(digest.hexdigest())")
    assert _digests_under_one_and_two_blas_threads(script) == 1


def test_psi_plus_is_top_x_eigenvector():
    n = 5
    psi = np.full(1 << n, 2.0 ** (-n / 2))
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
    assert np.array_equal(op.ground_coords, [1, 2])
    mat = op.apply(np.eye(4))
    hs = MatrixFreeOperator(OperatorSpec("HS", big_b=1.0, k=1), table).apply(np.eye(4))
    keep = [0, 3]
    assert np.allclose(mat[np.ix_(keep, keep)], hs[np.ix_(keep, keep)], atol=1e-15)
    # the ground block is norm_bound() * I, above the spectrum of Q H_s Q
    assert np.array_equal(mat[:, [1, 2]], op.norm_bound() * np.eye(4)[:, [1, 2]])
    assert np.array_equal(mat, mat.T)


def test_even_k_parity_blocks_commute():
    # for even K, HS maps each parity sector to itself
    inst = instances.generate("sk_pm", 6, seed=2)
    table = evaluate_hz(inst)
    odd = np.bitwise_count(np.arange(64)) % 2 == 1
    even = ~odd
    op = MatrixFreeOperator(OperatorSpec("HS", big_b=0.7, k=2), table)
    v = np.zeros(64)
    v[np.flatnonzero(even)[:5]] = 1.0
    out = op.apply(v)
    assert np.allclose(out[odd], 0.0)


def _block_basis(n, block):
    """Basis index of each coordinate of a parity block: the coordinate is the
    low N-1 bits, and the top bit completes the block's parity."""
    low = np.arange(1 << (n - 1))
    top = np.bitwise_count(low) % 2 ^ (block == "odd")  # uint8: widen before the shift
    return low + (top.astype(low.dtype) << (n - 1))


def test_parity_restricted_operator_is_projection_conjugate():
    # on a vector, the block operator is the full one on the block's states
    inst = instances.generate("sk_pm", 7, seed=3)
    table = evaluate_hz(inst)
    full = MatrixFreeOperator(OperatorSpec("HS", big_b=0.5, k=2), table)
    blocked = MatrixFreeOperator(
        OperatorSpec("HS", big_b=0.5, k=2, parity_block="even"), table)
    assert full.shape == (128, 128) and blocked.shape == (64, 64)
    rows = _block_basis(7, "even")
    assert np.array_equal(blocked.diagonal, table.energies[rows])
    v = np.random.default_rng(1).standard_normal(64)
    embedded = np.zeros(128)
    embedded[rows] = v
    # the two transform pairs sum in different orders, so the bits may differ
    got, out = blocked.apply(v), full.apply(embedded)
    tol = 1e-14 * np.max(np.abs(got))
    assert np.max(np.abs(got - out[rows])) <= tol
    # and the full apply leaks no more than that into the odd block
    assert np.max(np.abs(np.delete(out, rows))) <= tol


@pytest.mark.parametrize("kind", ["HS", "QHSQ"])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("n", [1, 4, 5])
@pytest.mark.parametrize("block", ["even", "odd"])
def test_block_operator_is_projected_dense_hs(block, n, k, kind):
    # P H_s P from the dense full-space H_s, read in the block's coordinates;
    # QHSQ also zeroes the ground rows and columns and puts norm_bound() on
    # their diagonal
    if n == 1:
        inst = instances.build_instance(1, 1, [((0,), 0.7)])
    else:
        inst = instances.generate("sk_gaussian", n, seed=n)
    table = evaluate_hz(inst)
    ground = ground_space(table)
    big_b = 0.3 * abs(table.e0)
    full = (np.diag(table.energies)
            - big_b * np.linalg.matrix_power(dense_x(n) / n, k))
    rows = _block_basis(n, block)
    expect = full[np.ix_(rows, rows)]
    op = MatrixFreeOperator(OperatorSpec(kind, big_b=big_b, k=k, parity_block=block),
                            table, ground)
    if kind == "QHSQ":
        g = np.flatnonzero(np.isin(rows, ground.ground_indices))
        assert np.array_equal(np.sort(op.ground_coords), g)
        expect[g, :] = 0.0
        expect[:, g] = 0.0
        expect[g, g] = op.norm_bound()
    mat = op.apply(np.eye(rows.size))
    np.testing.assert_allclose(mat, expect, rtol=0, atol=1e-12 * abs(table.e0))


def test_psi_plus_overlap_is_l1_for_nonnegative_states():
    state = np.zeros(16)
    state[[0, 3, 7]] = 3**-0.5
    assert psi_plus_overlap(state, 4) == pytest.approx(2.0**-2 * np.abs(state).sum())
    # an even-block vector of N=5 has 16 coordinates: N is the caller's, not
    # read off the length, or the overlap would be off by sqrt(2)
    assert psi_plus_overlap(state, 5) == pytest.approx(2.0**-2.5 * np.abs(state).sum())
    with pytest.raises(ValueError, match="2\\^N"):
        psi_plus_overlap(np.ones(6), 3)


def test_hs_spec_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        for kind in ("HS", "QHSQ"):
            with pytest.raises(ValueError, match="finite and non-negative"):
                OperatorSpec(kind, big_b=bad, k=1)
    with pytest.raises(ValueError):
        OperatorSpec("HS", big_b=1.0, k=0)
    # X^K for odd K maps each parity block to the other
    with pytest.raises(ValueError, match="even K"):
        OperatorSpec("HS", big_b=1.0, k=3, parity_block="even")
    with pytest.raises(ValueError, match="even K"):
        OperatorSpec("X", parity_block="odd")
    # X is the plain sum of X_i: no power, block or field
    for bad in ({"k": 3}, {"k": 2, "parity_block": "even"}, {"big_b": 1.0}):
        with pytest.raises(ValueError, match="no K, parity block or field"):
            OperatorSpec("X", **bad)


@pytest.mark.parametrize("kind", ["HS", "QHSQ"])
def test_block_apply_allocates_no_full_space_vector(kind):
    # a block apply at N=16 works on 2^15 amplitudes: it peaks below five of
    # them, which no 2^16 buffer fits under
    n = 16
    table = evaluate_hz(instances.generate("sk_pm", n, seed=1))
    op = MatrixFreeOperator(OperatorSpec(kind, big_b=1.0, k=2, parity_block="even"),
                            table, ground_space(table))
    amps = np.random.default_rng(2).standard_normal(1 << (n - 1))
    tracemalloc.start()
    try:
        op.apply(amps)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * (1 << (n - 1)) * 8
