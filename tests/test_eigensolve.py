"""Eigensolvers (iterative vs dense oracle), shifted solves, block lemma."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from shortpath import bwpt, cli, eigensolve, hilbert, instances
from shortpath.context import Analysis
from shortpath.eigensolve import (
    BlockMatrixInput,
    EigensolveError,
    NearSingularShift,
    block_lemma_check,
    dense_spectrum,
    extreme_eigs,
    operator_matrix,
    solve_shifted,
)
from shortpath.hilbert import MatrixFreeOperator, OperatorSpec

from conftest import (
    DEGENERACY_BAND_TERMS,
    disjoint_pairs,
    field_unique_ground,
    hand_single_term,
    hand_triangle,
)


def _hs_op(inst, big_b, k, block=None):
    table = hilbert.evaluate_hz(inst)
    return MatrixFreeOperator(
        OperatorSpec("HS", big_b=big_b, k=k, parity_block=block), table)


def test_dense_spectrum_of_hand_instance():
    # H = diag(1,-1,-1,1) - (1/2) X_offdiag for N=2 single term, B=1, K=1
    res = dense_spectrum(_hs_op(hand_single_term(), 1.0, 1))
    mat = operator_matrix(_hs_op(hand_single_term(), 1.0, 1))
    assert np.allclose(mat, mat.T)
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(mat), atol=1e-12)
    assert np.all(res.residuals < 1e-10)


def test_dense_cap_enforced(monkeypatch):
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 2)
    with pytest.raises(EigensolveError, match="dense cap"):
        dense_spectrum(_hs_op(hand_single_term(), 1.0, 1))


def test_operator_matrix_enforces_dense_cap(monkeypatch):
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 8)
    op = _hs_op(field_unique_ground(4), 1.0, 1)
    with pytest.raises(EigensolveError, match="dense cap"):
        operator_matrix(op)
    # the cap is on 2^N: a parity block of 8 coordinates at N=4 is refused too
    block = _hs_op(field_unique_ground(4), 1.0, 2, "even")
    assert block.shape == (8, 8)
    with pytest.raises(EigensolveError, match="dimension 16 exceeds"):
        operator_matrix(block)
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 16)
    assert operator_matrix(block).shape == (8, 8)


@pytest.mark.parametrize("make, rel_b, k, block, want", [
    # triangle ground space is 6-fold degenerate
    pytest.param(hand_triangle, 0.0, 1, None, 7, id="triangle"),
    # even block of 5 ferromagnetic pairs: levels of multiplicity 1, 5 and 10
    pytest.param(lambda: disjoint_pairs(10), 0.1, 2, "even", 17, id="pairs10-even"),
])
def test_extreme_eigs_matches_dense_with_degeneracy(make, rel_b, k, block, want):
    # the iterative path must recover every copy of a degenerate level
    inst = make()
    e0 = hilbert.evaluate_hz(inst).e0
    op = _hs_op(inst, rel_b * abs(e0), k, block)
    it = extreme_eigs(op, want)
    mat = operator_matrix(op)
    expect = np.linalg.eigvalsh(mat)[:want]
    assert np.allclose(it.eigenvalues, expect, atol=1e-9)
    # recovered vectors are orthonormal
    g = it.eigenvectors.T @ it.eigenvectors
    assert np.allclose(g, np.eye(want), atol=1e-8)
    # each residual is ||M y - lambda y|| of its vector
    ys = it.eigenvectors
    dense = np.linalg.norm(mat @ ys - ys * it.eigenvalues, axis=0)
    assert np.allclose(it.residuals, dense, rtol=0, atol=1e-12)
    assert np.all(it.residuals < 1e-8)


def test_extreme_eigs_no_convergence_is_typed(monkeypatch, tmp_path, caplog):
    # a Lanczos run capped at one step falls back to ARPACK, which stalls
    def stalled(a, **kwargs):
        vec = np.ones((a.shape[0], 1)) / np.sqrt(a.shape[0])
        raise ArpackNoConvergence("no convergence", np.array([0.0]), vec)

    lanczos = eigensolve.lanczos_lowest
    monkeypatch.setattr(eigensolve, "lanczos_lowest",
                        lambda matvec, v0, norm, cap: lanczos(matvec, v0, norm, 1))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(EigensolveError, match="best residual"):
        extreme_eigs(_hs_op(hand_triangle(), 1.0, 1), 1)
    # the CLI reports it and exits 1 instead of raising
    inst = tmp_path / "inst.txt"
    instances.save_instance(instances.generate("sk_pm", 6, seed=1), str(inst))
    assert cli.main(["spectrum", "--in", str(inst), "--b", "0.1", "--K", "1"]) == 1
    assert "best residual" in caplog.text


def test_a_zero_operator_is_solved_by_exhausted_lanczos_runs(monkeypatch):
    # H_s at B = 0 of an instance whose terms cancel: each Lanczos run
    # exhausts its Krylov space within a few steps and ends on an exact pair,
    # with no dense solve at any dimension
    op = _hs_op(instances.build_instance(6, 2, [((0, 1), 1.0), ((0, 1), -1.0)]), 0.0, 1)

    def three_then_five():
        three = extreme_eigs(op, 3)
        five = extreme_eigs(op, 5, three)
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(five, name)[..., :3], getattr(three, name)), name
        return five

    five = three_then_five()
    # the stopping test's bound on the lifted map, |op| + 2 |op|
    bound = 4 * np.finfo(np.float64).eps * 3 * op.norm_bound()
    assert np.all(np.abs(five.eigenvalues) <= bound), five.eigenvalues
    assert np.all(five.residuals <= bound), five.residuals
    np.testing.assert_allclose(five.eigenvectors.T @ five.eigenvectors, np.eye(5),
                               rtol=0, atol=1e-12)
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 32)
    capped = three_then_five()
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(capped, name), getattr(five, name)), name


def test_exhausted_lanczos_runs_need_no_arpack(monkeypatch):
    # H_s at B = 0 is diagonal: a run's Krylov space holds one vector per
    # level its start touches, and is exhausted long before the run's cap.
    # The lowest level has 32 copies; an extension whose starts repeated the
    # first solve's would, in exact arithmetic, find no new copy in its
    # Krylov space
    op = _hs_op(disjoint_pairs(10), 0.0, 1)

    def refused(*args, **kwargs):
        raise AssertionError("an exhausted Lanczos run called ARPACK")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refused)
    want = dense_spectrum(op, want_vectors=False).eigenvalues[:3]
    for got in (extreme_eigs(op, 3), extreme_eigs(op, 3, extreme_eigs(op, 1))):
        np.testing.assert_allclose(got.eigenvalues, want, rtol=1e-12, atol=0)


def test_extreme_eigs_small_full_spectrum():
    # N=2, all 4 eigenpairs: the lowest pair's run exhausts its Krylov space,
    # the whole space, and one wide run takes the other 3
    op = _hs_op(hand_single_term(), 1.0, 1)
    it = extreme_eigs(op, 4)
    de = dense_spectrum(op)
    assert np.allclose(it.eigenvalues, de.eigenvalues, atol=1e-9)


@pytest.mark.parametrize("make, big_b, k, block", [
    pytest.param(lambda: instances.generate("sk_pm", 6, seed=1), 0.5, 2, "even",
                 id="sk_pm6-even"),
    # Q block diag(1, 1): a solver that keeps the zeroed ground rows returns 0
    pytest.param(hand_single_term, 1.0, 1, None, id="single-term"),
    # N=1, H_Z = Z: Q keeps basis state 0 alone, a Lanczos run of one step,
    # eigenvalue 1
    pytest.param(lambda: instances.build_instance(1, 1, [((0,), 1.0)]), 1.0, 1, None,
                 id="free-dim-1"),
    # the even block holds basis state 0 alone: an operator of shape (1, 1)
    pytest.param(lambda: instances.build_instance(1, 1, [((0,), 1.0)]), 1.0, 2, "even",
                 id="one-coordinate"),
])
def test_extreme_eigs_with_index_deflation(make, big_b, k, block):
    table = hilbert.evaluate_hz(make())
    ground = hilbert.ground_space(table)
    op = MatrixFreeOperator(
        OperatorSpec("QHSQ", big_b=big_b, k=k, parity_block=block),
        table, ground)
    # the kept basis states: the block's parity, less the ground states
    keep = np.ones(1 << table.n_qubits, dtype=bool)
    if block == "even":
        keep = np.bitwise_count(np.arange(keep.size)) % 2 == 0
    keep[ground.ground_indices] = False
    free_dim = int(keep.sum())
    # the free dimension is counted in coordinates, less the ground ones
    with pytest.raises(EigensolveError, match=f"deflated subspace has dimension {free_dim}"):
        extreme_eigs(op, free_dim + 1)
    want = min(free_dim, 2)
    it = extreme_eigs(op, want)
    # H_s on the whole space, cut down to the kept indices
    full = operator_matrix(
        MatrixFreeOperator(OperatorSpec("HS", big_b=big_b, k=k), table))
    sub = full[np.ix_(keep, keep)]
    np.testing.assert_allclose(it.eigenvalues, np.linalg.eigvalsh(sub)[:want],
                               rtol=0, atol=1e-9)


def test_extreme_eigs_rejects_oversized_requests():
    op = _hs_op(hand_single_term(), 1.0, 1)
    with pytest.raises(EigensolveError, match="deflated subspace"):
        extreme_eigs(op, 5)


def test_solve_shifted_against_dense_inverse():
    inst = instances.generate("sk_pm", 6, seed=4)
    table = hilbert.evaluate_hz(inst)
    ground = hilbert.ground_space(table)
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=0.6, k=1),
                            table, ground)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(64)
    rhs[ground.ground_indices] = 0.0
    shift = table.e0 - 0.5  # safely below the Q spectrum
    x = solve_shifted(op, shift, rhs)
    # entries of rhs on the ground coordinates (for K=1 the basis indices)
    # are ignored
    noisy = rhs.copy()
    noisy[ground.ground_indices] = 1.0
    assert np.array_equal(solve_shifted(op, shift, noisy), x)
    mat = operator_matrix(op)
    keep = np.ones(64, dtype=bool)
    keep[ground.ground_indices] = False
    sub = shift * np.eye(keep.sum()) - mat[np.ix_(keep, keep)]
    expect = np.linalg.solve(sub, rhs[keep])
    assert np.allclose(x[keep], expect, atol=1e-7 * np.linalg.norm(expect))
    assert np.array_equal(x[ground.ground_indices], np.zeros(ground.n0))


def test_solve_shifted_on_a_block_is_exactly_zero_on_its_ground_coordinates():
    # even block of 4 ferromagnetic pairs at K=2: all 16 ground states lie
    # in it, on 16 of its 128 coordinates, and rhs is ignored on them
    table = hilbert.evaluate_hz(disjoint_pairs(8))
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=0.5, k=2, parity_block="even"),
                            table, hilbert.ground_space(table))
    g = op.ground_coords
    assert op.shape == (128, 128) and g.size == 16
    rhs = np.random.default_rng(5).standard_normal(128)
    shift = table.e0 - 0.5
    x = solve_shifted(op, shift, rhs)
    assert np.array_equal(x[g], np.zeros(16))
    noisy = rhs.copy()
    noisy[g] = 1.0
    assert np.array_equal(solve_shifted(op, shift, noisy), x)
    keep = np.setdiff1d(np.arange(128), g)
    sub = shift * np.eye(keep.size) - operator_matrix(op)[np.ix_(keep, keep)]
    expect = np.linalg.solve(sub, rhs[keep])
    assert np.allclose(x[keep], expect, rtol=0, atol=1e-9 * np.linalg.norm(expect))


def test_solve_shifted_against_dense_solve_on_j0_plus_v():
    # the old phi_exact system: J0 + V, H_s with the ground diagonal raised
    # by zeta, solved at omega = E_{0,1} below its spectrum; as an operator
    # it is H_s on the table of the walk's energies E'_u
    inst = instances.generate("sk_pm", 8, seed=2)
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.2 * abs(table.e0), k=1))
    zeta_p = np.zeros(table.energies.size)
    zeta_p[a.ground.ground_indices] = bwpt.DEFAULT_ZETA
    op = MatrixFreeOperator(a.hs_spec, replace(table, energies=table.energies + zeta_p))
    mat = operator_matrix(a.operator(a.hs_spec)) + np.diag(zeta_p)
    np.testing.assert_allclose(operator_matrix(op), mat, rtol=0, atol=1e-12)
    omega = float(a.lowest(a.hs_spec, 1).eigenvalues[0])
    assert omega < np.linalg.eigvalsh(mat)[0]
    rhs = np.random.default_rng(3).standard_normal(op.shape[0])
    x = solve_shifted(op, omega, rhs)
    expect = np.linalg.solve(omega * np.eye(op.shape[0]) - mat, rhs)
    assert np.allclose(x, expect, rtol=0, atol=1e-9 * np.linalg.norm(expect))


@pytest.mark.parametrize("shift", [-5.0, -4.0, -3.2])
def test_solve_shifted_indefinite_shift_raises_or_certifies(shift):
    # B=4 pulls the lowest eigenvalue to -5.31 while every E_u on the support
    # is >= -3, so the diagonal check passes and op - shift is indefinite
    table = hilbert.evaluate_hz(instances.generate("sk_pm", 6, seed=4))
    ground = hilbert.ground_space(table)
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=4.0, k=1), table, ground)
    keep = np.ones(64, dtype=bool)
    keep[ground.ground_indices] = False
    mat = operator_matrix(op)[np.ix_(keep, keep)]
    vals = np.linalg.eigvalsh(mat)
    assert vals[0] < shift < table.energies[keep].min()
    assert np.min(np.abs(vals - shift)) > 0.1
    rng = np.random.default_rng(7)
    for _ in range(5):
        rhs = rng.standard_normal(64)
        try:
            x = solve_shifted(op, shift, rhs)
        except NearSingularShift:
            continue
        b, y = rhs[keep], x[keep]
        assert np.linalg.norm(shift * y - mat @ y - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_shifted_refuses_an_uncertified_iterate(monkeypatch):
    # an iteration stopped early leaves a true residual above 1e-10 |rhs|
    table = hilbert.evaluate_hz(instances.generate("sk_pm", 6, seed=4))
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=0.6, k=1),
                            table, hilbert.ground_space(table))
    monkeypatch.setattr(eigensolve, "_CG_REL_TOL", 1e-3)
    with pytest.raises(NearSingularShift, match="stagnated"):
        solve_shifted(op, table.e0 - 0.5, np.random.default_rng(5).standard_normal(64))


def test_solve_shifted_matvec_budget(monkeypatch):
    # preconditioned CG takes 10 products on this solve (MINRES took 16);
    # the bound leaves 50% headroom over 10
    table = hilbert.evaluate_hz(instances.generate("sk_pm", 6, seed=4))
    op = MatrixFreeOperator(OperatorSpec("QHSQ", big_b=0.6, k=1),
                            table, hilbert.ground_space(table))
    calls = []
    apply = MatrixFreeOperator.apply
    monkeypatch.setattr(MatrixFreeOperator, "apply",
                        lambda self, amps: calls.append(1) or apply(self, amps))
    solve_shifted(op, table.e0 - 0.5, np.random.default_rng(5).standard_normal(64))
    assert len(calls) <= 15


def test_solve_shifted_near_singular_reports_gap():
    op = _hs_op(hand_single_term(), 0.0, 1)
    # shift exactly on an eigenvalue with rhs overlapping the eigenvector:
    # the system is inconsistent and the solver must refuse
    with pytest.raises(NearSingularShift, match="distance"):
        solve_shifted(op, -1.0, np.ones(4))


def test_near_singular_shift_names_a_basis_index_of_a_block():
    # H_Z = Z0 + Z1 + Z2 has its minimum -3 at basis state 7, coordinate 3 of
    # the odd block; a shift there has a zero denominator
    inst = instances.build_instance(3, 1, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    op = _hs_op(inst, 0.0, 2, "odd")
    assert int(np.argmin(op.diagonal)) == 3
    with pytest.raises(NearSingularShift, match="at basis state 7,"):
        solve_shifted(op, -3.0, np.ones(4))


def test_block_lemma_hand_example():
    # A=[0], C=[1], B=[0.5]: eigenvalues (1 +- sqrt(2))/2
    rep = block_lemma_check(BlockMatrixInput(
        a_block=np.array([[0.0]]), b_block=np.array([[0.5]]),
        c_block=np.array([[1.0]])))
    assert rep.applicable and rep.all_pass
    assert rep.b_norm == 0.5
    assert rep.e_c_min == 1.0


def test_block_lemma_not_applicable_without_separation():
    rep = block_lemma_check(BlockMatrixInput(
        a_block=np.array([[1.0]]), b_block=np.array([[0.1]]),
        c_block=np.array([[0.5]])))
    assert not rep.applicable
    assert "E_C^min" in rep.reason


def test_block_lemma_requires_symmetry():
    with pytest.raises(EigensolveError, match="symmetric"):
        block_lemma_check(BlockMatrixInput(
            a_block=np.array([[0.0, 1.0], [0.0, 0.0]]),
            b_block=np.zeros((2, 1)), c_block=np.array([[5.0]])))


def test_block_lemma_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n0 = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        a = rng.standard_normal((n0, n0))
        a = 0.5 * (a + a.T)
        c = rng.standard_normal((m, m))
        c = 0.5 * (c + c.T)
        c += (3.0 + abs(np.linalg.eigvalsh(a)).max()
              - np.linalg.eigvalsh(c)[0]) * np.eye(m)
        b = 0.5 * rng.standard_normal((n0, m))
        rep = block_lemma_check(BlockMatrixInput(a, b, c))
        assert rep.applicable
        assert rep.all_pass, rep.items


def _record_runs(monkeypatch, tamper=None):
    """Record the pairs each solver run asks for: 1 for a Lanczos run, k for
    an eigsh run; `tamper(real, a, k, kwargs)` stands in for the eigsh runs
    with k > 1."""
    real = scipy.sparse.linalg.eigsh
    lanczos = eigensolve.lanczos_lowest
    ks = []

    def recorded(a, k, **kwargs):
        ks.append(k)
        if tamper is not None and k > 1:
            return tamper(real, a, k, kwargs)
        return real(a, k=k, **kwargs)

    def recorded_lanczos(*args):
        ks.append(1)
        return lanczos(*args)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    monkeypatch.setattr(eigensolve, "lanczos_lowest", recorded_lanczos)
    return ks


@pytest.mark.parametrize("model,n,seed,k", [
    ("sk_pm", 10, 0, 1), ("sk_gaussian", 10, 1, 1), ("sk_pm", 8, 2, 2),
    # 33 pairs: the 32 above the lowest come from one wide run
    ("pairs", 10, 0, 2)])
def test_memo_prefix_equals_a_fresh_solve(model, n, seed, k, monkeypatch):
    # D = 2 and N is even, so the block's spectrum is merged from one solve
    # per global-flip sector of 2^(M-1) coordinates.  The lowest pair served
    # from a larger solve is H_s's Perron ground state, in F = +1: it carries
    # the bits of a solve of that sector for that pair alone, residual
    # included, lifted to the block's coordinates
    inst = disjoint_pairs(n) if model == "pairs" else instances.generate(model, n, seed=seed)
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.1 * abs(table.e0), k=k))
    ks = _record_runs(monkeypatch)
    big = a.lowest(a.hs_spec, a.block_ground_coords.size + 1)
    if model == "pairs":
        # 17 pairs per sector: the 16 above the lowest come from one wide run
        assert ks == [1, 16, 1] * 2
    runs = len(ks)
    plus_spec = replace(a.hs_spec, flip_sector=1)
    plus = a.lowest(plus_spec, 1)
    one = a.lowest(a.hs_spec, 1)
    assert len(ks) == runs
    assert not one.eigenvalues.flags.writeable
    fresh = extreme_eigs(a.operator(plus_spec), 1)
    assert fresh.eigenvectors.shape == (a.block_dim // 2, 1)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(plus, name), getattr(fresh, name)), name
    assert np.array_equal(one.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(one.residuals, fresh.residuals)
    assert np.array_equal(one.eigenvectors, hilbert.flip_lift(fresh.eigenvectors, 1))


def _count_applies(monkeypatch):
    calls = []
    apply = MatrixFreeOperator.apply
    monkeypatch.setattr(MatrixFreeOperator, "apply",
                        lambda self, amps: calls.append(1) or apply(self, amps))
    return calls


def _pairs10(k, block):
    # 5 ferromagnetic pairs at b=0.1: levels of multiplicity 1, 5, 10, 10, 5, 1
    # below E0 + B, then the first excited level alone, so m = 33 cuts no level
    return _hs_op(disjoint_pairs(10), 0.1 * 5.0, k, block)


def _clusters(vals, tol=1e-8):
    """Index arrays of the runs of vals whose neighbours lie within tol."""
    return np.split(np.arange(vals.size), np.flatnonzero(np.diff(vals) > tol) + 1)


@pytest.mark.parametrize("k, block, budget", [
    pytest.param(2, "even", 500, id="K2-even-block"),
    pytest.param(3, None, 650, id="K3-full-space"),
])
def test_wide_run_agrees_with_one_run_per_pair(k, block, budget, monkeypatch):
    # the solve takes 321 and 422 products, 33 of them for the residuals,
    # against 998 and 1663 with one Lanczos run per pair; the bounds leave 50%
    # headroom
    op = _pairs10(k, block)
    calls = _count_applies(monkeypatch)
    ks = _record_runs(monkeypatch)
    wide = extreme_eigs(op, 33)
    assert ks == [1, 32, 1]
    assert len(calls) <= budget
    monkeypatch.setattr(eigensolve, "_BLOCK_MIN_PAIRS", 34)
    single = extreme_eigs(op, 33)
    assert ks[3:] == [1] * 33
    np.testing.assert_allclose(wide.eigenvalues, single.eigenvalues, rtol=1e-12, atol=0)
    assert np.all(wide.residuals < 1e-12)
    # the same eigenspace, level by level
    groups = _clusters(single.eigenvalues)
    assert [g.size for g in groups] == [1, 5, 10, 10, 5, 1, 1]
    for g in groups:
        pw = wide.eigenvectors[:, g] @ wide.eigenvectors[:, g].T
        ps = single.eigenvectors[:, g] @ single.eigenvectors[:, g].T
        assert np.abs(pw - ps).max() < 1e-8


def test_wide_basis_keeps_a_near_degenerate_level_cheap(monkeypatch):
    # sk_pm N=10 seed 5 at K=3 and b=0.05: two of the 7 lowest eigenvalues lie
    # 3.2e-7 apart.  The solve takes 604 products, and 640 with ARPACK's
    # lowest-pair run; with ARPACK's default basis of 2k + 1 vectors for the
    # wide run it took 50388, and one ARPACK run per pair 9154.  The bound
    # leaves 50% headroom over 640.
    inst = instances.generate("sk_pm", 10, seed=5)
    op = _hs_op(inst, 0.05 * abs(hilbert.evaluate_hz(inst).e0), 3)
    calls = _count_applies(monkeypatch)
    ks = _record_runs(monkeypatch)
    it = extreme_eigs(op, 7)
    assert ks == [1, 6, 1]
    assert len(calls) <= 960
    np.testing.assert_allclose(it.eigenvalues, dense_spectrum(op, False).eigenvalues[:7],
                               rtol=0, atol=1e-9)


def test_completeness_check_recovers_a_dropped_copy(monkeypatch):
    # the wide run returns its k lowest of k + 1 pairs less one copy of the
    # 5-fold level: the check finds that copy below the top pair and the
    # pairs are redone one run at a time
    def drop_a_copy(real, a, k, kwargs):
        vals, vecs = real(a, k=k + 1, **kwargs)
        assert np.allclose(vals[:5], vals[0], rtol=0, atol=1e-10)
        return np.delete(vals, 0), np.delete(vecs, 0, axis=1)

    op = _pairs10(2, "even")
    ks = _record_runs(monkeypatch, drop_a_copy)
    it = extreme_eigs(op, 33)
    assert ks == [1, 32, 1] + [1] * 32
    np.testing.assert_allclose(it.eigenvalues, dense_spectrum(op, False).eigenvalues[:33],
                               rtol=0, atol=1e-9)
    assert np.allclose(it.eigenvectors.T @ it.eigenvectors, np.eye(33), atol=1e-8)


def test_unconverged_wide_run_falls_back_to_one_run_per_pair(monkeypatch):
    def stalled(real, a, k, kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((a.shape[0], 0)))

    op = _pairs10(3, None)
    ks = _record_runs(monkeypatch, stalled)
    it = extreme_eigs(op, 33)
    assert ks == [1, 32] + [1] * 32
    np.testing.assert_allclose(it.eigenvalues, dense_spectrum(op, False).eigenvalues[:33],
                               rtol=0, atol=1e-9)


def test_wide_run_respects_the_byte_budget(monkeypatch):
    # the wide basis takes 128 * 512 * 8 bytes here; one byte less and every
    # run is for one eigenvalue
    op = _pairs10(2, "even")
    monkeypatch.setattr(eigensolve, "_BLOCK_BUDGET_BYTES", 128 * 512 * 8 - 1)
    ks = _record_runs(monkeypatch)
    it = extreme_eigs(op, 33)
    assert ks == [1] * 33
    np.testing.assert_allclose(it.eigenvalues, dense_spectrum(op, False).eigenvalues[:33],
                               rtol=0, atol=1e-9)
    monkeypatch.setattr(eigensolve, "_BLOCK_BUDGET_BYTES", 128 * 512 * 8)
    ks.clear()
    extreme_eigs(op, 33)
    assert ks == [1, 32, 1]


def test_three_pairs_or_fewer_run_one_at_a_time(monkeypatch):
    # a fresh solve of m <= 3 pairs (every solve of an n0 = 2 report) is the
    # per-pair path, run for run; the wide run starts at 3 pairs above the lowest
    op = _pairs10(2, "even")
    ks = _record_runs(monkeypatch)
    for m in (1, 2, 3):
        ks.clear()
        extreme_eigs(op, m)
        assert ks == [1] * m
    ks.clear()
    extreme_eigs(op, 4)
    assert ks == [1, 3, 1]
    # a resumed solve takes the wide run from 3 missing pairs on
    ks.clear()
    extreme_eigs(op, 4, extreme_eigs(op, 2))
    assert ks == [1, 1, 1, 1]
    ks.clear()
    extreme_eigs(op, 5, extreme_eigs(op, 2))
    assert ks == [1, 1, 3, 1]


def test_each_product_is_an_arpack_matvec_or_a_residual(monkeypatch):
    # perfbench divides the apply calls under extreme_eigs by the pairs it
    # returns: each call must be one product a Lanczos or ARPACK run asked
    # for, or the one residual product of a returned pair
    applies, matvecs = [], []
    apply = MatrixFreeOperator.apply
    monkeypatch.setattr(MatrixFreeOperator, "apply",
                        lambda self, amps: applies.append(1) or apply(self, amps))
    real = scipy.sparse.linalg.eigsh
    lanczos = eigensolve.lanczos_lowest

    def counted_matvec(matvec):
        return lambda y: matvecs.append(1) or matvec(y)

    def counted(a, k, **kwargs):
        return real(LinearOperator(a.shape, dtype=a.dtype, matvec=counted_matvec(a.matvec)),
                    k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    monkeypatch.setattr(eigensolve, "lanczos_lowest",
                        lambda matvec, *args: lanczos(counted_matvec(matvec), *args))
    op = _pairs10(2, "even")
    found = extreme_eigs(op, 2)
    # a fresh solve, whose first run has nothing to lift, and an extended one
    for prior, how_many, new in ((None, 4, 4), (found, 5, 3)):
        applies.clear()
        matvecs.clear()
        extreme_eigs(op, how_many, prior)
        assert matvecs
        assert len(applies) == len(matvecs) + new


def _record_lanczos(monkeypatch, cap=None):
    """Wrap the Lanczos hook, with its cap replaced by `cap` if given; the
    list it returns gets True for each run that converged."""
    lanczos = eigensolve.lanczos_lowest
    converged = []

    def recorded(matvec, v0, norm, run_cap):
        pair = lanczos(matvec, v0, norm, run_cap if cap is None else cap)
        converged.append(pair is not None)
        return pair

    monkeypatch.setattr(eigensolve, "lanczos_lowest", recorded)
    return converged


def _sector_ops(a):
    """H_s and QH_sQ in the analysis's block, each in its flip sectors."""
    return [a.operator(s) for spec in (a.hs_spec, a.qhsq_spec) for s in a._sectors(spec)]


def _dense_lowest(op):
    keep = np.setdiff1d(np.arange(op.shape[0]), op.ground_coords)
    return np.linalg.eigvalsh(operator_matrix(op)[np.ix_(keep, keep)])


def _assert_pairs_match(got, want):
    # eigenvalues to rounding, orthonormal vectors, true residuals of 1e-12 relative
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got.eigenvalues - want) <= 1e-12 * scale), got.eigenvalues - want
    m = want.size
    assert np.allclose(got.eigenvectors.T @ got.eigenvectors, np.eye(m), rtol=0, atol=1e-8)
    assert np.all(got.residuals <= 1e-12 * scale), got.residuals


@pytest.mark.parametrize("make, k", [
    *(pytest.param(lambda terms=terms: instances.build_instance(5, 2, terms), k,
                   id=f"{name}-K{k}")
      for name, terms in DEGENERACY_BAND_TERMS for k in (1, 2, 3, 27)),
    *(pytest.param(lambda: instances.generate("sk_pm", 11, seed=1), k, id=f"sk_pm11-K{k}")
      for k in (1, 2, 3, 27)),
    pytest.param(lambda: instances.generate("sk_pm", 12, seed=2), 2, id="sk_pm12-K2"),
])
def test_lanczos_pairs_match_the_dense_spectrum(make, k, monkeypatch):
    # three pairs of H_s and of QH_sQ per flip sector (both, where the flip
    # splits the block): a fresh run, then two runs on the lifted operator.
    # The band instances' ground bands are split at rounding level; on their
    # 8 to 32 coordinates a run may exhaust its Krylov space and end on its
    # exact pair, while at N = 11 and 12 every run converges before that
    a = _analysis(make, k, b=0.1)
    converged = _record_lanczos(monkeypatch)
    for op in _sector_ops(a):
        want = _dense_lowest(op)[:3]
        _assert_pairs_match(extreme_eigs(op, want.size), want)
    if a.table.n_qubits > 5:
        assert converged and all(converged)


def test_two_passes_give_the_bits_of_the_stored_basis(monkeypatch):
    # with room for 8 vectors, no run keeps its basis: a second pass remakes
    # it and sums the same Ritz vector.  A pair of j steps then takes j - 1
    # more products; the 3 residual products are the same
    a = _analysis(lambda: instances.generate("sk_pm", 11, seed=1), 3, b=0.1)
    op = a.operator(a._sectors(a.hs_spec)[0])
    calls = _count_applies(monkeypatch)
    converged = _record_lanczos(monkeypatch)
    stored = extreme_eigs(op, 3)
    products = len(calls)
    calls.clear()
    monkeypatch.setattr(eigensolve, "_BLOCK_BUDGET_BYTES", 8 * op.shape[0] * 8)
    two = extreme_eigs(op, 3)
    assert converged == [True] * 6
    assert len(calls) == 2 * (products - 3)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(two, name), getattr(stored, name)), name


def test_a_run_at_its_cap_falls_back_to_arpack(monkeypatch):
    # capped at 10 steps, no Lanczos run converges: ARPACK's run takes each
    # pair, which still meets the residual bound
    a = _analysis(lambda: instances.generate("sk_pm", 11, seed=1), 2, b=0.1)
    converged = _record_lanczos(monkeypatch, cap=10)
    real = scipy.sparse.linalg.eigsh
    ks = []
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda lifted, k, **kwargs:
                        ks.append(k) or real(lifted, k=k, **kwargs))
    for op in _sector_ops(a):
        want = _dense_lowest(op)[:2]
        converged.clear()
        ks.clear()
        _assert_pairs_match(extreme_eigs(op, 2), want)
        assert converged == [False, False] and ks == [1, 1]


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 1, id="sk_pm8-K1"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 2, id="sk_pm8-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 3, id="sk_pm8-K3"),
    pytest.param(lambda: disjoint_pairs(8), 2, id="pairs8-K2-block"),
    pytest.param(lambda: disjoint_pairs(8), 3, id="pairs8-K3"),
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 1, id="sk_pm9-K1"),
    pytest.param(hand_triangle, 1, id="triangle-K1"),
])
def test_merged_flip_sectors_match_the_dense_block_spectrum(make, k):
    # H_s in the block (and for even K in the other block) and QH_sQ, merged
    # from their two flip sectors, against the dense spectrum of the block
    # operator with QH_sQ's ground coordinates cut out: eigenvalues to 1e-12
    # relative, and the same projector on every eigenspace of the m lowest
    inst = make()
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.3 * abs(table.e0), k=k))
    assert a.psi_plus_spec.flip_sector == 1
    other = {"even": "odd", "odd": "even"}.get(a.block)
    specs = [a.hs_spec, a.qhsq_spec] + ([replace(a.hs_spec, parity_block=other)]
                                        if other else [])
    for spec in specs:
        op = a.operator(spec)
        keep = np.setdiff1d(np.arange(op.shape[0]), op.ground_coords)
        vals, vecs = np.linalg.eigh(operator_matrix(op)[np.ix_(keep, keep)])
        # the most pairs up to 8 past n0 that cut no level
        m = min(keep.size, a.block_ground_coords.size + 8)
        while m < keep.size and vals[m] - vals[m - 1] < 1e-6:
            m -= 1
        got = a.lowest(spec, m)
        np.testing.assert_allclose(got.eigenvalues, vals[:m], rtol=1e-12, atol=0)
        for grp in np.split(np.arange(m), np.flatnonzero(np.diff(vals[:m]) > 1e-8) + 1):
            u = got.eigenvectors[np.ix_(keep, grp)]
            w = vecs[:, grp]
            assert np.max(np.abs(u @ u.T - w @ w.T)) < 1e-8, (spec, grp)


@pytest.mark.parametrize("b", [0.3, 0.0])
@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 2, id="sk_pm8-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 3, id="sk_pm8-K3"),
    pytest.param(lambda: disjoint_pairs(8), 2, id="pairs8-K2-block"),
    pytest.param(lambda: disjoint_pairs(8), 3, id="pairs8-K3"),
    pytest.param(lambda: instances.generate("sk_pm", 10, seed=3), 2, id="sk_pm10-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 10, seed=3), 3, id="sk_pm10-K3"),
])
def test_a_lowest_pair_is_one_f_plus_solve(make, k, b, monkeypatch):
    # H_s and QH_sQ are stoquastic and commute with F, so a lowest level has
    # an F = +1 copy, at B = 0 too, where they are reducible: one pair is one
    # solve of the F = +1 sector, against the dense block with QH_sQ's ground
    # coordinates cut out
    inst = make()
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=b * abs(table.e0), k=k))
    calls = []
    solve = eigensolve.extreme_eigs
    monkeypatch.setattr(eigensolve, "extreme_eigs",
                        lambda op, m, *args: calls.append(op.spec) or solve(op, m, *args))
    for spec in (a.hs_spec, a.qhsq_spec):
        calls.clear()
        got = a.lowest(spec, 1)
        assert calls == [replace(spec, flip_sector=1)]
        op = a.operator(spec)
        keep = np.setdiff1d(np.arange(op.shape[0]), op.ground_coords)
        vals, vecs = np.linalg.eigh(operator_matrix(op)[np.ix_(keep, keep)])
        # pairs8's QH_sQ has lambda_min = 0 at B = 0: that one is to 1e-12 |E0|
        floor = 1e-12 * abs(table.e0) if vals[0] == 0 else 0.0
        assert got.eigenvalues[0] == pytest.approx(vals[0], rel=1e-12, abs=floor)
        w = np.zeros((op.shape[0], np.count_nonzero(vals - vals[0] <= 1e-8)))
        w[keep] = vecs[:, :w.shape[1]]
        v = got.eigenvectors[:, 0]
        assert v.shape == (op.shape[0],)
        assert np.linalg.norm(v - w @ (w.T @ v)) <= 1e-8, spec


def _hand_d3():
    return instances.build_instance(
        6, 3, [((0, 1, 2), 1.0), ((1, 3, 5), -2.0), ((2, 4, 5), 3.0), ((0, 3, 4), -1.0)])


@pytest.mark.parametrize("make, k", [
    pytest.param(_hand_d3, 1, id="D3-K1"),
    pytest.param(_hand_d3, 2, id="D3-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 2, id="oddN-K2-block"),
])
def test_odd_degree_and_odd_n_blocks_solve_the_block(make, k, monkeypatch):
    # F anticommutes with an odd-D H_Z, and for odd N it swaps the parity
    # blocks, so these spectra are the block's own solve, bit for bit
    inst = make()
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.3 * abs(table.e0), k=k))
    assert a.psi_plus_spec.flip_sector is None
    calls = []
    solve = eigensolve.extreme_eigs
    monkeypatch.setattr(eigensolve, "extreme_eigs",
                        lambda op, m, *args: calls.append(op.spec) or solve(op, m, *args))
    got = a.lowest(a.hs_spec, 3)
    assert np.isfinite(a.eq01)
    assert calls == [a.hs_spec, a.qhsq_spec]
    fresh = solve(a.operator(a.hs_spec), 3)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(got, name), getattr(fresh, name)), name


def _analysis(make, k, b=0.3):
    inst = make()
    table = hilbert.evaluate_hz(inst)
    return Analysis(inst, table, OperatorSpec("HS", big_b=b * abs(table.e0), k=k))


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 2, id="oddN-K2-block"),
    pytest.param(_hand_d3, 1, id="D3-K1"),
])
def test_a_spec_solved_as_itself_returns_views_of_its_memo(make, k):
    # no copy: a fancy-indexed copy of a column sums in another order than
    # the strided view the memo gives, which moves a report's last bits
    a = _analysis(make, k)
    three = a.lowest(a.hs_spec, 3)
    one = a.lowest(a.hs_spec, 1)
    memo = a._solved[a.hs_spec]
    for got in (one, three):
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.shares_memory(getattr(got, name), getattr(memo, name)), name
            assert not getattr(got, name).flags.writeable, name
    assert three.eigenvectors.shape == (a.block_dim, 3)


@pytest.mark.parametrize("how_many", [1, 4])
def test_a_merged_result_is_read_only_and_holds_no_memo_entry(how_many):
    # sk_pm N=8 at K=2: the even block of even N is answered by its two flip
    # sectors, and only the sectors that were solved are memoized
    a = _analysis(lambda: instances.generate("sk_pm", 8, seed=2), 2)
    got = a.lowest(a.hs_spec, how_many)
    assert got.eigenvectors.shape == (a.block_dim, how_many)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert not getattr(got, name).flags.writeable, name
    sectors = [replace(a.hs_spec, flip_sector=f) for f in (1, -1)]
    assert set(a._solved) == set(sectors[:1 if how_many == 1 else 2])


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 2, id="sectors-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 3, id="sectors-K3"),
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 2, id="oddN-K2-block"),
    pytest.param(_hand_d3, 1, id="D3-K1"),
])
def test_a_request_the_memo_answers_solves_and_builds_nothing(make, k, monkeypatch):
    a = _analysis(make, k)
    specs = (a.hs_spec, a.qhsq_spec)
    first = {spec: a.lowest(spec, 3) for spec in specs}
    solves, builds = [], []
    solve = eigensolve.extreme_eigs
    monkeypatch.setattr(eigensolve, "extreme_eigs",
                        lambda *args: solves.append(1) or solve(*args))
    init = MatrixFreeOperator.__init__
    monkeypatch.setattr(MatrixFreeOperator, "__init__",
                        lambda self, *args: builds.append(1) or init(self, *args))
    for spec in specs:
        for m in (3, 2, 1):
            got = a.lowest(spec, m)
            assert np.array_equal(got.eigenvalues, first[spec].eigenvalues[:m])
    assert solves == [] and builds == []


def _lanczos_tridiagonals(steps):
    """T_j's (alpha, beta) of one Lanczos run per sector operator of sk_pm
    N=10 at K=2, b=0.1, for j = 1..steps: the matrices the run checks."""
    a = _analysis(lambda: instances.generate("sk_pm", 10, seed=1), 2, b=0.1)
    out = []
    for op in _sector_ops(a):
        coefficients = eigensolve._Tridiagonal()
        v0 = np.random.default_rng(op.shape[0]).standard_normal(op.shape[0])
        v0[op.ground_coords] = 0.0
        for _q, _j in zip(eigensolve._lanczos_vectors(op.apply, v0, 0.0, coefficients),
                          range(steps + 1)):
            pass
        alpha, beta = coefficients.alpha, coefficients.beta
        out += [(alpha[:j].copy(), beta[:j - 1].copy()) for j in range(1, steps + 1)]
    return out


def _random_tridiagonals():
    rng = np.random.default_rng(34)
    out = [(rng.standard_normal(j), rng.standard_normal(j - 1)) for j in (1, 2, 5, 37, 200)]
    # a split matrix: beta = 0 cuts it into blocks, each bisected on its own
    alpha, beta = rng.standard_normal(40), rng.standard_normal(39)
    beta[[3, 17, 18, 30]] = 0.0
    return out + [(alpha, beta)]


@pytest.mark.parametrize("source", ["lanczos", "random"])
def test_ritz_check_is_eigh_tridiagonal_bit_for_bit(source):
    # the direct LAPACK calls must give the wrapper's theta and whole s
    # column: the stopping step and the Ritz vector depend on both
    from scipy.linalg import eigh_tridiagonal, get_lapack_funcs
    cases = _lanczos_tridiagonals(40) if source == "lanczos" else _random_tridiagonals()
    for alpha, beta in cases:
        stebz, stein = get_lapack_funcs(("stebz", "stein"), (alpha,))
        theta, s = eigensolve._lowest_ritz_pair(alpha, beta, stebz, stein)
        (want,), vectors = eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
        assert isinstance(theta, float) and theta == want, (alpha.size, theta - want)
        assert s.shape == (alpha.size,) and np.array_equal(s, vectors[:, 0]), alpha.size


@pytest.mark.parametrize("nan_in", ["alpha", "beta"])
def test_ritz_check_refuses_a_nan_coefficient(nan_in):
    # as eigh_tridiagonal did: a NaN from the recurrence is a ValueError,
    # not a Ritz pair
    from scipy.linalg import get_lapack_funcs
    alpha, beta = np.arange(5.0), np.ones(4)
    {"alpha": alpha, "beta": beta}[nan_in][2] = np.nan
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (alpha,))
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigensolve._lowest_ritz_pair(alpha, beta, stebz, stein)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigensolve._lowest_ritz_pair(np.array([np.nan]), np.zeros(0), stebz, stein)
