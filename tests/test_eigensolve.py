"""Eigensolvers (iterative vs dense oracle), shifted solves, block lemma."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from shortpath import cli, eigensolve, hilbert, instances
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

from conftest import disjoint_pairs, field_unique_ground, hand_single_term, hand_triangle


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
    # each residual is ||M y - lambda y|| of its vector on the support
    ys = it.eigenvectors[op.support]
    dense = np.linalg.norm(mat @ ys - ys * it.eigenvalues, axis=0)
    assert np.allclose(it.residuals, dense, rtol=0, atol=1e-12)
    assert np.all(it.residuals < 1e-8)


def test_extreme_eigs_no_convergence_is_typed(monkeypatch, tmp_path, caplog):
    def stalled(a, **kwargs):
        vec = np.ones((a.shape[0], 1)) / np.sqrt(a.shape[0])
        raise ArpackNoConvergence("no convergence", np.array([0.0]), vec)

    monkeypatch.setattr(eigensolve, "eigsh", stalled)
    with pytest.raises(EigensolveError, match="best residual"):
        extreme_eigs(_hs_op(hand_triangle(), 1.0, 1), 1)
    # the CLI reports it and exits 1 instead of raising
    inst = tmp_path / "inst.txt"
    instances.save_instance(instances.generate("sk_pm", 6, seed=1), str(inst))
    assert cli.main(["spectrum", "--in", str(inst), "--b", "0.1", "--K", "1"]) == 1
    assert "best residual" in caplog.text


def test_extreme_eigs_small_full_spectrum():
    # N=2: requesting all 4 eigenpairs exercises the krylov-exhaustion path
    op = _hs_op(hand_single_term(), 1.0, 1)
    it = extreme_eigs(op, 4)
    de = dense_spectrum(op)
    assert np.allclose(it.eigenvalues, de.eigenvalues, atol=1e-9)


@pytest.mark.parametrize("make, big_b, k, block", [
    pytest.param(lambda: instances.generate("sk_pm", 6, seed=1), 0.5, 2, "even",
                 id="sk_pm6-even"),
    # Q block diag(1, 1): a solver that keeps the zeroed ground rows returns 0
    pytest.param(hand_single_term, 1.0, 1, None, id="single-term"),
    # N=1, H_Z = Z: Q keeps basis state 0 alone, the dense eigh path, eigenvalue 1
    pytest.param(lambda: instances.build_instance(1, 1, [((0,), 1.0)]), 1.0, 1, None,
                 id="free-dim-1"),
])
def test_extreme_eigs_with_index_deflation(make, big_b, k, block):
    table = hilbert.evaluate_hz(make())
    ground = hilbert.ground_space(table)
    op = MatrixFreeOperator(
        OperatorSpec("QHSQ", big_b=big_b, k=k, parity_block=block),
        table, ground)
    it = extreme_eigs(op, 1)
    keep = np.ones(op.dim, dtype=bool)
    if block == "even":
        keep, _ = hilbert.parity_masks(table.n_qubits)
    keep[ground.ground_indices] = False
    assert np.array_equal(op.support, np.flatnonzero(keep))
    # H_s on the whole space, cut down to the kept indices
    full = operator_matrix(
        MatrixFreeOperator(OperatorSpec("HS", big_b=big_b, k=k), table))
    sub = full[np.ix_(keep, keep)]
    assert it.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(sub)[0], abs=1e-9)


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
    # entries of rhs on the ground indices lie outside the support: ignored
    noisy = rhs.copy()
    noisy[ground.ground_indices] = 1.0
    assert np.array_equal(solve_shifted(op, shift, noisy), x)
    mat = operator_matrix(op)
    keep = np.ones(64, dtype=bool)
    keep[ground.ground_indices] = False
    assert np.array_equal(op.support, np.flatnonzero(keep))
    sub = shift * np.eye(keep.sum()) - mat
    expect = np.linalg.solve(sub, rhs[keep])
    assert np.allclose(x[keep], expect, atol=1e-7 * np.linalg.norm(expect))
    assert np.allclose(x[ground.ground_indices], 0.0)


def test_solve_shifted_near_singular_reports_gap():
    op = _hs_op(hand_single_term(), 0.0, 1)
    # shift exactly on an eigenvalue with rhs overlapping the eigenvector:
    # the system is inconsistent and the solver must refuse
    with pytest.raises(NearSingularShift, match="distance"):
        solve_shifted(op, -1.0, np.ones(4))


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


@pytest.mark.parametrize("model,n,seed,k", [
    ("sk_pm", 10, 0, 1), ("sk_gaussian", 10, 1, 1), ("sk_pm", 8, 2, 2)])
def test_memo_prefix_equals_a_fresh_solve(model, n, seed, k):
    # the lowest pair served from a larger solve carries the same bits as a
    # solve for that pair alone, residual included
    inst = instances.generate(model, n, seed=seed)
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.1 * abs(table.e0), k=k))
    big = a.lowest(a.hs_spec, a.block_ground_indices.size + 1)
    one = a.lowest(a.hs_spec, 1)
    assert np.shares_memory(one.eigenvectors, big.eigenvectors)
    assert not one.eigenvalues.flags.writeable
    fresh = extreme_eigs(a.operator(a.hs_spec), 1)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(one, name), getattr(fresh, name)), name
