"""Eigenpairs and shifted linear solves for the matrix-free operators.

Both solvers work on the compressed free subspace: the operator's parity block
minus the deflated basis indices, reached by gather/scatter around op.apply.
extreme_eigs runs ARPACK (scipy's eigsh) for one eigenpair at a time and lifts
each converged vector out of the way before the next run, so every copy of a
degenerate level is found.  dense_spectrum is the independent oracle used by
the property tests.  block_lemma_check verifies the three block-matrix
eigenvalue/overlap facts used by the theorem pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, minres

from .hilbert import MatrixFreeOperator

DENSE_DIM_CAP = 1 << 13
_START_SEED = 0x5EED
_SHIFTED_REL_TOL = 1e-10


class EigensolveError(RuntimeError):
    pass


class NearSingularShift(EigensolveError):
    """Shift is too close to the (deflated) spectrum for a stable solve."""


@dataclass
class EigenResult:
    eigenvalues: np.ndarray          # ascending
    eigenvectors: np.ndarray | None  # columns, aligned with eigenvalues
    residuals: np.ndarray


def _compressed(op: MatrixFreeOperator, deflate_indices=None):
    """The kept basis indices (op's parity block minus the deflated indices)
    and op restricted to them as a LinearOperator."""
    keep = np.ones(op.dim, dtype=bool) if op.parity_mask is None else op.parity_mask.copy()
    if deflate_indices is not None:
        keep[np.asarray(deflate_indices, dtype=np.int64)] = False
    kept = np.flatnonzero(keep)

    def matvec(y):
        x = np.zeros(op.dim)
        x[kept] = y.ravel()
        return op.apply(x)[kept]

    return kept, LinearOperator((kept.size, kept.size), matvec=matvec, dtype=np.float64)


def operator_matrix(op: MatrixFreeOperator) -> np.ndarray:
    """Materialize the dense symmetric matrix of a matrix-free operator."""
    if op.dim > DENSE_DIM_CAP:
        raise EigensolveError(
            f"dimension {op.dim} exceeds the dense cap {DENSE_DIM_CAP}; "
            "use extreme_eigs for the low spectrum"
        )
    return op.apply(np.eye(op.dim))


def dense_spectrum(op_or_matrix, dim_cap: int = DENSE_DIM_CAP,
                   want_vectors: bool = True) -> EigenResult:
    """Full dense spectrum (oracle path).  Accepts a MatrixFreeOperator or an
    explicit symmetric matrix."""
    if isinstance(op_or_matrix, MatrixFreeOperator):
        mat = operator_matrix(op_or_matrix)
    else:
        mat = np.asarray(op_or_matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise EigensolveError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] > dim_cap:
        raise EigensolveError(f"dimension {mat.shape[0]} exceeds the dense cap {dim_cap}")
    if not want_vectors:
        vals = np.linalg.eigvalsh(mat)
        return EigenResult(vals, None, np.zeros_like(vals))
    vals, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenResult(vals, vecs, res)


def extreme_eigs(op: MatrixFreeOperator, how_many: int,
                 deflate_indices=None) -> EigenResult:
    """The `how_many` lowest eigenpairs of op restricted to its parity block
    minus the deflated basis indices.

    Each eigenpair is one ARPACK run for the lowest eigenvalue.  Before each
    run the vectors V found so far are lifted by 2*|op|*V V^T, above the rest
    of the spectrum, so the run converges to the next eigenpair, including
    another copy of a degenerate eigenvalue."""
    if how_many < 1:
        raise EigensolveError(f"how_many must be >= 1, got {how_many}")
    kept, a = _compressed(op, deflate_indices)
    free_dim = kept.size
    if how_many > free_dim:
        raise EigensolveError(
            f"requested {how_many} eigenpairs but the deflated subspace has "
            f"dimension {free_dim}"
        )
    if free_dim < 2:  # ARPACK needs k < n; here how_many == free_dim == 1
        vals, ys = np.linalg.eigh(a.matmat(np.eye(1)))
    else:
        rng = np.random.default_rng(_START_SEED)
        lift = 2.0 * op.norm_bound()
        ys = np.zeros((free_dim, 0))
        vals = np.zeros(0)
        # reads ys at call time, so each run sees every vector found before it
        lifted = LinearOperator(a.shape, dtype=np.float64,
                                matvec=lambda y: a.matvec(y) + lift * (ys @ (ys.T @ y)))
        for _ in range(how_many):
            try:
                lam, y = eigsh(lifted, k=1, which="SA", tol=0,
                               v0=rng.standard_normal(free_dim))
            except ArpackNoConvergence as exc:
                best = min((np.linalg.norm(lifted.matvec(v) - mu * v)
                            for mu, v in zip(exc.eigenvalues, exc.eigenvectors.T)),
                           default=np.inf)
                raise EigensolveError(
                    f"ARPACK failed to converge on eigenpair {vals.size + 1} of "
                    f"{how_many}; best residual {best:.3e}; dense_spectrum "
                    f"covers dimensions up to {DENSE_DIM_CAP}") from exc
            vals = np.append(vals, lam)
            ys = np.column_stack([ys, y])
    order = np.argsort(vals, kind="stable")
    vals, ys = vals[order], ys[:, order]
    vecs = np.zeros((op.dim, how_many))
    vecs[kept] = ys
    residuals = np.linalg.norm(a.matmat(ys) - ys * vals, axis=0)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs, residuals=residuals)


def solve_shifted(op: MatrixFreeOperator, shift: float, rhs: np.ndarray,
                  deflate_indices=None) -> np.ndarray:
    """Solve (shift - op) x = rhs on op's parity block minus the deflated
    basis indices.

    Minimum-residual Krylov solve; the returned x is zero outside that
    subspace and satisfies ||(shift - op)x - rhs|| <= 1e-10 * ||rhs|| on it.
    """
    kept, a = _compressed(op, deflate_indices)
    b = np.asarray(rhs, dtype=np.float64)[kept]
    out = np.zeros(op.dim)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return out

    lin = LinearOperator(a.shape, matvec=lambda y: shift * y - a.matvec(y),
                         dtype=np.float64)
    x = np.zeros_like(b)
    maxiter = max(4 * b.size, 200)
    for _attempt in range(3):
        r = b - lin.matvec(x)
        if np.linalg.norm(r) <= _SHIFTED_REL_TOL * bnorm:
            break
        dx, _info = minres(lin, r, rtol=1e-13, maxiter=maxiter)
        x = x + dx
    else:
        r = b - lin.matvec(x)
        if np.linalg.norm(r) > _SHIFTED_REL_TOL * bnorm:
            xn = np.linalg.norm(x)
            gap_estimate = np.linalg.norm(lin.matvec(x / xn)) if xn > 0 else 0.0
            raise NearSingularShift(
                f"shifted solve stagnated at relative residual "
                f"{np.linalg.norm(r) / bnorm:.3e}; estimated distance from the "
                f"shift to the deflated spectrum ~ {gap_estimate:.3e}"
            )
    out[kept] = x
    return out


@dataclass
class LemmaGenReport:
    """Verification record for the three block-matrix facts."""

    applicable: bool
    e_a_min: float
    e_a_max: float
    e_c_min: float
    b_norm: float
    items: list  # (name, passed, margin)
    reason: str | None = None

    @property
    def all_pass(self) -> bool:
        return self.applicable and all(p for _, p, _ in self.items)


@dataclass(frozen=True)
class BlockMatrixInput:
    a_block: np.ndarray  # n0 x n0 symmetric
    b_block: np.ndarray  # n0 x m
    c_block: np.ndarray  # m x m symmetric


def block_lemma_check(inp: BlockMatrixInput) -> LemmaGenReport:
    """Assemble H = [[A, B], [B^T, C]], diagonalize densely, and check the
    three separation facts (band counting, 2x2 lower bound, low-band overlap
    with the upper block)."""
    a = np.asarray(inp.a_block, dtype=np.float64)
    b = np.asarray(inp.b_block, dtype=np.float64)
    c = np.asarray(inp.c_block, dtype=np.float64)
    for name, m in (("a_block", a), ("c_block", c)):
        if np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
            raise EigensolveError(f"{name} is not symmetric to 1e-12")
    n0 = a.shape[0]
    m_dim = c.shape[0]
    if b.shape != (n0, m_dim):
        raise EigensolveError(f"b_block shape {b.shape} inconsistent with ({n0}, {m_dim})")

    ea = np.linalg.eigvalsh(a)
    ec = np.linalg.eigvalsh(c)
    e_a_min, e_a_max = float(ea[0]), float(ea[-1])
    e_c_min = float(ec[0])
    b_norm = float(np.linalg.norm(b, 2)) if b.size else 0.0

    if e_c_min <= e_a_max:
        return LemmaGenReport(
            applicable=False, e_a_min=e_a_min, e_a_max=e_a_max, e_c_min=e_c_min,
            b_norm=b_norm, items=[],
            reason=f"E_C^min={e_c_min} does not exceed E_A^max={e_a_max}",
        )

    h = np.block([[a, b], [b.T, c]])
    vals, vecs = np.linalg.eigh(h)

    # item 1: exactly n0 eigenvalues at or below E_A^max, the rest at or above E_C^min
    low, high = vals[:n0], vals[n0:]
    margin1 = min(
        e_a_max - float(low.max()),
        float(high.min()) - e_c_min if high.size else np.inf,
    )
    item1 = ("band_counting", bool(margin1 >= -1e-10), float(margin1))

    # item 2: lambda_min(H) >= lambda_min([[E_A^min, |B|], [|B|, E_C^min]])
    #         >= E_A^min - |B|^2 / (E_C^min - E_A^min)
    two = np.array([[e_a_min, b_norm], [b_norm, e_c_min]])
    two_min = float(np.linalg.eigvalsh(two)[0])
    closed = e_a_min - b_norm**2 / (e_c_min - e_a_min)
    margin2 = min(float(vals[0]) - two_min, two_min - closed)
    item2 = ("two_by_two_bound", bool(margin2 >= -1e-10), float(margin2))

    # item 3: every unit psi in the low band has <psi|P|psi> >= 1 - |B|^2 / sep^2
    # (the Davis-Kahan-style bound |(1-P)psi| <= |B|/sep, squared)
    sep = e_c_min - e_a_max
    bound3 = 1.0 - (b_norm / sep) ** 2
    u = vecs[:, :n0]
    gram = u[:n0, :].T @ u[:n0, :]  # <psi|P|psi> over the low band = min eig of this
    min_overlap = float(np.linalg.eigvalsh(gram)[0])
    margin3 = min_overlap - bound3
    item3 = ("low_band_overlap", bool(margin3 >= -1e-10), float(margin3))

    return LemmaGenReport(
        applicable=True, e_a_min=e_a_min, e_a_max=e_a_max, e_c_min=e_c_min,
        b_norm=b_norm, items=[item1, item2, item3],
    )
