"""Eigenpairs and shifted linear solves for the matrix-free operators.

Both solvers use the operator as the LinearOperator it is on op.support and
speak 2^N vectors to their callers: eigenvectors are scattered back from the
support, and a right-hand side is read on it.  extreme_eigs runs ARPACK
(scipy's eigsh, seeded for its restarts too) for one eigenpair at a time and
lifts each converged vector out of the way before the next run, so every copy
of a degenerate level is found.  dense_spectrum is the independent oracle used
by the property tests.  block_lemma_check verifies the three block-matrix
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
    """Shift is too close to the spectrum on op.support for a stable solve."""


@dataclass
class EigenResult:
    eigenvalues: np.ndarray          # ascending
    eigenvectors: np.ndarray | None  # columns, aligned with eigenvalues
    residuals: np.ndarray


def operator_matrix(op: MatrixFreeOperator) -> np.ndarray:
    """Materialize the dense symmetric matrix of a matrix-free operator on its support."""
    if op.dim > DENSE_DIM_CAP:  # 2^N, the rows of the scatter buffer
        raise EigensolveError(
            f"dimension {op.dim} exceeds the dense cap {DENSE_DIM_CAP}; "
            "use extreme_eigs for the low spectrum"
        )
    return op.matmat(np.eye(op.shape[0]))


def dense_spectrum(op: MatrixFreeOperator, want_vectors: bool = True) -> EigenResult:
    """Full dense spectrum of op on its support (oracle path)."""
    mat = operator_matrix(op)
    if not want_vectors:
        vals = np.linalg.eigvalsh(mat)
        return EigenResult(vals, None, np.zeros_like(vals))
    vals, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenResult(vals, vecs, res)


def extreme_eigs(op: MatrixFreeOperator, how_many: int,
                 found: EigenResult | None = None) -> EigenResult:
    """The `how_many` lowest eigenpairs of op restricted to op.support.

    Each eigenpair is one ARPACK run for the lowest eigenvalue.  Before each
    run the vectors V found so far are lifted by 2*|op|*V V^T, above the rest
    of the spectrum, so the run converges to the next eigenpair, including
    another copy of a degenerate eigenvalue.  `found`, an earlier result for
    op with fewer pairs, is extended rather than redone: its pairs come first,
    bit for bit, and only the missing ones are run."""
    if how_many < 1:
        raise EigensolveError(f"how_many must be >= 1, got {how_many}")
    free_dim = op.shape[0]
    if how_many > free_dim:
        raise EigensolveError(
            f"requested {how_many} eigenpairs but the deflated subspace has "
            f"dimension {free_dim}"
        )
    if found is None:
        found = EigenResult(np.zeros(0), np.zeros((op.dim, 0)), np.zeros(0))
    known = found.eigenvalues.size
    if free_dim < 2:  # ARPACK needs k < n; here how_many == free_dim == 1
        vals, ys = np.linalg.eigh(op.matmat(np.eye(1)))
    else:
        rng = np.random.default_rng(_START_SEED)
        lift = 2.0 * op.norm_bound()
        ys = found.eigenvectors[op.support]
        vals = np.zeros(0)
        # reads ys at call time, so each run sees every vector found before it
        lifted = LinearOperator(op.shape, dtype=np.float64,
                                matvec=lambda y: op.matvec(y) + lift * (ys @ (ys.T @ y)))
        for _ in range(how_many - known):
            try:
                lam, y = eigsh(lifted, k=1, which="SA", tol=0,
                               v0=rng.standard_normal(free_dim), rng=rng)
            except ArpackNoConvergence as exc:
                best = min((np.linalg.norm(lifted.matvec(v) - mu * v)
                            for mu, v in zip(exc.eigenvalues, exc.eigenvectors.T)),
                           default=np.inf)
                raise EigensolveError(
                    f"ARPACK failed to converge on eigenpair {ys.shape[1] + 1} of "
                    f"{how_many}; best residual {best:.3e}; dense_spectrum "
                    f"covers dimensions up to {DENSE_DIM_CAP}") from exc
            vals = np.append(vals, lam)
            ys = np.column_stack([ys, y])
        ys = ys[:, known:]
    order = np.argsort(vals, kind="stable")
    vals, ys = vals[order], ys[:, order]
    vecs = np.zeros((op.dim, vals.size))
    vecs[op.support] = ys
    # one norm per vector, so a pair's residual does not depend on how_many
    residuals = np.array([np.linalg.norm(op.matvec(y) - lam * y)
                          for lam, y in zip(vals, ys.T)])
    return EigenResult(eigenvalues=np.concatenate([found.eigenvalues, vals]),
                       eigenvectors=np.hstack([found.eigenvectors, vecs]),
                       residuals=np.concatenate([found.residuals, residuals]))


def solve_shifted(op: MatrixFreeOperator, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (shift - op) x = rhs on op.support; rhs entries outside the
    support are ignored.

    Minimum-residual Krylov solve; the returned x is zero outside the
    support and satisfies ||(shift - op)x - rhs|| <= 1e-10 * ||rhs|| on it.
    """
    b = np.asarray(rhs, dtype=np.float64)[op.support]
    out = np.zeros(op.dim)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return out

    lin = LinearOperator(op.shape, matvec=lambda y: shift * y - op.matvec(y),
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
    out[op.support] = x
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
