"""Eigenpairs and shifted linear solves for the matrix-free operators.

Both solvers work on the operator's 2^M coordinates and speak those
coordinates to their callers: eigenvectors, right-hand sides and solutions are
never expanded to 2^N.  Each product with the operator is one call of its
`apply`, looked up at call time, so a wrapper of MatrixFreeOperator.apply sees
every product.

extreme_eigs runs Krylov solvers from seeded start vectors with the converged
vectors lifted out of the way, so every copy of a degenerate level is found.
The lowest pair has a run of its own.  When at least 3 pairs remain and a wide
Krylov basis for them fits a byte budget, one ARPACK run finds them all and
one more checks that nothing below them was missed (scipy's eigsh, seeded for
its restarts too; Lehoucq, Sorensen and Yang, ARPACK Users' Guide, 1998).
Otherwise, or when the wide run raises an ArpackError or the check fails,
each pair is one run of plain Lanczos (lanczos_lowest), whose own work per
step is a few vector operations where ARPACK's is several passes over its
basis.  A run whose Krylov space is exhausted ends on an exact pair; only a
run that reaches its step cap is one ARPACK run instead.  scipy is imported
by the first solve, not with this module, so a command that solves no
eigenproblem never loads it.

solve_shifted solves (shift - op) x = rhs for a shift below the spectrum of
op, where op - shift is positive definite, by conjugate gradients (Hestenes
and Stiefel, 1952) preconditioned with 1/(E'_u - shift), the denominators of
the walk series; every solve is certified by its true residual.
dense_spectrum is the independent oracle used by the property tests.
block_lemma_check verifies the three block-matrix eigenvalue/overlap facts
used by the theorem pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hilbert import MatrixFreeOperator, basis_indices

DENSE_DIM_CAP = 1 << 13
_START_SEED = 0x5EED
_BLOCK_MIN_PAIRS = 3           # pairs left at which one wide run takes them all
_NCV_FLOOR = 60                # Krylov basis: max(60, 4 * pairs) wide, 60 to check
_BLOCK_BUDGET_BYTES = 1 << 27  # limit of the wide basis and of a kept Lanczos basis
_CHECK_TOL = 1e-8              # ARPACK tolerance of the completeness check
_CHECK_SLACK = 1e-9            # its room below the top pair, relative to max(1, |top|)
_RITZ_TOL = 4                  # lanczos_lowest stops at beta |s| <= 4 eps |map|
_RITZ_CHECK_STEPS = 5          # and checks T_j every 5 steps (see there)
_SHIFTED_REL_TOL = 1e-10  # certified true residual of solve_shifted
_CG_REL_TOL = 1e-13       # recurrence residual at which its iteration stops


class EigensolveError(RuntimeError):
    pass


class NearSingularShift(EigensolveError):
    """Shift is too close to the spectrum of op for a stable solve."""


@dataclass
class EigenResult:
    eigenvalues: np.ndarray          # ascending
    eigenvectors: np.ndarray | None  # columns, aligned with eigenvalues
    residuals: np.ndarray


def operator_matrix(op: MatrixFreeOperator) -> np.ndarray:
    """Materialize the dense symmetric matrix of a matrix-free operator in its
    coordinates.  The cap is on 2^N, whether or not op is a parity block."""
    if (1 << op.n_qubits) > DENSE_DIM_CAP:
        raise EigensolveError(
            f"dimension {1 << op.n_qubits} exceeds the dense cap {DENSE_DIM_CAP}; "
            "use extreme_eigs for the low spectrum"
        )
    return op.apply(np.eye(op.shape[0]))


def dense_spectrum(op: MatrixFreeOperator, want_vectors: bool = True) -> EigenResult:
    """Full dense spectrum of op in its coordinates (oracle path)."""
    mat = operator_matrix(op)
    if not want_vectors:
        vals = np.linalg.eigvalsh(mat)
        return EigenResult(vals, None, np.zeros_like(vals))
    vals, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenResult(vals, vecs, res)


def extreme_eigs(op: MatrixFreeOperator, how_many: int,
                 found: EigenResult | None = None) -> EigenResult:
    """The `how_many` lowest eigenpairs of op, excluding the eigenvalues
    QHSQ puts on its ground coordinates.

    Every run works on op lifted by 2*|op|*V V^T, V the vectors found so
    far, which moves them above the rest of the spectrum; so each run
    converges to the next eigenpairs, further copies of a degenerate
    eigenvalue included.  A fresh solve finds its lowest pair in a run of its
    own, so every prefix of a larger solve starts with the bits of a one-pair
    solve.  When at least 3 pairs remain and an ARPACK basis of
    max(60, 4 * pairs) vectors fits the byte budget, one ARPACK run finds
    them all, and a run for one more eigenvalue checks that none lies below
    the highest of them; if one does, or either run raises an ArpackError,
    its pairs are dropped.  Each pair still missing is then a Lanczos run of
    its own, capped at op's free dimension, the most steps that exact
    arithmetic needs; a run that reaches the cap is ARPACK's one-pair run
    instead.  The eigenvalue is the Ritz value, and the residual is that of
    the returned vector.  `found`, an earlier result for op with fewer pairs,
    is extended rather than redone: its pairs come first, bit for bit, and
    only the missing ones are solved, from start vectors seeded by the
    number of pairs in `found`."""
    if how_many < 1:
        raise EigensolveError(f"how_many must be >= 1, got {how_many}")
    dim = op.shape[0]
    free_dim = dim - op.ground_coords.size
    if how_many > free_dim:
        raise EigensolveError(
            f"requested {how_many} eigenpairs but the deflated subspace has "
            f"dimension {free_dim}"
        )
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh
    if found is None:
        found = EigenResult(np.zeros(0), np.zeros((dim, 0)), np.zeros(0))
    known = found.eigenvalues.size
    # an extension draws from a stream of its own: on a zero or diagonal op a
    # found vector is its start's part on one level, so a start drawn again
    # would hold no further copy of that level
    rng = np.random.default_rng(_START_SEED + known)
    norm = op.norm_bound()
    lift = 2.0 * norm
    ys = found.eigenvectors
    vals = np.zeros(0)

    def lifted_matvec(y):
        # reads ys at call time, so each run sees every vector found before it.
        # With one vector, numpy takes ys.T @ y as the dot product col @ y and
        # ys @ c entry by entry as 0 + col * c, so col * (col @ y) has the
        # values of the two matmuls, a zero's sign aside, in a third of the time
        out = op.apply(y)
        if ys.shape[1] == 1:
            col = ys[:, 0]
            part = col * float(col @ y)
        elif ys.shape[1]:
            part = ys @ (ys.T @ y)
        else:
            return out
        part *= lift
        out += part
        return out

    def start():
        v0 = rng.standard_normal(dim)
        v0[op.ground_coords] = 0.0  # keeps the Krylov space off their eigenvalue
        return v0

    def run(k, tol, ncv=None):
        lifted = LinearOperator(op.shape, dtype=np.float64, matvec=lifted_matvec)
        return eigsh(lifted, k=k, which="SA", tol=tol, ncv=ncv, v0=start(), rng=rng)

    def one_at_a_time(count):
        nonlocal vals, ys
        for _ in range(count):
            # the lifted map's bound: its products round on that scale
            bound = norm + lift if ys.shape[1] else norm
            pair = lanczos_lowest(lifted_matvec, start(), bound, free_dim)
            if pair is None:  # the cap: one ARPACK run
                try:
                    pair = run(1, tol=0)
                except ArpackNoConvergence as exc:
                    best = min((np.linalg.norm(lifted_matvec(v) - mu * v)
                                for mu, v in zip(exc.eigenvalues, exc.eigenvectors.T)),
                               default=np.inf)
                    raise EigensolveError(
                        f"ARPACK failed to converge on eigenpair {ys.shape[1] + 1} of "
                        f"{how_many}; best residual {best:.3e}; dense_spectrum "
                        f"covers dimensions up to {DENSE_DIM_CAP}") from exc
            vals = np.append(vals, pair[0])
            ys = np.column_stack([ys, pair[1]])

    if known == 0:
        one_at_a_time(1)
    need = how_many - ys.shape[1]
    ncv = min(dim, max(_NCV_FLOOR, 4 * need))
    if need >= _BLOCK_MIN_PAIRS and ncv * dim * 8 <= _BLOCK_BUDGET_BYTES:
        before = vals, ys
        try:
            lam, y = run(need, tol=0, ncv=ncv)
            vals, ys = np.append(vals, lam), np.hstack([ys, y])
            top = float(vals.max())
            # the lowest Ritz value of op lifted past every pair found
            (nxt,), _ = run(1, tol=_CHECK_TOL, ncv=min(dim, _NCV_FLOOR))
            complete = nxt >= top - _CHECK_SLACK * max(1.0, abs(top))
        except ArpackError:  # no convergence, or a zero operator's exhausted range
            complete = False
        if not complete:
            vals, ys = before
    one_at_a_time(how_many - ys.shape[1])
    order = np.argsort(vals, kind="stable")
    vals, ys = vals[order], ys[:, known:][:, order]
    # one norm per vector, so a pair's residual does not depend on how_many
    residuals = np.array([np.linalg.norm(op.apply(y) - lam * y)
                          for lam, y in zip(vals, ys.T)])
    return EigenResult(eigenvalues=np.concatenate([found.eigenvalues, vals]),
                       eigenvectors=np.hstack([found.eigenvectors, ys]),
                       residuals=np.concatenate([found.residuals, residuals]))


def _lanczos_vectors(matvec, q: np.ndarray, tol: float, alpha: np.ndarray,
                     beta: np.ndarray, j: int = 0, q_prev: np.ndarray | None = None,
                     b: float = 0.0):
    """Yield q_j, q_{j+1}, ... of the plain Lanczos recurrence for the symmetric
    map `matvec`, with no reorthogonalization, from q = q_j, q_prev = q_{j-1}
    and b = beta_j (None and 0 for the unit start q_0).  The product that
    makes q_{j+1} runs when it is asked for and writes alpha_j and beta_{j+1}
    at index j of `alpha` and `beta`; where beta <= tol, the Krylov space
    being exhausted, None is yielded in place of q_{j+1} and the vectors end.
    Both passes of lanczos_lowest run this one recurrence, so the second
    remakes the first's vectors bit for bit.  Each step works in place on the
    new array `matvec` returns, which becomes q_{j+1}, and on one scratch
    vector, in the operation order of w - a q - b q_prev, with
    norm(w) = sqrt(w . w)."""
    scratch = np.empty_like(q)
    while True:
        yield q
        w = matvec(q)
        a = float(q @ w)
        w -= np.multiply(a, q, out=scratch)
        if q_prev is not None:
            w -= np.multiply(b, q_prev, out=scratch)
        b = math.sqrt(float(w @ w))
        alpha[j], beta[j] = a, b
        if b <= tol:
            yield None
            return
        q_prev, q, j = q, np.divide(w, b, out=w), j + 1


def _lowest_ritz_pair(alpha: np.ndarray, beta: np.ndarray,
                      stebz, stein) -> tuple[float, np.ndarray]:
    """The lowest eigenpair (theta, s) of the symmetric tridiagonal matrix
    with diagonal alpha and off-diagonal beta, bit for bit what
    scipy.linalg.eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
    returns, as theta and its column: the same two LAPACK calls, bisection
    (dstebz, range "I" with il = iu = 1, abstol 0, block order) and inverse
    iteration (dstein), with its 1 x 1 quick exit, its ValueError on a
    non-finite entry and its LinAlgError on a nonzero info, but none of its
    other argument checks.  stebz and stein are LAPACK's float64 routines."""
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("array must not contain infs or NaNs")
    if alpha.size == 1:
        return float(alpha[0]), np.ones(1)
    m, w, iblock, isplit, info = stebz(alpha, beta, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info:
        raise np.linalg.LinAlgError(f"stebz did not converge (LAPACK info={info})")
    s, info = stein(alpha, beta, w[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"stein: {info} eigenvectors failed to converge")
    return float(w[0]), s[:, 0]


def lanczos_lowest(matvec, v0: np.ndarray, norm: float,
                   cap: int) -> tuple[float, np.ndarray] | None:
    """The lowest Ritz pair (theta, y) of the symmetric map `matvec`, with
    |matvec| <= norm, by plain Lanczos from v0 (Lanczos, J. Res. Nat. Bur.
    Standards 45, 1950): one `matvec` per step.  It stops at the first lowest
    Ritz pair (theta, s) of T_j with beta_{j+1} |s_j| <= 4 eps norm, before
    lost orthogonality makes ghost copies of it (Paige, Linear Algebra Appl.
    34, 1980).  The factor: 1, ARPACK's tol=0, stagnated on QH_sQ sectors at
    N = 12 and 14, taking 280 to 750 products where ARPACK took 21 to 191;
    2 still took 180 against 111 on one of them; 4 stagnated on none of 34
    sector solves at N = 10 to 16, and on 5 of 554 runs at N = 9 to 14 with
    K up to 27, all on 256 coordinates.  T_j's lowest pair is checked every 5
    steps: a check (_lowest_ritz_pair, O(j): LAPACK's bisection and inverse
    iteration, called directly on T_j's coefficient arrays) took 12, 31 and
    71 us at j = 20, 60 and 120, half a product to three and a half at 2^10
    coordinates (21 us, QH_sQ on a flip sector of sk_pm N=12, one BLAS
    thread on a shared 2-vCPU VM), and a late stop costs at most 4 products.

    The basis is kept while (steps + 1) vectors fit _BLOCK_BUDGET_BYTES, and
    y = sum_j s_j q_j is summed from it.  A longer run keeps the vectors that
    fit, and a second pass restarts the recurrence from the last two of them
    and their beta, so it remakes only the q_j past the budget, and sums y as
    they come (Cullum and Willoughby, Lanczos Algorithms for Large Symmetric
    Eigenvalue Computations, 1985).  Both sum in the same order, so they give
    the same bits.  When beta falls to the tolerance first, the Krylov space
    of v0 is invariant and T_j's Ritz pairs are exact (Paige 1980; Parlett,
    The Symmetric Eigenvalue Problem, 1980): the lowest one is returned,
    having passed the stopping test, as for a zero operator or a diagonal
    one.  None only when `cap` steps pass without convergence."""
    from scipy.linalg import get_lapack_funcs  # not at module import, as for ARPACK
    # T_j's coefficients: a run writes at most `cap` of each, and np.empty
    # commits a page only when it is written
    alpha, beta = np.empty(cap), np.empty(cap)
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (alpha,))
    tol = _RITZ_TOL * np.finfo(np.float64).eps * norm
    rows: list[np.ndarray] = []  # the recurrence's own vectors, not copies
    max_rows = _BLOCK_BUDGET_BYTES // v0.nbytes
    # q is None after the last vector: beta fell to the tolerance, so T_j's pair is exact
    for steps, q in enumerate(_lanczos_vectors(matvec, v0 / np.linalg.norm(v0), tol,
                                               alpha, beta)):
        if q is None or steps and (steps % _RITZ_CHECK_STEPS == 0 or steps == cap):
            theta, s = _lowest_ritz_pair(alpha[:steps], beta[:steps - 1], stebz, stein)
            if q is None or beta[steps - 1] * abs(s[-1]) <= tol:
                break
        if steps == cap:
            return None
        if len(rows) < max_rows:
            rows.append(q)
    basis = rows
    if len(rows) < steps:  # the second pass resumes from q_{r-1}, q_{r-2} and beta_{r-1}
        r = len(rows)
        # it rewrites alpha and beta from index r - 1 with the values they hold
        tail = _lanczos_vectors(matvec, rows[-1] if r else v0 / np.linalg.norm(v0), tol,
                                alpha, beta, max(r - 1, 0), rows[-2] if r > 1 else None,
                                beta[r - 2] if r > 1 else 0.0)
        basis = chain(rows[:-1], tail)
    y, scratch = np.zeros_like(v0), np.empty_like(v0)
    for s_j, q in zip(s, basis):
        y += np.multiply(s_j, q, out=scratch)
    y /= math.sqrt(float(y @ y))
    return theta, y


def solve_shifted(op: MatrixFreeOperator, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (shift - op) x = rhs in op's coordinates; rhs entries on QHSQ's
    ground coordinates are ignored, and x is exactly zero there.

    The shift must lie below the spectrum of op, so that op - shift is
    positive definite: conjugate gradients then solve (op - shift) x = -rhs,
    preconditioned by 1/(E'_u - shift) with E'_u op's diagonal (the
    denominators of the walk series); op is an HS or QHSQ operator.  The
    iteration stops at a recurrence residual of 1e-13 * ||rhs||.  The
    returned x satisfies ||(shift - op)x - rhs|| <= 1e-10 * ||rhs|| off the
    ground coordinates; a shift that breaks the precondition, or a solve that
    misses the bound, raises NearSingularShift.
    """
    b = -np.asarray(rhs, dtype=np.float64)
    b[op.ground_coords] = 0.0
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)

    denom = op.diagonal - shift
    worst = int(np.argmin(denom))
    if not denom[worst] > 0.0:
        # e_u^T (op - shift) e_u <= E'_u - shift, as (X/N)^K has a
        # non-negative diagonal
        u = int(basis_indices(np.int64(worst), op.n_qubits, op.spec.parity_block))
        raise NearSingularShift(
            f"shift {shift} is not below the spectrum of op: at basis "
            f"state {u}, E'_u - shift = {denom[worst]:.3e} "
            f"bounds the signed distance lambda_min - shift from above"
        )
    precond = 1.0 / denom

    # the products and updates below work in place on two scratch vectors,
    # in the operation order of (op - shift) y, x + alpha p, r - alpha ap,
    # z + beta p and norm(r) = sqrt(r . r), so they give the same bits
    scratch, z = np.empty_like(b), np.empty_like(b)

    def shifted(y: np.ndarray) -> np.ndarray:
        out = op.apply(y)
        out -= np.multiply(shift, y, out=scratch)
        return out

    x = np.zeros_like(b)
    r = b.copy()
    p = precond * r
    rz = float(r @ p)
    for _ in range(max(4 * b.size, 200)):
        ap = shifted(p)
        pap = float(p @ ap)
        if not pap > 0.0:
            raise NearSingularShift(
                f"shift {shift} is not below the spectrum of op: a "
                f"search direction has Rayleigh quotient {pap / float(p @ p):.3e}, "
                f"which bounds the signed distance lambda_min - shift from above"
            )
        alpha = rz / pap
        x += np.multiply(alpha, p, out=scratch)
        ap *= alpha
        r -= ap
        if math.sqrt(float(r @ r)) <= _CG_REL_TOL * bnorm:
            break
        np.multiply(precond, r, out=z)
        rz, rz_old = float(r @ z), rz
        p *= rz / rz_old
        p += z

    true_res = np.linalg.norm(b - shifted(x))
    if true_res > _SHIFTED_REL_TOL * bnorm:
        xn = np.linalg.norm(x)
        gap_estimate = np.linalg.norm(shifted(x / xn)) if xn > 0 else 0.0
        raise NearSingularShift(
            f"shifted solve stagnated at relative residual "
            f"{true_res / bnorm:.3e}; estimated distance from the "
            f"shift to the deflated spectrum ~ {gap_estimate:.3e}"
        )
    return x


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
