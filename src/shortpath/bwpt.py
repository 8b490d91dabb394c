"""Modified Brillouin-Wigner machinery for H_s = H_Z - sB(X/N)^K.

The effective Hamiltonian h(omega) acts on the ground space of H_Z; its
geometric series is resummed into one excited-subspace linear solve per ground
index.  The eigenvector series phi uses the shifted reference J_0 = H_Z +
zeta*P, which removes the excited-space projector from the series and lets the
series be re-expressed as a random walk with strictly positive weights.  The
walk moves on the parity block's coordinates, and its weights 1/(E'_u - omega)
read the diagonal of J_0 + V, H_s's with zeta added on the ground coordinates.
The exact resummation is the H_s eigenvector xi0 + (omega - QH_sQ)^{-1} QV xi0,
rescaled: one more solve with h(omega)'s QH_sQ operator, no J_0 + V operator.

Every function takes a `context.Analysis`, which supplies the table, the
ground space, the parity block and the spectra: omega = E_{0,1} with
psi_{0,1}, and E^Q_{0,1}, are the Analysis's lowest pairs, shared with
`analyze`.  h(omega) and phi are worked in psi_+'s space, `psi_plus_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, eigensolve
from .context import Analysis
from .context import choose_parity_block  # noqa: F401  (stays importable from bwpt)
from .hilbert import basis_indices, psi_plus_overlap

DEFAULT_ZETA = 0.5
_WALK_CUTOFF = 1e-16  # relative size of the last walk term kept


class BwptError(RuntimeError):
    pass


@dataclass
class BwContext:
    """Self-consistent effective-Hamiltonian data at the Analysis's field.

    xi0 is h(omega)'s positive unit ground vector, lifted to the Analysis's
    block ground coordinates.
    """

    zeta: float
    omega: float
    xi0: np.ndarray
    fixed_point_residual: float


@dataclass
class OverlapReport:
    inner_psi_plus_phi: float
    inner_psi_plus_gs: float
    xi0_l1: float
    phi_norm: float
    analytic_bound: float
    log2_overlap_margin: float


@dataclass
class WalkEstimate:
    series_estimate: float
    std_error: float
    t_truncation: int
    samples: int
    seed: int


def effective_hamiltonian(analysis: Analysis, omega: float) -> np.ndarray:
    """h(omega) over psi_+'s ground coordinates at the Analysis's field B,
    geometric series resummed: h = E0*I + M1 + M2 with M2 from one Q-subspace
    solve per column.  With flip sectors it is the block's h on F = +1.

    omega must lie strictly below E^Q_{0,1}, the lowest eigenvalue of Q H_s Q.
    """
    table, spec = analysis.table, analysis.spec
    eq0 = analysis.eq01
    if not omega < eq0:
        raise BwptError(
            f"omega={omega} is not below the Q-restricted spectrum (E^Q={eq0})"
        )
    qhsq = analysis.operator(replace(analysis.psi_plus_spec, kind="QHSQ"))
    idx = qhsq.ground_coords
    h = table.e0 * np.eye(idx.size)
    if spec.big_b == 0.0:
        return h
    xk = analysis.operator(analysis.psi_plus_spec).xk

    for col, u in enumerate(idx):
        e_u = np.zeros(qhsq.shape[0])
        e_u[u] = 1.0
        v_u = -spec.big_b * xk(e_u)  # V = -B (X/N)^K
        h[:, col] += v_u[idx]
        # the solve ignores v_u on the ground coordinates, so Q v_u is implied
        x_u = eigensolve.solve_shifted(qhsq, omega, v_u)
        h[:, col] += (-spec.big_b * xk(x_u))[idx]
    asym = np.max(np.abs(h - h.T), initial=0.0)
    if asym > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise BwptError(f"effective Hamiltonian asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (h + h.T)


def solve_self_consistent(analysis: Analysis, zeta: float = DEFAULT_ZETA) -> BwContext:
    """Set omega = E_{0,1} (lowest eigenvalue of H_s, block-restricted for even
    K), build h(omega), and extract its positive ground vector, lifted to
    the block's ground coordinates as xi0.

    Certifies that the zeta-shifted series converges, i.e. that J0 + V - omega
    is positive definite, by omega < lambda_0(h(omega)) + zeta; raises
    BwptError otherwise, so phi_exact and walk_estimate never see a divergent
    series.
    """
    if not math.isfinite(zeta):
        raise BwptError(f"--zeta {zeta} is not finite; use a finite, positive --zeta")
    table = analysis.table
    omega = float(analysis.lowest(analysis.hs_spec, 1).eigenvalues[0])
    h = effective_hamiltonian(analysis, omega)

    if np.max(np.abs(h - table.e0 * np.eye(h.shape[0]))) <= 1e-12 * max(1.0, abs(table.e0)):
        # V contributes nothing (B = 0): any positive unit vector is a valid
        # ground vector of h; tie-break to the uniform one.
        vals, vecs = [table.e0], np.ones((h.shape[0], 1))
    else:
        vals, vecs = np.linalg.eigh(h)
    xi0 = analysis.lift(vecs[:, 0])
    lam = float(vals[0])
    if xi0.sum() < 0:
        xi0 = -xi0
    if np.min(xi0) < -1e-10:
        raise BwptError(
            f"h(omega)'s lowest vector is not non-negative: xi0's most negative "
            f"entry is {np.min(xi0):.3e}"
        )
    xi0 = np.clip(xi0, 0.0, None)
    xi0 /= np.linalg.norm(xi0)
    # Q(J0 + V)Q = QH_sQ lies above omega, so by Haynsworth inertia additivity J0 + V - omega
    # is positive definite iff h + zeta - omega is; never for zeta <= 0, as then <= H_s - omega
    if not (zeta > 0 and omega < lam + zeta - 1e-12):
        raise BwptError(
            f"omega={omega} is not below lambda_0(h(omega)) + zeta = {lam + zeta}: "
            f"the series does not converge at zeta={zeta}; use a larger, positive --zeta"
        )
    return BwContext(
        zeta=zeta, omega=omega, xi0=xi0, fixed_point_residual=abs(lam - omega),
    )


def phi_exact(ctx: BwContext, analysis: Analysis) -> tuple[np.ndarray, OverlapReport]:
    """Resum the phi series exactly: phi solves (omega - J0 - V) phi =
    (omega - E0 - zeta) xi0.  At h(omega)'s fixed point xi0, psi = xi0 +
    R(omega) Q V xi0, R(omega) = (omega - Q H_s Q)^{-1}, is the H_s eigenvector
    at omega (Loewdin partitioning), so (omega - J0 - V) psi = -zeta xi0 and
    phi = ((E0 + zeta - omega)/zeta) psi: one solve with h(omega)'s QH_sQ
    operator, at the omega < E^Q and zeta > 0 solve_self_consistent certified.
    Verifies that phi is the H_s eigenvector at omega and fills the overlap
    report.  phi is returned in the block's coordinates.
    """
    table, spec = analysis.table, analysis.spec
    n = table.n_qubits
    hs = analysis.operator(analysis.psi_plus_spec)
    qhsq = analysis.operator(replace(analysis.psi_plus_spec, kind="QHSQ"))
    g = qhsq.ground_coords
    xi0 = np.zeros(hs.shape[0])
    xi0[g] = analysis.restrict(ctx.xi0)
    # the solve ignores V xi0 on the ground coordinates, so Q V xi0 is implied
    phi = eigensolve.solve_shifted(qhsq, ctx.omega, -spec.big_b * hs.xk(xi0))
    phi[g] = xi0[g]
    phi *= (table.e0 + ctx.zeta - ctx.omega) / ctx.zeta

    phi_norm = float(np.linalg.norm(phi))
    eig_residual = float(np.linalg.norm(hs.apply(phi) - ctx.omega * phi))
    if not eig_residual <= 1e-8 * phi_norm:  # NaN fails too
        raise BwptError(
            f"phi is not an H_s eigenvector: residual {eig_residual:.3e} "
            f"exceeds 1e-8 * |phi|"
        )
    # a contiguous copy: the memo may hold more pairs, and BLAS sums a
    # strided column in another order
    psi01 = analysis.lowest(analysis.hs_spec, 1).eigenvectors[:, 0].copy()
    if psi01.sum() < 0:
        psi01 = -psi01
    phi = analysis.lift(phi)
    align = float(phi @ psi01) / phi_norm
    if not align >= 1 - 1e-8:
        raise BwptError(f"phi does not align with the H_s ground state ({align})")

    inner_phi = float(psi_plus_overlap(phi, n))
    inner_gs = float(psi_plus_overlap(psi01, n))
    try:  # 2^(-N/2) exp(BN / (2DK|E0|)), which needs E0 < 0; exp may overflow
        bound = (2.0 ** (-n / 2.0) * math.exp(bounds.overlap_exponent(
            n, analysis.instance.degree, spec.k, spec.big_b, table.e0))
            if table.e0 < 0 else float("nan"))
    except OverflowError:
        bound = math.inf
    report = OverlapReport(
        inner_psi_plus_phi=inner_phi,
        inner_psi_plus_gs=inner_gs,
        xi0_l1=float(ctx.xi0.sum()),
        phi_norm=phi_norm,
        analytic_bound=bound,
        log2_overlap_margin=math.log2(inner_phi) + n / 2.0 if inner_phi > 0 else float("-inf"),
    )
    return phi, report


def walk_estimate(ctx: BwContext, analysis: Analysis, samples: int,
                  seed: int) -> WalkEstimate:
    """Monte-Carlo estimate of the walk series sum_t B^t E[prod 1/(E'_u - E_{0,1})].

    The walk runs on the block's coordinates (basis indices for odd K).
    Start states are drawn proportional to the xi0 entries; each macro-step is
    K independent uniformly random spin flips (the same spin may repeat), and
    a flip of qubit N-1 keeps a block coordinate, as in (X/N)^K.  E'_u is J0 +
    V's diagonal, H_s's plus zeta on the ground.  One length-t_max walk per
    sample estimates every truncation level via partial products, stopped
    once the next term falls below _WALK_CUTOFF of the running sum.
    """
    if samples < 1:
        raise BwptError("samples must be >= 1")
    instance, table, spec = analysis.instance, analysis.table, analysis.spec
    if spec.big_b == 0.0:
        return WalkEstimate(series_estimate=1.0, std_error=0.0, t_truncation=0,
                            samples=samples, seed=seed)
    n = table.n_qubits
    if table.e0 >= 0:
        raise BwptError("walk truncation bound requires E0 < 0")
    t_max = 10 * math.ceil(
        bounds.overlap_exponent(n, instance.degree, spec.k, spec.big_b, table.e0)) + 100

    rng = np.random.default_rng(seed)
    probs = ctx.xi0 / ctx.xi0.sum()
    states = rng.choice(analysis.block_ground_coords, size=samples, p=probs)
    coord_mask = analysis.block_dim - 1
    e_prime = analysis.operator(analysis.hs_spec).diagonal.copy()  # J0 + V's
    e_prime[analysis.block_ground_coords] += ctx.zeta

    partial = np.ones(samples)  # B^t prod 1/(E'_u - omega): B^t alone overflows
    totals = np.ones(samples)  # t = 0 term
    for t in range(1, t_max + 1):
        flips = rng.integers(0, n, size=(spec.k, samples))
        for row in flips:
            states ^= (1 << row) & coord_mask
        denom = e_prime[states] - ctx.omega
        if np.any(denom <= 0.0):
            bad = int(basis_indices(states[np.argmin(denom)], n, analysis.block))
            raise BwptError(
                f"non-positive walk denominator at basis state {bad}: "
                "omega lies above E'_u for a visited state"
            )
        partial *= spec.big_b / denom
        totals += partial
        if float(partial.max()) < _WALK_CUTOFF * float(totals.mean()):
            break
    estimate = float(totals.mean())
    std_error = (
        float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    )
    return WalkEstimate(series_estimate=estimate, std_error=std_error,
                        t_truncation=t, samples=samples, seed=seed)
