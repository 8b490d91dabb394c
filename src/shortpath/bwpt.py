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
ground space, the parity block and the spectra: omega = E_{0,1}, psi_{0,1}
and E^Q_{0,1} are the Analysis's memoized solves, shared with `analyze`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, eigensolve
from .context import Analysis
from .context import choose_parity_block  # noqa: F401  (stays importable from bwpt)
from .hilbert import basis_indices, flip_lift, psi_plus_overlap

DEFAULT_ZETA = 0.5
_WALK_CUTOFF = 1e-16  # relative size of the last walk term kept


class BwptError(RuntimeError):
    pass


@dataclass
class BwContext:
    """Self-consistent effective-Hamiltonian data at the Analysis's field.

    xi0 is the positive unit ground vector of h(omega) over the Analysis's
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
    """h(omega) over the block ground coordinates at the Analysis's field B,
    geometric series resummed: h = E0*I + M1 + M2 with M2 from one Q-subspace
    solve per column.  With flip sectors the global flip F reverses the
    block's coordinates and commutes with Q H_s Q and V, so the ground states
    come in pairs u, 2^M - 1 - u, the first and last of the sorted
    coordinates inward; only the first half is solved, and each column of the
    second half is its partner's column reversed.

    omega must lie strictly below E^Q_{0,1}, the lowest eigenvalue of Q H_s Q.
    """
    table, spec = analysis.table, analysis.spec
    eq0 = analysis.eq01
    if not omega < eq0:
        raise BwptError(
            f"omega={omega} is not below the Q-restricted spectrum (E^Q={eq0})"
        )
    idx = analysis.block_ground_coords
    n = idx.size
    h = table.e0 * np.eye(n)
    if spec.big_b == 0.0:
        return h
    qhsq = analysis.operator(analysis.qhsq_spec)
    xk = analysis.operator(analysis.hs_spec).xk

    half = n // 2 if analysis.flip_sectors else n
    for col, u in enumerate(idx[:half]):
        e_u = np.zeros(analysis.block_dim)
        e_u[u] = 1.0
        v_u = -spec.big_b * xk(e_u)  # V = -B (X/N)^K
        h[:, col] += v_u[idx]
        # the solve ignores v_u on the ground coordinates, so Q v_u is implied
        x_u = eigensolve.solve_shifted(qhsq, omega, v_u)
        h[:, col] += (-spec.big_b * xk(x_u))[idx]
    if half < n:  # x and v of 2^M - 1 - u are those of u reversed
        h[:, half:] = h[::-1, :half][:, ::-1]
    asym = np.max(np.abs(h - h.T), initial=0.0)
    if asym > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise BwptError(f"effective Hamiltonian asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (h + h.T)


def solve_self_consistent(analysis: Analysis, zeta: float = DEFAULT_ZETA) -> BwContext:
    """Set omega = E_{0,1} (lowest eigenvalue of H_s, block-restricted for even
    K), build h(omega), and extract the positive ground vector xi0.  With flip
    sectors xi0 comes from h's F = +1 block, where psi_+ lies: a global-flip
    pair of h's lowest level keeps one copy there.

    Certifies that the zeta-shifted series converges, i.e. that J0 + V - omega
    is positive definite, by omega < lambda_0(h(omega)) + zeta; raises
    BwptError otherwise, so phi_exact and walk_estimate never see a divergent
    series.
    """
    table = analysis.table
    n0_eff = analysis.block_ground_coords.size
    omega = float(analysis.lowest(analysis.hs_spec, 1).eigenvalues[0])
    h = effective_hamiltonian(analysis, omega)

    scale = max(1.0, abs(table.e0))
    if np.max(np.abs(h - table.e0 * np.eye(n0_eff))) <= 1e-12 * scale:
        # V contributes nothing (B = 0): any positive unit vector is a valid
        # ground vector of h; tie-break to the uniform one.
        xi0 = np.full(n0_eff, n0_eff**-0.5)
        lam = table.e0
    else:
        if analysis.flip_sectors:
            lift = flip_lift(np.eye(n0_eff // 2), 1)
            vals, vecs = np.linalg.eigh(lift.T @ h @ lift)
            xi0 = flip_lift(vecs[:, 0], 1)
        else:
            vals, vecs = np.linalg.eigh(h)
            xi0 = vecs[:, 0]
        lam = float(vals[0])
        if xi0.sum() < 0:
            xi0 = -xi0
        if np.min(xi0) < -1e-10:
            raise BwptError(
                "ground vector of h has mixed signs after the global flip; "
                "the even-K parity block was probably not applied"
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
    report.  phi is in the block's coordinates.
    """
    table, spec = analysis.table, analysis.spec
    n = table.n_qubits
    hs = analysis.operator(analysis.hs_spec)
    g = analysis.block_ground_coords
    xi0 = np.zeros(analysis.block_dim)
    xi0[g] = ctx.xi0
    # the solve ignores V xi0 on the ground coordinates, so Q V xi0 is implied
    phi = eigensolve.solve_shifted(analysis.operator(analysis.qhsq_spec), ctx.omega,
                                   -spec.big_b * hs.xk(xi0))
    phi[g] = ctx.xi0
    phi *= (table.e0 + ctx.zeta - ctx.omega) / ctx.zeta

    phi_norm = float(np.linalg.norm(phi))
    eig_residual = float(np.linalg.norm(hs.apply(phi) - ctx.omega * phi))
    if eig_residual > 1e-8 * phi_norm:
        raise BwptError(
            f"phi is not an H_s eigenvector: residual {eig_residual:.3e} "
            f"exceeds 1e-8 * |phi|"
        )
    # a contiguous copy: the memo may hold more pairs, and BLAS sums a
    # strided column in another order.  With flip sectors psi_{0,1} is the
    # F = +1 sector's lowest, where psi_+ and xi0 lie: the merged lowest pair
    # can be its F = -1 copy when the two are split at rounding level
    if analysis.flip_sectors:
        plus = analysis.lowest(replace(analysis.hs_spec, flip_sector=1), 1)
        psi01 = flip_lift(plus.eigenvectors[:, 0], 1)
    else:
        psi01 = np.ascontiguousarray(analysis.lowest(analysis.hs_spec, 1).eigenvectors[:, 0])
    if psi01.sum() < 0:
        psi01 = -psi01
    align = float(phi @ psi01) / phi_norm
    if align < 1 - 1e-8:
        raise BwptError(f"phi does not align with the H_s ground state ({align})")

    inner_phi = float(psi_plus_overlap(phi, n))
    inner_gs = float(psi_plus_overlap(psi01, n))
    d = analysis.instance.degree
    report = OverlapReport(
        inner_psi_plus_phi=inner_phi,
        inner_psi_plus_gs=inner_gs,
        xi0_l1=float(ctx.xi0.sum()),
        phi_norm=phi_norm,
        analytic_bound=(
            2.0 ** (-n / 2.0)
            * math.exp(bounds.overlap_exponent(n, d, spec.k, spec.big_b, table.e0))
            if table.e0 < 0 else float("nan")
        ),
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
    e0 = table.e0
    if e0 >= 0:
        raise BwptError("walk truncation bound requires E0 < 0")
    t_max = 10 * math.ceil(
        bounds.overlap_exponent(n, instance.degree, spec.k, spec.big_b, e0)) + 100

    rng = np.random.default_rng(seed)
    probs = ctx.xi0 / ctx.xi0.sum()
    states = rng.choice(analysis.block_ground_coords, size=samples, p=probs)
    coord_mask = analysis.block_dim - 1
    e_prime = analysis.operator(analysis.hs_spec).diagonal.copy()  # J0 + V's
    e_prime[analysis.block_ground_coords] += ctx.zeta

    partial = np.ones(samples)
    totals = np.ones(samples)  # t = 0 term
    b_pow = 1.0
    t_used = 0
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
        partial /= denom
        b_pow *= spec.big_b
        totals += b_pow * partial
        t_used = t
        running = float(totals.mean())
        if b_pow * float(partial.max()) < _WALK_CUTOFF * running:
            break
    estimate = float(totals.mean())
    std_error = (
        float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    )
    return WalkEstimate(series_estimate=estimate, std_error=std_error,
                        t_truncation=t_used, samples=samples, seed=seed)
