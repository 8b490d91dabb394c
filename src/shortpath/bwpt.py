"""Modified Brillouin-Wigner machinery for H_s = H_Z - sB(X/N)^K.

The effective Hamiltonian h(omega, s) acts on the ground space of H_Z; its
geometric series is resummed into one excited-subspace linear solve per ground
index.  The eigenvector series phi uses the shifted reference J_0 = H_Z +
zeta*P, which removes the excited-space projector from the series and lets the
series be re-expressed as a random walk with strictly positive weights.

Every function takes a `context.Analysis`, which supplies the table, the
ground space, the parity block and the spectra: omega = E_{0,1}, psi_{0,1}
and E^Q_{0,1} are the Analysis's memoized solves, shared with `analyze`.  The
one eigen-solve made here is the lowest eigenvalue of J_0 + sV, whose
diagonal is shifted by zeta and so is not a problem of the Analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .context import Analysis
from .context import choose_parity_block  # noqa: F401  (stays importable from bwpt)
from .hilbert import (
    DiagonalTable,
    MatrixFreeOperator,
    OperatorSpec,
    StateVector,
    psi_plus_overlap,
)

DEFAULT_ZETA = 0.5


class BwptError(RuntimeError):
    pass


@dataclass
class BwContext:
    """Self-consistent effective-Hamiltonian data at s = 1.

    xi0 is the positive unit ground vector of h(omega, 1) over the Analysis's
    block ground indices.
    """

    zeta: float
    omega: float
    eq0: float
    xi0: np.ndarray
    h_matrix: np.ndarray
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
    """h(omega, s) over the block ground indices, geometric series resummed:
    h = E0*I + s*M1 + s^2*M2 with M2 from one Q-subspace solve per column.

    omega must lie strictly below E^Q_{0,1}, the lowest eigenvalue of Q H_s Q.
    """
    table, ground, params = analysis.table, analysis.ground, analysis.params
    eq0 = analysis.eq01
    if not omega < eq0:
        raise BwptError(
            f"omega={omega} is not below the Q-restricted spectrum (E^Q={eq0})"
        )
    idx = analysis.block_ground_indices
    n = idx.size
    h = table.e0 * np.eye(n)
    if params.big_b == 0.0 or params.s == 0.0:
        return h
    qhsq = analysis.operator(analysis.qhsq_spec)
    xk = analysis.operator(OperatorSpec("XK", k=params.k))

    def v_apply(amps: np.ndarray) -> np.ndarray:
        """V = -B (X/N)^K applied to an amplitude array."""
        return -params.big_b * xk.apply(amps)

    dim = 1 << table.n_qubits
    ground_mask_idx = ground.ground_indices
    for col, u in enumerate(idx):
        e_u = np.zeros(dim)
        e_u[u] = 1.0
        v_u = v_apply(e_u)
        h[:, col] += params.s * v_u[idx]
        qv = v_u.copy()
        qv[ground_mask_idx] = 0.0
        x_u = eigensolve.solve_shifted(qhsq, omega, qv,
                                       deflate_indices=ground_mask_idx)
        h[:, col] += params.s**2 * v_apply(x_u)[idx]
    asym = np.max(np.abs(h - h.T), initial=0.0)
    if asym > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise BwptError(f"effective Hamiltonian asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (h + h.T)


def solve_self_consistent(analysis: Analysis, zeta: float = DEFAULT_ZETA) -> BwContext:
    """Set omega = E_{0,1} (lowest eigenvalue of H_1, block-restricted for even
    K), build h(omega, 1), and extract the positive ground vector xi0."""
    table = analysis.table
    n0_eff = analysis.block_ground_indices.size
    omega = float(analysis.lowest(analysis.hs_spec, 1).eigenvalues[0])
    h = effective_hamiltonian(analysis, omega)

    scale = max(1.0, abs(table.e0))
    if np.max(np.abs(h - table.e0 * np.eye(n0_eff))) <= 1e-12 * scale:
        # V contributes nothing (B = 0): any positive unit vector is a valid
        # ground vector of h; tie-break to the uniform one.
        xi0 = np.full(n0_eff, n0_eff**-0.5)
        lam = table.e0
    else:
        vals, vecs = np.linalg.eigh(h)
        lam = float(vals[0])
        xi0 = vecs[:, 0]
        if xi0.sum() < 0:
            xi0 = -xi0
        if np.min(xi0) < -1e-10:
            raise BwptError(
                "ground vector of h has mixed signs after the global flip; "
                "the even-K parity block was probably not applied"
            )
        xi0 = np.clip(xi0, 0.0, None)
        xi0 /= np.linalg.norm(xi0)
    return BwContext(
        zeta=zeta, omega=omega, eq0=analysis.eq01, xi0=xi0, h_matrix=h,
        fixed_point_residual=abs(lam - omega),
    )


def _j0_plus_v_operator(analysis: Analysis, zeta: float) -> MatrixFreeOperator:
    """J0 + sV as an HS operator over the zeta-shifted diagonal."""
    table = analysis.table
    energies = table.energies.copy()
    energies[analysis.ground.ground_indices] += zeta
    shifted = DiagonalTable(
        n_qubits=table.n_qubits, energies=energies,
        e0=float(energies.min()), gap=None,
    )
    return MatrixFreeOperator(analysis.hs_spec, shifted)


def phi_exact(ctx: BwContext, analysis: Analysis) -> tuple[StateVector, OverlapReport]:
    """Resum the phi series exactly: solve (omega - J0 - sV) x = (omega - J0) xi0.

    The right-hand side is ground-supported, so (omega - J0) xi0 collapses to
    (omega - E0 - zeta) * xi0.  Verifies that x is the H_s eigenvector at omega
    and fills the overlap report.
    """
    table, params = analysis.table, analysis.params
    n = table.n_qubits
    dim = 1 << n
    op = _j0_plus_v_operator(analysis, ctx.zeta)
    lam_min = float(eigensolve.extreme_eigs(op, 1).eigenvalues[0])
    if not ctx.omega < lam_min - 1e-12:
        raise BwptError(
            f"omega={ctx.omega} is not below the spectrum of J0 + V "
            f"(lambda_min={lam_min}); the series does not converge"
        )
    rhs = np.zeros(dim)
    rhs[analysis.block_ground_indices] = (ctx.omega - table.e0 - ctx.zeta) * ctx.xi0
    phi = eigensolve.solve_shifted(op, ctx.omega, rhs)

    hs = analysis.operator(analysis.hs_spec)
    phi_norm = float(np.linalg.norm(phi))
    eig_residual = float(np.linalg.norm(hs.apply(phi) - ctx.omega * phi))
    if eig_residual > 1e-8 * phi_norm:
        raise BwptError(
            f"phi is not an H_s eigenvector: residual {eig_residual:.3e} "
            f"exceeds 1e-8 * |phi|"
        )
    psi01 = analysis.lowest(analysis.hs_spec, 1).eigenvectors[:, 0]
    if psi01.sum() < 0:
        psi01 = -psi01
    align = float(phi @ psi01) / phi_norm
    if align < 1 - 1e-8:
        raise BwptError(f"phi does not align with the H_s ground state ({align})")

    inner_phi = psi_plus_overlap(StateVector(n, phi))
    inner_gs = psi_plus_overlap(StateVector(n, psi01))
    d = analysis.instance.degree
    report = OverlapReport(
        inner_psi_plus_phi=inner_phi,
        inner_psi_plus_gs=inner_gs,
        xi0_l1=float(ctx.xi0.sum()),
        phi_norm=phi_norm,
        analytic_bound=(
            2.0 ** (-n / 2.0)
            * analytic_lower_bound(n, d, params.k, params.big_b, table.e0)[0]
            if table.e0 < 0 else float("nan")
        ),
        log2_overlap_margin=math.log2(inner_phi) + n / 2.0 if inner_phi > 0 else float("-inf"),
    )
    return StateVector(n, phi), report


def analytic_lower_bound(n_qubits: int, degree: int, k: int, big_b: float,
                         e0: float) -> tuple[float, float]:
    """Leading factor exp(BN / (2DK|E0|)) of the overlap lower bound, and its
    log2.  The unquantified (1 - o(1)) correction is not applied."""
    if e0 >= 0:
        raise BwptError(f"analytic bound requires E0 < 0, got {e0}")
    if min(n_qubits, degree, k) < 1:
        raise BwptError("N, D, K must all be >= 1")
    exponent = big_b * n_qubits / (2.0 * degree * k * abs(e0))
    return math.exp(exponent), exponent / math.log(2.0)


def walk_estimate(ctx: BwContext, analysis: Analysis, samples: int,
                  seed: int, cutoff: float = 1e-16) -> WalkEstimate:
    """Monte-Carlo estimate of the walk series sum_t B^t E[prod 1/(E'_u - E_{0,1})].

    Start states are drawn proportional to the xi0 entries; each macro-step is
    K independent uniformly random spin flips (the same spin may repeat).  One
    length-t_max walk per sample estimates every truncation level via partial
    products.
    """
    if samples < 1:
        raise BwptError("samples must be >= 1")
    instance, table, params = analysis.instance, analysis.table, analysis.params
    if params.big_b == 0.0:
        return WalkEstimate(series_estimate=1.0, std_error=0.0, t_truncation=0,
                            samples=samples, seed=seed)
    n = table.n_qubits
    e0 = table.e0
    if e0 >= 0:
        raise BwptError("walk truncation bound requires E0 < 0")
    t_max = 10 * math.ceil(params.big_b * n / (2 * instance.degree * params.k * abs(e0))) + 100

    rng = np.random.default_rng(seed)
    probs = ctx.xi0 / ctx.xi0.sum()
    states = rng.choice(analysis.block_ground_indices, size=samples,
                        p=probs).astype(np.int64)
    is_ground = analysis.ground.mask(n)
    energies = table.energies

    partial = np.ones(samples)
    totals = np.ones(samples)  # t = 0 term
    b_pow = 1.0
    t_used = 0
    for t in range(1, t_max + 1):
        flips = rng.integers(0, n, size=(params.k, samples))
        for row in flips:
            states ^= np.int64(1) << row
        denom = energies[states] + np.where(is_ground[states], ctx.zeta, 0.0) - ctx.omega
        if np.any(denom <= 0.0):
            bad = int(states[np.argmin(denom)])
            raise BwptError(
                f"non-positive walk denominator at basis state {bad}: "
                "omega lies above E'_u for a visited state"
            )
        partial /= denom
        b_pow *= params.big_b
        totals += b_pow * partial
        t_used = t
        running = float(totals.mean())
        if b_pow * float(partial.max()) < cutoff * running:
            break
    estimate = float(totals.mean())
    std_error = (
        float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
    )
    return WalkEstimate(series_estimate=estimate, std_error=std_error,
                        t_truncation=t_used, samples=samples, seed=seed)
