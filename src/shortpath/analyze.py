"""End-to-end pipelines: spectral reports for H_1, verification records for the
speedup theorem and the main dichotomy theorem, and a spectral simulation of
the one-step algorithm with speedup accounting in bits.

Every pipeline takes a `context.Analysis`: the H_Z table, the ground space
and the parity block come from it, and so does every spectrum (H_1 in each
parity block for even K or in the full space for odd K, QH_1Q, mainconst's
H_{5/2}), solved once per analysis and shared between the pipelines and
`bwpt`.

Asymptotic statements (B = omega(log N), the (1 - o(1)) exponent corrections)
are reported as measured ratios, never converted into pass/fail on a single N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import bounds
from .bounds import TheoremConstants
from .context import Analysis
from .hilbert import coordinate_qubits, psi_plus_overlap
from .hilbert import evaluate_hz  # noqa: F401  (stays importable from analyze)

TOL = 1e-9
_CLUSTER_TOL = 1e-8  # eigenvalues closer than this are one eigenspace


class AnalyzeError(RuntimeError):
    pass


def resolve_big_b(b: float, e0: float) -> float:
    """B = b * |E0| (the theorem writes B = -b E0 with E0 < 0)."""
    if not 0.0 <= b < 1.0:
        raise AnalyzeError(f"b={b} outside [0, 1)")
    return b * abs(e0)


@dataclass
class SpectralReport:
    """Low-lying spectrum of H_1, block-restricted for even K."""

    e01: float
    band: np.ndarray             # n0_eff lowest eigenvalues, ascending
    next_eigenvalue: float | None  # (n0_eff+1)-st, None if the block is exhausted
    eq01: float
    p_ov: float
    band_upper_ok: bool
    gap_lower_ok: bool
    p0_overlaps: float
    block: str | None
    n0_eff: int
    band_vectors: np.ndarray = field(repr=False)  # raw; kept out of reports


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Index groups of sorted values within _CLUSTER_TOL of their group's last
    member (degenerate eigenspaces)."""
    groups: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= _CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g) for g in groups]


def _min_p0_overlap(vectors: np.ndarray, values: np.ndarray,
                    ground_rows: np.ndarray) -> float:
    """min <psi|P0|psi> (P0 keeps `ground_rows`) over unit vectors of each
    eigenspace spanned by the columns.  Computed per degenerate cluster so the
    answer does not depend on the eigenvector basis the solver returned."""
    worst = 1.0
    for grp in _cluster(values):
        u = vectors[np.ix_(ground_rows, grp)]
        gram = u.T @ u
        worst = min(worst, float(np.linalg.eigvalsh(gram)[0]))
    return worst


def spectral_report(analysis: Analysis) -> SpectralReport:
    """Band structure of H_1: the n0 lowest eigenvalues, the next one, the
    excited-restricted E^Q_{0,1}, the psi_+ overlap mass P_ov, and the worst
    ground-projector overlap over the band.  The pipelines read it as
    Analysis.spectral, built once per analysis."""
    table, block = analysis.table, analysis.block
    n0_eff = int(analysis.block_ground_coords.size)
    how_many = min(n0_eff + 1, analysis.block_dim)
    eig = analysis.lowest(analysis.hs_spec, how_many)
    band = eig.eigenvalues[:n0_eff]
    band_vectors = eig.eigenvectors[:, :n0_eff]
    next_ev = float(eig.eigenvalues[n0_eff]) if how_many > n0_eff else None
    eq01 = analysis.eq01

    p_ov = float(np.sum(psi_plus_overlap(band_vectors, table.n_qubits) ** 2))
    p0 = _min_p0_overlap(band_vectors, band, analysis.block_ground_coords)

    e0 = table.e0
    band_upper_ok = bool(band.max() <= e0 + 0.25 + TOL)
    gap_ok = bool(next_ev is None or next_ev >= e0 + 0.5 - TOL)
    return SpectralReport(
        e01=float(band[0]), band=band, next_eigenvalue=next_ev, eq01=eq01,
        p_ov=p_ov, band_upper_ok=band_upper_ok, gap_lower_ok=gap_ok,
        p0_overlaps=p0, block=block, n0_eff=n0_eff, band_vectors=band_vectors,
    )


class Check(NamedTuple):
    """One precondition or conclusion of a theorem record."""

    name: str
    passed: bool | None  # None for asymptotic records, reported as a ratio
    margin: float


@dataclass
class TheoremReport:
    theorem: str  # 'qgood', 'mainconst', or 'speed'
    preconditions: list[Check]
    conclusions: list[Check]  # populated only when the preconditions pass
    branch: int | None
    constants_used: TheoremConstants
    applicable: bool = True
    details: dict = field(default_factory=dict)

    @property
    def preconditions_pass(self) -> bool:
        return all(c.passed for c in self.preconditions if c.passed is not None)


def _psi01_from_band(report: SpectralReport, n_qubits: int) -> np.ndarray:
    """The lowest-eigenspace state the algorithm collapses onto, in the band's
    coordinates: the normalized projection of psi_+ onto the e01 eigenspace.
    For a nondegenerate (Perron) ground state, that eigenvector made positive."""
    grp = _cluster(report.band)[0]
    u = report.band_vectors[:, grp]
    comp = u @ psi_plus_overlap(u, n_qubits)
    nrm = np.linalg.norm(comp)
    if nrm < 1e-14:
        # psi_+ has no mass on the eigenspace; fall back to the first vector
        v = u[:, 0]
        return -v if v.sum() < 0 else v
    return comp / nrm


def qgood_verify(analysis: Analysis,
                 constants: TheoremConstants = TheoremConstants()) -> TheoremReport:
    """Check the speedup theorem: preconditions E^Q_{0,1} >= E0 + 1/2 and
    B * ||P (X/N)^K|| <= 1/4; conclusions are the band location, the ground
    overlap of band states, and the psi_+ overlap against its analytic bound.

    Failures are recorded in the report, never raised.
    """
    instance, table, ground, spec = (
        analysis.instance, analysis.table, analysis.ground, analysis.spec)
    spec_rep = analysis.spectral
    e0 = table.e0
    n = instance.n_qubits

    pnorm = bounds.p_xk_norm(table, ground, spec.k)
    pre = [
        Check("eq01_above_half", bool(spec_rep.eq01 >= e0 + 0.5 - TOL),
              float(spec_rep.eq01 - (e0 + 0.5))),
        Check("b_pnorm_quarter", bool(spec.big_b * pnorm <= 0.25 + TOL),
              float(0.25 - spec.big_b * pnorm)),
        # asymptotic: B = omega(log N) is reported as a ratio, not pass/fail
        Check("b_over_log2n", None,
              float(spec.big_b / math.log2(n)) if n > 1 else float("inf")),
    ]
    report = TheoremReport(theorem="qgood", preconditions=pre, conclusions=[],
                           branch=None, constants_used=constants,
                           details={
                               "spectral": spec_rep,
                               "p_xk_norm": pnorm,
                               # the norm is always exact; the key stays until
                               # the benchmark references are re-recorded
                               "p_xk_norm_exact": True,
                           })
    if not report.preconditions_pass:
        report.details["note"] = (
            "preconditions fail; the dichotomy theorem's density-of-states "
            "branch applies instead"
        )
        return report

    band_margin = float(min(
        (e0 + 0.25) - spec_rep.band.max(),
        (spec_rep.next_eigenvalue - (e0 + 0.5))
        if spec_rep.next_eigenvalue is not None else math.inf,
    ))
    report.conclusions.append(
        Check("band_location", bool(band_margin >= -TOL), band_margin))

    overlap_floor = math.sqrt(0.75)
    report.conclusions.append(
        Check("ground_overlap_3_4", bool(spec_rep.p0_overlaps >= overlap_floor - TOL),
              float(spec_rep.p0_overlaps - overlap_floor)))

    psi01 = _psi01_from_band(spec_rep, n)
    ovl = float(psi01.sum())  # 2^(N/2) <psi_+|psi01>
    predicted = (bounds.overlap_exponent(n, instance.degree, spec.k, spec.big_b, e0)
                 if e0 < 0 else 0.0)
    measured_log = math.log(ovl) if ovl > 0 else float("-inf")
    report.conclusions.append(
        Check("psi_plus_overlap_unit", bool(ovl >= 1.0 - TOL), measured_log - predicted))
    report.details["overlap_2n2"] = ovl
    report.details["overlap_log_measured"] = measured_log
    report.details["overlap_log_leading"] = predicted
    return report


def mainconst_decide(analysis: Analysis,
                     constants: TheoremConstants = TheoremConstants()) -> TheoremReport:
    """The dichotomy theorem's branch decision.  Guard: the K-bound inequality.
    Branch 1 (speedup) when E^Q_{0,1} >= E0 + 1/2; otherwise branch 2, which
    must produce a density-of-states witness and the H_{5/2} eigenvector fact.
    """
    instance, table, ground, spec = (
        analysis.instance, analysis.table, analysis.ground, analysis.spec)
    e0 = table.e0
    n = instance.n_qubits

    kb = bounds.kbound_check(ground.n0, n, spec.k, spec.big_b)
    report = TheoremReport(theorem="mainconst", preconditions=[
        Check("kbound", kb.passes, float(0.25 - kb.lhs)),
        Check("gap_certified", ground.gap_certified, 0.0),
    ], conclusions=[], branch=None, constants_used=constants,
        details={"kbound_lhs": kb.lhs, "kbound_saturated": kb.saturated})
    if not report.preconditions_pass:
        report.applicable = False
        report.details["note"] = "K-bound guard failed; no branch is declared"
        return report

    spec_rep = analysis.spectral
    report.details["spectral"] = spec_rep
    if spec_rep.eq01 >= e0 + 0.5 - TOL:
        report.branch = 1
        # expected-time exponent N/2 - (b / 2DK) N log2(e), leading term only
        gain_bits = (bounds.overlap_exponent(n, instance.degree, spec.k, spec.big_b, e0)
                     * math.log2(math.e) if e0 < 0 else 0.0)
        report.conclusions.append(Check("speedup_exponent_bits", True, gain_bits))
        report.details["query_exponent_bits"] = n / 2.0 - gain_bits
        return report

    report.branch = 2
    hist = bounds.dos_histogram(table)
    item2 = bounds.theorem1_item2_check(hist, instance, spec, constants)
    found = bool(item2.applicable and item2.witness_e is not None)
    report.conclusions.append(
        Check("dos_witness", found,
              float(item2.witness_e - e0) if found else float("-inf")))
    report.details["item2"] = item2

    # H_{5/2} = H_Z - (5/2) B (X/N)^K; its ground state must dip below
    # E0 - 1/4 and carry at least 1/4 of B(X/N)^K expectation; a lowest pair
    # is one sector solve (see Analysis.lowest)
    eig = analysis.lowest(replace(analysis.hs_spec, big_b=2.5 * spec.big_b), 1)
    lam = float(eig.eigenvalues[0])
    psi = eig.eigenvectors[:, 0].copy()
    x_exp = spec.big_b * float(psi @ analysis.operator(analysis.hs_spec).xk(psi))
    report.conclusions.append(
        Check("h52_below_quarter", bool(lam < e0 - 0.25 + TOL), float((e0 - 0.25) - lam)))
    report.conclusions.append(
        Check("h52_x_expectation", bool(x_exp >= 0.25 - TOL), float(x_exp - 0.25)))
    report.details["h52_lambda_min"] = lam
    report.details["h52_bx_expectation"] = x_exp
    return report


@dataclass
class SimulationResult:
    """Spectral model of the one-step algorithm (exact phase estimation)."""

    success_prob: float
    amplified_queries_exponent: float
    grover_exponent: float
    speedup_bits: float
    p_ov: float
    min_band_p0: float
    accepted_eigenvalues: np.ndarray
    threshold_ambiguous: bool


def simulate_algorithm1(analysis: Analysis) -> SimulationResult:
    """Phase-estimate psi_+ under H_1 (exact eigenspace projection), accept
    eigenvalues at or below E0 + 1/4, then measure in the computational basis.

    success = sum over accepted eigenspaces of ||P0 Pi_lambda psi_+||^2,
    grouped per eigenspace so degeneracy cannot skew the answer.  Eigenvalues
    in the forbidden zone (E0 + 1/4, E0 + 1/2) only flag the report; the
    cutoff stays at E0 + 1/4.

    For even K, H_1 is block diagonal over Hamming-weight parity, and psi_+
    has orthogonal components in the blocks that the diagonal P0 keeps apart:
    each block is solved on its own (the analysis's block from the pairs
    spectral_report solved) and the sums add.  Odd K works in the full space.
    """
    table, ground = analysis.table, analysis.ground
    e0 = table.e0
    n = table.n_qubits
    cutoff = e0 + 0.25 + _CLUSTER_TOL
    success = p_ov = 0.0
    min_p0 = 1.0
    ambiguous = False
    accepted = []
    for sector in ("even", "odd") if analysis.spec.k % 2 == 0 else (None,):
        hs = replace(analysis.spec, parity_block=sector)
        rows = ground.coordinates(sector)
        dim = 1 << coordinate_qubits(n, sector)
        how_many = min(rows.size + 1, dim)
        eig = analysis.lowest(hs, how_many)
        while eig.eigenvalues[-1] <= cutoff and how_many < dim:
            how_many = min(2 * how_many, dim)
            eig = analysis.lowest(hs, how_many)

        vals, vecs = eig.eigenvalues, eig.eigenvectors
        acc_idx = np.flatnonzero(vals <= cutoff)
        ambiguous |= bool(np.any((vals > cutoff) & (vals < e0 + 0.5 - _CLUSTER_TOL)))
        accepted.append(vals[acc_idx])
        if not acc_idx.size:
            continue
        for grp in _cluster(vals[acc_idx]):
            u = vecs[:, acc_idx[grp]]
            comp = u @ psi_plus_overlap(u, n)  # Pi_lambda psi_+
            success += float(np.sum(comp[rows] ** 2))
            p_ov += float(np.sum(comp**2))
        min_p0 = min(min_p0, _min_p0_overlap(vecs[:, acc_idx], vals[acc_idx], rows))

    exponent = -0.5 * math.log2(success) if success > 0.0 else float("inf")
    return SimulationResult(
        success_prob=success,
        amplified_queries_exponent=exponent,
        grover_exponent=n / 2.0,
        speedup_bits=n / 2.0 - exponent,
        p_ov=p_ov,
        min_band_p0=min_p0,
        accepted_eigenvalues=np.sort(np.concatenate(accepted)),
        threshold_ambiguous=ambiguous,
    )
