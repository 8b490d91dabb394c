"""Entropy bounds, density-of-states conditions, and theorem parameter checks.

All logarithms are base 2 unless a formula explicitly uses natural logs (the
feasibility inequality of the D=2 theorem does).  Every unquantified O(1) /
O(log N) constant appearing in a theorem statement is an explicit field of
TheoremConstants, defaulting to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .hilbert import (
    DiagonalTable,
    GroundSpaceInfo,
    HsParams,
    StateVector,
    _apply_x,
    term_signs,
)
from .instances import Instance


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class TauConstants:
    entropy_tol: float = 1e-12

    def __post_init__(self):
        if not self.entropy_tol > 0:
            raise BoundsError("entropy_tol must be positive")


@dataclass
class TheoremConstants:
    """Explicit values for the theorems' unquantified constants.

    c_err multiplies J_tot K^2 D^2 / X_min^2; c_tau multiplies the
    (5/2) B tau(S/N)^K term; c_log multiplies the log2(N) slack in the
    density-of-states conclusion; hassoln_c1..c4 scale the four terms of the
    feasibility inequality.
    """

    c_err: float = 1.0
    c_tau: float = 1.0
    c_log: float = 1.0
    hassoln_c1: float = 1.0
    hassoln_c2: float = 1.0
    hassoln_c3: float = 1.0
    hassoln_c4: float = 1.0

    @classmethod
    def from_file(cls, path: str) -> "TheoremConstants":
        """Load from a key-value text file: one "name = value" per line,
        '#' comments allowed."""
        known = {f.name for f in fields(cls)}
        values: dict[str, float] = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.replace("=", " ").split()
                if len(parts) != 2:
                    raise BoundsError(f"{path}:{lineno}: expected 'name = value', got {body!r}")
                name, raw = parts
                if name not in known:
                    raise BoundsError(f"{path}:{lineno}: unknown constant {name!r}")
                try:
                    values[name] = float(raw)
                except ValueError:
                    raise BoundsError(f"{path}:{lineno}: non-numeric value {raw!r}") from None
        out = cls(**values)
        for f in fields(cls):
            if getattr(out, f.name) < 0:
                raise BoundsError(f"constant {f.name} must be non-negative")
        return out


def binary_entropy(x: float) -> float:
    """S(x) = -x log2(x) - (1-x) log2(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise BoundsError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def binary_entropy_inverse(sigma: float, consts: TauConstants = TauConstants()) -> float:
    """The branch of S^-1 on [0, 1/2], by bisection to consts.entropy_tol.

    The branch choice does not affect tau, since x(1-x) is symmetric about 1/2.
    """
    if not 0.0 <= sigma <= 1.0:
        raise BoundsError(f"entropy value {sigma} outside [0, 1]")
    if sigma == 0.0:
        return 0.0
    if sigma == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < sigma:
            lo = mid
        else:
            hi = mid
        if hi - lo <= consts.entropy_tol:
            break
    return 0.5 * (lo + hi)


def tau(sigma: float, consts: TauConstants = TauConstants()) -> float:
    """tau(sigma) = 2 sqrt(S^-1(sigma) (1 - S^-1(sigma)))."""
    x = binary_entropy_inverse(sigma, consts)
    return 2.0 * math.sqrt(x * (1.0 - x))


def tau_inverse(t: float) -> float:
    """Closed form: tau^-1(t) = S((1 - sqrt(1 - t^2)) / 2)."""
    if not 0.0 <= t <= 1.0:
        raise BoundsError(f"tau value {t} outside [0, 1]")
    return binary_entropy((1.0 - math.sqrt(max(0.0, 1.0 - t * t))) / 2.0)


def _tau_clamped(arg: float, consts: TauConstants = TauConstants()) -> float:
    # tau saturates at 1; arguments above 1 arise from small-N slack terms
    return 1.0 if arg >= 1.0 else tau(max(0.0, arg), consts)


def shannon_entropy_bits(probabilities: np.ndarray) -> float:
    p = probabilities[probabilities > 0]
    return float(-(p * np.log2(p)).sum())


@dataclass
class EntropyCheckReport:
    s_comp: float
    x_expectation: float
    sx_ok: bool
    s_sequence: list[float]
    genineq_bound: float
    exact_x2k: float
    genineq_ok: bool
    support_count: int
    genineqbasis_bound: float
    genineqbasis_ok: bool
    loose_bound: float
    loose_ok: bool


def state_entropy_checks(state: StateVector, k: int,
                         consts: TauConstants = TauConstants()) -> EntropyCheckReport:
    """Check the log-Sobolev bound on <X>/N and the product bounds on
    <(X/N)^2K> against the exact expectation values."""
    n = state.n_qubits
    amps = state.amplitudes
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise BoundsError("state must be normalized")
    s_comp = shannon_entropy_bits(amps**2)
    x_exp = float(amps @ _apply_x(amps, n))
    sx_ok = tau(min(1.0, s_comp / n), consts) >= x_exp / n - 1e-9

    entropies = [s_comp]
    cur = amps
    for _ in range(k):
        nxt = _apply_x(cur, n)
        nrm = np.linalg.norm(nxt)
        if nrm == 0.0:
            raise BoundsError("X annihilated the state (N = 0 edge case)")
        cur = nxt / nrm
        entropies.append(shannon_entropy_bits(cur**2))

    genineq_bound = 1.0
    for i in range(k):
        genineq_bound *= _tau_clamped(
            ((entropies[i] + entropies[i + 1]) / 2.0 + 1.0) / n, consts) ** 2

    xk = amps.copy()
    for _ in range(k):
        xk = _apply_x(xk, n) / n
    exact_x2k = float(xk @ xk)

    support = int(np.count_nonzero(amps))
    log_n0 = math.log2(support)
    log_n = math.log2(n)
    basis_bound = 1.0
    for i in range(k):
        basis_bound *= _tau_clamped((log_n0 + (i + 0.5) * log_n + 1.0) / n, consts) ** 2
    loose = _tau_clamped((log_n0 + (k + 0.5) * log_n + 1.0) / n, consts) ** (2 * k)

    return EntropyCheckReport(
        s_comp=s_comp, x_expectation=x_exp, sx_ok=bool(sx_ok),
        s_sequence=entropies, genineq_bound=genineq_bound, exact_x2k=exact_x2k,
        genineq_ok=bool(genineq_bound >= exact_x2k - 1e-9),
        support_count=support, genineqbasis_bound=basis_bound,
        genineqbasis_ok=bool(basis_bound >= exact_x2k - 1e-9),
        loose_bound=loose, loose_ok=bool(loose >= exact_x2k - 1e-9),
    )


@dataclass
class PxkNorm:
    value: float
    exact: bool  # False when the sampled lower-bound mode was used


def p_xk_norm(table: DiagonalTable, ground: GroundSpaceInfo, k: int,
              budget: int = 4096, seed: int = 0) -> PxkNorm:
    """||P (X/N)^K|| via the Gram matrix of (X/N)^K over ground basis states.

    When n0 exceeds the budget, a random ground subset gives a flagged lower
    bound instead.
    """
    idx = ground.ground_indices
    exact = idx.size <= budget
    if not exact:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(idx, size=budget, replace=False))
    dim = 1 << table.n_qubits
    cols = np.zeros((dim, idx.size))
    cols[idx, np.arange(idx.size)] = 1.0
    for _ in range(k):
        cols = _apply_x(cols, table.n_qubits) / table.n_qubits
    gram = cols.T @ cols
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    return PxkNorm(value=math.sqrt(max(0.0, lam_max)), exact=exact)


def pbound_value(n0: int, n_qubits: int, k: int,
                 consts: TauConstants = TauConstants()) -> float:
    """The entropy upper bound on ||P (X/N)^K||:
    tau(log(n0)/N + ((K+1/2)log(N)+1)/N)^K."""
    arg = (math.log2(n0) + (k + 0.5) * math.log2(n_qubits) + 1.0) / n_qubits
    return _tau_clamped(arg, consts) ** k


@dataclass
class KboundReport:
    lhs: float
    passes: bool
    saturated: bool  # tau argument reached 1, so lhs collapsed to B


def kbound_check(n0: int, n_qubits: int, k: int, big_b: float,
                 consts: TauConstants = TauConstants()) -> KboundReport:
    """B * tau(log(n0)/N + ((K+1/2)log(N)+1)/N)^K <= 1/4."""
    if min(n0, n_qubits, k) < 1 or big_b < 0:
        raise BoundsError("n0, N, K must be >= 1 and B >= 0")
    arg = (math.log2(n0) + (k + 0.5) * math.log2(n_qubits) + 1.0) / n_qubits
    saturated = arg >= 1.0
    lhs = big_b * _tau_clamped(arg, consts) ** k
    return KboundReport(lhs=lhs, passes=bool(lhs <= 0.25), saturated=saturated)


@dataclass
class DosHistogram:
    """W(E) in unit-width bins anchored at E0: counts[k] covers [E0+k, E0+k+1)."""

    e0: float
    counts: np.ndarray
    total: int


def dos_histogram(table: DiagonalTable) -> DosHistogram:
    offs = np.floor(table.energies - table.e0).astype(np.int64)
    offs = np.clip(offs, 0, None)  # floating fuzz below E0
    counts = np.bincount(offs)
    return DosHistogram(e0=table.e0, counts=counts, total=int(counts.sum()))


@dataclass
class PowerLawFit:
    exponent: float
    r_squared: float
    n_points: int


def dos_powerlaw_fit(hist: DosHistogram, window: tuple[int, int]) -> PowerLawFit:
    """Least-squares slope of log(log2 W) against log(E - E0) over bin offsets
    [window[0], window[1]].  Report-only heuristic; nothing is asserted."""
    k_min, k_max = window
    xs, ys = [], []
    for k in range(max(1, k_min), min(k_max, len(hist.counts) - 1) + 1):
        w = hist.counts[k]
        if w >= 2:  # need log2(W) > 0
            xs.append(math.log(k))
            ys.append(math.log(math.log2(w)))
    if len(xs) < 2:
        raise BoundsError(f"window {window} leaves fewer than two usable bins")
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=float(slope), r_squared=r2, n_points=len(xs))


@dataclass
class Item2Report:
    """Density-of-states witness search for the branch-2 conclusion."""

    applicable: bool
    witness_e: float | None
    x_min: float
    err_term: float
    rows: list  # (E, log2_w, f_inverse, threshold)
    reason: str | None = None


def x_min_of(n_qubits: int, big_b: float, k: int) -> float:
    return n_qubits * (10.0 * big_b) ** (-1.0 / k)


def theorem1_item2_check(hist: DosHistogram, instance: Instance, params: HsParams,
                         consts: TheoremConstants = TheoremConstants(),
                         tau_consts: TauConstants = TauConstants()) -> Item2Report:
    """Scan integer offsets E = E0 + k for log2 W(E) >= F^-1(E) - c_log*log2(N),
    with F(S) = E0 + c_err*J_tot K^2 D^2/X_min^2 + (5/2) c_tau B tau(S/N)^K."""
    n = instance.n_qubits
    big_b, k = params.big_b, params.k
    if big_b == 0.0:
        return Item2Report(applicable=False, witness_e=None, x_min=float("inf"),
                           err_term=0.0, rows=[],
                           reason="B = 0 makes F constant; no witness required")
    xmin = x_min_of(n, big_b, k)
    err_term = consts.c_err * instance.j_tot * k**2 * instance.degree**2 / xmin**2
    amp = 2.5 * consts.c_tau * big_b
    slack = consts.c_log * math.log2(n) if n > 1 else 0.0

    def f_inverse(e: float) -> float:
        lift = (e - hist.e0 - err_term) / amp
        if lift <= 0.0:
            return 0.0
        if lift >= 1.0:
            return float(n)
        return n * tau_inverse(lift ** (1.0 / k))

    rows = []
    witness = None
    for offset in range(1, len(hist.counts)):
        w = int(hist.counts[offset])
        if w == 0:
            continue
        e = hist.e0 + offset
        finv = f_inverse(e)
        threshold = finv - slack
        log2w = math.log2(w)
        rows.append((e, log2w, finv, threshold))
        if witness is None and log2w >= threshold:
            witness = e
    return Item2Report(applicable=True, witness_e=witness, x_min=xmin,
                       err_term=err_term, rows=rows)


@dataclass
class ParameterChoice:
    """K and b selected by the D=2 theorem's regime rules (b is fixed 1/10)."""

    alpha: float
    c: float
    b: float
    k: int
    regime: str  # 'high' for alpha in (11/7, 2], 'low' for (10/7, 11/7]
    exponent: float  # mu (high) or nu (low)
    x_min: float
    e0_scale: float  # c * N^alpha, the assumed |E0| lower bound


def thm3_parameters(alpha: float, c: float, n_qubits: int, c_big: float) -> ParameterChoice:
    """Select K per regime: high alpha uses K = ceil(C ln(N) N^mu) with
    mu = 4/3 - (2/3) alpha; low alpha uses K = ceil(C ln(N)^2 N^nu) with
    nu = 5 - 3 alpha.  b = 1/10 always."""
    if not 10.0 / 7.0 < alpha <= 2.0:
        raise BoundsError(f"alpha={alpha} outside (10/7, 2]")
    if n_qubits < 3:
        raise BoundsError(f"N={n_qubits} must be >= 3")
    if c <= 0 or c_big <= 0:
        raise BoundsError("c and C must be positive")
    ln_n = math.log(n_qubits)
    if alpha > 11.0 / 7.0:
        regime = "high"
        exponent = 4.0 / 3.0 - (2.0 / 3.0) * alpha
        k = math.ceil(c_big * ln_n * n_qubits**exponent)
    else:
        regime = "low"
        exponent = 5.0 - 3.0 * alpha
        k = math.ceil(c_big * ln_n**2 * n_qubits**exponent)
    k = max(1, k)
    b = 0.1
    e0_scale = c * n_qubits**alpha
    big_b = b * e0_scale
    return ParameterChoice(alpha=alpha, c=c, b=b, k=k, regime=regime,
                           exponent=exponent, x_min=x_min_of(n_qubits, big_b, k),
                           e0_scale=e0_scale)


@dataclass
class HassolnReport:
    terms: tuple[float, float, float, float]
    lhs: float
    violated: bool  # lhs >= |e0|: the no-solution conclusion fails


def hassoln_lhs(k: int, n_qubits: int, e0: float,
                consts: TheoremConstants = TheoremConstants()) -> HassolnReport:
    """Evaluate the four terms of the feasibility inequality (natural logs)."""
    if k < 1 or n_qubits < 3:
        raise BoundsError("K >= 1 and N >= 3 required")
    ln_n = math.log(n_qubits)
    ln_ratio = max(0.0, math.log(k / ln_n)) if k > 0 else 0.0
    t1 = consts.hassoln_c1 * ln_n**1.5 * n_qubits**2 / k**1.5
    t2 = consts.hassoln_c2 * ln_n**0.5 * n_qubits**1.5 / k**0.5 * ln_ratio**0.5
    t3 = consts.hassoln_c3 * float(k) ** 2
    t4 = consts.hassoln_c4 * ln_n ** (1.0 / 3.0) * n_qubits ** (5.0 / 3.0) \
        / k ** (1.0 / 3.0) * ln_ratio ** (1.0 / 3.0)
    lhs = t1 + t2 + t3 + t4
    return HassolnReport(terms=(t1, t2, t3, t4), lhs=lhs, violated=bool(lhs >= abs(e0)))


@dataclass
class BaselineReport:
    best_i: int
    max_abs_fi: float
    threshold: float
    m_neighbors: int
    n_choice_log2: float | None
    n_choice_int: int | None
    brute_count: int | None
    unit_weights: bool


def _log2_binomial(m: int, j: int) -> float:
    return (math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)) / math.log(2)


def classical_baseline(instance: Instance, table: DiagonalTable,
                       brute_limit: int = 14) -> BaselineReport:
    """D=2 baseline counting: per-spin fields F_i at a ground state, the spin
    with the largest |F_i|, and the count of assignments of the other N-1
    spins with F_i above the 2|E0|/N threshold.

    The binomial formula assumes unit couplings; for other weights only the
    brute-force count is produced.
    """
    if instance.degree != 2:
        raise BoundsError(f"classical baseline requires D=2, got D={instance.degree}")
    n = instance.n_qubits
    u_star = int(np.argmin(table.energies))
    z = 1.0 - 2.0 * np.array([(u_star >> j) & 1 for j in range(n)], dtype=np.float64)

    coupling = np.zeros((n, n))
    for t in instance.terms:
        i, j = t.qubits
        coupling[i, j] = coupling[j, i] = t.weight
    f_values = coupling @ z
    best_i = int(np.argmax(np.abs(f_values)))
    max_abs = float(abs(f_values[best_i]))
    threshold = 2.0 * abs(table.e0) / n

    neighbors = np.flatnonzero(coupling[best_i] != 0.0)
    m = int(neighbors.size)
    unit = bool(np.all(np.abs(coupling[best_i, neighbors]) == 1.0))

    n_choice_int = None
    n_choice_log2 = None
    if unit:
        n_choice_int = 0
        log_terms = []
        for f in range(-m, m + 1, 2):
            if f < threshold - 1e-12:
                continue
            j = (m + f) // 2
            n_choice_int += (1 << (n - 1 - m)) * math.comb(m, j)
            log_terms.append((n - 1 - m) + _log2_binomial(m, j))
        if log_terms:
            top = max(log_terms)
            n_choice_log2 = top + math.log2(sum(2.0 ** (t - top) for t in log_terms))
        else:
            n_choice_log2 = float("-inf")

    brute = None
    if n <= brute_limit:
        f_all = np.zeros(1 << n)
        for j in neighbors:
            f_all += coupling[best_i, j] * term_signs(n, 1 << j)
        free_of_i = (np.arange(1 << n) >> best_i) & 1 == 0
        brute = int(np.count_nonzero(free_of_i & (f_all >= threshold - 1e-12)))

    return BaselineReport(best_i=best_i, max_abs_fi=max_abs, threshold=threshold,
                          m_neighbors=m, n_choice_log2=n_choice_log2,
                          n_choice_int=n_choice_int, brute_count=brute,
                          unit_weights=unit)
