"""Computational-basis state vectors and matrix-free operators.

Basis convention: a basis state is an integer index u in [0, 2^N); bit i of u
gives the Z_i eigenvalue with 0 -> +1 and 1 -> -1.  Every operator handled here
(H_Z, X, (X/N)^K, H_s = H_Z - sB(X/N)^K, and the ground-space projections) is
real-symmetric in this basis, so amplitudes are binary64 reals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .instances import Instance

DEFAULT_MAX_QUBITS = 26  # dense-vector ceiling, 0.5 GiB per vector
DEGENERACY_TOL = 1e-9


class BudgetError(RuntimeError):
    """2^N table exceeds the configured memory budget.

    Use energy_of() for streaming per-index energy evaluation instead.
    """


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude array has length {self.amplitudes.size}, expected 2^{self.n_qubits}"
            )

    def norm(self) -> float:
        """Euclidean norm."""
        return float(np.linalg.norm(self.amplitudes))

    def l1(self) -> float:
        return float(np.sum(np.abs(self.amplitudes)))

    def inner(self, other: "StateVector") -> float:
        return float(self.amplitudes @ other.amplitudes)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class DiagonalTable:
    """Energies <u|H_Z|u> for every basis state, with E_0 and the exact gap.

    `gap` is the distance from e0 to the second distinct energy, or None when
    all energies coincide.
    """

    n_qubits: int
    energies: np.ndarray
    e0: float
    gap: float | None


@dataclass(frozen=True)
class GroundSpaceInfo:
    e0: float
    n0: int
    ground_indices: np.ndarray  # sorted basis indices
    gap_certified: bool

    def mask(self, n_qubits: int) -> np.ndarray:
        m = np.zeros(1 << n_qubits, dtype=bool)
        m[self.ground_indices] = True
        return m


@dataclass(frozen=True)
class HsParams:
    """Parameters of the one-step Hamiltonian H_s = H_Z - sB(X/N)^K."""

    big_b: float
    k: int
    s: float = 1.0

    def __post_init__(self):
        if self.big_b < 0:
            raise ValueError(f"B={self.big_b} must be non-negative")
        if self.k < 1:
            raise ValueError(f"K={self.k} must be >= 1")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s={self.s} outside [0, 1]")


@dataclass(frozen=True)
class OperatorSpec:
    """One of the named operators: HZ, X, XK, HS, QHSQ.

    HS(s, B, K) is H_Z - sB(X/N)^K; QHSQ is the same conjugated by the
    excited-space projector Q.  `parity_block` restricts to even or odd
    Hamming-weight basis states (meaningful for even K, where HS is block
    diagonal).
    """

    kind: str
    s: float = 0.0
    big_b: float = 0.0
    k: int = 1
    parity_block: str | None = None

    def __post_init__(self):
        if self.kind not in ("HZ", "X", "XK", "HS", "QHSQ"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s={self.s} outside [0, 1]")
        if self.kind in ("HS", "QHSQ") and self.big_b < 0:
            raise ValueError(f"B={self.big_b} must be non-negative")
        if self.k < 1:
            raise ValueError(f"K={self.k} must be >= 1")
        if self.parity_block not in (None, "even", "odd"):
            raise ValueError(f"parity_block must be 'even' or 'odd', got {self.parity_block!r}")


def term_signs(n_qubits: int, mask: int) -> np.ndarray:
    """(-1)^popcount(u & mask) for all u, as +-1 floats."""
    u = np.arange(1 << n_qubits, dtype=np.uint64)
    parity = np.bitwise_count(u & np.uint64(mask)) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def energy_of(instance: Instance, u: int) -> float:
    """Streaming <u|H_Z|u> for a single basis index (no 2^N table)."""
    e = 0.0
    for t in instance.terms:
        e += t.weight if (u & t.mask).bit_count() % 2 == 0 else -t.weight
    return e


def evaluate_hz(instance: Instance, max_qubits: int = DEFAULT_MAX_QUBITS) -> DiagonalTable:
    """Tabulate H_Z over all 2^N basis states."""
    n = instance.n_qubits
    if n > max_qubits:
        raise BudgetError(
            f"N={n} exceeds the dense budget of {max_qubits} qubits; "
            "use energy_of() for streaming per-index evaluation"
        )
    energies = np.zeros(1 << n, dtype=np.float64)
    for t in instance.terms:
        energies += t.weight * term_signs(n, t.mask)
    e0 = float(energies.min())
    above = energies[energies > e0]
    gap = float(above.min() - e0) if above.size else None
    return DiagonalTable(n_qubits=n, energies=energies, e0=e0, gap=gap)


def ground_space(table: DiagonalTable, degeneracy_tol: float = DEGENERACY_TOL) -> GroundSpaceInfo:
    """List all basis indices within `degeneracy_tol` of e0 and certify the gap.

    gap_certified means every excluded energy is at least e0 + 1 - 1e-9, the
    unit-gap promise the theorem checks rely on.  A smaller gap is recorded,
    not rejected.
    """
    in_band = table.energies <= table.e0 + degeneracy_tol
    ground = np.flatnonzero(in_band)
    excluded = table.energies[~in_band]
    certified = bool(excluded.size == 0 or excluded.min() >= table.e0 + 1 - 1e-9)
    return GroundSpaceInfo(
        e0=table.e0, n0=int(ground.size), ground_indices=ground, gap_certified=certified
    )


def parity_masks(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of (even, odd) Hamming-weight basis states."""
    u = np.arange(1 << n_qubits, dtype=np.uint64)
    odd = (np.bitwise_count(u) & 1).astype(bool)
    return ~odd, odd


def make_state(kind: str, n_qubits: int, u: int | None = None,
               support: Iterable[int] | None = None, seed: int = 0) -> StateVector:
    """Build a named state: psi_plus, basis(u), uniform_on(set), random_on(set)."""
    dim = 1 << n_qubits
    amps = np.zeros(dim, dtype=np.float64)
    if kind == "psi_plus":
        amps[:] = 2.0 ** (-n_qubits / 2.0)
    elif kind == "basis":
        if u is None or not 0 <= u < dim:
            raise ValueError(f"basis index {u} outside [0, 2^{n_qubits})")
        amps[u] = 1.0
    elif kind in ("uniform_on", "random_on"):
        idx = np.asarray(sorted({int(s) for s in (support if support is not None else ())}),
                         dtype=np.int64)
        if idx.size == 0:
            raise ValueError("support set is empty")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError("support index outside the basis range")
        if kind == "uniform_on":
            amps[idx] = idx.size ** -0.5
        else:
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal(idx.size)
            amps[idx] = vals / np.linalg.norm(vals)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return StateVector(n_qubits, amps)


def _apply_x(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """X = sum_i of the bit-i flip; flipping bit i reverses the middle axis of
    the (2^(N-1-i), 2, 2^i) view.  Accepts a vector or a (2^N, m) batch (the
    trailing columns merge into the low-bit axis under row-major order)."""
    out = np.zeros_like(amps)
    cols = 1 if amps.ndim == 1 else amps.shape[1]
    for i in range(n_qubits):
        v = amps.reshape(-1, 2, (1 << i) * cols)
        out += v[:, ::-1, :].reshape(amps.shape)
    return out


def _apply_xk_over_n(amps: np.ndarray, n_qubits: int, k: int) -> np.ndarray:
    """(X/N)^K as K successive applications of X/N."""
    cur = amps
    for _ in range(k):
        cur = _apply_x(cur, n_qubits) / n_qubits
    return cur


class MatrixFreeOperator:
    """Bound operator: an OperatorSpec attached to an instance's diagonal table.

    apply() maps amplitude arrays to amplitude arrays; the class is the single
    implementation behind apply_operator, the eigensolvers, and the shifted
    linear solves.
    """

    def __init__(self, spec: OperatorSpec, table: DiagonalTable,
                 ground: GroundSpaceInfo | None = None):
        self.spec = spec
        self.table = table
        self.n_qubits = table.n_qubits
        self.dim = 1 << table.n_qubits
        if spec.kind == "QHSQ" and ground is None:
            raise ValueError("QHSQ requires ground-space info")
        self.ground = ground
        self._ground_idx = None if ground is None else ground.ground_indices
        if spec.parity_block is None:
            self._parity_mask = None
        else:
            even, odd = parity_masks(table.n_qubits)
            self._parity_mask = even if spec.parity_block == "even" else odd

    @property
    def parity_mask(self) -> np.ndarray | None:
        return self._parity_mask

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Apply to an amplitude vector or a (2^N, m) batch of columns."""
        spec = self.spec
        diag = self.table.energies if amps.ndim == 1 else self.table.energies[:, None]
        x = amps
        if self._parity_mask is not None:
            x = x.copy()
            x[~self._parity_mask] = 0.0
        if spec.kind == "HZ":
            out = diag * x
        elif spec.kind == "X":
            out = _apply_x(x, self.n_qubits)
        elif spec.kind == "XK":
            out = _apply_xk_over_n(x, self.n_qubits, spec.k)
        elif spec.kind in ("HS", "QHSQ"):
            if spec.kind == "QHSQ":
                x = x.copy()
                x[self._ground_idx] = 0.0
            out = diag * x
            if spec.s != 0.0 and spec.big_b != 0.0:
                out -= spec.s * spec.big_b * _apply_xk_over_n(x, self.n_qubits, spec.k)
            if spec.kind == "QHSQ":
                out[self._ground_idx] = 0.0
        else:  # pragma: no cover
            raise AssertionError(spec.kind)
        if self._parity_mask is not None:
            out[~self._parity_mask] = 0.0
        return out

    def norm_bound(self) -> float:
        """Cheap upper bound on the spectral radius (|H_Z| <= J_tot, |(X/N)^K| <= 1)."""
        e = float(np.max(np.abs(self.table.energies))) if self.table.energies.size else 0.0
        if self.spec.kind == "X":
            return float(self.n_qubits)
        if self.spec.kind == "XK":
            return 1.0
        return e + abs(self.spec.s * self.spec.big_b) + 1.0


def apply_operator(spec: OperatorSpec, table: DiagonalTable,
                   ground: GroundSpaceInfo | None, state: StateVector) -> StateVector:
    """Apply a named operator to a state."""
    op = MatrixFreeOperator(spec, table, ground)
    return StateVector(state.n_qubits, op.apply(state.amplitudes))


def project(state: StateVector, subspace: str, ground: GroundSpaceInfo | None = None) -> StateVector:
    """Project onto P(ground), Q(ground), or a parity block.  Idempotent."""
    amps = state.amplitudes.copy()
    if subspace in ("P", "Q"):
        if ground is None:
            raise ValueError(f"{subspace} projection requires ground-space info")
        mask = ground.mask(state.n_qubits)
        amps = np.where(mask if subspace == "P" else ~mask, amps, 0.0)
    elif subspace in ("even", "odd"):
        even, odd = parity_masks(state.n_qubits)
        amps = np.where(even if subspace == "even" else odd, amps, 0.0)
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    return StateVector(state.n_qubits, amps)


def psi_plus_overlap(state: StateVector) -> float:
    """<psi_+|state> = 2^(-N/2) * sum of amplitudes (the l1 identity for
    non-negative states)."""
    return float(2.0 ** (-state.n_qubits / 2.0) * state.amplitudes.sum())
