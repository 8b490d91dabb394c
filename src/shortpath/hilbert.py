"""Computational-basis states, diagonal tables and matrix-free operators.

Basis convention: a basis state is an integer index u in [0, 2^N); bit i of u
gives the Z_i eigenvalue with 0 -> +1 and 1 -> -1.  Every operator handled here
(H_Z, X, (X/N)^K, H_s = H_Z - sB(X/N)^K, and the ground-space projections) is
real-symmetric in this basis, so a state is a float64 array of 2^N
amplitudes.

H_Z is tabulated by one in-place Walsh-Hadamard transform of the term
weights.  X = sum_i X_i applies its low min(N, 5) qubits as one matmul
against the 32 x 32 hypercube adjacency matrix and each higher qubit as an
in-place add of a reversed view; (X/N)^K chains K of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .instances import Instance

DEFAULT_MAX_QUBITS = 26  # dense-vector ceiling, 0.5 GiB per vector
DEGENERACY_TOL = 1e-9

# X on the low _BLOCK_BITS qubits is one matmul against the adjacency matrix
# of the 5-cube, A[u, v] = 1 iff u ^ v is a single bit.  Its top-left
# 2^b x 2^b block is the b-cube's, so the one table serves every N.
_BLOCK_BITS = 5
_CUBE_ADJACENCY = (np.bitwise_count(np.arange(1 << _BLOCK_BITS)[:, None]
                                    ^ np.arange(1 << _BLOCK_BITS)) == 1).astype(np.float64)


class BudgetError(RuntimeError):
    """2^N table exceeds the configured memory budget.

    Use energy_of() for streaming per-index energy evaluation instead.
    """


@dataclass(frozen=True)
class DiagonalTable:
    """Energies <u|H_Z|u> for every basis state, with E_0 and the exact gap.

    `gap` is the distance from e0 to the lowest energy outside the degeneracy
    band (above e0 + DEGENERACY_TOL), or None when every energy lies in it.
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
class OperatorSpec:
    """One of the named operators: X, HS, QHSQ.

    HS(B, K) is H_Z - B(X/N)^K (H_Z itself at B = 0): B is the paper's field
    sB, so the schedule position s is folded into it before an operator is
    built.  QHSQ is HS conjugated by the excited-space projector Q.
    `parity_block` restricts to even or odd Hamming-weight basis states
    (meaningful for even K, where HS is block diagonal).
    """

    kind: str
    big_b: float = 0.0
    k: int = 1
    parity_block: str | None = None

    def __post_init__(self):
        if self.kind not in ("X", "HS", "QHSQ"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("HS", "QHSQ") and self.big_b < 0:
            raise ValueError(f"B={self.big_b} must be non-negative")
        if self.k < 1:
            raise ValueError(f"K={self.k} must be >= 1")
        if self.parity_block not in (None, "even", "odd"):
            raise ValueError(f"parity_block must be 'even' or 'odd', got {self.parity_block!r}")


def _walsh_hadamard(c: np.ndarray, n_qubits: int) -> None:
    """Unnormalised Walsh-Hadamard transform of a 2^N vector, in place:
    c[u] <- sum_m c[m] (-1)^popcount(u & m).

    Level i runs the butterfly (a, b) -> (a + b, a - b) on the middle axis of
    the (2^(N-1-i), 2, 2^i) view: the fast transform of Fino and Algazi (IEEE
    Trans. Computers, 1976), O(N 2^N) with one half-length scratch vector."""
    scratch = np.empty(c.size // 2)
    for i in range(n_qubits):
        v = c.reshape(-1, 2, 1 << i)
        a, b = v[:, 0, :], v[:, 1, :]
        diff = scratch.reshape(a.shape)
        np.subtract(a, b, out=diff)
        a += b
        b[...] = diff


def energy_of(instance: Instance, u: int) -> float:
    """Streaming <u|H_Z|u> for a single basis index (no 2^N table)."""
    e = 0.0
    for t in instance.terms:
        e += t.weight if (u & t.mask).bit_count() % 2 == 0 else -t.weight
    return e


def evaluate_hz(instance: Instance, max_qubits: int = DEFAULT_MAX_QUBITS) -> DiagonalTable:
    """Tabulate H_Z over all 2^N basis states.

    <u|Z^m|u> = (-1)^popcount(u & m), so the diagonal of H_Z = sum_t w_t
    Z^{mask_t} is the Walsh-Hadamard transform of c[mask_t] = w_t, for any
    degree and term count.  Non-integer weights are summed in butterfly order
    and can differ from energy_of() in the last bits.
    """
    n = instance.n_qubits
    if n > max_qubits:
        raise BudgetError(
            f"N={n} exceeds the dense budget of {max_qubits} qubits; "
            "use energy_of() for streaming per-index evaluation"
        )
    energies = np.zeros(1 << n, dtype=np.float64)
    masks = np.array([t.mask for t in instance.terms], dtype=np.int64)
    np.add.at(energies, masks, instance.weights())
    _walsh_hadamard(energies, n)
    e0 = float(energies.min())
    first_above = float(np.min(energies, where=energies > e0 + DEGENERACY_TOL,
                               initial=np.inf))
    gap = first_above - e0 if first_above < np.inf else None
    return DiagonalTable(n_qubits=n, energies=energies, e0=e0, gap=gap)


def ground_space(table: DiagonalTable) -> GroundSpaceInfo:
    """List all basis indices within DEGENERACY_TOL of e0 and certify the gap.

    gap_certified means the table's gap to the first excluded energy is at
    least 1 - 1e-9 (or nothing is excluded), the unit-gap promise the theorem
    checks rely on.  A smaller gap is recorded, not rejected.
    """
    ground = np.flatnonzero(table.energies <= table.e0 + DEGENERACY_TOL)
    certified = table.gap is None or table.gap >= 1 - 1e-9
    return GroundSpaceInfo(
        e0=table.e0, n0=int(ground.size), ground_indices=ground, gap_certified=certified
    )


def parity_masks(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of (even, odd) Hamming-weight basis states."""
    u = np.arange(1 << n_qubits, dtype=np.uint64)
    odd = (np.bitwise_count(u) & 1).astype(bool)
    return ~odd, odd


def make_state(kind: str, n_qubits: int, u: int | None = None,
               support: Iterable[int] | None = None, seed: int = 0) -> np.ndarray:
    """Amplitudes of a named state: psi_plus, basis(u), uniform_on(set),
    random_on(set)."""
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
    return amps


def _apply_x(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """X = sum_i of the bit-i flip.  Accepts a vector or a (2^N, m) batch.

    The low b = min(N, 5) qubits go in one matmul against the b-cube's
    adjacency matrix: a (2^(N-b), 2^b) view of a vector times it, or it times
    each (2^b, m) slab of a (2^(N-b), 2^b, m) view of a batch (columns stay
    their own axis instead of merging into the low-bit axis).  Each higher
    bit i reverses the middle axis of the (2^(N-1-i), 2, 2^i, ...) view and is
    added in place.  Sums are taken in matmul order, so non-integer
    amplitudes can differ from a per-bit flip sum in the last bits."""
    # BLAS sums in an order that depends on the strides; one layout keeps
    # the bits independent of how the caller stores its batch
    amps = np.ascontiguousarray(amps)
    b = min(n_qubits, _BLOCK_BITS)
    cube = _CUBE_ADJACENCY[:1 << b, :1 << b]
    cols = amps.shape[1:]
    if amps.ndim == 1:
        out = amps.reshape(-1, 1 << b) @ cube  # cube is symmetric
    else:
        out = np.matmul(cube, amps.reshape((-1, 1 << b) + cols))
    out = out.reshape(amps.shape)  # a C-order view, owned by the matmul result
    for i in range(b, n_qubits):
        shape = (-1, 2, 1 << i) + cols
        acc = out.reshape(shape)
        acc += amps.reshape(shape)[:, ::-1]
    return out


def _apply_xk_over_n(amps: np.ndarray, n_qubits: int, k: int) -> np.ndarray:
    """(X/N)^K as K successive applications of X/N, dividing in place so at
    most the input and two iterates are alive."""
    for _ in range(k):
        amps = _apply_x(amps, n_qubits)
        amps /= n_qubits
    return amps


class MatrixFreeOperator(LinearOperator):
    """Bound operator: an OperatorSpec attached to an instance's diagonal table.

    `support` holds the sorted basis indices the operator acts on: its parity
    block, minus the ground indices for QHSQ.  The operator is the
    LinearOperator of that block, of shape (|support|, |support|), which the
    eigensolvers and the shifted linear solves use as it is.
    """

    def __init__(self, spec: OperatorSpec, table: DiagonalTable,
                 ground: GroundSpaceInfo | None = None):
        self.spec = spec
        self.table = table
        self.n_qubits = table.n_qubits
        self.dim = 1 << table.n_qubits
        if spec.kind == "QHSQ" and ground is None:
            raise ValueError("QHSQ requires ground-space info")
        keep = np.ones(self.dim, dtype=bool)
        if spec.parity_block is not None:
            even, odd = parity_masks(table.n_qubits)
            keep = even if spec.parity_block == "even" else odd
        if spec.kind == "QHSQ":
            keep[ground.ground_indices] = False
        self.support = np.flatnonzero(keep)
        super().__init__(np.float64, (self.support.size, self.support.size))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Apply to amplitudes over `support` (a vector or a (|support|, m) batch),
        through a zeroed 2^N buffer unless the support is the full space."""
        spec = self.spec
        full = self.support.size == self.dim
        x = amps
        if not full:
            x = np.zeros((self.dim,) + amps.shape[1:])
            x[self.support] = amps
        if spec.kind == "X":
            out = _apply_x(x, self.n_qubits)
        else:  # HS and QHSQ differ only in their support
            diag = self.table.energies if x.ndim == 1 else self.table.energies[:, None]
            out = diag * x
            if spec.big_b != 0.0:
                out -= spec.big_b * _apply_xk_over_n(x, self.n_qubits, spec.k)
        return out if full else out[self.support]

    # these call apply rather than alias it, so a wrapper of apply sees every product
    def _matvec(self, y: np.ndarray) -> np.ndarray:
        return self.apply(y.ravel())

    def _matmat(self, ys: np.ndarray) -> np.ndarray:
        return self.apply(ys)

    def _adjoint(self) -> MatrixFreeOperator:
        return self  # real symmetric

    def norm_bound(self) -> float:
        """Cheap upper bound on the spectral radius (|H_Z| <= J_tot, |(X/N)^K| <= 1)."""
        e = float(np.max(np.abs(self.table.energies))) if self.table.energies.size else 0.0
        if self.spec.kind == "X":
            return float(self.n_qubits)
        return e + abs(self.spec.big_b) + 1.0


def n_qubits_of(amps: np.ndarray) -> int:
    """N for an amplitude vector of length 2^N; anything else is rejected."""
    size = amps.size
    if amps.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(f"amplitude array of shape {amps.shape} is not a 2^N vector")
    return size.bit_length() - 1


def psi_plus_overlap(amps: np.ndarray) -> float:
    """<psi_+|state> = 2^(-N/2) * sum of amplitudes (the l1 identity for
    non-negative states)."""
    n = n_qubits_of(amps)
    return float(2.0 ** (-n / 2.0) * amps.sum())
