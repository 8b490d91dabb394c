"""Computational-basis states, diagonal tables and matrix-free operators.

Basis convention: a basis state is an integer index u in [0, 2^N); bit i of u
gives the Z_i eigenvalue with 0 -> +1 and 1 -> -1.  Every operator handled here
(H_Z, X, (X/N)^K, H_s = H_Z - sB(X/N)^K, and the ground-space projections) is
real-symmetric in this basis.  A state is a float64 array of 2^M amplitudes:
M = N in the full space, or M = N-1 in a Hamming-weight parity block (even K),
whose states are indexed by their low N-1 bits, as the parity fixes the top one.
For an even degree D the global flip F = X_0...X_{N-1} commutes with every
operator here; where it keeps those coordinates (the full space, or a block of
even N) it reverses them, u -> 2^M - 1 - u, and a flip sector f = +1 or -1 has
2^(M-1) coordinates: h < 2^(M-1) stands for (|h> + f|2^M - 1 - h>)/sqrt(2).

H_Z is tabulated by walsh_table: one matmul over a split of the bits into two
halves where that counts fewer multiply-adds than the full Walsh-Hadamard
transform, a matmul per 5 qubits against the 32 x 32 Sylvester Hadamard matrix.
X = sum_i X_i is diagonal in the Walsh-Hadamard basis, so X and every (X/N)^K,
H diag(((N - 2|h|)/N)^K) H / 2^M, are one pair of full transforms, whatever
K is.  Every transform runs one chunk loop, whose blocks and view shapes are
built on the first transform of each bit count and cached.  A transform pair
ping-pongs between two work arrays of its input's size: an operator's product
with a vector runs in the operator's own pair, with their chunk views, made by
its first vector product and kept as long as the operator; a batch's product,
xk and xk_over_n run in two new arrays, and xk returns one of them.  A pair
reads a vector with no coordinate to zero where it lies, and copies only an
input with coordinates to zero, or one that is not contiguous column-major,
into its first work array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .instances import Instance

DEFAULT_MAX_QUBITS = 26  # dense-vector ceiling: 0.5 GiB per vector, two for an unsplit tabulation
DEGENERACY_TOL = 1e-9

# Each 5-qubit chunk of the Walsh-Hadamard transform is one matmul against
# H[u, v] = (-1)^popcount(u & v); its top-left 2^b x 2^b block is the b-qubit
# table, for every N.
_BLOCK_BITS = 5
_HADAMARD = (-1.0) ** np.bitwise_count(np.arange(1 << _BLOCK_BITS)[:, None]
                                       & np.arange(1 << _BLOCK_BITS))
_NO_COORDS = np.zeros(0, dtype=np.int64)


class BudgetError(RuntimeError):
    """2^N table exceeds the configured memory budget.

    Raise the budget (--max-qubits on the CLI), or use energy_of() for
    streaming per-index energy evaluation instead.
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
    n_qubits: int

    def coordinates(self, parity_block: str | None,
                    flip_sector: int | None = None) -> np.ndarray:
        """The block's coordinates u & (2^(N-1) - 1) of the ground states u of
        its parity, in index order (all u for no block); see basis_indices.
        The global flip reverses that list, u -> 2^M - 1 - u, and a flip
        sector keeps the smaller of each pair, in the order of its first half."""
        u = self.ground_indices
        if parity_block is not None:
            top = 1 << (self.n_qubits - 1)
            u = u[np.bitwise_count(u) % 2 == (parity_block == "odd")] & (top - 1)
        if flip_sector is None:
            return u
        last = (1 << coordinate_qubits(self.n_qubits, parity_block)) - 1
        return np.minimum(u, last - u)[:u.size // 2]


@dataclass(frozen=True)
class OperatorSpec:
    """One of the named operators: X, HS, QHSQ.

    HS(B, K) is H_Z - B(X/N)^K (H_Z itself at B = 0): B is the paper's field
    sB, so the schedule position s is folded into it before an operator is
    built.  QHSQ is HS conjugated by the excited-space projector Q.
    `parity_block` restricts HS or QHSQ to the even or odd Hamming-weight
    basis states; it needs an even K, for which HS is block diagonal.
    `flip_sector` (+1 or -1) further restricts them to that eigenspace of the
    global flip F, which needs an even D and, in a block, an even N.
    """

    kind: str
    big_b: float = 0.0
    k: int = 1
    parity_block: str | None = None
    flip_sector: int | None = None

    def __post_init__(self):
        if self.kind not in ("X", "HS", "QHSQ"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("HS", "QHSQ") and not 0.0 <= self.big_b < np.inf:
            raise ValueError(f"B={self.big_b} must be finite and non-negative")
        if self.k < 1:
            raise ValueError(f"K={self.k} must be >= 1")
        if self.parity_block not in (None, "even", "odd"):
            raise ValueError(f"parity_block must be 'even' or 'odd', got {self.parity_block!r}")
        if self.parity_block is not None and self.k % 2:
            raise ValueError(f"a parity block needs an even K, got K={self.k}: X^K "
                             "for odd K maps each block to the other")
        if self.flip_sector not in (None, 1, -1):
            raise ValueError(f"flip_sector must be +1 or -1, got {self.flip_sector!r}")
        if self.flip_sector is not None and self.kind == "X":
            raise ValueError("flip sectors restrict HS or QHSQ, not X")
        if self.kind == "X" and (self.k != 1 or self.parity_block or self.big_b):
            raise ValueError("X is the plain sum of X_i on the full space: it takes "
                             "no K, parity block or field")


@cache
def _chunk_plan(n_qubits: int) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
    """The chunks of a transform on `n_qubits` bits, 5, 5, ..., then the
    rest, as (Sylvester block, view shape) pairs: the first chunk's rows of
    2^b entries, then each later chunk's (2^(N-5j-b), 2^b, 2^(5j)) view.
    Built on first use for each bit count and kept; the blocks are views of
    the one 32 x 32 matrix."""
    b = min(n_qubits, _BLOCK_BITS)
    plan = [(_HADAMARD[:1 << b, :1 << b], (-1, 1 << b))]
    for low in range(b, n_qubits, _BLOCK_BITS):
        b = min(n_qubits - low, _BLOCK_BITS)
        plan.append((_HADAMARD[:1 << b, :1 << b], (-1, 1 << b, 1 << low)))
    return tuple(plan)


def _chunk_views(flat: np.ndarray, n_qubits: int,
                 shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The views of a flat array that a transform on `n_qubits` bits works
    in: one per chunk, in _chunk_plan's shapes, then its (m, 2^N) view, a
    batch's columns as rows or a vector as one row, then its column-major
    view of `shape`, the batch or vector it holds."""
    return (*(flat.reshape(view) for _, view in _chunk_plan(n_qubits)),
            flat.reshape(-1, 1 << n_qubits), flat.reshape(shape, order="F"))


def _walsh_chunks(rows: np.ndarray, dst: tuple[np.ndarray, ...], spare: tuple[np.ndarray, ...],
                  n_qubits: int) -> tuple[np.ndarray, ...]:
    """The chunk loop of every transform, on flat arrays of 2^N entries or
    of a batch's columns one after another, each given by its _chunk_views:
    chunk 0 reads `rows`, the source's first view, and writes dst, and each
    later chunk reads the last one's output and writes the other of dst and
    spare, which may be the source itself.  Returns the views of the one of
    dst and spare that holds the transform."""
    (block, _), *later = _chunk_plan(n_qubits)
    np.matmul(rows, block, out=dst[0])
    for j, (block, _) in enumerate(later, 1):
        np.matmul(block, dst[j], out=spare[j])
        dst, spare = spare, dst
    return dst


def walsh_hadamard(c: np.ndarray, n_qubits: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform c[u] <- sum_m c[m] (-1)^popcount(u & m)
    of a contiguous 2^N vector, or of each column of a column-major (2^N, m)
    batch.  c is scratch: the result is returned, in c or in one new array of
    its shape and layout, as the parity of the chunk count ceil(N/5) picks.

    Chunk j transforms bits 5j..5j+4 (b <= 5 of them) by one matmul against
    the Sylvester matrix on the middle axis of the (2^(N-5j-b), 2^b, 2^(5j))
    view, summed in matmul order; the blocks and view shapes are cached per
    bit count (_chunk_plan).  A batch's columns lie one after another, so
    its column index is just more high bits of that view."""
    views = _chunk_views(c.T.reshape(-1), n_qubits, c.shape)
    new = _chunk_views(np.empty(c.size), n_qubits, c.shape)
    return _walsh_chunks(views[0], new, views, n_qubits)[-1]


def _chunk_cost(bits: int) -> int:
    """Multiply-adds per entry of walsh_hadamard on `bits` bits: 2^b per chunk."""
    return sum(1 << min(bits - low, _BLOCK_BITS) for low in range(0, bits, _BLOCK_BITS))


def walsh_table(masks: np.ndarray, weights: np.ndarray, n_qubits: int) -> np.ndarray:
    """The 2^N table sum_t w_t (-1)^popcount(u & m_t) of int64 masks m_t, as
    a 2^high x 2^low matrix (low = ceil(N/2)) written by one matmul: the
    signs of the r distinct high masks of the terms with low bits, and the
    other terms' high-bit transform, times their r columns' low-bit
    transforms and a column of ones; or the full transform where that counts
    no more multiply-adds per entry."""
    low, high = n_qubits - n_qubits // 2, n_qubits // 2
    m_hi, m_lo = masks >> low, masks & ((1 << low) - 1)
    split = m_lo != 0
    hi_masks, column = np.unique(m_hi[split], return_inverse=True)
    r = hi_masks.size
    # per entry: the matmul and G's transform over r + 1 columns, and e_hi's transform
    counted = (r + 1) * (1 + _chunk_cost(low) / (1 << high)) + _chunk_cost(high) / (1 << low)
    if counted >= _chunk_cost(n_qubits):  # the full transform, with its two-table peak
        table = np.zeros(1 << n_qubits)
        np.add.at(table, masks, weights)
        return walsh_hadamard(table, n_qubits)
    g = np.zeros((1 << low, r + 1), order="F")
    np.add.at(g, (m_lo[split], column), weights[split])
    g[0, r] = 1.0  # its low-bit transform is a column of ones, e_hi's factor
    g = walsh_hadamard(g, low)
    e_hi = np.zeros(1 << high)
    np.add.at(e_hi, m_hi[~split], weights[~split])
    signs = np.column_stack([(-1.0) ** np.bitwise_count(np.arange(1 << high)[:, None] & hi_masks),
                             walsh_hadamard(e_hi, high)])
    return np.matmul(signs, g.T, out=np.empty((1 << high, 1 << low))).ravel()


def energy_of(instance: Instance, u: int) -> float:
    """Streaming <u|H_Z|u> for a single basis index (no 2^N table)."""
    e = 0.0
    for t in instance.terms:
        e += t.weight if (u & t.mask).bit_count() % 2 == 0 else -t.weight
    return e


def evaluate_hz(instance: Instance, max_qubits: int = DEFAULT_MAX_QUBITS) -> DiagonalTable:
    """Tabulate H_Z over all 2^N basis states: <u|Z^m|u> = (-1)^popcount(u & m),
    so it is walsh_table of the term masks and weights, for any degree, and
    can differ from energy_of() in the last bits for non-integer weights."""
    n = instance.n_qubits
    if n > max_qubits:
        raise BudgetError(
            f"N={n} exceeds the dense budget of {max_qubits} qubits; give "
            f"--max-qubits {n} to tabulate it, or use energy_of() for streaming "
            "per-index evaluation"
        )
    masks = np.array([t.mask for t in instance.terms], dtype=np.int64)
    energies = walsh_table(masks, instance.weights(), n)
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
    return GroundSpaceInfo(e0=table.e0, n0=int(ground.size), ground_indices=ground,
                           gap_certified=certified, n_qubits=table.n_qubits)


def coordinate_qubits(n_qubits: int, parity_block: str | None,
                      flip_sector: int | None = None) -> int:
    """M: a parity block has 2^(N-1) coordinates, the full space 2^N.  A
    basis index u in the block has coordinate u & (2^M - 1).  A flip sector
    halves either."""
    return n_qubits - (parity_block is not None) - (flip_sector is not None)


def flip_lift(amps: np.ndarray, flip_sector: int | np.ndarray) -> np.ndarray:
    """Amplitudes of flip-sector coordinates, a vector or a (2^(M-1), m)
    batch, in the coordinates they are a sector of: [s; f s[::-1]] / sqrt(2),
    with f the sector, or a batch's m sectors, one per column."""
    return np.concatenate([amps, flip_sector * amps[::-1]]) * np.sqrt(0.5)


def basis_indices(coords: np.ndarray, n_qubits: int, parity_block: str | None) -> np.ndarray:
    """Basis indices of coordinates: in a block, the top bit completes its parity."""
    if parity_block is None:
        return coords
    top = np.bitwise_count(coords) % 2 ^ (parity_block == "odd")
    return coords | top.astype(coords.dtype) << (n_qubits - 1)


def _xk_scale(n_qubits: int, k: int, low: int,
              flip_sector: int | None = None) -> np.ndarray:
    """((N - 2|h|)/N)^K / 2^M for every h < 2^M, |h| = popcount(h): (X/N)^K
    in the Walsh-Hadamard basis of M = `low` coordinate bits, times the
    1/2^M of a transform pair.

    The Walsh-Hadamard vector h of the M + 1 bits a flip sector halves has
    F = (-1)^|h|, so the sector keeps, for each h over its M low bits, the one
    top bit t = (|h| + [f = -1]) mod 2 of that sign: its scale has weight
    |h| + t.  The sector's sqrt(2)^2 cancels against the halved transform."""
    per_weight = ((n_qubits - 2.0 * np.arange(low + 2)) / n_qubits) ** k / (1 << low)
    weight = np.bitwise_count(np.arange(1 << low, dtype=np.uint32))
    if flip_sector is not None:
        weight += (weight + (flip_sector < 0)) % 2
    return per_weight[weight]


def _work_arrays(amps: np.ndarray, low: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Two new float64 arrays of amps' shape, as the _chunk_views of a
    transform pair on `low` bits."""
    return (_chunk_views(np.empty(amps.size), low, amps.shape),
            _chunk_views(np.empty(amps.size), low, amps.shape))


def _transform_pair(amps: np.ndarray, scale: np.ndarray, low: int, zero: np.ndarray,
                    work: tuple[tuple[np.ndarray, ...], ...]) -> np.ndarray:
    """H diag(scale) H amps for the Walsh-Hadamard transform H on `low` bits,
    reading the coordinates in `zero` as 0; amps is unchanged.  Both
    transforms ping-pong between the two arrays of amps' shape in `work`
    (_work_arrays), and the result is one of them.  A contiguous vector or
    column-major batch with no coordinate to zero is read where it lies;
    otherwise the first transform reads a column-major copy in the first
    work array, so a batch gives the same bits in either layout."""
    first, second = work
    if zero.size or not amps.flags.f_contiguous:
        first[-1][...] = amps
        first[-1][zero] = 0.0
        rows, dst, spare = first[0], second, first
    else:
        rows, dst, spare = amps.T.reshape(first[0].shape), first, second
    c = _walsh_chunks(rows, dst, spare, low)
    np.multiply(c[-2], scale, out=c[-2])
    return _walsh_chunks(c[0], spare if c is dst else dst, c, low)[-1]


def xk_over_n(amps: np.ndarray, n_qubits: int, k: int) -> np.ndarray:
    """(X/N)^K on a full-space vector or (2^N, m) batch, amps unchanged: the
    pair of MatrixFreeOperator.xk, with a scale built per call."""
    return _transform_pair(amps, _xk_scale(n_qubits, k, n_qubits), n_qubits, _NO_COORDS,
                           _work_arrays(amps, n_qubits))


class MatrixFreeOperator:
    """Bound operator: an OperatorSpec attached to an instance's diagonal table.

    It acts by `apply` on the 2^M coordinates of its parity block (M = N - 1)
    or of the full space (M = N), or on the first half of them for a flip
    sector (see flip_lift), and `shape` is (dim, dim) for that dimension;
    every solver in `eigensolve` calls `apply` for each of its products.
    `diagonal` holds H_Z in that order, and `xk_scale` the Walsh-Hadamard
    spectrum of (X/N)^K on those coordinates, built once for all of its
    products (`xk`); the X kind's is (N - 2|h|)/2^N, so X is exact on small
    integers.  QHSQ keeps its block's coordinates: the rows and columns of
    its `ground_coords` are zeroed and norm_bound() is put on their diagonal,
    so they carry no eigenvalue below the spectrum of Q H_s Q.  Its vector
    products share two work arrays of its dimension (see apply), so one
    operator serves one thread at a time.
    """

    def __init__(self, spec: OperatorSpec, table: DiagonalTable,
                 ground: GroundSpaceInfo | None = None):
        self.spec = spec
        self.table = table
        self.n_qubits = n = table.n_qubits
        block, flip = spec.parity_block, spec.flip_sector
        full = 1 << coordinate_qubits(n, block)
        dim = full >> (flip is not None)
        if spec.kind == "QHSQ" and ground is None:
            raise ValueError("QHSQ requires ground-space info")
        if flip is not None and block is not None and n % 2:
            raise ValueError(f"the global flip maps each parity block of N={n} onto "
                             "the other, so a block has no flip sectors")
        self.diagonal = table.energies
        if block is not None:
            self.diagonal = table.energies[basis_indices(np.arange(full), n, block)]
        if flip is not None:
            if np.max(np.abs(self.diagonal - self.diagonal[::-1])) > DEGENERACY_TOL:
                raise ValueError("H_Z is not symmetric under the global flip (an odd "
                                 "degree D), so it has no flip sectors")
            self.diagonal = self.diagonal[:dim]
        self.ground_coords = np.zeros(0, dtype=np.int64)
        if spec.kind == "QHSQ":
            self.ground_coords = ground.coordinates(block, flip)
            self.diagonal = self.diagonal.copy()
            self.diagonal[self.ground_coords] = self.norm_bound()
        self._low = coordinate_qubits(n, block, flip)  # the transforms' bits
        self.xk_scale = _xk_scale(n, spec.k, self._low, flip)
        if spec.kind == "X":
            self.xk_scale = (n - 2.0 * np.bitwise_count(np.arange(full))) / full
        self.shape = (dim, dim)
        self._work = None  # a vector product's work arrays, made by the first one

    def xk(self, amps: np.ndarray) -> np.ndarray:
        """(X/N)^K (X for the X kind) on a vector or (2^M, m) batch in the
        operator's coordinates, reading its ground coordinates as 0, as a new
        array.  In a block X_{N-1} keeps every coordinate, so X is the
        M-qubit X plus the identity; either way (X/N)^K is xk_scale between
        two transforms."""
        return _transform_pair(amps, self.xk_scale, self._low, self.ground_coords,
                               _work_arrays(amps, self._low))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Apply to amplitudes in the operator's coordinates, a vector or a
        (2^M, m) batch, as a new array.  A vector's transform pair runs in the
        operator's own two work arrays, made by its first vector product and
        kept while it lives; a batch's runs in two new ones."""
        spec, g = self.spec, self.ground_coords
        if spec.kind == "X":
            return self.xk(amps)
        diag = self.diagonal if amps.ndim == 1 else self.diagonal[:, None]
        out = diag * amps
        if spec.big_b != 0.0:
            if amps.ndim > 1:
                work = _work_arrays(amps, self._low)
            elif self._work is None:
                work = self._work = _work_arrays(amps, self._low)
            else:
                work = self._work
            xk = _transform_pair(amps, self.xk_scale, self._low, g, work)
            if g.size:
                xk[g] = 0.0
            xk *= spec.big_b
            out -= xk
        return out

    def norm_bound(self) -> float:
        """Cheap upper bound on the spectral radius (|H_Z| <= J_tot, |(X/N)^K| <= 1)."""
        e = float(np.max(np.abs(self.table.energies))) if self.table.energies.size else 0.0
        if self.spec.kind == "X":
            return float(self.n_qubits)
        return e + abs(self.spec.big_b) + 1.0


def psi_plus_overlap(amps: np.ndarray, n_qubits: int) -> np.ndarray | float:
    """<psi_+|v> = 2^(-N/2) * sum of amplitudes (the l1 identity for
    non-negative states), per column of a batch, in the full space or a
    parity block alike; N is the caller's, as a block vector's length gives N-1."""
    if amps.shape[0] not in (1 << n_qubits, 1 << (n_qubits - 1)):
        raise ValueError(f"amplitude array of shape {amps.shape} holds neither 2^N nor "
                         f"2^(N-1) amplitudes for N={n_qubits}")
    return 2.0 ** (-n_qubits / 2.0) * amps.sum(axis=0)
