"""One analysis of one instance at one H_s = H_Z - sB(X/N)^K: the H_Z table,
its ground space, the parity block, and the eigen-solves the pipelines share.

For even K the block's operators and eigenvectors are in its 2^(N-1)
coordinates, and the Analysis lists its ground states in those coordinates.

The pipelines in `analyze` and `bwpt` take an Analysis rather than an
instance, so H_Z is tabulated once and each spectrum is computed once per
analysis: `lowest` keeps one solve per operator spec, serves every request
for its m lowest pairs from it, and extends it when more pairs are asked.
The memo lives and dies with the Analysis object.  Building an Analysis and
its operators needs numpy alone; scipy is imported by the first solve that
runs ARPACK (see eigensolve).

For an even D the global flip F commutes with H_s, and where it keeps the
block's coordinates (odd K on the full space, or even K on a block of even
N) it reverses them.  There every level comes as an F = +1 and F = -1 copy,
often split by less than 1e-9, so `lowest` solves the two flip sectors of
2^(M-1) coordinates apart: a lowest pair is read from F = +1 alone, and two
or more pairs are merged from both sectors.  The caller gets the block's
pairs in the block's coordinates either way (see hilbert.flip_lift).
`psi_plus_spec` names the space that h(omega)'s operators act on.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property

import numpy as np

from . import eigensolve
from .hilbert import (
    DiagonalTable,
    GroundSpaceInfo,
    MatrixFreeOperator,
    OperatorSpec,
    coordinate_qubits,
    flip_lift,
    ground_space,
)
from .instances import Instance


def choose_parity_block(ground: GroundSpaceInfo, k: int,
                        parity_choice: str | None = None) -> str | None:
    """For even K pick the irreducible parity block holding a ground state;
    odd K needs no block."""
    if k % 2 == 1:
        return None
    if parity_choice is not None:
        if not ground.coordinates(parity_choice).size:
            raise ValueError(f"no ground state of H_Z lies in the {parity_choice} block")
        return parity_choice
    return "even" if ground.coordinates("even").size else "odd"


class Analysis:
    """An instance, its H_Z table and ground space, the full-space H_s spec,
    and the parity block, with a memo of the eigen-solves run on them.

    `spec` is the HS operator with no parity block; the block-restricted
    operators are derived from it.  The block is resolved on first use, so a
    command that never restricts to it (simulate solves both parity blocks
    for even K, the full space for odd K) does not reject a --parity choice.
    """

    def __init__(self, instance: Instance, table: DiagonalTable, spec: OperatorSpec,
                 parity_choice: str | None = None):
        if spec.kind != "HS" or spec.parity_block is not None:
            raise ValueError(f"an Analysis takes a full-space HS spec, got {spec}")
        self.instance = instance
        self.table = table
        self.ground = ground_space(table)
        self.spec = spec
        self.parity_choice = parity_choice
        self._solved: dict[OperatorSpec, eigensolve.EigenResult] = {}

    @cached_property
    def block(self) -> str | None:
        return choose_parity_block(self.ground, self.spec.k, self.parity_choice)

    @cached_property
    def block_ground_coords(self) -> np.ndarray:
        """The block's coordinates of the ground states inside it (their basis
        indices for odd K), in index order."""
        return self.ground.coordinates(self.block)

    @property
    def block_dim(self) -> int:
        """Number of basis states in the block (2^N for odd K)."""
        return 1 << coordinate_qubits(self.table.n_qubits, self.block)

    @cached_property
    def psi_plus_spec(self) -> OperatorSpec:
        """H_s in psi_+'s space, where h(omega)'s operators act: the block's
        F = +1 sector, or the block where it has no flip sectors."""
        hs = self.hs_spec
        return replace(hs, flip_sector=1) if self._in_flip_sectors(hs) else hs

    def lift(self, amps: np.ndarray) -> np.ndarray:
        """Amplitudes over psi_plus_spec's coordinates in the block's, or over
        its ground ones in block_ground_coords: flip_lift(amps, 1) or amps."""
        return amps if self.psi_plus_spec.flip_sector is None else flip_lift(amps, 1)

    def restrict(self, amps: np.ndarray) -> np.ndarray:
        """The transpose of lift: block amplitudes onto psi_plus_spec's coordinates."""
        if self.psi_plus_spec.flip_sector is None:
            return amps
        return (amps + amps[::-1])[:amps.shape[0] // 2] * np.sqrt(0.5)

    def _in_flip_sectors(self, spec: OperatorSpec) -> bool:
        """An even D, and odd K on the full space or even K on a block of
        even N; a spec that already names its sector is solved as it is."""
        return (self.instance.degree % 2 == 0 and spec.flip_sector is None
                and (spec.parity_block is None) == (spec.k % 2 == 1)
                and (spec.parity_block is None or self.table.n_qubits % 2 == 0))

    @property
    def hs_spec(self) -> OperatorSpec:
        """H_s = H_Z - sB(X/N)^K restricted to the block."""
        return replace(self.spec, parity_block=self.block)

    @property
    def qhsq_spec(self) -> OperatorSpec:
        """Q H_s Q restricted to the block."""
        return replace(self.spec, kind="QHSQ", parity_block=self.block)

    def operator(self, spec: OperatorSpec) -> MatrixFreeOperator:
        return MatrixFreeOperator(spec, self.table, self.ground)

    def lowest(self, spec: OperatorSpec, how_many: int) -> eigensolve.EigenResult:
        """The `how_many` lowest eigenpairs of `spec` in its operator's
        coordinates.  A spec's solve is extended only when more pairs are asked of
        it than it holds; otherwise the first `how_many` pairs of that solve
        are returned.  The arrays are shared between callers and read-only.
        With flip sectors one pair is F = +1's, lifted: a stoquastic H_s or
        QH_sQ has a non-negative lowest vector v, and v + Fv lies in F = +1."""
        if how_many == 1 and self._in_flip_sectors(spec):
            eig = self.lowest(replace(spec, flip_sector=1), 1)
            return replace(eig, eigenvectors=flip_lift(eig.eigenvectors, 1))
        eig = self._solved.get(spec)
        if eig is None or eig.eigenvalues.size < how_many:
            if self._in_flip_sectors(spec):
                eig = self._store(spec, self._merge_flip_sectors(spec, how_many))
            else:
                eig = self._store(spec, eigensolve.extreme_eigs(self.operator(spec),
                                                                how_many, eig))
        return eigensolve.EigenResult(eig.eigenvalues[:how_many],
                                      eig.eigenvectors[:, :how_many],
                                      eig.residuals[:how_many])

    def _store(self, spec: OperatorSpec,
               eig: eigensolve.EigenResult) -> eigensolve.EigenResult:
        for arr in (eig.eigenvalues, eig.eigenvectors, eig.residuals):
            arr.flags.writeable = False
        self._solved[spec] = eig
        return eig

    def _merge_flip_sectors(self, spec: OperatorSpec,
                            how_many: int) -> eigensolve.EigenResult:
        """At least `how_many` >= 2 lowest pairs of `spec` from its F = +1 and
        F = -1 sectors, each solved and memoized under its own spec, with the
        vectors lifted to the block's coordinates; F = +1 first on a tie.  One
        pair needs no merge: a lowest vector v >= 0 gives v + Fv in F = +1.

        A fresh request asks ceil(how_many / 2) pairs of each sector.  The
        merged values up to the lowest highest-found value of a sector that
        still has unsolved coordinates are the lowest of the block; while
        fewer than `how_many` are, that sector is extended by the pairs
        missing."""
        sectors = [replace(spec, flip_sector=f) for f in (1, -1)]
        ops = [self.operator(s) for s in sectors]
        free = [op.shape[0] - op.ground_coords.size for op in ops]
        if how_many > sum(free):
            raise eigensolve.EigensolveError(
                f"requested {how_many} eigenpairs but the deflated subspace has "
                f"dimension {sum(free)}")

        def solve(i: int, count: int) -> None:
            self._store(sectors[i], eigensolve.extreme_eigs(ops[i], count,
                                                            self._solved.get(sectors[i])))

        for i, s in enumerate(sectors):
            if s not in self._solved:
                solve(i, min(-(-how_many // 2), free[i]))
        while True:
            found = [self._solved[s] for s in sectors]
            open_tops = [(float(eig.eigenvalues[-1]), i) for i, eig in enumerate(found)
                         if eig.eigenvalues.size < free[i]]
            vals = np.concatenate([eig.eigenvalues for eig in found])
            bound = min(open_tops)[0] if open_tops else np.inf
            certified = int(np.count_nonzero(vals <= bound))
            if certified >= how_many:
                break
            i = min(open_tops)[1]
            solve(i, min(found[i].eigenvalues.size + how_many - certified, free[i]))
        order = np.argsort(vals, kind="stable")[:certified]
        vectors = np.hstack([flip_lift(eig.eigenvectors, s.flip_sector)
                             for eig, s in zip(found, sectors)])
        return eigensolve.EigenResult(vals[order], vectors[:, order],
                                      np.concatenate([eig.residuals for eig in found])[order])

    @property
    def eq01(self) -> float:
        """E^Q_{0,1}, the lowest eigenvalue of Q H_s Q in the block; infinite
        when the ground space fills the whole block (there are no Q states)."""
        if self.block_dim == self.block_ground_coords.size:
            return math.inf
        return float(self.lowest(self.qhsq_spec, 1).eigenvalues[0])
