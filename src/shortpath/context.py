"""One analysis of one instance at one H_s = H_Z - sB(X/N)^K: the H_Z table,
its ground space, the parity block, and the eigen-solves the pipelines share.

For even K the block's operators and eigenvectors are in its 2^(N-1)
coordinates, and the Analysis lists its ground states in those coordinates.

The pipelines in `analyze` and `bwpt` take an Analysis rather than an
instance, so H_Z is tabulated once and each spectrum is computed once per
analysis; so are E^Q_{0,1} (`eq01`) and the spectral report (`spectral`).
`lowest` reads every spectrum from the memoized solves of its sectors, by one
loop: a spec is its own one sector, except that for an even D, where the
global flip F keeps the block's coordinates (odd K on the full space, or even
K on a block of even N) and reverses them, it is the F = +1 and F = -1
sectors of 2^(M-1) coordinates.  There every level comes as an F = +1 and
F = -1 copy, often split by less than 1e-9, and solving the sectors apart
keeps the pair out of one Krylov run.  A sector's solve is
extended only when more pairs are asked than it holds.  The memo holds only
the specs that were solved, and lives and dies with the Analysis object; the
caller gets a spectrum in its spec's coordinates either way (see
hilbert.flip_lift).  `psi_plus_spec` names the space that h(omega)'s
operators act on.  Building an Analysis and its operators needs numpy alone;
scipy is imported by the first solve (see eigensolve).
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from . import analyze


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
    An instance with no terms is refused: every basis state would be a
    ground state, and a solve would ask for every pair of the block.
    """

    def __init__(self, instance: Instance, table: DiagonalTable, spec: OperatorSpec,
                 parity_choice: str | None = None):
        if spec.kind != "HS" or spec.parity_block is not None:
            raise ValueError(f"an Analysis takes a full-space HS spec, got {spec}")
        if not instance.terms:
            raise ValueError("the instance has no terms, so H_Z = 0 and every basis state "
                             "is a ground state; give it at least one term")
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
        return self._sectors(self.hs_spec)[0]

    def lift(self, amps: np.ndarray) -> np.ndarray:
        """Amplitudes over psi_plus_spec's coordinates in the block's, or over
        its ground ones in block_ground_coords: flip_lift(amps, 1) or amps."""
        return amps if self.psi_plus_spec.flip_sector is None else flip_lift(amps, 1)

    def restrict(self, amps: np.ndarray) -> np.ndarray:
        """The transpose of lift: block amplitudes onto psi_plus_spec's coordinates."""
        if self.psi_plus_spec.flip_sector is None:
            return amps
        return (amps + amps[::-1])[:amps.shape[0] // 2] * np.sqrt(0.5)

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
        coordinates, read-only.  One pair is read from the first sector alone:
        a stoquastic H_s or QH_sQ has a non-negative lowest vector v, and
        v + Fv lies in F = +1.  A fresh sector is asked ceil(how_many /
        sectors) pairs.  The values up to the lowest highest-found value of a
        sector with unsolved coordinates left are the lowest of the spec, and
        while fewer than `how_many` are, that sector is extended by the pairs
        missing.  A spec solved as itself gets prefix views of its solve; the
        sectors' pairs are merged on each request, F = +1 first on a tie, with
        the vectors lifted to the spec's coordinates."""
        sectors = self._sectors(spec)
        if how_many == 1:
            sectors = sectors[:1]
        free = [self._free_dim(s) for s in sectors]
        if how_many > sum(free):
            raise eigensolve.EigensolveError(
                f"requested {how_many} eigenpairs but the deflated subspace has "
                f"dimension {sum(free)}")
        # every pair of a space is its dense spectrum, which the dense cap bounds
        if how_many == sum(free) and 1 << self.table.n_qubits > eigensolve.DENSE_DIM_CAP:
            raise eigensolve.EigensolveError(
                f"{spec.kind} on the {spec.parity_block or 'full'} block was asked for all "
                f"{how_many} of its eigenpairs, a dense spectrum, but 2^N = "
                f"{1 << self.table.n_qubits} exceeds the dense cap of "
                f"{eigensolve.DENSE_DIM_CAP}")
        for i, s in enumerate(sectors):
            if s not in self._solved:
                self._solve(s, min(-(-how_many // len(sectors)), free[i]))
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
            self._solve(sectors[i], min(found[i].eigenvalues.size + how_many - certified,
                                        free[i]))
        if sectors == [spec]:
            eig = found[0]
            return eigensolve.EigenResult(eig.eigenvalues[:how_many],
                                          eig.eigenvectors[:, :how_many],
                                          eig.residuals[:how_many])
        order = np.argsort(vals, kind="stable")[:how_many]
        signs = np.repeat([s.flip_sector for s in sectors],
                          [eig.eigenvalues.size for eig in found])[order]
        vectors = np.hstack([eig.eigenvectors for eig in found])[:, order]
        return _read_only(eigensolve.EigenResult(
            vals[order], flip_lift(vectors, signs),
            np.concatenate([eig.residuals for eig in found])[order]))

    @cached_property
    def spectral(self) -> analyze.SpectralReport:
        """analyze.spectral_report of this analysis, computed on first use;
        every section that reads the band reads this one record."""
        from .analyze import spectral_report  # analyze imports this module
        return spectral_report(self)

    def _sectors(self, spec: OperatorSpec) -> list[OperatorSpec]:
        """The F = +1 and F = -1 sectors of `spec` for an even D where F keeps
        its coordinates, else [spec]; a spec that names its sector is solved
        as it is."""
        if (self.instance.degree % 2 == 0 and spec.flip_sector is None
                and (spec.parity_block is None) == (spec.k % 2 == 1)
                and (spec.parity_block is None or self.table.n_qubits % 2 == 0)):
            return [replace(spec, flip_sector=f) for f in (1, -1)]
        return [spec]

    def _free_dim(self, spec: OperatorSpec) -> int:
        """The operator's coordinates less QHSQ's ground ones, with no operator built."""
        dim = 1 << coordinate_qubits(self.table.n_qubits, spec.parity_block, spec.flip_sector)
        if spec.kind == "QHSQ":
            dim -= self.ground.coordinates(spec.parity_block, spec.flip_sector).size
        return dim

    def _solve(self, spec: OperatorSpec, how_many: int) -> None:
        """Solve or extend the memo of `spec` to `how_many` pairs."""
        self._solved[spec] = _read_only(eigensolve.extreme_eigs(
            self.operator(spec), how_many, self._solved.get(spec)))

    @cached_property
    def eq01(self) -> float:
        """E^Q_{0,1}, the lowest eigenvalue of Q H_s Q in the block; infinite
        when the ground space fills the whole block (there are no Q states)."""
        if self.block_dim == self.block_ground_coords.size:
            return math.inf
        return float(self.lowest(self.qhsq_spec, 1).eigenvalues[0])


def _read_only(eig: eigensolve.EigenResult) -> eigensolve.EigenResult:
    for arr in (eig.eigenvalues, eig.eigenvectors, eig.residuals):
        arr.flags.writeable = False
    return eig
