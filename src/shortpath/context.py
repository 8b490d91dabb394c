"""One analysis of one instance at one H_s = H_Z - sB(X/N)^K: the H_Z table,
its ground space, the parity block, and the eigen-solves the pipelines share.

For even K the block's operators and eigenvectors are in its 2^(N-1)
coordinates, and the Analysis lists its ground states in those coordinates.

The pipelines in `analyze` and `bwpt` take an Analysis rather than an
instance, so H_Z is tabulated once and each spectrum is computed once per
analysis: `lowest` keeps one solve per operator spec, serves every request
for its m lowest pairs from it, and extends it when more pairs are asked.
The memo lives and dies with the Analysis object.
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
        are returned.  The arrays are shared between callers and read-only."""
        eig = self._solved.get(spec)
        if eig is None or eig.eigenvalues.size < how_many:
            eig = eigensolve.extreme_eigs(self.operator(spec), how_many, eig)
            for arr in (eig.eigenvalues, eig.eigenvectors, eig.residuals):
                arr.flags.writeable = False
            self._solved[spec] = eig
        return eigensolve.EigenResult(eig.eigenvalues[:how_many],
                                      eig.eigenvectors[:, :how_many],
                                      eig.residuals[:how_many])

    @property
    def eq01(self) -> float:
        """E^Q_{0,1}, the lowest eigenvalue of Q H_s Q in the block; infinite
        when the ground space fills the whole block (there are no Q states)."""
        if self.block_dim == self.block_ground_coords.size:
            return math.inf
        return float(self.lowest(self.qhsq_spec, 1).eigenvalues[0])
