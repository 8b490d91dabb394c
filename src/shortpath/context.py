"""One analysis of one instance at one (B, K): the H_Z table, its ground space,
the parity block, and the eigen-solves the pipelines share.

The pipelines in `analyze` and `bwpt` take an Analysis rather than an
instance, so H_Z is tabulated once and each spectrum is computed once per
analysis: `lowest` memoizes extreme_eigs by its exact arguments.  The memo
lives and dies with the Analysis object.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import eigensolve
from .hilbert import (
    DiagonalTable,
    GroundSpaceInfo,
    HsParams,
    MatrixFreeOperator,
    OperatorSpec,
    ground_space,
)
from .instances import Instance


def choose_parity_block(ground: GroundSpaceInfo, k: int,
                        parity_choice: str | None = None) -> str | None:
    """For even K pick the irreducible parity block holding a ground state;
    odd K needs no block."""
    if k % 2 == 1:
        return None
    parities = np.array([int(u).bit_count() & 1 for u in ground.ground_indices])
    has_even = bool(np.any(parities == 0))
    has_odd = bool(np.any(parities == 1))
    if parity_choice is not None:
        want_odd = parity_choice == "odd"
        if (want_odd and not has_odd) or (not want_odd and not has_even):
            raise ValueError(f"no ground state of H_Z lies in the {parity_choice} block")
        return parity_choice
    return "even" if has_even else "odd"


class Analysis:
    """An instance, its H_Z table and ground space, HsParams, and the parity
    block, with a memo of the eigen-solves run on them.

    The block is resolved on first use, so a command that never restricts to
    it (simulate works in the full space) does not reject a --parity choice.
    """

    def __init__(self, instance: Instance, table: DiagonalTable, params: HsParams,
                 parity_choice: str | None = None):
        self.instance = instance
        self.table = table
        self.ground = ground_space(table)
        self.params = params
        self.parity_choice = parity_choice
        self._solved: dict[tuple[OperatorSpec, int], eigensolve.EigenResult] = {}

    @cached_property
    def block(self) -> str | None:
        return choose_parity_block(self.ground, self.params.k, self.parity_choice)

    @cached_property
    def _block_extent(self) -> tuple[np.ndarray, int]:
        """(ground indices inside the block, block dimension), both read from
        the support of the H_s operator, so the block is decided in one place.
        The support itself is not kept: it is a 2^N index array."""
        support = self.operator(self.hs_spec).support
        inside = np.intersect1d(self.ground.ground_indices, support, assume_unique=True)
        return inside, int(support.size)

    @property
    def block_ground_indices(self) -> np.ndarray:
        """Ground basis indices inside the block (all of them for odd K)."""
        return self._block_extent[0]

    @property
    def block_dim(self) -> int:
        """Number of basis states in the block (2^N for odd K)."""
        return self._block_extent[1]

    @property
    def hs_spec(self) -> OperatorSpec:
        """H_s = H_Z - sB(X/N)^K restricted to the block."""
        p = self.params
        return OperatorSpec("HS", s=p.s, big_b=p.big_b, k=p.k, parity_block=self.block)

    @property
    def qhsq_spec(self) -> OperatorSpec:
        """Q H_s Q restricted to the block."""
        p = self.params
        return OperatorSpec("QHSQ", s=p.s, big_b=p.big_b, k=p.k, parity_block=self.block)

    def operator(self, spec: OperatorSpec) -> MatrixFreeOperator:
        return MatrixFreeOperator(spec, self.table, self.ground)

    def lowest(self, spec: OperatorSpec, how_many: int) -> eigensolve.EigenResult:
        """The `how_many` lowest eigenpairs of `spec` on its operator's
        support, solved once per analysis.  The returned arrays are shared
        between callers and read-only."""
        key = (spec, how_many)
        if key not in self._solved:
            eig = eigensolve.extreme_eigs(self.operator(spec), how_many)
            for arr in (eig.eigenvalues, eig.eigenvectors, eig.residuals):
                arr.flags.writeable = False
            self._solved[key] = eig
        return self._solved[key]

    @property
    def eq01(self) -> float:
        """E^Q_{0,1}, the lowest eigenvalue of Q H_s Q in the block; infinite
        when the ground space fills the whole block (there are no Q states)."""
        if self.block_dim == self.block_ground_indices.size:
            return math.inf
        return float(self.lowest(self.qhsq_spec, 1).eigenvalues[0])
