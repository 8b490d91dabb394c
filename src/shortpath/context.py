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
    parity_masks,
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
    def block_ground_indices(self) -> np.ndarray:
        """Ground basis indices inside the block (all of them for odd K)."""
        idx = self.ground.ground_indices
        if self.block is None:
            return idx
        even, _odd = parity_masks(self.table.n_qubits)
        return idx[even[idx] if self.block == "even" else ~even[idx]]

    @property
    def block_dim(self) -> int:
        """Number of basis states in the block (2^N for odd K)."""
        return (1 << self.table.n_qubits) >> (self.block is not None)

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
        """The `how_many` lowest eigenpairs of `spec`, solved once per analysis.

        QHSQ is solved with the ground indices deflated and every other kind
        with no deflation, so (spec, how_many) are the solve's exact
        arguments.  The returned arrays are shared between callers and
        read-only."""
        key = (spec, how_many)
        if key not in self._solved:
            deflate = self.ground.ground_indices if spec.kind == "QHSQ" else None
            eig = eigensolve.extreme_eigs(self.operator(spec), how_many,
                                          deflate_indices=deflate)
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
