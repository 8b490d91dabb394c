"""MAX-D-LIN-2 problem instances.

An instance is a weighted sum of degree-D products of Pauli Z operators on N
qubits.  This module defines the instance data structures, random and toy
generators, and a plain-text file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np


class InstanceError(ValueError):
    """Raised for malformed instance data (bad terms, bad files)."""


@dataclass(frozen=True)
class Term:
    """A single coupling: a product of Z on `qubits` with a real `weight`."""

    qubits: tuple[int, ...]
    weight: float

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise InstanceError(f"term {self.qubits} repeats a qubit index")
        if tuple(sorted(self.qubits)) != self.qubits:
            object.__setattr__(self, "qubits", tuple(sorted(self.qubits)))
        if self.weight == 0.0:
            raise InstanceError(f"term {self.qubits} has zero weight")

    @property
    def mask(self) -> int:
        m = 0
        for q in self.qubits:
            m |= 1 << q
        return m


@dataclass(frozen=True)
class Instance:
    """A MAX-D-LIN-2 objective; `j_tot` is the sum of absolute weights."""

    n_qubits: int
    degree: int
    terms: tuple[Term, ...]
    j_tot: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "j_tot", float(sum(abs(t.weight) for t in self.terms)))

    def weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.terms], dtype=np.float64)


def build_instance(n_qubits: int, degree: int,
                   raw_terms: Iterable[tuple[Iterable[int], float]]) -> Instance:
    """Validate raw (qubit-set, weight) pairs and assemble an Instance.

    Duplicate qubit sets are merged by summing weights; exact zero weights
    (including post-merge cancellations) are dropped.
    """
    if n_qubits < 1:
        raise InstanceError(f"n_qubits must be positive, got {n_qubits}")
    if degree < 1:
        raise InstanceError(f"degree must be positive, got {degree}")
    merged: dict[tuple[int, ...], float] = {}
    for qubits, weight in raw_terms:
        key = tuple(sorted(qubits))
        if len(set(key)) != len(key):
            raise InstanceError(f"term {tuple(qubits)} repeats a qubit index")
        if len(key) != degree:
            raise InstanceError(
                f"term {tuple(qubits)} has {len(key)} qubits, expected degree {degree}"
            )
        if key and (key[0] < 0 or key[-1] >= n_qubits):
            raise InstanceError(f"term {tuple(qubits)} has an index outside [0, {n_qubits})")
        if not math.isfinite(weight):
            raise InstanceError(f"term {tuple(qubits)} has non-finite weight {weight}")
        merged[key] = merged.get(key, 0.0) + float(weight)
    terms = tuple(Term(q, w) for q, w in sorted(merged.items()) if w != 0.0)
    return Instance(n_qubits=n_qubits, degree=degree, terms=terms)


def _all_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def generate(model: str, n_qubits: int, seed: int, *, n1: int = 1,
             afm_density: float = 0.0) -> Instance:
    """Generate a D=2 random or toy instance, deterministically in `seed`.

    Models: `sk_pm` (weights +-1 with probability 1/2 each), `sk_gaussian`
    (standard-normal weights), `toy` (two sets: S1 = {0..n1-1} ferromagnetic,
    S1 x S2 ferromagnetic, and each pair inside S2 antiferromagnetic with
    probability `afm_density`).  `n1` and `afm_density` apply to `toy` only.
    """
    if n_qubits < 2:
        raise InstanceError(f"D=2 families need N >= 2, got N={n_qubits}")
    pairs = _all_pairs(n_qubits)
    rng = np.random.default_rng(seed)
    if model == "sk_pm":
        w = rng.integers(0, 2, size=len(pairs)) * 2 - 1
        raw = [(p, float(wi)) for p, wi in zip(pairs, w)]
    elif model == "sk_gaussian":
        w = rng.standard_normal(len(pairs))
        raw = [(p, float(wi)) for p, wi in zip(pairs, w)]
    elif model == "toy":
        if not 0.0 <= afm_density <= 1.0:
            raise InstanceError(f"afm_density {afm_density} outside [0, 1]")
        if not 1 <= n1 < n_qubits:
            raise InstanceError(f"toy n1={n1} must lie in [1, N={n_qubits})")
        raw = []
        for i, j in pairs:
            if i < n1:  # S1 and S1 x S2 pairs: i < j, so j in S1 puts i there too
                raw.append(((i, j), -1.0))
            elif rng.random() < afm_density:
                raw.append(((i, j), +1.0))
    else:
        raise InstanceError(f"unknown model {model!r}")
    return build_instance(n_qubits, 2, raw)


def save_instance(instance: Instance, sink: IO[str] | str) -> None:
    """Write the text format: header "N D", then one "q1 .. qD w" line per term.

    Weights carry 17 significant digits so load(save(x)) is bit-exact.
    """
    if isinstance(sink, str):
        with open(sink, "w") as fh:
            save_instance(instance, fh)
        return
    sink.write(f"{instance.n_qubits} {instance.degree}\n")
    for t in instance.terms:
        qubits = " ".join(str(q) for q in t.qubits)
        sink.write(f"{qubits} {t.weight:.17g}\n")


def load_instance(source: IO[str] | str) -> Instance:
    """Parse the text format written by save_instance."""
    if isinstance(source, str):
        with open(source) as fh:
            return load_instance(fh)
    lines = source.read().splitlines()
    header = None
    raw: list[tuple[Sequence[int], float]] = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if header is None:
            if len(fields) != 2:
                raise InstanceError(f"line {lineno}: header must be 'N D', got {body!r}")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise InstanceError(f"line {lineno}: non-integer header {body!r}") from None
            continue
        if len(fields) != header[1] + 1:
            raise InstanceError(
                f"line {lineno}: expected {header[1]} indices and a weight, got {body!r}"
            )
        try:
            qubits = [int(f) for f in fields[:-1]]
        except ValueError:
            raise InstanceError(f"line {lineno}: non-integer qubit index in {body!r}") from None
        try:
            weight = float(fields[-1])
        except ValueError:
            raise InstanceError(f"line {lineno}: non-numeric weight {fields[-1]!r}") from None
        raw.append((qubits, weight))
    if header is None:
        raise InstanceError("empty instance file: missing 'N D' header")
    return build_instance(header[0], header[1], raw)
