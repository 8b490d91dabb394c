"""Workload definitions and the benchmark's own instance files.

Every instance is built in two steps.  The base couplings come from this
module's fixed random stream (`BASE_SEED`), so they never change between
commits or runs.  The run seed then picks a spin-flip gauge: a set S of an
even number of spins whose Z signs are flipped, which multiplies the weight of
every term by (-1)^|term ∩ S|.  The gauge unitary prod_{i in S} X_i commutes
with X, with (X/N)^K and with the Hamming-weight parity (|S| is even), and it
fixes |+>.  So H_s is conjugated by it and every quantity a report records is
unchanged, while the program still sees a different input file for each seed.

That choice lets one set of reference values check every seed, and keeps the
work per run nearly independent of the seed.  The walk estimates are
invariant too: in sk_pm draws with n0 = 2 and in the pairs ladder, every
start state the walk can draw gives the same energy sequence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

BASE_SEED = 180703758
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


class SetupError(RuntimeError):
    """An instance file did not load back as written."""


@dataclass(frozen=True)
class InstanceSpec:
    name: str     # file stem, also the key of its outputs
    family: str   # 'sk_pm', 'sk_gaussian' or 'pairs'
    n_qubits: int
    draw: int     # index into the base stream of this family and size

    @property
    def n_terms(self) -> int:
        n = self.n_qubits
        return n // 2 if self.family == "pairs" else n * (n - 1) // 2


@dataclass(frozen=True)
class Command:
    name: str                # output stem, unique in a workload
    verb: str                # CLI subcommand
    instance: str            # InstanceSpec.name
    args: tuple[str, ...]    # everything but --in, --out and --csv
    csv: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[InstanceSpec, ...]
    commands: tuple[Command, ...]


_FAMILY_ID = {"sk_pm": 1, "sk_gaussian": 2, "pairs": 3}


def base_terms(spec: InstanceSpec) -> list[tuple[tuple[int, int], float]]:
    """The seed-independent couplings of one instance."""
    rng = np.random.default_rng(
        [BASE_SEED, _FAMILY_ID[spec.family], spec.n_qubits, spec.draw])
    n = spec.n_qubits
    if spec.family == "pairs":
        # a random perfect matching, every pair ferromagnetic: n0 = 2^(N/2)
        matching = rng.permutation(n).reshape(-1, 2)
        return sorted((tuple(sorted(map(int, p))), -1.0) for p in matching)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if spec.family == "sk_pm":
        weights = rng.integers(0, 2, size=len(pairs)) * 2.0 - 1.0
    else:
        weights = rng.standard_normal(len(pairs))
    return [(p, float(w)) for p, w in zip(pairs, weights)]


def gauge(spec: InstanceSpec, seed: int) -> np.ndarray:
    """0/1 flip flags for the spins of one instance, an even number of ones."""
    rng = np.random.default_rng(
        [BASE_SEED, seed, zlib.crc32(spec.name.encode())])
    flips = rng.integers(0, 2, size=spec.n_qubits)
    if flips.sum() % 2:
        flips[rng.integers(spec.n_qubits)] ^= 1
    return flips


def instance_text(spec: InstanceSpec, seed: int) -> str:
    """The instance file in the package's text format: "N D", then one
    "i j w" line per term with 17 significant digits."""
    flips = gauge(spec, seed)
    lines = [f"{spec.n_qubits} 2"]
    for (i, j), w in base_terms(spec):
        if flips[i] ^ flips[j]:
            w = -w
        lines.append(f"{i} {j} {w:.17g}")
    return "\n".join(lines) + "\n"


def _pm(name, n, draw):
    return InstanceSpec(name, "sk_pm", n, draw)


# draws whose ground space is one global-flip pair u, ~u (n0 = 2): with more
# ground states a gauge can reorder them, and the walk and the baseline, which
# pick ground states by index order, would then see different ones per seed
_REPORT = tuple(_pm(f"sk_pm-12-{c}", 12, d) for c, d in zip("abc", (1, 2, 5)))
_TABULATE = (_pm("sk_pm-20-a", 20, 0), _pm("sk_pm-20-b", 20, 1),
             InstanceSpec("sk_gaussian-20-a", "sk_gaussian", 20, 0))
_PAIRS = tuple(InstanceSpec(f"pairs-{n}", "pairs", n, 0) for n in (10, 12, 14))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="report-sk12",
        why="the all-in-one report on sk_pm N=12 at K=2 and K=3; about 95% "
            "of it is extreme_eigs, 9 solves per report",
        instances=_REPORT,
        commands=tuple(
            Command(f"report-{spec.name}-K{k}", "report", spec.name,
                    ("--b", "0.1", "--K", str(k), "--samples", "2000",
                     "--seed", "0"))
            for spec in _REPORT for k in (2, 3)),
    ),
    Workload(
        name="tabulate-sk20",
        why="dos and baseline at N=20; about 97% is evaluate_hz and no "
            "eigensolve runs, so it bypasses the solver layers",
        instances=_TABULATE,
        commands=tuple(
            cmd for spec in _TABULATE for cmd in (
                Command(f"dos-{spec.name}", "dos", spec.name,
                        ("--fit-window", "2", "40"), csv=True),
                Command(f"baseline-{spec.name}", "baseline", spec.name, ()),
            )),
    ),
    Workload(
        name="degenerate-pairs",
        why="the disjoint-pairs ladder, n0 = 2^(N/2): 33 deflated eigenpairs, "
            "129 MINRES solves and K=8 operator powers",
        instances=_PAIRS,
        commands=(
            Command("qgood-pairs-10-K2", "qgood", "pairs-10",
                    ("--b", "0.1", "--K", "2")),
            Command("qgood-pairs-10-K3", "qgood", "pairs-10",
                    ("--b", "0.1", "--K", "3")),
            Command("walk-pairs-14-K2", "walk", "pairs-14",
                    ("--b", "0.1", "--K", "2", "--samples", "10000",
                     "--seed", "0")),
            Command("walk-pairs-12-K8", "walk", "pairs-12",
                    ("--b", "0.1", "--K", "8", "--samples", "10000",
                     "--seed", "0")),
        ),
    ),
)}


def command_argv(cmd: Command) -> list[str]:
    """CLI argv for one command, with paths relative to the run directory."""
    argv = [cmd.verb, "--in", f"{cmd.instance}.txt", *cmd.args,
            "--out", f"{cmd.name}.json"]
    if cmd.csv:
        argv += ["--csv", f"{cmd.name}.csv"]
    return argv


def write_instances(workload: Workload, seed: int, directory, load_instance):
    """Write every instance file of a workload and check that each loads back
    with the expected N, D and term count."""
    for spec in workload.instances:
        path = directory / f"{spec.name}.txt"
        path.write_text(instance_text(spec, seed))
        inst = load_instance(str(path))
        got = (inst.n_qubits, inst.degree, len(inst.terms))
        want = (spec.n_qubits, 2, spec.n_terms)
        if got != want:
            raise SetupError(f"{path.name}: loaded (N, D, terms) = {got}, "
                             f"expected {want}")
