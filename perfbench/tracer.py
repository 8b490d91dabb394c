"""Spans around the package's public functions, recorded from outside.

The tracer rebinds each traced name in every module namespace of the package
that holds the original object, because modules import names from each other
(`analyze` imports `evaluate_hz` and `ground_space` from `hilbert`, so patching
`hilbert` alone would miss those calls).  `MatrixFreeOperator.apply` is
patched on the class, which every solver shares.  `bounds.p_xk_norm` applies X
through the private `_apply_x` directly, so its span covers that work and no
`hilbert.apply` span appears under it.

Spans stay in memory with parent links; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute path) of every traced callable; span names are
# "<module>.<last attribute>"
TARGETS = (
    ("instances", "load_instance"),
    ("hilbert", "evaluate_hz"),
    ("hilbert", "ground_space"),
    ("hilbert", "MatrixFreeOperator.apply"),
    ("eigensolve", "extreme_eigs"),
    ("eigensolve", "solve_shifted"),
    ("bwpt", "solve_self_consistent"),
    ("bwpt", "effective_hamiltonian"),
    ("bwpt", "phi_exact"),
    ("bwpt", "walk_estimate"),
    ("bounds", "p_xk_norm"),
    ("bounds", "dos_histogram"),
    ("bounds", "classical_baseline"),
    ("analyze", "spectral_report"),
    ("analyze", "qgood_verify"),
    ("analyze", "mainconst_decide"),
    ("analyze", "simulate_algorithm1"),
    ("cli", "cmd_report"),
    ("cli", "cmd_qgood"),
    ("cli", "cmd_walk"),
    ("cli", "cmd_dos"),
    ("cli", "cmd_baseline"),
    ("cli", "write_report"),
)

PACKAGE = "shortpath"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    columns: int = 0     # hilbert.apply: vectors in the batch
    elements: int = 0    # hilbert.apply: columns * 2^N
    items: int = 0       # eigenpairs returned, or walk samples * t_truncation
    peak_bytes: int = 0  # bounds.p_xk_norm: peak of the call's traced allocations

    @property
    def duration(self) -> float:
        return self.end - self.start


def _measure_apply(span, args, kwargs, result):
    amps = args[1] if len(args) > 1 else kwargs["amps"]
    span.columns = 1 if amps.ndim == 1 else int(amps.shape[1])
    span.elements = int(amps.size)


def _measure_eigs(span, args, kwargs, result):
    span.items = int(len(result.eigenvalues))


def _measure_walk(span, args, kwargs, result):
    span.items = int(result.samples) * int(result.t_truncation)


_MEASURE = {
    "hilbert.apply": _measure_apply,
    "eigensolve.extreme_eigs": _measure_eigs,
    "bwpt.walk_estimate": _measure_walk,
}
_PEAK = {"bounds.p_xk_norm"}


class Tracer:
    """Install with `with Tracer() as tr:`; the originals are restored on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # targets the package no longer has

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:  # renamed or removed by a later refactor
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{leaf}", original)
            if path:  # a method: one patch on the class covers every caller
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                if vars(module).get(leaf) is original:
                    self._patch(module, leaf, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name, fn):
        measure = _MEASURE.get(name)
        peak = name in _PEAK
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            # tracemalloc runs only inside these calls: tracing every
            # allocation of the whole pass would dominate the overhead
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if own_peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def _under(spans: list[Span], i: int, ancestor: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced pass."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    columns = defaultdict(int)
    elements = defaultdict(int)
    items = defaultdict(int)
    peak = defaultdict(int)
    matvecs = defaultdict(int)
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        self_total[span.name] += own
        if _under(spans, i, span.name):
            continue  # a recursive call: its time is in the outer call
        calls[span.name] += 1
        total[span.name] += span.duration
        columns[span.name] += span.columns
        elements[span.name] += span.elements
        items[span.name] += span.items
        peak[span.name] = max(peak[span.name], span.peak_bytes)
        if span.name == "hilbert.apply":
            for solver in ("eigensolve.extreme_eigs", "eigensolve.solve_shifted"):
                if _under(spans, i, solver):
                    matvecs[solver] += span.columns

    def ratio(a, b):
        return a / b if b else 0.0

    eigenpairs = items["eigensolve.extreme_eigs"]
    m = {
        "hilbert.evaluate_hz_calls": (calls["hilbert.evaluate_hz"], "count"),
        "hilbert.evaluate_hz_s": (total["hilbert.evaluate_hz"], "s"),
        "hilbert.apply_calls": (calls["hilbert.apply"], "count"),
        "hilbert.apply_columns": (columns["hilbert.apply"], "count"),
        "hilbert.apply_s": (total["hilbert.apply"], "s"),
        "hilbert.apply_ns_per_element": (
            1e9 * ratio(total["hilbert.apply"], elements["hilbert.apply"]), "ns"),
        "eigensolve.extreme_eigs_calls": (calls["eigensolve.extreme_eigs"], "count"),
        "eigensolve.eigenpairs": (eigenpairs, "count"),
        "eigensolve.extreme_eigs_s": (total["eigensolve.extreme_eigs"], "s"),
        "eigensolve.extreme_eigs_self_s": (self_total["eigensolve.extreme_eigs"], "s"),
        "eigensolve.matvecs_per_eigenpair": (
            ratio(matvecs["eigensolve.extreme_eigs"], eigenpairs), "1"),
        "eigensolve.solve_shifted_calls": (calls["eigensolve.solve_shifted"], "count"),
        "eigensolve.solve_shifted_s": (total["eigensolve.solve_shifted"], "s"),
        "eigensolve.solve_shifted_matvecs": (matvecs["eigensolve.solve_shifted"], "count"),
        "bwpt.walk_steps": (items["bwpt.walk_estimate"], "count"),
        "bounds.p_xk_norm_peak_mib": (peak["bounds.p_xk_norm"] / 2**20, "MiB"),
        "analyze.spectral_report_calls": (calls["analyze.spectral_report"], "count"),
    }
    for name in ("bwpt.solve_self_consistent", "bwpt.effective_hamiltonian",
                 "bwpt.phi_exact", "bwpt.walk_estimate", "bounds.p_xk_norm",
                 "bounds.dos_histogram", "bounds.classical_baseline",
                 "instances.load_instance", "cli.write_report"):
        m[f"{name}_s"] = (total[name], "s")
    for name in ("analyze.spectral_report", "analyze.qgood_verify",
                 "analyze.mainconst_decide", "analyze.simulate_algorithm1"):
        m[f"{name}_s"] = (self_total[name], "s")
    for verb in ("report", "qgood", "walk", "dos", "baseline"):
        m[f"cli.{verb}_s"] = (total[f"cli.cmd_{verb}"], "s")
    return m


def structure(spans: list[Span]) -> list[dict[str, int]]:
    """Call counts of the traced functions under each root span (one root per
    CLI command), in command order."""
    roots: list[dict[str, int]] = []
    root_of: list[int] = []
    for span in spans:
        if span.parent is None:
            root_of.append(len(roots))
            roots.append(defaultdict(int))
        else:
            root_of.append(root_of[span.parent])
        roots[root_of[-1]][span.name] += 1
    return [dict(sorted(r.items())) for r in roots]
