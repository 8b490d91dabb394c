"""Output checks against reference values recorded at an earlier commit.

Rules:
- float leaves (the report's {"dec", "hex"} objects, compared by their exact
  hex value) match within 1e-9 relative, with a 1e-9 absolute floor;
- a walk's `series_estimate` matches within 3 of the run's own `std_error`;
- ints, bools, strings and nulls match exactly, and so do keys and lengths.

CSV cells follow the same rules: integers exactly, other numbers as floats.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-9
WALK_SIGMAS = 3.0


def _is_float_leaf(x) -> bool:
    return isinstance(x, dict) and set(x) == {"dec", "hex"}


def _as_float(x) -> float | None:
    """The exact value of a float leaf or a bare float, else None."""
    if _is_float_leaf(x):
        return float.fromhex(x["hex"])
    return x if isinstance(x, float) else None


def floats_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def compare(got, want, path: str = "") -> list[str]:
    """Paths where a parsed report differs from its reference."""
    b = _as_float(want)
    if b is not None:
        a = _as_float(got)
        if a is None:
            return [f"{path}: expected a float, got {got!r}"]
        return [] if floats_match(a, b) else [f"{path}: {a!r} != {b!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {type(got).__name__}"]
        if set(got) != set(want):
            return [f"{path}: keys differ: {sorted(set(got) ^ set(want))}"]
        out = []
        walk = "series_estimate" in want and "std_error" in want
        for key in sorted(want):
            if walk and key == "series_estimate":
                out += _compare_walk(got, want, f"{path}/{key}")
            else:
                out += compare(got[key], want[key], f"{path}/{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _compare_walk(got: dict, want: dict, path: str) -> list[str]:
    est = _as_float(got.get("series_estimate"))
    sigma = _as_float(got.get("std_error"))
    ref = _as_float(want["series_estimate"])
    if est is None or sigma is None or ref is None:
        return [f"{path}: walk estimate is missing"]
    if floats_match(est, ref) or abs(est - ref) <= WALK_SIGMAS * sigma:
        return []
    return [f"{path}: {est!r} is more than {WALK_SIGMAS:g} standard errors "
            f"({sigma!r}) from {ref!r}"]


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[list]:
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
