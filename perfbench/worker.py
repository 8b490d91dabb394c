"""One workload process: set up, run the timed passes, check the outputs.

Started by run.py as a fresh interpreter with the BLAS thread counts pinned.
It imports the package from <root>/src, writes the instance files into its
run directory, notes the moment it is ready for the first timed command, and
then issues the workload's commands one after another through
`shortpath.cli.main(argv)` (closed loop, one client).  Everything it measures
goes to <run directory>/result.json; stdout stays empty.

Modes:
  setup   stop once ready (run.py times several of these for setup_s)
  run     untraced passes while whole passes fit into --seconds (at least one)
  trace   one untraced pass, then one traced pass
  record  one untraced pass, then store its outputs as the seed's reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import refcheck
import tracer
import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_command(cli, argv: list[str]) -> int:
    """Exit code of one CLI command; an escaping exception counts as 1."""
    try:
        return int(cli.main(argv))
    except SystemExit as exc:  # argparse rejects its argv this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a failed command must not end the run
        traceback.print_exc()
        return 1


def run_pass(cli, workload) -> dict:
    """All commands once; wall and CPU time cover only the commands."""
    codes, walls = [], []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for cmd in workload.commands:
        c0 = time.perf_counter()
        codes.append(run_command(cli, workloads.command_argv(cmd)))
        walls.append(time.perf_counter() - c0)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_seconds() - cpu0,
            "exit_codes": codes, "command_wall_s": walls}


def read_outputs(cmd) -> dict:
    report = Path(f"{cmd.name}.json").read_text()
    out = {"sha256": hashlib.sha256(report.encode()).hexdigest(),
           "report": json.loads(report)}
    if cmd.csv:
        out["csv"] = Path(f"{cmd.name}.csv").read_text()
    return out


def load_reference(workload_name: str, seed: int) -> tuple[int, dict]:
    """The reference recorded for this seed, else the default seed's (the
    gauge makes every recorded value seed-independent)."""
    path = REFERENCE_DIR / f"{workload_name}.json"
    seeds = json.loads(path.read_text())["seeds"]
    key = str(seed) if str(seed) in seeds else str(workloads.DEFAULT_SEED)
    return int(key), seeds[key]


def check_outputs(workload, exit_codes: list[int], reference: dict,
                  same_seed: bool) -> list[dict]:
    """One verdict per command: exit code, mismatches against the reference,
    byte identity with a reference recorded for the same seed, report size."""
    verdicts = []
    for cmd, code in zip(workload.commands, exit_codes):
        verdict = {"command": cmd.name, "exit_code": code, "mismatches": [],
                   "identical": False, "report_bytes": 0}
        ref = reference.get(cmd.name)
        if code != 0:
            verdict["mismatches"].append(f"exit code {code}")
        elif ref is None:
            verdict["mismatches"].append("no reference recorded")
        else:
            try:
                out = read_outputs(cmd)
            except (OSError, ValueError) as exc:
                verdict["mismatches"].append(f"unreadable output: {exc}")
            else:
                verdict["report_bytes"] = Path(f"{cmd.name}.json").stat().st_size
                verdict["mismatches"] += refcheck.compare(
                    out["report"], ref["report"])
                if cmd.csv:
                    verdict["mismatches"] += refcheck.compare(
                        refcheck.parse_csv(out["csv"]),
                        refcheck.parse_csv(ref["csv"]), "csv")
                verdict["identical"] = (same_seed
                                        and out["sha256"] == ref["sha256"])
        verdicts.append(verdict)
    return verdicts


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout with src/shortpath")
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"),
                    required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy as np
    import scipy

    from shortpath import cli, instances

    workload = workloads.WORKLOADS[args.workload]
    rundir = Path(args.rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    os.chdir(rundir)
    workloads.write_instances(workload, args.seed, Path("."), instances.load_instance)
    result = {"ready_monotonic": time.monotonic()}
    if args.mode == "setup":
        (rundir / "result.json").write_text(json.dumps(result))
        return 0

    result["environment"] = environment(np, scipy)
    if args.mode != "record":
        ref_seed, reference = load_reference(workload.name, args.seed)
        result["reference_seed"] = ref_seed

    def timed_pass():
        # every pass rewrites the same output files, so each is checked right
        # after it ran, outside its timed window
        p = run_pass(cli, workload)
        if args.mode != "record":
            p["verdicts"] = check_outputs(workload, p["exit_codes"], reference,
                                          ref_seed == args.seed)
        passes.append(p)

    passes, spans = [], None
    if args.mode == "run":
        t0 = time.perf_counter()
        while True:
            timed_pass()
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - t0 + typical > args.seconds:
                break
    else:
        timed_pass()
    if args.mode == "trace":
        with tracer.Tracer() as tr:
            timed_pass()
        spans = tr.spans
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.mode == "record":
        if any(passes[0]["exit_codes"]):
            print(f"record: nonzero exit codes {passes[0]['exit_codes']}",
                  file=sys.stderr)
            return 1
        path = REFERENCE_DIR / f"{workload.name}.json"
        doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        doc["workload"] = workload.name
        doc["seeds"][str(args.seed)] = {
            cmd.name: read_outputs(cmd) for cmd in workload.commands}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        (rundir / "result.json").write_text(json.dumps(result))
        return 0

    result["passes"] = passes
    if spans is not None:
        layer = tracer.layer_metrics(spans)
        verdicts = passes[-1]["verdicts"]
        layer["cli.report_bytes"] = (sum(v["report_bytes"] for v in verdicts), "count")
        layer["cli.reports_identical"] = (sum(v["identical"] for v in verdicts), "count")
        layer["trace.overhead_ratio"] = (passes[-1]["wall_s"] / passes[0]["wall_s"], "1")
        result["layer_metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["structure"] = tracer.structure(spans)
        result["untraced"] = tr.missing
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
