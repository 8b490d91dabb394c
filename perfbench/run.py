"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload report-sk12 --seed 0 --seconds 32 --trace 0

Run it from the root of a checkout; the package is imported from ./src.  Every
metric is printed with its unit, the full results go to
.perfbench/results/<workload>-seed<seed>-trace<trace>.json, and the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
BENCHMARK.json with --trace 1.

With --record the run stores its outputs as the reference for --seed instead
(see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
RUN_TIMEOUT_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(root: Path, base: Path, tag: str, args, mode: str,
          deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its set-up time (start of
    the process to ready for the first command) and its result."""
    rundir = base / tag
    log_path = base / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--rundir", str(rundir), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    env = {**os.environ, **PINNED_THREADS}
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} worker timed out; log: {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text().splitlines()[-20:]
        raise BenchError(f"{tag} worker exited with {proc.returncode}:\n"
                         + "\n".join(tail))
    result = json.loads((rundir / "result.json").read_text())
    return result["ready_monotonic"] - t0, result


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "commit": commit}


def declared_metrics(section: str) -> list[str]:
    """Metric names BENCHMARK.json lists under end_to_end or per_layer."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[section]]


def summarize(result: dict, setups: list[float] | None) -> dict:
    passes = result["passes"]
    verdicts = [v for p in passes for v in p["verdicts"]]
    failed = sum(bool(v["mismatches"]) for v in verdicts)
    summary = {"attempted": len(verdicts), "failed": failed,
               "failed_ratio": failed / len(verdicts), "passes": len(passes)}
    if setups is not None:
        summary["end_to_end"] = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
    return summary


def print_report(args, env: dict, result: dict, summary: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} reference_seed={result['reference_seed']}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    print(f"passes: {summary['passes']}  commands attempted: "
          f"{summary['attempted']}  failed: {summary['failed']}  "
          f"failed_ratio: {summary['failed_ratio']:.6g}")
    rows = dict(summary.get("end_to_end", {}))
    for name, m in result.get("layer_metrics", {}).items():
        rows[name] = (m["value"], m["unit"])
    for name, (value, unit) in rows.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for i, p in enumerate(result["passes"]):
        print(f"pass {i}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s")
        for v, wall in zip(p["verdicts"], p["command_wall_s"]):
            status = "ok" if not v["mismatches"] else \
                f"FAILED ({len(v['mismatches'])}): {v['mismatches'][0]}"
            print(f"  {v['command']:40s} {wall:8.3f} s  {status}")
    if result.get("untraced"):
        print(f"  not traced (missing from the package): {result['untraced']}")
    for cmd, counts in zip(workloads.WORKLOADS[args.workload].commands,
                           result.get("structure", [])):
        calls = ", ".join(f"{k} {n}" for k, n in counts.items())
        print(f"  traced {cmd.name}: {calls}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shortpath benchmark, one run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs as its reference")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shortpath" / "cli.py").is_file():
        print(f"perfbench: no src/shortpath under {root}; run from the root "
              "of a shortpath checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        if args.record:
            spawn(root, base, "record", args, "record", deadline)
            print(f"recorded {args.workload} seed {args.seed} in "
                  f"{HERE / 'references' / (args.workload + '.json')}")
            shutil.rmtree(base)
            return 0
        setups = None
        if args.trace:
            _, result = spawn(root, base, "trace", args, "trace", deadline)
        else:
            setups = [spawn(root, base, f"setup{i}", args, "setup", deadline)[0]
                      for i in range(SETUP_PROBES)]
            main_setup, result = spawn(root, base, "run", args, "run", deadline)
            setups.append(main_setup)
    except BenchError as exc:
        print(f"perfbench: {exc}\nrun files kept in {base}", file=sys.stderr)
        return 1

    summary = summarize(result, setups)
    env = {**machine(root), **result["environment"], "seed": args.seed}
    if args.trace:
        produced, section = result["layer_metrics"], "per_layer"
    else:
        produced = {k: {"value": v, "unit": u}
                    for k, (v, u) in summary["end_to_end"].items()}
        section = "end_to_end"
    metrics = {k: produced[k] for k in declared_metrics(section)}
    print_report(args, env, result, summary)

    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "summary": summary,
                               "result": result}, indent=1) + "\n")
    print(f"results: {out}")
    if summary["failed"]:
        print(f"run files kept in {base}")
    else:
        shutil.rmtree(base)
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
