"""Batch command-line surface and report serialization.

One command per process.  Reports are strict JSON trees with every float
carried as a decimal/hex pair (the hex form is the exact binary64 value), keys
sorted, so identical configurations at one BLAS thread count give byte-identical
files.  DOS histograms and eigenvalue lists also have CSV emitters for plotting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import analyze, bounds, bwpt, eigensolve, hilbert, instances
from .context import Analysis

SCHEMA_VERSION = 1

log = logging.getLogger("shortpath")


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------- serialization

def _float_leaf(x: float) -> dict:
    # JSON has no infinity or NaN: their decimal is null, and hex keeps the value
    return {"dec": float(x) if math.isfinite(x) else None, "hex": float(x).hex()}


def to_jsonable(obj):
    """Recursively convert dataclasses, named tuples, numpy types, and
    containers into a JSON tree with exact float leaves."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _float_leaf(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field declared repr=False (raw eigenvectors) stays out of the report
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: to_jsonable(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise CliError(f"cannot serialize {type(obj).__name__}")


def write_report(tree: dict, out_path: str | None) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **tree}
    text = json.dumps(to_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
        log.info("report written to %s", out_path)


def dos_csv(hist: bounds.DosHistogram, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("bin_offset,energy_low,count,log2_count\n")
        for k, w in enumerate(hist.counts):
            lw = math.log2(w) if w > 0 else float("-inf")
            fh.write(f"{k},{hist.e0 + k:.17g},{int(w)},{lw:.17g}\n")


def eigenvalues_csv(values: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{v:.17g}\n")


# ------------------------------------------------------------------- plumbing

def _constants(args) -> bounds.TheoremConstants:
    if getattr(args, "constants", None):
        return bounds.TheoremConstants.from_file(args.constants)
    return bounds.TheoremConstants()


def _config_record(args, spec=None) -> dict:
    """Every parsed setting of the command; output paths and the fit window
    are not settings."""
    rec = {"worker_count": 1, "max_qubits": None}
    rec.update((name, value) for name, value in vars(args).items()
               if name not in ("func", "verbose", "out", "csv", "fit_window"))
    if spec is not None:
        rec["resolved_big_b"] = spec.big_b
    return rec


def _instance_record(analysis: Analysis) -> dict:
    inst, table, ground = analysis.instance, analysis.table, analysis.ground
    return {
        "n_qubits": inst.n_qubits,
        "degree": inst.degree,
        "n_terms": len(inst.terms),
        "j_tot": inst.j_tot,
        "beta_cap_ok": None,  # no input sets a cap; kept until the references are re-recorded
        "e0": table.e0,
        "gap": table.gap,
        "n0": ground.n0,
        "gap_certified": ground.gap_certified,
    }


# ------------------------------------------------------------------- sections
#
# A section builder takes (a, args): a is the command's Analysis, or for dos
# and baseline, which take no field, just the loaded instance and table.  It
# returns the section's record; None leaves the section out of the report.

def _spectrum_and_csv(a, args) -> analyze.SpectralReport:
    rep = a.spectral
    if args.csv:
        eigenvalues_csv(np.append(rep.band, rep.next_eigenvalue)
                        if rep.next_eigenvalue is not None else rep.band, args.csv)
    return rep


def _qgood(a, args) -> analyze.TheoremReport:
    return analyze.qgood_verify(a, _constants(args))


def _mainconst(a, args) -> analyze.TheoremReport:
    return analyze.mainconst_decide(a, _constants(args))


def _simulate(a, args) -> analyze.SimulationResult:
    return analyze.simulate_algorithm1(a)


def _walk(a, args) -> dict:
    ctx = bwpt.solve_self_consistent(a, zeta=args.zeta)
    est = bwpt.walk_estimate(ctx, a, samples=args.samples, seed=args.seed)
    tree = {
        "omega": ctx.omega,
        "eq0": a.eq01,
        "block": a.block,
        "fixed_point_residual": ctx.fixed_point_residual,
        "xi0_l1": float(ctx.xi0.sum()),
        "walk": est,
    }
    try:
        phi, overlap = bwpt.phi_exact(ctx, a)
        tree["overlap"] = overlap
        tree["series_exact"] = (
            2.0 ** (a.instance.n_qubits / 2.0) * overlap.inner_psi_plus_phi
            / float(ctx.xi0.sum())
        )
    except bwpt.BwptError as exc:
        tree["overlap_error"] = str(exc)
    return tree


def _walk_or_error(a, args) -> dict:
    try:
        return _walk(a, args)
    except (bwpt.BwptError, eigensolve.EigensolveError) as exc:
        return {"error": str(exc)}


def _dos_fit_and_csv(a, args) -> dict:
    hist = bounds.dos_histogram(a.table)
    tree = {"e0": hist.e0, "counts": [int(c) for c in hist.counts],
            "total": hist.total}
    if args.fit_window:
        tree["powerlaw_fit"] = bounds.dos_powerlaw_fit(hist, tuple(args.fit_window))
    if args.csv:
        dos_csv(hist, args.csv)
    return tree


def _baseline(a, args) -> bounds.BaselineReport:
    return bounds.classical_baseline(a.instance, a.table)


def _baseline_if_d2(a, args) -> bounds.BaselineReport | None:
    return _baseline(a, args) if a.instance.degree == 2 else None


# One row per section, in report order, because each solve extends the
# Analysis memo that later sections read: (report key, subcommand, the
# subcommand's builder, the report's builder).  The report keeps a failed walk
# as {"error": msg} and leaves the baseline out when D != 2; the single
# commands exit 1 on those errors instead.  The report's parser sets no CSV
# and no fit window, so spectrum and dos share one builder.
SECTIONS = (
    ("spectrum", "spectrum", _spectrum_and_csv, _spectrum_and_csv),
    ("qgood", "qgood", _qgood, _qgood),
    ("mainconst", "mainconst", _mainconst, _mainconst),
    ("simulate", "simulate", _simulate, _simulate),
    ("bw", "walk", _walk, _walk_or_error),
    ("dos", "dos", _dos_fit_and_csv, _dos_fit_and_csv),
    ("baseline", "baseline", _baseline, _baseline_if_d2),
)


def _write_sections(args, sections) -> int:
    """Load the instance and tabulate H_Z once under --max-qubits; for a
    command that takes a field (--b/--B and --K), build its Analysis with B
    resolved and the --parity choice attached.  Then write the config and
    instance envelope and each (key, builder) section in order."""
    with_field = hasattr(args, "k")
    inst = instances.load_instance(args.infile)
    log.info("loaded instance: N=%d D=%d terms=%d", inst.n_qubits, inst.degree,
             len(inst.terms))
    max_qubits = (hilbert.DEFAULT_MAX_QUBITS if args.max_qubits is None
                  else args.max_qubits)
    table = hilbert.evaluate_hz(inst, max_qubits=max_qubits)
    if with_field:
        big_b = (args.big_b if args.big_b is not None
                 else analyze.resolve_big_b(args.b, table.e0))
        spec = hilbert.OperatorSpec("HS", big_b=big_b, k=args.k)
        a = Analysis(inst, table, spec, args.parity)
        tree = {"config": _config_record(args, spec), "instance": _instance_record(a)}
    else:
        a = SimpleNamespace(instance=inst, table=table)
        tree = {"config": _config_record(args)}
    for key, build in sections:
        start = time.perf_counter()
        section = build(a, args)
        log.debug("%s: %.3f s", key, time.perf_counter() - start)
        if section is not None:
            tree[key] = section
    write_report(tree, args.out)
    return 0


# ---------------------------------------------------------------- subcommands

def cmd_gen(args) -> int:
    inst = instances.generate(args.model, args.n, args.seed, n1=args.n1,
                              afm_density=args.afm_density)
    instances.save_instance(inst, args.out)
    log.info("wrote %s: N=%d terms=%d", args.out, inst.n_qubits, len(inst.terms))
    return 0


def cmd_thm3(args) -> int:
    choice = bounds.thm3_parameters(args.alpha, args.c, args.n, args.c_scale)
    e0 = -choice.e0_scale
    has = bounds.hassoln_lhs(choice.k, args.n, e0, _constants(args))
    write_report({
        "config": _config_record(args),
        "parameter_choice": choice,
        "hassoln": has,
    }, args.out)
    return 0


def _command(args) -> int:
    """A single-section subcommand: the envelope and its own section."""
    return _write_sections(args, [(key, own) for key, verb, own, _ in SECTIONS
                                  if verb == args.command])


# named entry points, so that perfbench/tracer.py can time each command
def cmd_qgood(args) -> int:
    return _command(args)


def cmd_walk(args) -> int:
    return _command(args)


def cmd_dos(args) -> int:
    return _command(args)


def cmd_baseline(args) -> int:
    return _command(args)


def cmd_report(args) -> int:
    """All-in-one: every section for a single instance."""
    return _write_sections(args, [(key, rep) for key, _, _, rep in SECTIONS])


# ----------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of an option is an error, not
    # another option (--s would otherwise be taken for gen's --seed)
    def parser(**kw) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(allow_abbrev=False, **kw)

    # one parent parser per option set that several subcommands share
    table = parser(add_help=False)
    table.add_argument("--in", dest="infile", required=True, help="instance file")
    table.add_argument("--max-qubits", type=int, default=None,
                       help="dense budget override")
    field = parser(add_help=False)
    group = field.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", type=float, help="relative field strength; B = b*|E0|")
    group.add_argument("--B", dest="big_b", type=float, help="absolute field strength B")
    field.add_argument("--K", dest="k", type=int, required=True)
    field.add_argument("--parity", choices=("even", "odd"), default=None,
                       help="parity block override for even K")
    # H_s depends on s and B only through sB, so --b or --B is the whole
    # field; s is a constant config key until the references are re-recorded
    field.set_defaults(s=1.0)
    out = parser(add_help=False)
    out.add_argument("--out", default=None, help="report path (default stdout)")
    constants = parser(add_help=False)
    constants.add_argument("--constants", help="TheoremConstants key-value file")
    walk = parser(add_help=False)
    walk.add_argument("--seed", type=int, default=0, help="walk seed")
    walk.add_argument("--zeta", type=float, default=bwpt.DEFAULT_ZETA,
                      help="BW shift of J0 = H_Z + zeta*P; must be positive to converge")

    ap = parser(prog="shortpath",
                description="Numerical laboratory for the short-path quantum "
                            "optimization algorithm over MAX-D-LIN-2 instances.")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, *parents, help=None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, help="generate an instance file")
    p.add_argument("--model", choices=("sk_pm", "sk_gaussian", "toy"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n1", type=int, help="toy: size of the first set (default 1)")
    p.add_argument("--afm-density", type=float,
                   help="toy: antiferromagnetic pair density inside the second set "
                        "(default 0)")
    p.add_argument("--out", required=True)
    p = command("spectrum", _command, table, field, out)
    p.add_argument("--csv", help="eigenvalue CSV")
    command("qgood", cmd_qgood, table, field, constants, out)
    command("mainconst", _command, table, field, constants, out)
    command("simulate", _command, table, field, out)
    p = command("walk", cmd_walk, table, field, walk, out,
                help="BW series, exact resummation, walk estimate")
    p.add_argument("--samples", type=int, default=10000, help="walk samples")
    p = command("dos", cmd_dos, table, out, help="density-of-states histogram")
    p.add_argument("--fit-window", type=int, nargs=2, metavar=("KMIN", "KMAX"))
    p.add_argument("--csv")
    p = command("thm3", cmd_thm3, constants, out,
                help="regime parameter choice and feasibility terms")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", dest="c_scale", type=float, required=True)
    command("baseline", cmd_baseline, table, out,
            help="classical D=2 per-spin-field counting")
    p = command("report", cmd_report, table, field, constants, walk, out,
                help="all-in-one analysis report")
    p.add_argument("--samples", type=int, default=2000, help="walk samples")
    p.set_defaults(csv=None, fit_window=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    # on the package logger: basicConfig does nothing once the root logger
    # has handlers, and -v adds each section's DEBUG timing line
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        return args.func(args)
    except (instances.InstanceError, hilbert.BudgetError, bounds.BoundsError,
            eigensolve.EigensolveError, bwpt.BwptError, analyze.AnalyzeError,
            CliError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
