"""Batch command-line surface and report serialization.

One command per process.  Reports are JSON trees with every float carried as a
decimal/hex pair (the hex form is the exact binary64 value), keys sorted, so
identical configurations produce byte-identical files.  DOS histograms and
eigenvalue lists also have CSV emitters for plotting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import analyze, bounds, bwpt, eigensolve, hilbert, instances
from .context import Analysis

SCHEMA_VERSION = 1
MAX_QUBITS_ENV = "SHORTPATH_MAX_QUBITS"

log = logging.getLogger("shortpath")


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------- serialization

def _float_leaf(x: float) -> dict:
    return {"dec": float(x), "hex": float(x).hex()}


def to_jsonable(obj):
    """Recursively convert dataclasses, numpy types, and containers into a
    JSON tree with exact float leaves."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _float_leaf(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise CliError(f"cannot serialize {type(obj).__name__}")


def write_report(tree: dict, out_path: str | None) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **tree}
    text = json.dumps(to_jsonable(doc), sort_keys=True, indent=2) + "\n"
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

def _max_qubits(args) -> int:
    if args.max_qubits is not None:
        return args.max_qubits
    env = os.environ.get(MAX_QUBITS_ENV)
    return int(env) if env else hilbert.DEFAULT_MAX_QUBITS


def _load_instance(args) -> instances.Instance:
    inst = instances.load_instance(args.infile)
    log.info("loaded instance: N=%d D=%d terms=%d", inst.n_qubits, inst.degree,
             len(inst.terms))
    return inst


def _analysis_context(args) -> Analysis:
    """The command's Analysis: its instance tabulated under the command's
    dense budget, B resolved, and the --parity choice attached."""
    inst = _load_instance(args)
    table = hilbert.evaluate_hz(inst, max_qubits=_max_qubits(args))
    if args.big_b is not None:
        big_b = args.big_b
    else:
        big_b = analyze.resolve_big_b(args.b, table.e0)
    params = hilbert.HsParams(big_b=big_b, k=args.k, s=args.s)
    return Analysis(inst, table, params, args.parity)


def _constants(args) -> bounds.TheoremConstants:
    if getattr(args, "constants", None):
        return bounds.TheoremConstants.from_file(args.constants)
    return bounds.TheoremConstants()


def _config_record(args, params=None) -> dict:
    rec = {
        "command": args.command,
        "worker_count": 1,
        "max_qubits": getattr(args, "max_qubits", None),
    }
    for name in ("infile", "b", "big_b", "k", "s", "parity", "seed", "samples",
                 "zeta", "alpha", "c", "n", "c_scale", "constants"):
        if hasattr(args, name):
            rec[name] = getattr(args, name)
    if params is not None:
        rec["resolved_big_b"] = params.big_b
    return rec


def _instance_record(analysis: Analysis) -> dict:
    inst, table, ground = analysis.instance, analysis.table, analysis.ground
    return {
        "n_qubits": inst.n_qubits,
        "degree": inst.degree,
        "n_terms": len(inst.terms),
        "j_tot": inst.j_tot,
        "beta_cap_ok": inst.beta_cap_ok(),
        "e0": table.e0,
        "gap": table.gap,
        "n0": ground.n0,
        "gap_certified": ground.gap_certified,
    }


# ---------------------------------------------------------------- subcommands

def cmd_gen(args) -> int:
    toy = None
    if args.model == "toy":
        toy = instances.ToyModelSpec(n1=args.n1, afm_density=args.afm_density,
                                     seed=args.toy_seed)
    inst = instances.generate(args.model, args.n, args.seed, toy=toy)
    instances.save_instance(inst, args.out)
    log.info("wrote %s: N=%d terms=%d", args.out, inst.n_qubits, len(inst.terms))
    return 0


def _spectral_tree(rep: analyze.SpectralReport) -> dict:
    tree = dataclasses.asdict(rep)
    del tree["band_vectors"]  # raw eigenvectors stay out of the report
    return tree


def cmd_spectrum(args) -> int:
    a = _analysis_context(args)
    rep = analyze.spectral_report(a)
    if args.csv:
        eigenvalues_csv(np.append(rep.band, rep.next_eigenvalue)
                        if rep.next_eigenvalue is not None else rep.band, args.csv)
    write_report({
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
        "spectrum": _spectral_tree(rep),
    }, args.out)
    return 0


def _theorem_tree(rep: analyze.TheoremReport) -> dict:
    details = {}
    for key, val in rep.details.items():
        if isinstance(val, analyze.SpectralReport):
            details[key] = _spectral_tree(val)
        else:
            details[key] = val
    return {
        "theorem": rep.theorem,
        "applicable": rep.applicable,
        "branch": rep.branch,
        "preconditions": [
            {"name": n, "passed": p, "margin": m} for n, p, m in rep.preconditions
        ],
        "conclusions": [
            {"name": n, "passed": p, "margin": m} for n, p, m in rep.conclusions
        ],
        "constants_used": rep.constants_used,
        "details": details,
    }


def cmd_qgood(args) -> int:
    a = _analysis_context(args)
    rep = analyze.qgood_verify(a, _constants(args))
    write_report({
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
        "qgood": _theorem_tree(rep),
    }, args.out)
    return 0


def cmd_mainconst(args) -> int:
    a = _analysis_context(args)
    rep = analyze.mainconst_decide(a, _constants(args))
    write_report({
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
        "mainconst": _theorem_tree(rep),
    }, args.out)
    return 0


def cmd_simulate(args) -> int:
    a = _analysis_context(args)
    rep = analyze.simulate_algorithm1(a)
    write_report({
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
        "simulate": rep,
    }, args.out)
    return 0


def _walk_tree(a: Analysis, args) -> dict:
    ctx = bwpt.solve_self_consistent(a, zeta=args.zeta)
    est = bwpt.walk_estimate(ctx, a, samples=args.samples, seed=args.seed)
    tree = {
        "omega": ctx.omega,
        "eq0": ctx.eq0,
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


def cmd_walk(args) -> int:
    a = _analysis_context(args)
    write_report({
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
        "bw": _walk_tree(a, args),
    }, args.out)
    return 0


def cmd_dos(args) -> int:
    inst = _load_instance(args)
    table = hilbert.evaluate_hz(inst, max_qubits=_max_qubits(args))
    hist = bounds.dos_histogram(table)
    tree = {"e0": hist.e0, "counts": [int(c) for c in hist.counts],
            "total": hist.total}
    if args.fit_window:
        fit = bounds.dos_powerlaw_fit(hist, tuple(args.fit_window))
        tree["powerlaw_fit"] = fit
    if args.csv:
        dos_csv(hist, args.csv)
    write_report({"config": _config_record(args), "dos": tree}, args.out)
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


def cmd_baseline(args) -> int:
    inst = _load_instance(args)
    table = hilbert.evaluate_hz(inst, max_qubits=_max_qubits(args))
    rep = bounds.classical_baseline(inst, table)
    write_report({
        "config": _config_record(args),
        "baseline": rep,
    }, args.out)
    return 0


def cmd_report(args) -> int:
    """All-in-one: every module's record for a single instance."""
    a = _analysis_context(args)
    inst = a.instance
    consts = _constants(args)
    tree = {
        "config": _config_record(args, a.params),
        "instance": _instance_record(a),
    }
    log.info("spectrum")
    tree["spectrum"] = _spectral_tree(analyze.spectral_report(a))
    log.info("qgood")
    tree["qgood"] = _theorem_tree(analyze.qgood_verify(a, consts))
    log.info("mainconst")
    tree["mainconst"] = _theorem_tree(analyze.mainconst_decide(a, consts))
    log.info("simulate")
    tree["simulate"] = analyze.simulate_algorithm1(a)
    log.info("bw series and walk")
    try:
        tree["bw"] = _walk_tree(a, args)
    except (bwpt.BwptError, eigensolve.EigensolveError) as exc:
        tree["bw"] = {"error": str(exc)}
    log.info("dos")
    hist = bounds.dos_histogram(a.table)
    tree["dos"] = {"e0": hist.e0, "counts": [int(c) for c in hist.counts],
                   "total": hist.total}
    if inst.degree == 2:
        log.info("classical baseline")
        tree["baseline"] = bounds.classical_baseline(inst, a.table)
    write_report(tree, args.out)
    return 0


# ----------------------------------------------------------------- arg parsing

def _add_instance_args(p: argparse.ArgumentParser, with_params: bool = True):
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--max-qubits", type=int, default=None,
                   help=f"dense budget override (or ${MAX_QUBITS_ENV})")
    if with_params:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--b", type=float,
                           help="relative field strength; B = b*|E0|")
        group.add_argument("--B", dest="big_b", type=float,
                           help="absolute field strength B")
        p.add_argument("--K", dest="k", type=int, required=True)
        p.add_argument("--s", type=float, default=1.0)
        p.add_argument("--parity", choices=("even", "odd"), default=None,
                       help="parity block override for even K")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shortpath",
        description="Numerical laboratory for the short-path quantum "
                    "optimization algorithm over MAX-D-LIN-2 instances.",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--model", choices=("sk_pm", "sk_gaussian", "toy"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n1", type=int, default=1, help="toy: size of the first set")
    p.add_argument("--afm-density", type=float, default=0.0)
    p.add_argument("--toy-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    for name, fn, csv_help in (
        ("spectrum", cmd_spectrum, "eigenvalue CSV"),
        ("qgood", cmd_qgood, None),
        ("mainconst", cmd_mainconst, None),
        ("simulate", cmd_simulate, None),
    ):
        p = sub.add_parser(name)
        _add_instance_args(p)
        if name in ("qgood", "mainconst"):
            p.add_argument("--constants", help="TheoremConstants key-value file")
        if csv_help:
            p.add_argument("--csv", help=csv_help)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.set_defaults(func=fn)

    p = sub.add_parser("walk", help="BW series, exact resummation, walk estimate")
    _add_instance_args(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=bwpt.DEFAULT_ZETA)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("dos", help="density-of-states histogram")
    _add_instance_args(p, with_params=False)
    p.add_argument("--fit-window", type=int, nargs=2, metavar=("KMIN", "KMAX"))
    p.add_argument("--csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("thm3", help="regime parameter choice and feasibility terms")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", dest="c_scale", type=float, required=True)
    p.add_argument("--constants")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_thm3)

    p = sub.add_parser("baseline", help="classical D=2 per-spin-field counting")
    _add_instance_args(p, with_params=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="all-in-one analysis report")
    _add_instance_args(p)
    p.add_argument("--constants")
    p.add_argument("--samples", type=int, default=2000, help="walk samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=bwpt.DEFAULT_ZETA)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (instances.InstanceError, hilbert.BudgetError, bounds.BoundsError,
            eigensolve.EigensolveError, bwpt.BwptError, analyze.AnalyzeError,
            CliError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
