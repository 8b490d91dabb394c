"""CLI subcommands, report serialization, reproducibility contract."""

import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import shortpath
from shortpath import analyze, bwpt, cli, eigensolve, hilbert, instances
from shortpath.context import Analysis

from conftest import disjoint_pairs


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_gen_writes_expected_term_count(tmp_path):
    out = tmp_path / "inst.txt"
    assert run_cli(["gen", "--model", "sk_pm", "--n", 10, "--seed", 3,
                    "--out", out]) == 0
    inst = instances.load_instance(str(out))
    assert len(inst.terms) == math.comb(10, 2) == 45


def _gen(tmp_path, n=6, seed=1):
    out = tmp_path / "inst.txt"
    run_cli(["gen", "--model", "sk_pm", "--n", n, "--seed", seed, "--out", out])
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_float_leaves_carry_hex(tmp_path):
    inst = _gen(tmp_path)
    rep = tmp_path / "r.json"
    assert run_cli(["spectrum", "--in", inst, "--b", 0.1, "--K", 1,
                    "--out", rep]) == 0
    doc = _load(rep)
    assert doc["schema_version"] == 1
    leaf = doc["instance"]["e0"]
    assert set(leaf) == {"dec", "hex"}
    assert float.fromhex(leaf["hex"]) == leaf["dec"]


class _Pair(NamedTuple):
    name: str
    margin: float


def test_a_named_tuple_serializes_as_the_dict_of_its_fields():
    assert cli.to_jsonable([_Pair("gap", 0.5)]) == [
        {"name": "gap", "margin": {"dec": 0.5, "hex": "0x1.0000000000000p-1"}}]


def test_a_repr_false_field_stays_out_of_the_report():
    @dataclass
    class Record:
        n0: int
        vectors: np.ndarray = field(repr=False)

    assert cli.to_jsonable(Record(2, np.eye(2))) == {"n0": 2}


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def test_non_finite_floats_write_strict_json(tmp_path):
    # on one qubit log2(N) = 0, so b_over_log2n is infinite; a one-sample
    # walk has an infinite standard error
    inst = tmp_path / "one.txt"
    instances.save_instance(instances.build_instance(1, 1, [((0,), 1.0)]), str(inst))
    rep, walk = tmp_path / "report.json", tmp_path / "walk.json"
    assert run_cli(["report", "--in", inst, "--b", 0.5, "--K", 2, "--out", rep]) == 0
    assert run_cli(["walk", "--in", _gen(tmp_path), "--b", 0.1, "--K", 1,
                    "--samples", 1, "--out", walk]) == 0
    for path in (rep, walk):
        text = path.read_text()
        json.loads(text, parse_constant=_reject)
        leaves = re.findall(r'"dec": null,\s*"hex": "(.*?)"', text)
        assert leaves and set(leaves) <= {"inf", "-inf", "nan"}, path.name


def test_reports_are_byte_identical(tmp_path):
    inst = _gen(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["report", "--in", inst, "--b", 0.1, "--K", 1,
            "--samples", 500, "--seed", 7]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    # degenerate levels: ARPACK restarts from a random vector inside them,
    # which must come from the seeded stream as well
    pairs = tmp_path / "pairs.txt"
    instances.save_instance(instances.build_instance(
        10, 2, [((0, 4), -1), ((1, 6), -1), ((2, 8), -1), ((3, 5), -1), ((7, 9), -1)]),
        str(pairs))
    args = ["qgood", "--in", pairs, "--b", 0.1, "--K", 2]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_contains_every_module_record(tmp_path):
    inst = _gen(tmp_path)
    rep = tmp_path / "full.json"
    assert run_cli(["report", "--in", inst, "--b", 0.1, "--K", 1,
                    "--samples", 200, "--out", rep]) == 0
    doc = _load(rep)
    for key in ("config", "instance", "spectrum", "qgood", "mainconst",
                "simulate", "bw", "dos", "baseline"):
        assert key in doc, key
    assert doc["config"]["worker_count"] == 1
    assert doc["config"]["s"] == {"dec": 1.0, "hex": "0x1.0000000000000p+0"}
    assert doc["dos"]["total"] == 64


def test_b_and_big_b_are_mutually_exclusive(tmp_path):
    inst = _gen(tmp_path)
    with pytest.raises(SystemExit):
        run_cli(["spectrum", "--in", inst, "--b", 0.1, "--B", 1.0, "--K", 1])
    with pytest.raises(SystemExit):
        run_cli(["spectrum", "--in", inst, "--K", 1])


def test_failed_preconditions_still_exit_zero(tmp_path):
    # a finding, not an operational error
    inst = _gen(tmp_path)
    rep = tmp_path / "q.json"
    assert run_cli(["qgood", "--in", inst, "--B", 50.0, "--K", 1,
                    "--out", rep]) == 0
    doc = _load(rep)
    passed = {p["name"]: p["passed"] for p in doc["qgood"]["preconditions"]}
    assert passed["b_pnorm_quarter"] is False
    assert doc["qgood"]["conclusions"] == []


def test_operational_errors_exit_nonzero(tmp_path):
    assert run_cli(["spectrum", "--in", tmp_path / "missing.txt",
                    "--b", 0.1, "--K", 1]) == 1
    inst = _gen(tmp_path)
    # dense budget exceeded is operational
    assert run_cli(["spectrum", "--in", inst, "--b", 0.1, "--K", 1,
                    "--max-qubits", 4]) == 1


def test_dos_command_with_csv_and_fit(tmp_path):
    out = tmp_path / "toy.txt"
    run_cli(["gen", "--model", "toy", "--n", 10, "--n1", 2,
             "--afm-density", 0.5, "--seed", 3, "--out", out])
    rep = tmp_path / "dos.json"
    csv = tmp_path / "dos.csv"
    assert run_cli(["dos", "--in", out, "--fit-window", 1, 8,
                    "--csv", csv, "--out", rep]) == 0
    doc = _load(rep)
    assert sum(doc["dos"]["counts"]) == 1024
    assert "powerlaw_fit" in doc["dos"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "bin_offset,energy_low,count,log2_count"
    assert len(lines) == len(doc["dos"]["counts"]) + 1


def test_thm3_command(tmp_path):
    rep = tmp_path / "t3.json"
    assert run_cli(["thm3", "--alpha", 2.0, "--c", 1.0, "--n", 100000,
                    "--C", 10.0, "--out", rep]) == 0
    doc = _load(rep)
    assert doc["parameter_choice"]["regime"] == "high"
    assert doc["parameter_choice"]["exponent"]["dec"] == 0.0
    assert doc["hassoln"]["violated"] is False


def test_baseline_command(tmp_path):
    inst = _gen(tmp_path)
    rep = tmp_path / "base.json"
    assert run_cli(["baseline", "--in", inst, "--out", rep]) == 0
    doc = _load(rep)
    assert doc["baseline"]["n_choice_int"] == doc["baseline"]["brute_count"]


def test_walk_command(tmp_path):
    inst = _gen(tmp_path)
    rep = tmp_path / "walk.json"
    assert run_cli(["walk", "--in", inst, "--b", 0.1, "--K", 1,
                    "--samples", 1000, "--seed", 2, "--out", rep]) == 0
    doc = _load(rep)
    assert doc["bw"]["walk"]["samples"] == 1000
    assert "series_exact" in doc["bw"]


def test_walk_on_a_flip_pair_of_h_writes_its_overlap(tmp_path):
    # h(omega)'s lowest level is a global-flip pair here; xi0 is taken from
    # its F = +1 block, so phi aligns with the H_s ground state
    inst = _gen(tmp_path, n=8, seed=2)
    rep = tmp_path / "walk.json"
    assert run_cli(["walk", "--in", inst, "--B", 0.2, "--K", 1,
                    "--samples", 300, "--out", rep]) == 0
    bw = _load(rep)["bw"]
    assert "overlap" in bw and "overlap_error" not in bw


@pytest.mark.parametrize("n,seed,k", [(16, 3, 2), (12, 0, 1), (10, 0, 1), (14, 0, 1)])
def test_report_on_a_near_degenerate_flip_pair_writes_its_overlap(tmp_path, n, seed, k):
    # H_s's ground state and the F = -1 level above it are split by 1.6e-10
    # at N=16 (K=2); an eigensolve of the whole block returned a mix of the
    # two, and phi_exact's alignment check failed on it.  At N=14 (K=1) the
    # split is at rounding level and the merged lowest pair can be the F = -1
    # copy, so phi_exact reads psi_{0,1} from the F = +1 sector
    inst = _gen(tmp_path, n=n, seed=seed)
    rep = tmp_path / "report.json"
    assert run_cli(["report", "--in", inst, "--b", 0.1, "--K", k,
                    "--samples", 100, "--out", rep]) == 0
    bw = _load(rep)["bw"]
    assert "overlap" in bw and "overlap_error" not in bw


def test_report_leaves_the_baseline_out_when_d_is_not_2(tmp_path):
    inst = tmp_path / "d3.txt"
    inst.write_text("5 3\n0 1 2 1.0\n1 2 3 -1.0\n2 3 4 1.0\n0 3 4 -1.0\n")
    rep = tmp_path / "report.json"
    assert run_cli(["report", "--in", inst, "--b", 0.1, "--K", 1,
                    "--samples", 100, "--out", rep]) == 0
    doc = _load(rep)
    assert doc["instance"]["degree"] == 3
    assert "baseline" not in doc and "dos" in doc
    # the standalone command has no section to leave out, so it fails
    assert run_cli(["baseline", "--in", inst, "--out", tmp_path / "base.json"]) == 1


def test_report_keeps_a_failed_walk_as_an_error_record(tmp_path, monkeypatch):
    def no_fixed_point(*args, **kwargs):
        raise bwpt.BwptError("no fixed point")

    monkeypatch.setattr(bwpt, "solve_self_consistent", no_fixed_point)
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    assert run_cli(["report", "--in", inst, "--b", 0.1, "--K", 1, "--out", rep]) == 0
    assert _load(rep)["bw"] == {"error": "no fixed point"}
    assert run_cli(["walk", "--in", inst, "--b", 0.1, "--K", 1,
                    "--out", tmp_path / "walk.json"]) == 1


@pytest.mark.parametrize("zeta", [0.0, -0.1])
def test_a_divergent_walk_is_an_error_not_a_number(tmp_path, zeta):
    # at zeta <= 0 the walk's series diverges on sk_pm N=8 seed 3: walk exits
    # 1, and the report keeps the error in bw and every other section as is
    inst = _gen(tmp_path, n=8, seed=3)
    args = ["--in", inst, "--b", 0.1, "--K", 2, "--samples", 2000]
    assert run_cli(["walk", *args, "--zeta", zeta,
                    "--out", tmp_path / "walk.json"]) == 1
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    assert run_cli(["report", *args, "--zeta", zeta, "--out", bad]) == 0
    assert run_cli(["report", *args, "--out", good]) == 0
    bad, good = _load(bad), _load(good)
    assert set(bad["bw"]) == {"error"} and "--zeta" in bad["bw"]["error"]
    assert "error" not in good["bw"]
    for doc in (bad, good):
        del doc["bw"], doc["config"]["zeta"]
    assert bad == good


def test_verbose_logs_each_section_with_its_time(tmp_path, caplog):
    inst = _gen(tmp_path)
    args = ["spectrum", "--in", inst, "--b", 0.1, "--K", 1, "--out", tmp_path / "s.json"]

    def section_lines():
        return [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("spectrum:")]

    assert run_cli(["-v", *args]) == 0
    assert len(section_lines()) == 1
    caplog.clear()
    assert run_cli(args) == 0  # the default level drops it again
    assert section_lines() == []


def test_constants_file_flows_through(tmp_path):
    inst = _gen(tmp_path)
    consts = tmp_path / "c.txt"
    consts.write_text("c_err = 2.5\n")
    rep = tmp_path / "m.json"
    assert run_cli(["mainconst", "--in", inst, "--b", 0.1, "--K", 1,
                    "--constants", consts, "--out", rep]) == 0
    doc = _load(rep)
    assert doc["mainconst"]["constants_used"]["c_err"]["dec"] == 2.5


def _run_module(argv):
    """`python -m shortpath.cli argv` in a child process, output as bytes."""
    # the child does not inherit pytest's pythonpath setting, so point it at
    # this checkout's src for runs where shortpath is not installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "shortpath.cli", *map(str, argv)],
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def test_console_entry_point_runs():
    proc = _run_module(["thm3", "--alpha", "1.5", "--c", "1", "--n", "1000", "--C", "1"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["parameter_choice"]["regime"] == "low"


def test_a_report_without_out_prints_the_file_bytes(tmp_path):
    inst = _gen(tmp_path)
    argv = ["report", "--in", inst, "--b", 0.1, "--K", 2, "--samples", 100]
    out = tmp_path / "report.json"
    printed, written = _run_module(argv), _run_module([*argv, "--out", out])
    assert printed.returncode == written.returncode == 0
    assert printed.stdout == out.read_bytes()
    assert written.stdout == b""
    # the log lines go to stderr only
    assert b"INFO loaded instance" in printed.stderr
    assert b"INFO report written to" in written.stderr


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # a flag removed from the CLI must not survive in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 10 and all(argv[0] == "shortpath" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


@pytest.mark.parametrize("verb", ["gen", "spectrum", "qgood", "mainconst",
                                  "simulate", "walk", "report"])
def test_help_lists_neither_s_nor_a_toy_seed(verb, capsys):
    # --b or --B is the whole field sB, and the toy model draws from --seed
    with pytest.raises(SystemExit):
        run_cli([verb, "--help"])
    assert not re.search(r"--s\b|--toy-seed", capsys.readouterr().out)


_SCIPY_PROBE = """
import json, sys
from shortpath import cli
d = sys.argv[1]
inst = d + "/inst.txt"
loaded = {"import": "scipy.sparse" in sys.modules}
for argv in (
    ["gen", "--model", "sk_pm", "--n", "6", "--seed", "1", "--out", inst],
    ["dos", "--in", inst, "--out", d + "/dos.json"],
    ["baseline", "--in", inst, "--out", d + "/baseline.json"],
    ["thm3", "--alpha", "1.5", "--c", "1", "--n", "1000", "--C", "1", "--out", d + "/t3.json"],
    ["spectrum", "--in", inst, "--b", "0.1", "--K", "2", "--out", d + "/spec.json"],
):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = "scipy.sparse" in sys.modules
print(json.dumps(loaded))
"""


def test_only_an_eigensolve_imports_scipy(tmp_path):
    # the test process has imported scipy already, so a fresh interpreter runs the
    # commands in order; only spectrum, the first to run ARPACK, may load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "gen": False, "dos": False,
                                       "baseline": False, "thm3": False,
                                       "spectrum": True}


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; a name another module needs
    # is public
    private = []
    for path in sorted(Path(shortpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("shortpath")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_field_is_a_one_line_error(tmp_path, value):
    # NaN passed the B < 0 check, and ARPACK then failed with a traceback
    inst = _gen(tmp_path, n=6)
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shortpath.cli", "spectrum", "--in", str(inst),
         "--B", value, "--K", "2", "--out", str(tmp_path / "spec.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
    assert errors == [f"ERROR B={value} must be finite and non-negative"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["walk", "--b", 0.1, "--K", 2, "--zeta", "inf"],
                 "--zeta inf is not finite", id="zeta-inf"),
    pytest.param(["thm3", "--alpha", 1.5, "--c", "nan", "--n", 14, "--C", 1],
                 "c=nan and C=1.0 must be positive and finite", id="c-nan"),
    pytest.param(["thm3", "--alpha", 1.5, "--c", "inf", "--n", 14, "--C", 1],
                 "c=inf and C=1.0 must be positive and finite", id="c-inf"),
    pytest.param(["thm3", "--alpha", 1.5, "--c", 0.7, "--n", 14, "--C", "nan"],
                 "c=0.7 and C=nan must be positive and finite", id="C-nan"),
])
def test_a_non_finite_parameter_is_a_one_line_error(tmp_path, caplog, argv, message):
    # each exited 0 with NaN or null leaves, and --C nan with a conversion error
    if argv[0] == "walk":
        argv = [*argv, "--in", _gen(tmp_path, n=8, seed=3)]
    assert run_cli([*argv, "--out", tmp_path / "out.json"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(message)
    assert not (tmp_path / "out.json").exists()


def test_a_non_finite_constant_is_a_one_line_error(tmp_path, caplog):
    # hassoln_c1 = nan passed the file's < 0 check: thm3 exited 0 and wrote a
    # NaN hassoln.lhs judged not violated
    consts = tmp_path / "c.txt"
    consts.write_text("hassoln_c1 = nan\n")
    assert run_cli(["thm3", "--alpha", 1.5, "--c", 0.7, "--n", 14, "--C", 1,
                    "--constants", consts, "--out", tmp_path / "out.json"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["constant hassoln_c1=nan must be finite and non-negative"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("n, field", [
    pytest.param(14, ["--b", 0, "--K", 2], id="N14-b0"),
    pytest.param(14, ["--B", 1, "--K", 2], id="N14-B1"),
    pytest.param(10, ["--b", 0, "--K", 2], id="N10-b0"),
])
def test_a_term_less_instance_is_a_one_line_error(tmp_path, caplog, n, field):
    # the two terms cancel, so H_Z = 0 and every basis state is a ground
    # state: a spectrum would ask for all 2^(N-1) pairs of the block
    inst = tmp_path / "zero.txt"
    inst.write_text(f"{n} 2\n0 1 1\n0 1 -1\n")
    start = time.perf_counter()
    assert run_cli(["spectrum", "--in", inst, *field, "--out", tmp_path / "out.json"]) == 1
    assert time.perf_counter() - start < 10
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["the instance has no terms, so H_Z = 0 and every basis state "
                      "is a ground state; give it at least one term"]
    assert not (tmp_path / "out.json").exists()


def test_a_large_field_writes_finite_walk_leaves_and_an_infinite_bound(tmp_path):
    # sk_pm N=8 seed 3, K=2: at B = 100 the walk's B^t overflowed and its
    # estimate and error were null; at B = 1e4 exp overflowed in the analytic
    # bound, and walk and report died with a traceback
    inst = _gen(tmp_path, n=8, seed=3)
    out = tmp_path / "walk.json"
    assert run_cli(["walk", "--in", inst, "--B", 100, "--K", 2, "--samples", 200,
                    "--out", out]) == 0
    est = _load(out)["bw"]["walk"]
    assert math.isfinite(est["series_estimate"]["dec"])
    assert math.isfinite(est["std_error"]["dec"])
    for verb in ("walk", "report"):
        out = tmp_path / f"{verb}.json"
        assert run_cli([verb, "--in", inst, "--B", "1e4", "--K", 2, "--samples", 200,
                        "--out", out]) == 0
        bw = _load(out)["bw"]
        assert bw["overlap"]["analytic_bound"] == {"dec": None, "hex": "inf"}
        assert math.isfinite(bw["walk"]["series_estimate"]["dec"])


def test_small_report_sweep_exits_zero(tmp_path):
    # 228 reports: disjoint pairs N in {2, 4, 6, 8} and sk_pm N = 3..7 at
    # seeds 0..2, each at b in {0, 0.05, 0.3} and K = 1..4.  At b = 0 and an
    # even K, the odd block of N = 4 pairs (and of sk_pm N = 4 seeds 0 and 2)
    # has a zero flip sector, on which ARPACK stops with "starting vector is
    # zero"
    paths = []
    for inst in ([disjoint_pairs(n) for n in (2, 4, 6, 8)]
                 + [instances.generate("sk_pm", n, seed=seed)
                    for n in range(3, 8) for seed in range(3)]):
        paths.append(tmp_path / f"inst{len(paths)}.txt")
        instances.save_instance(inst, str(paths[-1]))
    failed = [(path.name, b, k) for path in paths for b in (0, 0.05, 0.3)
              for k in (1, 2, 3, 4)
              if run_cli(["report", "--in", path, "--b", b, "--K", k,
                          "--out", tmp_path / "report.json"]) != 0]
    assert len(paths) * 12 == 228
    assert failed == []


def test_max_qubits_reaches_every_pipeline(tmp_path, monkeypatch):
    # the library default budget is lowered below N; each command must use
    # the table built under its own --max-qubits instead of tabulating again
    monkeypatch.setattr(hilbert.evaluate_hz, "__defaults__", (4,))
    inst = _gen(tmp_path, n=6)
    for verb in ("qgood", "mainconst", "simulate", "report"):
        args = [verb, "--in", inst, "--b", 0.1, "--K", 2, "--max-qubits", 6,
                "--out", tmp_path / f"{verb}.json"]
        if verb == "report":
            args += ["--samples", 100]
        assert run_cli(args) == 0, verb


@pytest.fixture(scope="module")
def sk8_report(tmp_path_factory):
    """(instance path, report document) for sk_pm N=8 at a given K; each K's
    report runs once per module.  At B=0.2 the qgood preconditions pass and
    mainconst passes its guard (branch 1), so neither section stops early."""
    inst = tmp_path_factory.mktemp("sk8") / "inst.txt"
    run_cli(["gen", "--model", "sk_pm", "--n", 8, "--seed", 2, "--out", inst])
    reports = {}

    def get(k):
        if k not in reports:
            out = inst.parent / f"report-K{k}.json"
            assert run_cli(["report", "--in", inst, "--B", 0.2, "--K", k,
                            "--samples", 300, "--seed", 5, "--out", out]) == 0
            reports[k] = _load(out)
        return inst, reports[k]
    return get


@pytest.mark.parametrize("verb,section", [
    ("spectrum", "spectrum"), ("qgood", "qgood"), ("mainconst", "mainconst"),
    ("simulate", "simulate"), ("walk", "bw"), ("dos", "dos"),
    ("baseline", "baseline"),
])
@pytest.mark.parametrize("k", [1, 2])  # K=2 solves in a parity block
def test_report_sections_equal_standalone_commands(tmp_path, sk8_report,
                                                   k, verb, section):
    inst, report = sk8_report(k)
    out = tmp_path / f"{verb}.json"
    args = [verb, "--in", inst, "--out", out]
    if verb not in ("dos", "baseline"):
        args += ["--B", 0.2, "--K", k]
    if verb == "walk":
        args += ["--samples", 300, "--seed", 5]
    assert run_cli(args) == 0
    standalone = _load(out)[section]
    assert (json.dumps(standalone, sort_keys=True)
            == json.dumps(report[section], sort_keys=True))


def test_theorem_and_spectrum_sections_are_their_records(sk8_report):
    _, report = sk8_report(1)
    theorem = {f.name for f in fields(analyze.TheoremReport)}
    assert set(report["qgood"]) == set(report["mainconst"]) == theorem
    spectral = {f.name for f in fields(analyze.SpectralReport)} - {"band_vectors"}
    assert set(report["spectrum"]) == spectral
    assert report["qgood"]["details"]["spectral"] == report["spectrum"]
    for key in ("qgood", "mainconst"):
        checks = report[key]["preconditions"] + report[key]["conclusions"]
        assert report[key]["conclusions"]
        assert all(set(c) == {"name", "passed", "margin"} for c in checks), key


def test_spectrum_csv_lists_the_band_and_the_next_eigenvalue(tmp_path):
    inst = _gen(tmp_path, n=8, seed=2)
    rep, csv = tmp_path / "spectrum.json", tmp_path / "spectrum.csv"
    assert run_cli(["spectrum", "--in", inst, "--B", 0.2, "--K", 2,
                    "--csv", csv, "--out", rep]) == 0
    spectrum = _load(rep)["spectrum"]
    assert spectrum["next_eigenvalue"] is not None
    header, *lines = csv.read_text().splitlines()
    assert header == "index,eigenvalue"
    rows = [line.split(",") for line in lines]
    assert [int(i) for i, _ in rows] == list(range(spectrum["n0_eff"] + 1))
    # .17g round-trips, so each cell parses back to its leaf's exact value
    leaves = spectrum["band"] + [spectrum["next_eigenvalue"]]
    assert [float(v).hex() for _, v in rows] == [leaf["hex"] for leaf in leaves]


def test_an_accepted_parity_choice_picks_its_block(tmp_path):
    # sk_pm N=9 seed 3 has ground states in both blocks, and the even one is
    # the default.  For odd N the global flip maps one parity block onto the
    # other, so the two bands agree, though only to rounding
    inst = _gen(tmp_path, n=9, seed=3)
    spectra = {}
    for choice in (None, "even", "odd"):
        out = tmp_path / f"{choice}.json"
        parity = [] if choice is None else ["--parity", choice]
        assert run_cli(["spectrum", "--in", inst, "--b", 0.1, "--K", 2,
                        *parity, "--out", out]) == 0
        spectra[choice] = _load(out)["spectrum"]
    assert spectra[None] == spectra["even"]
    assert (spectra["even"]["block"], spectra["odd"]["block"]) == ("even", "odd")
    even, odd = ([float.fromhex(leaf["hex"]) for leaf in
                  spectra[b]["band"] + [spectra[b]["next_eigenvalue"]]]
                 for b in ("even", "odd"))
    assert len(even) == len(odd) == 3
    assert np.allclose(odd, even, rtol=1e-12, atol=0.0)


def test_simulate_accepts_a_parity_block_it_does_not_use(tmp_path):
    # sk_pm N=8 seed 2 has all four ground states in the odd block; simulate
    # solves both blocks whatever the choice, so --parity even changes nothing there
    inst = _gen(tmp_path, n=8, seed=2)
    args = ["--in", inst, "--B", 0.2, "--K", 2]
    plain, even = tmp_path / "plain.json", tmp_path / "even.json"
    assert run_cli(["simulate", *args, "--out", plain]) == 0
    assert run_cli(["simulate", *args, "--parity", "even", "--out", even]) == 0
    assert _load(even)["simulate"] == _load(plain)["simulate"]
    # a command that does restrict to the block still rejects it
    assert run_cli(["spectrum", *args, "--parity", "even",
                    "--out", tmp_path / "spectrum.json"]) == 1


@pytest.mark.parametrize("k,solves", [(1, 3), (2, 4), (3, 3)])
def test_report_solves_each_spectrum_once(tmp_path, monkeypatch, k, solves):
    # H_s (for even K in the ground states' block, then in the other block
    # for simulate) and QH_sQ; E_{0,1} is read from the H_s band solve.  D = 2
    # and N = 8 is even, so each spectrum is solved in its global-flip
    # sectors, on 2^(M-1) coordinates: for even K no solve spans the block.
    # The band takes both sectors; a lowest pair, E^Q's and the one of
    # simulate's block without ground states, takes F = +1 alone
    calls = []
    solve = eigensolve.extreme_eigs

    def counted(op, how_many, *args):
        calls.append((op.spec, how_many, op.shape))
        return solve(op, how_many, *args)

    monkeypatch.setattr(eigensolve, "extreme_eigs", counted)
    inst = _gen(tmp_path, n=8, seed=2)
    assert run_cli(["report", "--in", inst, "--B", 0.2, "--K", k,
                    "--samples", 300, "--out", tmp_path / "report.json"]) == 0
    assert len(calls) == solves, calls
    specs = [spec for spec, *_ in calls]
    assert len(set(specs)) == len(specs), calls
    band = hilbert.OperatorSpec("HS", big_b=0.2, k=k, parity_block="odd" if k == 2 else None)
    assert {replace(band, flip_sector=f) for f in (1, -1)} <= set(specs), calls
    assert [spec for spec in specs if spec.flip_sector != 1] == [replace(band, flip_sector=-1)]
    assert replace(band, kind="QHSQ", flip_sector=1) in specs, calls
    if k == 2:
        assert replace(band, parity_block="even", flip_sector=1) in specs, calls
    half = 1 << (8 - 1 - (k % 2 == 0))
    assert all(shape == (half, half) for *_, shape in calls), calls


@pytest.mark.parametrize("k", [1, 2])
def test_report_builds_one_spectral_record(tmp_path, monkeypatch, k):
    # the spectrum, qgood and mainconst sections read one spectral report, and
    # every reader of E^Q (those sections and the walk) one QH_sQ request
    records, eq_requests = [], []
    build = analyze.spectral_report
    monkeypatch.setattr(analyze, "spectral_report",
                        lambda a: records.append(1) or build(a))
    lowest = Analysis.lowest

    def counted(self, spec, how_many):
        if spec.kind == "QHSQ":
            eq_requests.append(how_many)
        return lowest(self, spec, how_many)

    monkeypatch.setattr(Analysis, "lowest", counted)
    inst = _gen(tmp_path, n=8, seed=2)
    assert run_cli(["report", "--in", inst, "--B", 0.2, "--K", k,
                    "--samples", 300, "--out", tmp_path / "report.json"]) == 0
    assert records == [1]
    assert eq_requests == [1]


def test_even_k_simulate_reads_the_band_of_its_report(sk8_report):
    # sk_pm N=8 seed 2 accepts only odd-block eigenvalues, and simulate reads
    # them from the block solve the spectrum section's band comes from
    _inst, report = sk8_report(2)
    accepted = [leaf["hex"] for leaf in report["simulate"]["accepted_eigenvalues"]]
    band = [leaf["hex"] for leaf in report["spectrum"]["band"]]
    assert accepted and accepted == band[:len(accepted)]


def test_large_k_report_band_matches_the_dense_block_spectrum(tmp_path):
    # K = 27 is what thm3 picks for --alpha 1.5 --c 0.7 --n 14 --C 1
    inst = _gen(tmp_path, n=10, seed=3)
    out = tmp_path / "report.json"
    assert run_cli(["report", "--in", inst, "--b", 0.1, "--K", 27, "--out", out]) == 0
    doc = _load(out)
    spectrum = doc["spectrum"]
    spec = hilbert.OperatorSpec("HS", big_b=float.fromhex(doc["config"]["resolved_big_b"]["hex"]),
                                k=27, parity_block=spectrum["block"])
    table = hilbert.evaluate_hz(instances.load_instance(str(inst)))
    dense = eigensolve.dense_spectrum(hilbert.MatrixFreeOperator(spec, table),
                                      want_vectors=False).eigenvalues
    band = [float.fromhex(leaf["hex"]) for leaf in spectrum["band"]]
    assert band
    for got, want in zip(band, dense):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
