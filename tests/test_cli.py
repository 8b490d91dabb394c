"""CLI subcommands, report serialization, reproducibility contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shortpath import bwpt, cli, eigensolve, hilbert, instances


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
             "--afm-density", 0.5, "--toy-seed", 3, "--out", out])
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


def test_console_entry_point_runs():
    # the child does not inherit pytest's pythonpath setting, so point it at
    # this checkout's src for runs where shortpath is not installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shortpath.cli", "thm3", "--alpha", "1.5",
         "--c", "1", "--n", "1000", "--C", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["parameter_choice"]["regime"] == "low"


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


@pytest.mark.parametrize("k", [1, 2])
def test_s_folds_into_the_field(tmp_path, sk8_report, k):
    # H_s depends on s and B only through sB, so --s 0.5 --B 0.4 is --B 0.2
    # in every leaf but the two config entries that echo the input
    inst, report = sk8_report(k)
    out = tmp_path / "half.json"
    assert run_cli(["report", "--in", inst, "--s", 0.5, "--B", 0.4, "--K", k,
                    "--samples", 300, "--seed", 5, "--out", out]) == 0
    half = _load(out)
    assert (half["config"]["s"]["dec"], half["config"]["big_b"]["dec"]) == (0.5, 0.4)

    def without_input(doc):
        config = {key: v for key, v in doc["config"].items() if key not in ("s", "big_b")}
        return {**doc, "config": config}

    assert without_input(half) == without_input(report)


@pytest.mark.parametrize("s", [1.5, -0.1])
def test_s_outside_the_unit_interval_exits_nonzero(tmp_path, s):
    inst = _gen(tmp_path)
    assert run_cli(["spectrum", "--in", inst, "--s", s, "--B", 0.2, "--K", 1,
                    "--out", tmp_path / "spectrum.json"]) == 1


def test_simulate_accepts_a_parity_block_it_does_not_use(tmp_path):
    # sk_pm N=8 seed 2 has all four ground states in the odd block; simulate
    # works in the full space, so --parity even changes nothing there
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
    # H_s (in the block for even K, then in the full space for simulate),
    # QH_sQ and bw's J0 + V; E_{0,1} is read from the H_s band solve
    calls = []
    solve = eigensolve.extreme_eigs

    def counted(op, how_many, *args):
        calls.append((op.spec, how_many))
        return solve(op, how_many, *args)

    monkeypatch.setattr(eigensolve, "extreme_eigs", counted)
    inst = _gen(tmp_path, n=8, seed=2)
    assert run_cli(["report", "--in", inst, "--B", 0.2, "--K", k,
                    "--samples", 300, "--out", tmp_path / "report.json"]) == 0
    assert len(calls) == solves, calls
