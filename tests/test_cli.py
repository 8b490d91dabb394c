"""CLI subcommands, report serialization, reproducibility contract."""

import json
import math
import subprocess
import sys

import pytest

from shortpath import cli, hilbert, instances


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
    proc = subprocess.run(
        [sys.executable, "-m", "shortpath.cli", "thm3", "--alpha", "1.5",
         "--c", "1", "--n", "1000", "--C", "1"],
        capture_output=True, text=True)
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
