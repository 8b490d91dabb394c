"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shortpath import analyze, bwpt, cli, eigensolve, hilbert, instances  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_and_workload_names():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in doc["workloads"]]
    declared += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(declared) == len(set(declared))
    produced = set(tracer.layer_metrics([])) | {
        "cli.report_bytes", "cli.reports_identical", "trace.overhead_ratio"}
    for name in declared + sorted(produced):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in doc["per_layer"]} <= produced
    assert [m["name"] for m in doc["end_to_end"]] == [
        "wall_s", "cpu_s", "setup_s", "peak_rss_mib"]


def test_gauge_keeps_the_spectrum(tmp_path):
    spec = workloads.WORKLOADS["report-sk12"].instances[0]
    tables = []
    for seed in (workloads.DEFAULT_SEED, 12345):
        assert workloads.gauge(spec, seed).sum() % 2 == 0
        path = tmp_path / f"{seed}.txt"
        path.write_text(workloads.instance_text(spec, seed))
        tables.append(hilbert.evaluate_hz(instances.load_instance(str(path))))
    assert not np.array_equal(tables[0].energies, tables[1].energies)
    assert np.array_equal(np.sort(tables[0].energies), np.sort(tables[1].energies))


def _run_one_command(tmp_path, monkeypatch, seed):
    workload = workloads.WORKLOADS["degenerate-pairs"]
    cmd = workload.commands[0]
    monkeypatch.chdir(tmp_path)
    workloads.write_instances(workload, seed, Path("."), instances.load_instance)
    code = worker.run_command(cli, workloads.command_argv(cmd))
    sub = workloads.Workload(workload.name, workload.why, workload.instances, (cmd,))
    return sub, code


def _failed_ratio(sub, code, reference, same_seed):
    verdicts = worker.check_outputs(sub, [code], reference, same_seed)
    result = {"passes": [{"verdicts": verdicts}]}
    return run.summarize(result, None)["failed_ratio"], verdicts


def test_corrupted_reference_counts_as_failed(tmp_path, monkeypatch):
    seed = 4242  # no reference of its own: checked against the default seed's
    ref_seed, reference = worker.load_reference("degenerate-pairs", seed)
    assert ref_seed == workloads.DEFAULT_SEED
    sub, code = _run_one_command(tmp_path, monkeypatch, seed)
    assert code == 0
    ratio, verdicts = _failed_ratio(sub, code, reference, False)
    assert ratio == 0 and not verdicts[0]["identical"], verdicts

    name = sub.commands[0].name
    bad = copy.deepcopy(reference)
    leaf = bad[name]["report"]["instance"]["e0"]
    leaf["hex"] = (float.fromhex(leaf["hex"]) * (1 + 1e-7)).hex()
    ratio, verdicts = _failed_ratio(sub, code, bad, False)
    assert ratio > 0 and "instance/e0" in verdicts[0]["mismatches"][0]

    bad = copy.deepcopy(reference)
    bad[name]["report"]["instance"]["n0"] += 1
    assert _failed_ratio(sub, code, bad, False)[0] > 0
    assert _failed_ratio(sub, 1, reference, False)[0] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_agree_across_seeds(name):
    """The gauge leaves every recorded value unchanged, so the held-out seed's
    reference passes the checks against the default seed's."""
    doc = json.loads((worker.REFERENCE_DIR / f"{name}.json").read_text())
    held = doc["seeds"][str(workloads.HELD_OUT_SEED)]
    default = doc["seeds"][str(workloads.DEFAULT_SEED)]
    assert held.keys() == default.keys() == {
        c.name for c in workloads.WORKLOADS[name].commands}
    for cmd, ref in default.items():
        assert refcheck.compare(held[cmd]["report"], ref["report"]) == [], cmd


def test_walk_estimate_rule():
    def walk(est, sigma):
        return {"series_estimate": {"dec": est, "hex": est.hex()},
                "std_error": {"dec": sigma, "hex": sigma.hex()}}
    assert refcheck.compare(walk(1.25, 0.1), walk(1.0, 0.1)) == []
    assert refcheck.compare(walk(1.35, 0.1), walk(1.0, 0.1)) != []
    assert refcheck.compare(walk(1.0, 0.1), walk(1.0, 0.2)) != []


def _bindings():
    """Every (owner, name) -> object that the tracer may rebind."""
    out = {}
    modules = [m for n, m in sys.modules.items() if n.startswith("shortpath")]
    for module in modules:
        for name, value in vars(module).items():
            if callable(value):
                out[(module.__name__, name)] = value
    out[("MatrixFreeOperator", "apply")] = hilbert.MatrixFreeOperator.apply
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    inst = instances.build_instance(4, 2, [((0, 1), 1.0), ((2, 3), -1.0)])
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as tr:
            assert analyze.evaluate_hz is not before[("shortpath.analyze", "evaluate_hz")]
            assert eigensolve.extreme_eigs is not before[("shortpath.eigensolve", "extreme_eigs")]
            table = analyze.evaluate_hz(inst)
            op = hilbert.MatrixFreeOperator(hilbert.OperatorSpec("X"), table)
            op.apply(np.ones((16, 3)))
            bwpt.choose_parity_block(hilbert.ground_space(table), 1)
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s.name for s in tr.spans]
    assert names == ["hilbert.evaluate_hz", "hilbert.apply", "hilbert.ground_space"]
    assert tr.missing == []
    assert tr.spans[1].columns == 3 and tr.spans[1].elements == 48
