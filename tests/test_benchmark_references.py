"""The benchmark's recorded references, checked at tier 1.

Every command of the three benchmark workloads runs once at the default seed
and once at the held-out seed through perfbench's own `run_command` and
`check_outputs`, so a report float that moves by more than the reference
tolerance (1e-9 relative, or three standard errors for a walk estimate), or a
key that appears or disappears, fails here and not only in a benchmark run.
The held-out seed's gauge gives the program another input file with the same
recorded values, so a result that depends on more of the file than its
gauge-invariant content fails too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402
from shortpath import cli, instances  # noqa: E402


@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=name if seed == workloads.DEFAULT_SEED
                 else f"{name}-seed{seed}")
    for name in sorted(workloads.WORKLOADS)
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)])
def test_workload_outputs_match_the_references(name, seed, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    ref_seed, reference = worker.load_reference(name, seed)
    assert ref_seed == seed
    monkeypatch.chdir(tmp_path)
    workloads.write_instances(workload, seed, Path("."), instances.load_instance)
    codes = [worker.run_command(cli, workloads.command_argv(cmd))
             for cmd in workload.commands]
    verdicts = worker.check_outputs(workload, codes, reference, same_seed=True)
    assert [v["command"] for v in verdicts] == [c.name for c in workload.commands]
    failed = {v["command"]: v["mismatches"] for v in verdicts if v["mismatches"]}
    assert failed == {}
