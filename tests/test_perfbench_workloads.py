"""The benchmark's in-process workloads on this checkout: every scenario
that ``perfbench/workloads.py`` gives for round 0 at its default seed runs
green at one trial, through the path ``perfbench/child.py`` takes
(``Scenario.from_dict`` and ``run_scenario``), and the names the child
reads exist.  The harness is only read here, never changed."""

import importlib.util
from pathlib import Path

import pytest

from equifix import cli, scenarios
from equifix.groups import make_group

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", ["rep-correct", "algebra-action"])
def test_benchmark_workloads_pass_at_one_trial(tmp_path, workload):
    entries = workloads.round_scenarios(workload, workloads.DEFAULT_SEED, 0)
    assert len(entries) == len(workloads.IN_PROCESS[workload])
    for label, data in entries:
        s = scenarios.Scenario.from_dict(data, trials=1)
        assert s.kind in scenarios.TRIAL_RUNNERS
        make_group(s.group["kind"], s.group.get("params"))
        report = scenarios.run_scenario(s, tmp_path / label)
        assert report.all_passed, (label, report.failures)
        assert [t.all_passed() for t in report.trials] == [True]
        assert report.trials[0].wall_time > 0
        assert (tmp_path / label / "trace.csv").is_file()


def test_suite_entries_and_benchmark_templates_are_admitted():
    # Every scenario the suite and the benchmark run passes the checks made
    # before the first trial, the group-order bound on model sizes included.
    templates = [fields for _, fields in scenarios.SUITE.values()]
    templates += [t for entries in workloads.IN_PROCESS.values()
                  for _, t, _, _ in entries]
    for template in templates:
        scenarios._check_scenario(scenarios.Scenario.from_dict({**template, "seed": 0}))


def test_names_the_benchmark_child_reads_exist():
    assert callable(scenarios.run_scenario) and callable(cli.run_scenario)
    assert callable(cli.main)
    assert callable(scenarios.Scenario.from_dict)
    assert callable(scenarios.TrialReport.all_passed)
    assert "wall_time" in scenarios.TrialReport.__dataclass_fields__
    assert {"trials", "failures"} <= set(scenarios.ScenarioReport.__dataclass_fields__)
    assert isinstance(scenarios.TRIAL_RUNNERS, dict)
