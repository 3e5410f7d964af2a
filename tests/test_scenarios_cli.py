import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equifix import cli as cli_module, scenarios as scenarios_module
from equifix.cli import SUBCOMMANDS, main as cli_main
from equifix.scenarios import (SCENARIO_KINDS, SUITE, Scenario, ScenarioError,
                               run_scenario, suite_scenarios, trial_rng,
                               validate_scenario)


def test_schema_rejects_unknown_kind():
    with pytest.raises(ScenarioError, match="/kind"):
        validate_scenario({"kind": "nope", "seed": 0})


def test_schema_pointer_paths():
    with pytest.raises(ScenarioError, match="/group/kind"):
        validate_scenario({"kind": "rep", "seed": 0,
                           "group": {"kind": "weird"}})
    with pytest.raises(ScenarioError, match="/trials"):
        validate_scenario({"kind": "rep", "seed": 0, "trials": 0})
    with pytest.raises(ScenarioError, match="bogus"):
        validate_scenario({"kind": "rep", "seed": 0, "bogus": 1})


def test_trial_rng_deterministic_and_distinct():
    a = trial_rng(7, 0).standard_normal(4)
    b = trial_rng(7, 0).standard_normal(4)
    c = trial_rng(7, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_scenario_writes_outputs(tmp_path):
    s = Scenario(kind="rep", seed=3, group={"kind": "cyclic", "params": 3},
                 dimension=3, magnitude=0.01, trials=2)
    report = run_scenario(s, tmp_path)
    assert report.all_passed
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "trial,iteration,defect,distance"
    assert len(trace) > 2
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["trials"]) == 2
    t0 = payload["trials"][0]
    assert "r" in t0["measured"]
    assert set(t0["passes"]).issuperset({"one_step_defect", "one_step_distance",
                                         "final_defect", "final_distance"})
    assert "wall_time" in t0


def test_zero_magnitude_all_defects_zero(tmp_path):
    s = Scenario(kind="rep", seed=4, group={"kind": "cyclic", "params": 4},
                 dimension=3, magnitude=0.0, trials=2)
    report = run_scenario(s, tmp_path)
    assert report.all_passed
    for t in report.trials:
        assert t.measured["r"] <= 1e-13
        assert t.measured["final_defect"] <= 1e-12
        assert t.measured["iterations"] == 0


def test_trace_csv_deterministic(tmp_path):
    s = Scenario(kind="cocycle", seed=5, group={"kind": "cyclic", "params": 3},
                 dimension=3, magnitude=0.01, trials=3)
    run_scenario(s, tmp_path / "a")
    run_scenario(s, tmp_path / "b")
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


def test_perturbation_defect_scales_with_magnitude():
    from equifix.groups import make_group
    from equifix.repcorrect import ApproxRep
    from equifix.scenarios import exact_rep_values, perturb_rep_values
    spec = {"kind": "cyclic", "params": 4}
    group = make_group("cyclic", 4)
    for mag in (0.001, 0.01, 0.03):
        worst = 0.0
        for trial in range(5):
            rng = trial_rng(11, trial)
            vals = exact_rep_values(spec, group, 4, rng)
            pv = perturb_rep_values(vals, mag, rng)
            worst = max(worst, ApproxRep(group, pv).defect())
        assert worst <= 3 * mag


def test_cli_subcommand_writes_and_exits_zero(tmp_path):
    rc = cli_main(["stabilize", "--out", str(tmp_path), "--trials", "2",
                   "--seed", "9"])
    assert rc == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_cli_scenario_file_and_kind_mismatch(tmp_path):
    scen = {"kind": "cocycle", "seed": 1,
            "group": {"kind": "cyclic", "params": 3},
            "dimension": 3, "magnitude": 0.01, "trials": 1}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(scen))
    assert cli_main(["cocycle", "--scenario", str(f),
                     "--out", str(tmp_path / "o")]) == 0
    assert cli_main(["stabilize", "--scenario", str(f),
                     "--out", str(tmp_path / "o2")]) == 2


def test_cli_rejects_invalid_scenario(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"kind": "rep", "seed": -3}))
    assert cli_main(["stabilize", "--scenario", str(f),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("EQUIFIX_OUT", str(tmp_path / "envout"))
    rc = cli_main(["estimate", "--trials", "2", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "envout" / "trace.csv").exists()


def test_cli_entry_point_installed(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "equifix.cli", "rokhlin",
                           "--out", str(tmp_path), "--trials", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def explicit_graded_scenario(order, trials):
    """A graded scenario on cyclic(order) with the regular model written out
    as its ``graded_data``."""
    from equifix.graded import regular_graded_model
    from equifix.groups import cyclic_group
    alg, left = regular_graded_model(cyclic_group(order))
    enc = lambda m: [[[float(x.real), float(x.imag)] for x in row] for row in m]
    scen = {"kind": "graded", "seed": 0,
            "group": {"kind": "cyclic", "params": order},
            "trials": trials,
            "graded_data": {
                "dual_unitaries": [enc(u) for u in alg.dual_unitaries],
                "seeds": [enc(v) for v in left]}}
    validate_scenario(scen)
    return Scenario.from_dict(scen)


def test_graded_data_scenario(tmp_path, monkeypatch):
    # explicit graded data through the scenario schema
    s = explicit_graded_scenario(2, 3)
    decoded = []
    real = scenarios_module._graded_input
    monkeypatch.setattr(scenarios_module, "_graded_input",
                        lambda *a: decoded.append(1) or real(*a))
    scenarios_module._built.cache_clear()
    report = run_scenario(s, tmp_path)
    assert report.all_passed
    # Decoded and checked once for the scenario check and all three trials.
    assert len(decoded) == 1


def test_precondition_violation_gives_exit_one(tmp_path):
    # off-component noise above the module gate: the run records the
    # failure and the CLI reports a nonzero exit instead of crashing
    f = tmp_path / "rough.json"
    f.write_text(json.dumps({"kind": "graded", "seed": 0,
                             "group": {"kind": "cyclic", "params": 3},
                             "magnitude": 0.05, "trials": 1}))
    rc = cli_main(["graded", "--scenario", str(f), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["all_passed"] is False
    assert payload["failures"]


def test_suite_battery_covers_all_kinds():
    entries = suite_scenarios()
    assert [label for label, _ in entries] == list(SUITE)
    assert {s.kind for _, s in entries} == set(SCENARIO_KINDS) == {
        "rep", "cocycle", "lift", "rokhlin", "tracial", "graded",
        "integral_estimate"}
    assert [s.seed for _, s in entries] == list(range(len(SUITE)))


def test_suite_graded_default_is_inside_the_corrector_domain(tmp_path):
    # At magnitude 0.002 this seed put graded trial 0 at 0.00252606 from
    # its grading component, past the corrector's 1/408 gate.
    graded = [s for _, s in suite_scenarios(seed=2740136247) if s.kind == "graded"]
    assert len(graded) == 1 and graded[0].magnitude <= 1 / 816
    assert run_scenario(graded[0], tmp_path).all_passed


@pytest.mark.parametrize("kind,group,message", [
    ("rokhlin", {"kind": "dihedral", "params": 3}, "/group/kind: rokhlin .* cyclic"),
    ("tracial", {"kind": "symmetric", "params": 3}, "/group/kind: tracial .* cyclic"),
    ("rep", {"kind": "cyclic", "params": {}}, "/group/params"),
    ("cocycle", {"kind": "product", "params": 5}, "/group/params"),
    ("graded", {"kind": "dihedral", "params": 3}, "/group: graded .* abelian"),
])
def test_unrunnable_scenario_is_rejected_before_any_trial(tmp_path, kind, group,
                                                          message):
    s = Scenario(kind=kind, seed=0, group=group, trials=2)
    with pytest.raises(ScenarioError, match=message):
        run_scenario(s, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_cli_dihedral_rokhlin_file_exits_two(tmp_path, capsys):
    f = tmp_path / "rokhlin.json"
    f.write_text(json.dumps({"kind": "rokhlin", "seed": 0,
                             "group": {"kind": "dihedral", "params": 3},
                             "dimension": 6, "trials": 2}))
    rc = cli_main(["rokhlin", "--scenario", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "/group/kind" in err and "cyclic" in err
    assert "Traceback" not in err


def test_cli_corner_corank_over_the_cap_exits_two(tmp_path, capsys, monkeypatch):
    # The tracial trial builds M_(d*block + corank), so the schema caps the
    # corank like the dimension; no trial may start on such a file.
    def refuse(s, trial):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(scenarios_module, "TRIAL_RUNNERS",
                        {kind: refuse for kind in SCENARIO_KINDS})
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"kind": "rep", "seed": 0, "trials": 1,
                             "corner_corank": 65}))
    rc = cli_main(["stabilize", "--scenario", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "/corner_corank: 65 is greater than the maximum of 64" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def one_by_one(z):
    return [[[z.real, z.imag]]]


@pytest.mark.parametrize("fields,subcommand,pointer", [
    ({"kind": "graded", "group": {"kind": "cyclic", "params": 2},
      "graded_data": {"dual_unitaries": [[[1]]], "seeds": [[[1]]]}},
     "graded", "/graded_data/dual_unitaries/0/0/0"),
    ({"kind": "graded", "group": {"kind": "cyclic", "params": 2},
      "graded_data": {"dual_unitaries": [one_by_one(1), one_by_one(1)],
                      "seeds": [one_by_one(1)]}},
     "graded", "/graded_data/seeds: 1 matrices"),
    ({"kind": "graded", "group": {"kind": "cyclic", "params": 2},
      "graded_data": {"dual_unitaries": [one_by_one(1), [[[1, 0], [0, 0]]]],
                      "seeds": [one_by_one(1), one_by_one(-1)]}},
     "graded", "/graded_data/dual_unitaries/1: expected a square 1x1"),
    ({"kind": "cocycle", "group": {"kind": "cyclic", "params": 1}},
     "cocycle", "/group: cocycle"),
    ({"kind": "cocycle", "group": {"kind": "cyclic", "params": 3}, "dimension": 1},
     "cocycle", "/dimension: cocycle"),
    ({"kind": "graded", "group": {"kind": "cyclic", "params": 2},
      "graded_data": {"dual_unitaries": [one_by_one(-1), one_by_one(1)],
                      "seeds": [one_by_one(1), one_by_one(1)]}},
     "graded", "/graded_data/dual_unitaries: dual_unitaries[0] must be the identity"),
    # diag(1, i) squares to diag(1, -1), not a phase times the identity.
    ({"kind": "graded", "group": {"kind": "cyclic", "params": 2},
      "graded_data": {"dual_unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                         [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]],
                      "seeds": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 2}},
     "graded", "/graded_data/dual_unitaries: dual action is not a homomorphism"),
])
def test_cli_rejects_unrunnable_input_with_exit_two(tmp_path, capsys, fields,
                                                    subcommand, pointer):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"seed": 0, "trials": 2, **fields}))
    rc = cli_main([subcommand, "--scenario", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert pointer in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize("argv,message", [
    (["suite", "--trials", "-1"], "/trials: "),
    (["suite", "--trials", "0"], "/trials: "),
    (["suite", "--seed", "-1"], "/seed: "),
    (["suite", "--tolerance", "-1"], "/tolerance: "),
    # Entry k of the suite runs at seed + k, so entry 3 (lift) would need 2**64.
    (["suite", "--seed", str(2 ** 64 - 3)], "suite entry lift: "),
] + [([sub, "--seed", str(2 ** 64)], f"/seed: {2 ** 64} is greater than the maximum")
     for sub in [*SUBCOMMANDS, "suite"]] + [
    (["suite", "--tolerance", "nan"], "/tolerance: nan is not a finite number"),
    (["stabilize", "--tolerance", "inf"], "/tolerance: inf is not a finite number"),
    (["graded", "--tolerance=-inf"], "/tolerance: -inf is not a finite number")])
def test_overrides_outside_the_schema_exit_two(tmp_path, capsys, argv, message):
    rc = cli_main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def scenario_with(kind, pointer, value):
    """A minimal scenario of the kind with ``value`` at the JSON pointer."""
    data = {"kind": kind, "seed": 0, "trials": 1}
    *path, key = pointer.strip("/").split("/")
    node = data
    for part in path:
        node = node.setdefault(part, {})
    node[key] = value
    return data


def run_file(tmp_path, capsys, data):
    """Exit code and stderr of the kind's subcommand on the scenario file."""
    f = tmp_path / "s.json"
    f.write_text(json.dumps(data))
    rc = cli_main([SUBCOMMAND_OF[data["kind"]], "--scenario", str(f),
                   "--out", str(tmp_path / "o")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("kind,pointer", [
    ("rep", "/seed"), ("rep", "/trials"), ("rep", "/dimension"),
    ("rep", "/tower/levels"), ("lift", "/source/order"),
    ("tracial", "/corner_corank")])
def test_integer_fields_refuse_integral_floats(tmp_path, capsys, kind, pointer):
    rc, err = run_file(tmp_path, capsys, scenario_with(kind, pointer, 3.0))
    assert rc == 2
    assert f"{pointer}: 3.0 is not of type 'integer'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pointer", ["/tolerance", "/magnitude", "/tower/base",
                                     "/tower/ratio"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_are_refused(tmp_path, capsys, pointer, value):
    rc, err = run_file(tmp_path, capsys, scenario_with("rep", pointer, value))
    assert rc == 2
    assert f"{pointer}: {value!r} is not a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_scenario_file_seed_must_fit_the_philox_key(tmp_path):
    f = tmp_path / "s.json"
    for seed, code in ((2 ** 64, 2), (2 ** 64 - 1, 0)):
        f.write_text(json.dumps({"kind": "rep", "seed": seed, "trials": 1}))
        assert cli_main(["stabilize", "--scenario", str(f),
                         "--out", str(tmp_path / "o")]) == code


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"],
                         ids=["missing", "not-json", "not-utf8"])
def test_unreadable_scenario_file_exits_two(tmp_path, capsys, content):
    f = tmp_path / "s.json"
    if isinstance(content, str):
        f.write_text(content)
    elif content is not None:
        f.write_bytes(content)
    rc = cli_main(["stabilize", "--scenario", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(f) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_failure_lines_name_the_failed_check(tmp_path, monkeypatch):
    real = scenarios_module.lift_group_rep

    def at_the_top(tower, *args, **kwargs):
        return dataclasses.replace(real(tower, *args, **kwargs), level=tower.top)

    monkeypatch.setattr(scenarios_module, "lift_group_rep", at_the_top)
    report = run_scenario(Scenario.from_dict(SUITE["lift"][1], seed=0, trials=1),
                          tmp_path / "lift")
    assert report.failures == [
        "trial 0: bound finite_level violated (measured 7 > bound 6)"]
    # A trial that raised gives its error message.
    s = Scenario(kind="graded", seed=0, group={"kind": "cyclic", "params": 3},
                 magnitude=0.05, trials=1)
    report = run_scenario(s, tmp_path / "graded")
    error = report.trials[0].measured["error"]
    assert "grading component" in error
    assert report.failures == [f"trial 0: did not complete: {error}"]


def test_group_and_graded_model_are_built_once_per_spec(tmp_path, monkeypatch):
    calls = []
    for name in ("make_group", "regular_graded_model"):
        real = getattr(scenarios_module, name)
        monkeypatch.setattr(scenarios_module, name,
                            lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    scenarios_module._built.cache_clear()
    s = Scenario(kind="graded", seed=0, group={"kind": "cyclic", "params": 4},
                 magnitude=0.001, trials=3)
    assert run_scenario(s, tmp_path).all_passed
    assert calls == ["make_group", "regular_graded_model"]


def test_graded_data_key_is_formed_once_per_scenario(tmp_path, monkeypatch):
    # The cache key of explicit graded_data is its JSON text, formed once for
    # the scenario check and all four trials.
    s = explicit_graded_scenario(4, 4)
    keyed = []
    real = json.dumps
    monkeypatch.setattr(scenarios_module.json, "dumps",
                        lambda obj, *a, **k: keyed.append(obj is s.graded_data)
                        or real(obj, *a, **k))
    assert run_scenario(s, tmp_path).all_passed
    assert keyed.count(True) == 1


def test_cli_scenarios_without_spectral_rounding_never_import_scipy(tmp_path):
    # SciPy is imported only for spectral rounding (rokhlin, tracial).
    code = f"""
import sys
from equifix.cli import main
for name in ("stabilize", "cocycle", "lift", "graded", "estimate"):
    assert main([name, "--trials", "2", "--out", {str(tmp_path)!r} + "/" + name]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("label", list(SUITE))
def test_report_bounds_name_every_check(tmp_path, label):
    run_scenario(Scenario.from_dict(SUITE[label][1], seed=0, trials=2), tmp_path)
    trials = json.loads((tmp_path / "report.json").read_text())["trials"]
    assert trials
    for t in trials:
        assert t["bounds"] and set(t["bounds"]) == set(t["passes"])


def scenario_of(out_dir):
    return json.loads((out_dir / "report.json").read_text())["scenario"]


def test_subcommand_defaults_are_the_suite_entries(tmp_path, monkeypatch):
    # The suite calls the module-level run_scenario once per entry, in order.
    dirs = []
    real = cli_module.run_scenario
    monkeypatch.setattr(cli_module, "run_scenario",
                        lambda s, out: dirs.append(out) or real(s, out))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["suite", "--trials", "3", "--out", str(tmp_path / "suite")]) == 0
        assert dirs == [tmp_path / "suite" / label for label in SUITE]
        for k, (label, (sub, _)) in enumerate(SUITE.items()):
            if sub is None:
                continue
            assert cli_main([sub, "--seed", str(k), "--trials", "3",
                             "--out", str(tmp_path / sub)]) == 0
            got, want = tmp_path / sub, tmp_path / "suite" / label
            assert (got / "trace.csv").read_bytes() == \
                (want / "trace.csv").read_bytes(), sub
            assert scenario_of(got) == scenario_of(want), sub


EDGE_CASES = {
    "rep-trivial-group": {"kind": "rep", "group": {"kind": "cyclic", "params": 1}},
    "rokhlin-trivial-group": {"kind": "rokhlin",
                              "group": {"kind": "cyclic", "params": 1}},
    "tracial-trivial-group": {"kind": "tracial",
                              "group": {"kind": "cyclic", "params": 1}},
    "graded-trivial-group": {"kind": "graded", "magnitude": 0.001,
                             "group": {"kind": "cyclic", "params": 1}},
    "estimate-trivial-group": {"kind": "integral_estimate",
                               "group": {"kind": "cyclic", "params": 1}},
    "rep-dim1": {"kind": "rep", "dimension": 1},
    "rokhlin-dim1": {"kind": "rokhlin", "dimension": 1},
    "estimate-dim1": {"kind": "integral_estimate", "dimension": 1},
    "rep-tower-magnitude0": {"kind": "rep", "magnitude": 0.0, "tower": {"levels": 2}},
    "cocycle-magnitude0": {"kind": "cocycle", "magnitude": 0.0},
    "rokhlin-magnitude0": {"kind": "rokhlin", "magnitude": 0.0},
    "tracial-magnitude0": {"kind": "tracial", "magnitude": 0.0},
    "graded-magnitude0": {"kind": "graded", "magnitude": 0.0},
    "estimate-magnitude0": {"kind": "integral_estimate", "magnitude": 0.0},
    "lift-32-levels": {"kind": "lift",
                       "tower": {"levels": 32, "base": 0.2, "ratio": 0.2}},
    # The schema leaves source.model optional; like source, it defaults to
    # translation.
    "lift-source-without-model": {"kind": "lift", "source": {"order": 3}},
}


@pytest.mark.parametrize("fields", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_edge_case_scenarios_pass(tmp_path, fields):
    s = Scenario.from_dict({"seed": 3, "trials": 2, **fields})
    report = run_scenario(s, tmp_path)
    assert report.all_passed, report.failures


@pytest.mark.parametrize("kind", ["rokhlin", "tracial"])
def test_partition_average_memory_is_linear_in_the_order(tmp_path, kind):
    # cyclic(32) on M_32: one (d, n, n) family is 0.5 MB, while holding all
    # |G| averaged terms at once, a (d, d, n, n) array, takes 16.8 MB.
    d = 32
    s = Scenario(kind=kind, seed=0, group={"kind": "cyclic", "params": d},
                 dimension=d, magnitude=1e-4, trials=1)
    tracemalloc.start()
    try:
        report = run_scenario(s, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, report.failures
    assert peak < 12e6


# --- scenario fuzzing ---------------------------------------------------------

SUBCOMMAND_OF = {SUITE[label][1]["kind"]: sub for sub, label in SUBCOMMANDS.items()}
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.integers(-3, 3), st.lists(st.integers(0, 2), max_size=2))


def mostly(valid, malformed=JUNK):
    """valid seven times in eight, else malformed, so that most drawn
    scenarios still get past the schema to their trials."""
    three = st.tuples(st.booleans(), st.booleans(), st.booleans())
    return three.flatmap(lambda coins: malformed if all(coins) else valid)


# Every built-in group of order at most 6; then params that build nothing.
GROUPS = st.sampled_from(
    [{"kind": "cyclic", "params": d} for d in range(1, 7)]
    + [{"kind": "dihedral", "params": n} for n in (1, 2, 3)]
    + [{"kind": "symmetric", "params": n} for n in (1, 2, 3)]
    + [{"kind": "product", "params": [["cyclic", 2], ["cyclic", 3]]},
       {"kind": "product", "params": [["cyclic", 2], ["cyclic", 2]]},
       {"kind": "product", "params": [["cyclic", 1], ["dihedral", 3]]}])
BAD_GROUPS = st.sampled_from([
    {"kind": "cyclic"}, {"kind": "cyclic", "params": 0},
    {"kind": "cyclic", "params": -2}, {"kind": "cyclic", "params": "x"},
    {"kind": "cyclic", "params": [2]}, {"kind": "dihedral", "params": None},
    {"kind": "symmetric", "params": 9}, {"kind": "product", "params": 5},
    {"kind": "product", "params": [["cyclic", 2]]},
    {"kind": "product", "params": [["bogus", 2], ["cyclic", 2]]},
    {"kind": "bogus", "params": 2}, {"params": 2}, [], "cyclic"])


def json_matrices(count, dim):
    entry = st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)
    return st.lists(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim),
                    min_size=count, max_size=count)


@st.composite
def graded_data(draw):
    count, dim = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    return {"dual_unitaries": draw(json_matrices(count, dim)),
            "seeds": draw(json_matrices(count, dim))}


FIELDS = {
    "group": mostly(GROUPS, BAD_GROUPS | JUNK),
    "dimension": mostly(st.integers(1, 4), st.sampled_from([-1, 0, 65, 2.5])),
    "magnitude": mostly(st.sampled_from([0.0, 0.001, 0.01]) | st.floats(0.0, 1.0),
                        st.floats(-1.0, 3.0) | st.just(float("nan")) | JUNK),
    "tolerance": mostly(st.sampled_from([1e-12, 1e-8]),
                        st.floats(-1.0, 0.0) | JUNK),
    "tower": mostly(st.fixed_dictionaries(
        {"levels": st.integers(2, 4)},
        optional={"base": st.floats(0.0, 0.5), "ratio": st.floats(0.01, 1.0)}),
        st.sampled_from([{}, {"levels": 1}, {"levels": 2, "bogus": 1},
                         {"base": -1}, {"ratio": 0}]) | JUNK),
    "source": mostly(st.fixed_dictionaries(
        {"model": st.sampled_from(["translation", "inversion"])},
        optional={"order": st.integers(1, 6)}),
        st.sampled_from([{}, {"order": 3}, {"model": "bogus"},
                         {"model": "translation", "order": 0}]) | JUNK),
    "corner_corank": mostly(st.integers(0, 3), st.integers(-2, -1) | JUNK),
    "graded_data": mostly(graded_data(),
                          st.sampled_from([{}, {"seeds": []}]) | JUNK),
}


@st.composite
def scenario_files(draw):
    """A scenario dict, each optional field present or not and now and then
    malformed (plus, rarely, an unknown field), and the subcommand to run it
    with: its own, or now and then another."""
    data = {"kind": draw(mostly(st.sampled_from(SCENARIO_KINDS))),
            "seed": draw(mostly(st.integers(0, 2 ** 32), st.integers(-3, -1))),
            "trials": draw(mostly(st.just(1), st.integers(-1, 0)))}
    for key, values in FIELDS.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    if draw(mostly(st.just(False), st.just(True))):
        data["bogus"] = 1
    own = SUBCOMMAND_OF.get(data["kind"]) if isinstance(data["kind"], str) else None
    if own is None or draw(mostly(st.just(False), st.just(True))):
        own = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    return data, own


@settings(max_examples=80, deadline=None)
@given(scenario_files())
def test_fuzzed_scenarios_exit_0_1_or_2(case):
    data, subcommand = case
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "s.json"
        f.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli_main([subcommand, "--scenario", str(f),
                             "--out", str(Path(tmp) / "o")]) in (0, 1, 2)
