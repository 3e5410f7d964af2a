import contextlib
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

from equifix import scenarios as scenarios_module
from equifix.cli import SUBCOMMAND_KINDS, main as cli_main
from equifix.scenarios import (SCENARIO_KINDS, Scenario, ScenarioError,
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


def test_graded_data_scenario(tmp_path):
    # explicit graded data through the scenario schema
    from equifix.graded import regular_graded_model
    from equifix.groups import cyclic_group
    alg, left = regular_graded_model(cyclic_group(2))
    enc = lambda m: [[[float(x.real), float(x.imag)] for x in row] for row in m]
    scen = {"kind": "graded", "seed": 0,
            "group": {"kind": "cyclic", "params": 2},
            "trials": 1,
            "graded_data": {
                "dual_unitaries": [enc(u) for u in alg.dual_unitaries],
                "seeds": [enc(v) for v in left]}}
    validate_scenario(scen)
    s = Scenario.from_dict(scen)
    report = run_scenario(s, tmp_path)
    assert report.all_passed


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
    kinds = {s.kind for s in suite_scenarios()}
    assert kinds == {"rep", "cocycle", "lift", "rokhlin", "tracial", "graded",
                     "integral_estimate"}


def test_suite_graded_default_is_inside_the_corrector_domain(tmp_path):
    # At magnitude 0.002 this seed put graded trial 0 at 0.00252606 from
    # its grading component, past the corrector's 1/408 gate.
    graded = [s for s in suite_scenarios(seed=2740136247) if s.kind == "graded"]
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

SUBCOMMAND_OF = {kind: sub for sub, kind in SUBCOMMAND_KINDS.items()}
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
    with: its own, or now and then another.  ``tracial`` has no subcommand,
    so its dicts also run through ``run_scenario`` directly."""
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
        own = draw(st.sampled_from(sorted(SUBCOMMAND_KINDS)))
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
        if data["kind"] == "tracial":
            try:
                run_scenario(Scenario.from_dict(data), Path(tmp) / "t")
            except ScenarioError:
                pass
