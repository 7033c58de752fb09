"""Command-line front end: outputs, exit codes, manifests, sweeps."""
import csv
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import timdcop
import timdcop.cli as cli
import timdcop.scenarios as scenarios
from timdcop.cli import main
from timdcop.errors import CapExceededError, ModelDomainError
from timdcop.scenarios import (
    Scenario,
    run_policy,
    scenario_from_dict,
    scenario_to_dict,
)

TINY = {
    "seed": 330,
    "schedule": [1, 1],
    "grid": {"rows": 4, "cols": 4, "edge_time_range": [0.1, 1.5]},
    "fleet": {"ervs": 2, "uavs": 1},
}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(TINY))
    return path


def read_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


# ------------------------------------------------------------------- run


def test_run_writes_every_output(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "pdronetim", "--out", str(out),
    ])
    assert code == 0
    names = set(read_bytes(out))
    assert names == {
        "pdronetim_result.json", "pdronetim_stages.csv",
        "pdronetim_incidents.csv", "pdronetim_assimilation.csv",
        "manifest.json",
    }
    stdout = capsys.readouterr().out
    assert "pdronetim:" in stdout and "2 incidents" in stdout
    result = json.loads((out / "pdronetim_result.json").read_text())
    assert result["policy"] == "pdronetim"
    assert len(result["incidents"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "run"
    assert manifest["policies"] == ["pdronetim"]
    assert manifest["scenario"]["seed"] == 330
    # the manifest holds the fully resolved scenario, defaults included
    assert scenario_from_dict(manifest["scenario"]) == scenario_from_dict(TINY)


def test_run_compares_policies_against_direct_calls(tiny_scenario, tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "conventional,pdronetim,opt", "--out", str(out),
    ])
    assert code == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "total_delay_veh_h", "total_response_min"]
    assert [r[0] for r in rows[1:]] == ["conventional", "pdronetim", "opt"]
    sc = scenario_from_dict(TINY)
    for row in rows[1:]:
        res = run_policy(sc, row[0])
        assert float(row[1]) == res.total_delay_veh_h  # repr round-trip
        assert float(row[2]) == res.total_response_min


def test_run_single_policy_writes_no_comparison(tiny_scenario, tmp_path):
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "opt", "--out", str(out),
    ]) == 0
    assert not (out / "comparison.csv").exists()
    assert (out / "opt_result.json").exists()
    assert not (out / "opt_assimilation.csv").exists()  # opt never observes


def test_run_seed_override_lands_in_the_manifest(tiny_scenario, tmp_path):
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", str(tiny_scenario), "--seed", "999",
        "--policy", "conventional", "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["seed"] == 999
    result = json.loads((out / "conventional_result.json").read_text())
    assert result["seed"] == 999


def test_manifest_rerun_is_byte_identical(tiny_scenario, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "conventional,pdronetim", "--out", str(first),
    ]) == 0
    assert main([
        "run", "--manifest", str(first / "manifest.json"), "--out", str(again),
    ]) == 0
    assert read_bytes(first) == read_bytes(again)


# Two small fixed scenarios whose output files are pinned by sha256. Between
# them they cover UAV tasking, assimilation and cooperation, relocation,
# stages that drain after the schedule ends, MGM, a stage with no requests,
# and the opt search; a refactor that claims the same bytes must keep every
# pin.
PINNED_RUNS = {
    "uav-cooperation": (
        {"seed": 11, "schedule": [2, 3, 1], "grid": {"rows": 5, "cols": 5},
         "fleet": {"ervs": 3, "uavs": 2}},
        {
            "comparison.csv": "71db82c8f6c73494ce40927b6666d2f935a690805f52253eaab44e90a124f68c",
            "conventional_incidents.csv": "8926f358bb10cb5729e22776d862818cc75c474b99a7c0a5bd45698dfded043f",
            "conventional_result.json": "7d28854a00b3c3df566647bcc7735b31e4aff0593213a1839881c1f4f34c25a8",
            "conventional_stages.csv": "cb7006cad92d75c5a9ce5db85d813aefbd891cc03eb0bae45baf39040ab7cf7e",
            "manifest.json": "4cb0db998b36f4f5602c4805f10da7259ce1b7bbaaee6ac97a8f3a09bf952154",
            "opt_incidents.csv": "c703e57a43c9344d22dfca2d652a0f8c819429bd27c29e5d010f07103c08eabd",
            "opt_result.json": "e9aacb499ae9581d348d751cb5b0f77e33cac74b91791739266c564524da4bbc",
            "opt_stages.csv": "4b80e5faebeb6f291eaaf51934a3578871c8df1dd34a9126914a44521a799bfd",
            "pdronetim_assimilation.csv": "ffc7184c3644069fce51a7b243d9ed0ff8d9ec53b563a6dc1e0e0b6f9a6e111c",
            "pdronetim_incidents.csv": "e50a720c453572f6461d121095e895ddb7a5392e9e598cae78caef94abb1a0e8",
            "pdronetim_result.json": "5a6c0aef30b8bd2d8c89f886500398e555730e9594424f61e28817fc5a5e435a",
            "pdronetim_stages.csv": "ce1be49f5ebff11a6d67e447061745a03252d5c78afc8f0cb8850db3e33c7589",
        },
    ),
    "mgm-no-cooperation": (
        {"seed": 20, "schedule": [2, 0, 2], "grid": {"rows": 4, "cols": 6},
         "fleet": {"ervs": 2, "uavs": 1},
         "solver": {"algorithm": "mgm", "iterations": 20}, "lookahead": 1,
         "cooperation": False, "stage_gap_h": 0.25},
        {
            "comparison.csv": "bd22a3c4da167a8811addef74fd4303f74d6a4a9a049ed41832663daa31f8310",
            "conventional_incidents.csv": "7c39f076268c2bddd20d42aa18f531c096ba5ad7b4646e527e25beb95588812a",
            "conventional_result.json": "b0fdd175f6ac14bc9979216103adcc2dbbe34ccf1345fc0ccab5bfe190efbcf2",
            "conventional_stages.csv": "2b4b75e77e4ae5775eaf9220f689e06718eedc4f35b3cb67236b49da921d4865",
            "manifest.json": "f85f2450a57fa13fd0dcf4571b2ea1e9b67e85eb99bb9daa5f8de172056ee975",
            "opt_incidents.csv": "fc09dfa50cf20526e1d06f4c76ec8844fe22252ca36b01717763c783924b152a",
            "opt_result.json": "22c67f3fa2e705a0697d1a6e693bd3483e291dabd6e5d5a3d389a8f2cee42ed3",
            "opt_stages.csv": "4b80e5faebeb6f291eaaf51934a3578871c8df1dd34a9126914a44521a799bfd",
            "pdronetim_assimilation.csv": "2cee904316984ed06a3bf1d10ea6b3d2553220bcb1b157fabb5e873ce26a0725",
            "pdronetim_incidents.csv": "b2ccf6c1d92e95e0268d243e4ef7c6b12495b0b47810adcd00b4be71438b2a25",
            "pdronetim_result.json": "d1677cb3b44f3a9149b25aa47881e1563fcf0f39f067e851a9cd1406a60edc26",
            "pdronetim_stages.csv": "fbc807b92f110c6aa00be56196bd9017d4b3845a025527e13eefeaae9977e5c2",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_outputs_match_pinned_sha256(name, tmp_path):
    doc, pins = PINNED_RUNS[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path),
                 "--policy", "conventional,pdronetim,opt", "--out", str(out)]) == 0
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in read_bytes(out).items()}
    assert got == pins


# ------------------------------------------------------------- exit codes


def test_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    # an integer longer than Python converts from text, and bytes not UTF-8
    b'{"seed": 1, "schedule": [1], "kappa": ' + b"9" * 5000 + b"}",
    b'{"seed": 1, "schedule": [1], "name": "\xff"}',
])
def test_json_that_python_cannot_read_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "broken.json"
    bad.write_bytes(text)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_manifest_that_is_not_an_object_exits_2(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("5")
    out = tmp_path / "o"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must hold a JSON object" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_scenario_and_manifest_exits_2(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2
    assert "need --scenario or --manifest" in capsys.readouterr().err


def test_unknown_policy_exits_2(tiny_scenario, tmp_path):
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "greedy", "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize("policies", [
    5, "opt", None, [], ["greedy"], [1], [["opt"]], ["opt", "o"]])
def test_bad_run_manifest_policies_exit_2_before_any_run(
        tmp_path, capsys, policies):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(
        {"kind": "run", "scenario": TINY, "policies": policies}))
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_run_manifest_policies_are_read_like_the_option(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"kind": "run", "scenario": TINY,
                                "policies": ["OPT", "conventional,opt"]}))
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("opt: ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["policies"] == ["opt", "conventional"]


def test_search_cap_exits_3(tmp_path, monkeypatch, capsys):
    # squeeze the exact search's evaluation budget; the real cap needs a
    # far bigger request set than a unit test should run
    monkeypatch.setattr(scenarios, "OPT_EVAL_CAP", 10)
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(scenario_to_dict(
        Scenario(seed=305, schedule=(3, 3, 3), rows=4, cols=4, n_ervs=2)
    )))
    assert main([
        "run", "--scenario", str(hard), "--policy", "opt",
        "--out", str(tmp_path / "o"),
    ]) == 3
    assert "cap exceeded" in capsys.readouterr().err


# scenarios past the horizon, incident, kappa, relocation_k or fleet
# ceiling -> the rule's message. Without the ceilings the first two end in an
# OverflowError traceback, and the second with only conventional serves two
# incidents with one vehicle at one instant: a 1e300 h clock absorbs the busy
# time. The kappa probe exits 0 with NaN and infinite assimilation records,
# and the last two end in a MemoryError traceback under a 1.5 GB
# address-space limit
CEILING_PROBES = {
    "stage gap 1e+307 h allows a stage loop longer than 4,000,000 h on this "
    "grid and schedule": {"seed": 1, "schedule": [1] * 21, "stage_gap_h": 1e307},
    "stage gap 1e+300 h allows a stage loop longer than 4,000,000 h on this "
    "grid and schedule": {"seed": 1, "schedule": [1, 2], "stage_gap_h": 1e300,
                          "fleet": {"ervs": 1}},
    "the schedule requests 1,200,000 incidents, more than 100,000": {
        "seed": 1, "schedule": [4] * 300_000, "stage_gap_h": 1.0,
        "grid": {"rows": 2, "cols": 2, "edge_time_range": [0.001, 0.001]}},
    "kappa must be positive, at most 1,000,000, got 1e+308": {
        "seed": 3, "schedule": [9, 9, 9], "fleet": {"ervs": 1, "uavs": 2},
        "kappa": 1e308},
    "relocation_k must be 0 to 1,000, got 1000000000": {
        "seed": 1, "schedule": [1], "grid": {"rows": 100, "cols": 100},
        "fleet": {"ervs": 3}, "relocation_k": 1_000_000_000},
    "fleet.ervs must be 1 to 1,000, got 3000": {
        "seed": 1, "schedule": [1], "grid": {"rows": 60, "cols": 60},
        "fleet": {"ervs": 3000}},
    "a stage problem may hold 6,010 candidate cells, more than 3,000": {
        "seed": 1, "schedule": [6000], "grid": {"rows": 100, "cols": 100}},
}


@pytest.mark.parametrize("message", CEILING_PROBES)
@pytest.mark.parametrize("command", [
    ["run", "--policy", "conventional,pdronetim,opt"],
    ["sweep", "--axis", "ervs=1,2"],
])
def test_a_scenario_past_a_ceiling_exits_2_with_its_rule(tmp_path, capsys,
                                                         message, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CEILING_PROBES[message]))
    out = tmp_path / "o"
    assert main([*command, "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"lookahead": 3},
    {"kappa": 0.0},
    {"seed": -1},
    {"grid": {"edge_time_range": [1]}},
    {"grid": {"edge_time_range": [0.1, float("inf")]}},
    {"grid": {"edge_time_range": [1.5, 0.1]}},
    {"forecast": {"prob_range": [0.5]}},
    {"forecast": {"prob_range": [0.1, float("inf")]}},
    {"stage_gap_h": float("nan")},
    {"stage_gap_h": float("inf")},
    {"relocation_k": -3},
    {"solver": {"iterations": float("inf")}},
    {"grid": {"rows": 2.7}},
    {"fleet": {"ervs": 2.5}},
    {"schedule": [2.9]},
    {"seed": 1.5},
    {"kappa": float("inf")},
    {"forecast": {"budget": -1, "normalize": True}},
    {"forecast": {"budget": float("nan")}},
    {"forecast": {"budget": float("inf")}},
    {"fleet": {"ervs": "3"}},
    {"grid": [4, 4]},
    [{"seed": 1, "schedule": [2, 2]}],
    {"cooperation": "false"},
    {"cooperation": 0},
    {"forecast": {"normalize": "no"}},
    {"forecast": {"normalize": None}},
    {"stage_gap_h": "0.5"},
    {"forecast": {"budget": True}},
    {"name": {"a": 1}},
    {"kappa": "0.5"},
    {"solver": {"dsa_threshold": True}},
    {"solver": {"algorithm": 5}},
    {"forecast": {"signal": "0.3"}},
    {"grid": {"edge_time_range": ["0.1", 1.5]}},
    {"forecast": {"prob_range": [False, 0.1]}},
    {"kappa": 10**400},
    {"seed": 3, "schedule": [2, 1], "grid": {"rows": 2, "cols": 2},
     "fleet": {"ervs": 6}},
    {"seed": 1, "schedule": [2], "grid": {"rows": 3, "cols": 3},
     "fleet": {"ervs": 1}, "stage_gap_h": 1e-9},
    {"seed": 1, "schedule": [2], "grid": {"rows": 3, "cols": 3},
     "fleet": {"ervs": 1}, "stage_gap_h": 5e-324},
    {"seed": 1, "schedule": [2], "grid": {"rows": 3, "cols": 3},
     "fleet": {"ervs": 2}, "solver": {"iterations": 100000000, "dsa_threshold": 0}},
    # a count too large for a float is past the cell ceiling
    {"seed": 1, "schedule": [1], "grid": {"rows": 10**400}},
    # more UAVs than cells: far past what numpy can draw, and just past the bound
    {"seed": 1, "schedule": [1], "fleet": {"uavs": 10**22}},
    {"seed": 1, "schedule": [1], "grid": {"rows": 2, "cols": 3}, "fleet": {"uavs": 7}},
    # a key the format does not have: a typo must not run the default
    {"extra_key": 3},
    {"grid": {"rowz": 4}},
    {"grid.rows": 4},
    # a world too large to build: past the cell ceiling, or a field past its
    # ceiling on a grid within it
    {"seed": 1, "schedule": [1], "grid": {"rows": 5000, "cols": 5000}},
    {"seed": 1, "schedule": [1] * 998, "grid": {"rows": 100, "cols": 100}},
    # a stage loop past the horizon ceiling, or a scenario past the incident,
    # kappa, relocation_k, fleet or stage-domain ceiling (CEILING_PROBES)
    *CEILING_PROBES.values(),
])
def test_invalid_scenario_exits_2_before_writing(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    # json writes the non-finite floats as NaN / Infinity, which it reads back;
    # a bad value that is not an object is the whole file
    doc = {"seed": 1, "schedule": [2, 2], **bad} if isinstance(bad, dict) else bad
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([
        "run", "--scenario", str(path),
        "--policy", "conventional", "--policy", "pdronetim", "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("solver, message", [
    ({"algorithm": "x"}, """solver.algorithm must be "mgm" or "dsa", got 'x'"""),
    ({"dsa_threshold": 2}, "solver.dsa_threshold must be in [0, 1], got 2.0"),
    ({"iterations": 0}, "solver.iterations must be 1 to 10,000, got 0"),
])
def test_a_bad_solver_value_exits_2_naming_its_key(tmp_path, capsys, solver,
                                                   message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "schedule": [1], "solver": solver}))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# what a hand-edited scenario may hold instead of the value a field needs
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 1.5, -3, 1e-9,
                     5e-324, [], {}]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def ordered_pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


# a value of each scenario file kind: small counts, and numbers from 0.1 up
# so that a generated stage gap runs few stages
KIND_VALUES = {
    "count": st.integers(0, 3),
    "number": st.floats(0.1, 1.0),
    "text": st.sampled_from(["", "mgm", "dsa"]),
    "switch": st.booleans(),
    "counts": st.lists(st.integers(0, 2), min_size=1, max_size=2),
    "numbers": ordered_pair(0.0, 1.0),
}


def file_value(key):
    """A value of the key's kind that its rule accepts."""
    _, kind, _, check = scenarios.SCENARIO_FIELDS[key]
    return KIND_VALUES[kind].filter(check)


def nested(flat):
    """The scenario file that sets each file key of `flat` to its value."""
    doc = {}
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
    return doc


def positions(doc, path=()):
    """(path, value) of every value in a JSON document, the whole first; a
    path is the keys and indices that lead to the value."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from positions(value, (*path, key))


def put(doc, path, value):
    """A copy of `doc` with `value` at `path`, whose last key may be new."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = put(doc[path[0]], path[1:], value) if path[1:] else value
    return copy


@st.composite
def spoiled(draw, docs):
    """A document of `docs`: as drawn three times in six, with an unknown key
    in one of its objects once in six, and with junk at one of its positions
    twice in six. Hypothesis shrinks towards the first choice of a list, so
    the valid document comes first and the whole document last."""
    doc = draw(docs)
    places = list(positions(doc))[::-1]
    how = draw(st.sampled_from(["valid"] * 3 + ["key"] + ["junk"] * 2))
    if how == "key":
        within = draw(st.sampled_from([p for p, v in places if isinstance(v, dict)]))
        return put(doc, (*within, draw(st.sampled_from(["polciy", "rowz", "extra"]))), 1)
    if how == "junk":
        return put(doc, draw(st.sampled_from([p for p, _ in places])), draw(JUNK))
    return doc


_SMALL = ("seed", "schedule", "grid.rows", "grid.cols")
# a 2-3 x 2-3 grid, a short schedule and up to three more keys of the table
SMALL_SCENARIOS = st.tuples(
    st.fixed_dictionaries({"seed": st.integers(0, 50),
                           "schedule": file_value("schedule"),
                           "grid.rows": st.integers(2, 3),
                           "grid.cols": st.integers(2, 3)}),
    st.sets(st.sampled_from([k for k in scenarios.SCENARIO_FIELDS if k not in _SMALL]),
            max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: file_value(k) for k in sorted(keys)})),
).map(lambda parts: nested({**parts[0], **parts[1]}))

# a seed, a schedule and any of the table's other keys, each from its rule
SCENARIO_DICTS = spoiled(st.fixed_dictionaries(
    {"seed": st.integers(0, 50), "schedule": file_value("schedule")},
    optional={k: file_value(k) for k in scenarios.SCENARIO_FIELDS
              if k not in ("seed", "schedule")},
).map(nested))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=SCENARIO_DICTS)
def test_generated_scenarios_exit_with_a_mapped_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "o"
        code = main(["run", "--scenario", str(path),
                     "--policy", "conventional,pdronetim,opt", "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert out.exists() == (code == 0)


POLICY_WORDS = st.sampled_from([*scenarios.POLICIES, "conventional,opt", "PDRONETIM"])

RUN_MANIFESTS = spoiled(st.fixed_dictionaries(
    {"kind": st.just("run"), "scenario": SMALL_SCENARIOS},
    optional={"policies": st.lists(POLICY_WORDS, min_size=1, max_size=3)},
))

SWEEP_MANIFESTS = spoiled(st.sampled_from(list(cli._AXES)).flatmap(
    lambda axis: st.fixed_dictionaries({
        "kind": st.just("sweep"),
        "scenario": SMALL_SCENARIOS,
        "axis": st.fixed_dictionaries({
            "name": st.just(axis),
            "values": st.lists(file_value(cli._AXES[axis]),
                               min_size=1, max_size=3, unique=True),
        }),
        "trials": st.integers(1, 2),
    }, optional={"policy": POLICY_WORDS})))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_doc=st.one_of(st.tuples(st.just("run"), RUN_MANIFESTS),
                             st.tuples(st.just("sweep"), SWEEP_MANIFESTS)),
       existing=st.booleans())
def test_generated_manifests_exit_with_a_mapped_code(command_doc, existing):
    command, doc = command_doc
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(cli.WORKERS_ENV, None)  # sweep points run in process
        tmp = Path(tmp)
        path = tmp / "manifest.json"
        path.write_text(json.dumps(doc))
        out = tmp / "o"
        if existing:
            out.mkdir()
            (out / "sentinel.txt").write_bytes(b"kept\n")
        before = sorted(tmp.iterdir())
        code = main([command, "--manifest", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert (out / "manifest.json").is_file()
        else:
            # no --out made, no hidden sibling left, an existing --out as it was
            assert sorted(tmp.iterdir()) == before
            if existing:
                assert {p.name: p.read_bytes() for p in out.iterdir()} == {
                    "sentinel.txt": b"kept\n"}


def test_short_stage_gap_drains(tmp_path):
    # one vehicle, five requests, a stage every 36 s: thousands of stages
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({
        "seed": 1, "schedule": [5], "fleet": {"ervs": 1}, "stage_gap_h": 0.01,
    }))
    out = tmp_path / "o"
    assert main([
        "run", "--scenario", str(path),
        "--policy", "conventional,pdronetim", "--out", str(out),
    ]) == 0
    for policy in ("conventional", "pdronetim"):
        result = json.loads((out / f"{policy}_result.json").read_text())
        assert len(result["incidents"]) == 5
        assert len(result["stages"]) > 100


def test_stage_loop_guard_breach_exits_3(tiny_scenario, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.setattr(scenarios, "_stage_bound", lambda sc: 0)
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "pdronetim", "--out", str(tmp_path / "o"),
    ]) == 3
    assert "failed to drain" in capsys.readouterr().err


def test_model_domain_error_exits_1(tiny_scenario, tmp_path, monkeypatch, capsys):
    def explode(*a, **kw):
        raise ModelDomainError("belief variance went negative")

    monkeypatch.setattr("timdcop.cli.run_policy", explode)
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "pdronetim", "--out", str(tmp_path / "o"),
    ]) == 1
    assert "model error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_that_is_a_file_exits_2(tiny_scenario, tmp_path, monkeypatch,
                                    capsys, command):
    ran = []
    monkeypatch.setattr("timdcop.cli.run_policy",
                        lambda *a, **kw: ran.append(a) or run_policy(*a, **kw))
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    extra = ["--axis", "uavs=0", "--trials", "1"] if command == "sweep" else []
    for out in (taken, taken / "below"):
        assert main([command, "--scenario", str(tiny_scenario), *extra,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err and "Traceback" not in err
    assert ran == []  # rejected before any policy ran
    assert taken.read_text() == "keep me"


@pytest.mark.parametrize("error, code", [
    (CapExceededError("evaluation cap"), 3),
    (ModelDomainError("belief variance went negative"), 1),
])
def test_failed_policy_leaves_no_out(tiny_scenario, tmp_path, monkeypatch,
                                     error, code):
    def opt_fails(sc, policy, world=None):
        if policy == "opt":
            raise error
        return run_policy(sc, policy, world)

    monkeypatch.setattr("timdcop.cli.run_policy", opt_fails)
    out = tmp_path / "o"
    assert main([
        "run", "--scenario", str(tiny_scenario),
        "--policy", "conventional,pdronetim,opt", "--out", str(out),
    ]) == code
    assert not out.exists()


def test_unwritable_out_exits_2_and_is_removed(tiny_scenario, tmp_path,
                                               monkeypatch, capsys):
    def full_disk(res, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("timdcop.cli.write_incident_csv", full_disk)
    out = tmp_path / "o"
    assert main([
        "run", "--scenario", str(tiny_scenario), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert not out.exists()
    assert list(tmp_path.glob(".o.*")) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_write_leaves_an_existing_out_as_it_was(
        tiny_scenario, tmp_path, monkeypatch, capsys, command):
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    out = tmp_path / "o"
    out.mkdir()
    older = "pdronetim_result.json" if command == "run" else "sweep.csv"
    (out / "keep.txt").write_text("sentinel")
    (out / older).write_text("from an older run")
    before = read_bytes(out)
    if command == "run":
        # after the result JSON and the stage CSV are written
        monkeypatch.setattr("timdcop.cli.write_incident_csv", full_disk)
        extra = []
    else:
        # the manifest is the last file, after both CSVs
        monkeypatch.setattr("timdcop.cli._write", full_disk)
        extra = ["--axis", "uavs=0", "--trials", "1"]
    assert main([command, "--scenario", str(tiny_scenario), *extra,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert read_bytes(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    assert list(tmp_path.glob(".o.*")) == []


def test_a_target_that_cannot_be_replaced_leaves_an_existing_out_as_it_was(
        tiny_scenario, tmp_path, capsys):
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    (out / "pdronetim_result.json").write_text("from an older run")
    before = read_bytes(out)
    assert main(["run", "--scenario", str(tiny_scenario),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "is a directory" in err and "Traceback" not in err
    assert read_bytes(out) == before
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "pdronetim_result.json"]
    assert (out / "manifest.json").is_dir()
    assert list(tmp_path.glob(".o.*")) == []


def test_existing_out_is_updated_in_place(tiny_scenario, tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    (reused / "keep.txt").write_text("sentinel")
    (reused / "pdronetim_result.json").write_text("from an older run")
    for out in (fresh, reused):
        assert main(["run", "--scenario", str(tiny_scenario),
                     "--out", str(out)]) == 0
    assert read_bytes(reused) == {**read_bytes(fresh), "keep.txt": b"sentinel"}
    mask = os.umask(0o022)
    os.umask(mask)
    assert fresh.stat().st_mode & 0o777 == 0o777 & ~mask  # as mkdir makes it
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fresh", "reused", "scenario.json"]


# ----------------------------------------------------------------- sweeps


def test_sweep_grid_rows_and_summary_statistics(tiny_scenario, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--scenario", str(tiny_scenario),
        "--axis", "dsa_threshold=0.9,0.5", "--trials", "3",
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "axis", "value", "trial", "seed",
        "total_delay_veh_h", "total_response_min",
    ]
    assert len(rows) == 1 + 2 * 3
    for row in rows[1:]:
        assert row[0] == "dsa_threshold"
        assert int(row[3]) == TINY["seed"] + int(row[2])  # seed = base + trial

    with open(out / "summary.csv") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == [
        "axis", "value", "trials", "mean_delay_veh_h", "se_delay_veh_h",
    ]
    assert len(srows) == 3
    for srow in srows[1:]:
        sel = [float(r[4]) for r in rows[1:] if r[1] == srow[1]]
        assert int(srow[2]) == 3
        mean = sum(sel) / len(sel)
        var = sum((x - mean) ** 2 for x in sel) / (len(sel) - 1)
        assert float(srow[3]) == pytest.approx(mean, rel=1e-12)
        assert float(srow[4]) == pytest.approx((var / len(sel)) ** 0.5, rel=1e-12)


def test_single_trial_sweep_reports_zero_standard_error(tiny_scenario, tmp_path):
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--scenario", str(tiny_scenario),
        "--axis", "ervs=1,2,3", "--trials", "1", "--out", str(out),
    ]) == 0
    with open(out / "summary.csv") as fh:
        srows = list(csv.reader(fh))
    assert [r[1] for r in srows[1:]] == ["1", "2", "3"]
    assert all(float(r[4]) == 0.0 for r in srows[1:])


def test_sweep_manifest_rerun_is_byte_identical(tiny_scenario, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main([
        "sweep", "--scenario", str(tiny_scenario),
        "--axis", "lookahead=0,2", "--trials", "2", "--out", str(first),
    ]) == 0
    assert main([
        "sweep", "--manifest", str(first / "manifest.json"), "--out", str(again),
    ]) == 0
    assert read_bytes(first) == read_bytes(again)
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["kind"] == "sweep"
    assert manifest["axis"] == {"name": "lookahead", "values": [0, 2]}
    assert manifest["trials"] == 2
    assert manifest["policy"] == "pdronetim"


def test_parallel_sweep_matches_serial_bytes(tiny_scenario, tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = [
        "sweep", "--scenario", str(tiny_scenario),
        "--axis", "uavs=0,1", "--trials", "1",
    ]
    monkeypatch.delenv("TIMDCOP_WORKERS", raising=False)
    assert main(args + ["--out", str(serial)]) == 0
    monkeypatch.setenv("TIMDCOP_WORKERS", "2")
    assert main(args + ["--out", str(parallel)]) == 0
    assert read_bytes(serial) == read_bytes(parallel)


def test_sweep_forks_no_more_workers_than_points(tiny_scenario, tmp_path,
                                                 monkeypatch):
    pools = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("TIMDCOP_WORKERS", "500")
    assert main(["sweep", "--scenario", str(tiny_scenario), "--axis", "uavs=0,1",
                 "--trials", "1", "--out", str(tmp_path / "o")]) == 0
    assert pools == [2]


# One small sweep per axis kind (count, number, text, switch), its output
# files pinned by sha256: the sweep axes read and write the scenario file
# format through one field table, and a change to it must keep these bytes.
PINNED_SWEEPS = {
    "ervs=1,2": {
        "manifest.json": "9e9fa012c24db0e38ff0ed31fe07c38f73a194db1dbe24a858c71d71d7e7cff8",
        "summary.csv": "623cc48174f65da6d875c354df7c758e12d66563a3608998bcadee482a052d9b",
        "sweep.csv": "913cad99d3497c53150dcd4a1002923d06bb0619e6b008eaa9abbc9cef4f4bb7",
    },
    "dsa_threshold=0.9,0.1": {
        "manifest.json": "59effb85c0e9e5d71a7c4185e14b4b171b987be49854b9e32f43ec056707f992",
        "summary.csv": "48e696f6bd8cbe351ed35488248d086da80abf95058e7585a64e288ecb8efc31",
        "sweep.csv": "0fe725f6f63e4291206b5a9c30edd313696b09813581146eb88d48b92abce4c9",
    },
    "algorithm=mgm,dsa": {
        "manifest.json": "ee5a252649811ce138f3c7012928842c048be46c77940aefa8c1582b25feec63",
        "summary.csv": "eb62211001ee2443887b4d90b59f14cc74df49869d70c5d13875abb2cb85292d",
        "sweep.csv": "9a6b816a635315ccb6e4a6100d216252d36666642141c7fe168981d1c557e127",
    },
    "cooperation=off,on": {
        "manifest.json": "77db61094ae86cf4c81c757afbfeb5ceeac9d0276478b4f7faf9816874891081",
        "summary.csv": "91ee87cc604171f55343c051e8241f4e530cd7b10c1f3752bd46884dc0239c7b",
        "sweep.csv": "1938a0c590892cb5f78108752ae2912ee55f5e68f3095ac14f9ec7e311deb493",
    },
}


@pytest.mark.parametrize("axis", sorted(PINNED_SWEEPS))
def test_sweep_outputs_match_pinned_sha256(axis, tiny_scenario, tmp_path):
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(tiny_scenario), "--axis", axis,
                 "--trials", "2", "--out", str(out)]) == 0
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in read_bytes(out).items()}
    assert got == PINNED_SWEEPS[axis]


@pytest.mark.parametrize("workers", ["x", "0", "-2", "1.5", "nan"])
def test_bad_worker_count_exits_2(tiny_scenario, tmp_path, monkeypatch, capsys,
                                  workers):
    monkeypatch.setenv("TIMDCOP_WORKERS", workers)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(tiny_scenario),
                 "--axis", "uavs=0", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "TIMDCOP_WORKERS" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_axis_validation(tiny_scenario, tmp_path, capsys):
    base = ["sweep", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")]
    assert main(base + ["--axis", "speed=1,2"]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err
    assert main(base + ["--axis", "no-equals-sign"]) == 2
    assert main(base + ["--axis", "dsa_threshold=fast"]) == 2
    assert main(base + ["--axis", "dsa_threshold="]) == 2
    assert main(base + ["--axis", "ervs=1", "--trials", "0"]) == 2
    assert main(base + ["--axis", "ervs=2.5"]) == 2
    # a cooperation word that is neither on nor off is no silent "off"
    assert main(base + ["--axis", "cooperation=banana"]) == 2
    assert main(base + ["--axis", "cooperation=yes"]) == 2
    capsys.readouterr()
    # a repeated value would run its trials twice and double its summary row
    for repeated in ("dsa_threshold=0.5,0.50", "ervs=1,2,1", "cooperation=on,true"):
        assert main(base + ["--axis", repeated]) == 2
        assert "repeats the value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(base + ["--axis", "cooperation=OFF,on", "--trials", "1"]) == 0
    with open(tmp_path / "o" / "summary.csv") as fh:
        assert [r[1] for r in csv.reader(fh)][1:] == ["False", "True"]


def test_each_axis_sets_its_scenario_file_key():
    base = scenario_from_dict(TINY)
    for axis, key in cli._AXES.items():
        kind = scenarios.SCENARIO_FIELDS[key][1]
        value = {"count": 1, "number": 0.25, "text": "mgm", "switch": False}[kind]
        doc = json.loads(json.dumps(TINY))
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
        assert cli._apply_axis(base, axis, value) == scenario_from_dict(doc), axis


def test_sweep_help_names_every_axis(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert all(axis in text for axis in cli._AXES)


@pytest.mark.parametrize("policies", [
    ["--policy", "conventional", "--policy", "pdronetim"],
    ["--policy", "conventional,pdronetim"],
])
def test_a_sweep_takes_one_policy(tiny_scenario, tmp_path, capsys, policies):
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(tiny_scenario), "--axis", "ervs=1",
                 "--trials", "1", *policies, "--out", str(out)]) == 2
    assert "one policy" in capsys.readouterr().err
    assert not out.exists()


def test_boolean_fields_read_json_booleans():
    sc = scenario_from_dict({**TINY, "cooperation": False,
                             "forecast": {"normalize": True}})
    assert sc.cooperation is False and sc.normalize_field is True
    assert scenario_from_dict(TINY).cooperation is True


SWEEP_BASE = {"kind": "sweep", "scenario": TINY,
              "axis": {"name": "ervs", "values": [1, 2]}, "trials": 1}


@pytest.mark.parametrize("bad", [
    {"axis": None},
    {"axis": ["ervs", [1, 2]]},
    {"axis": {"values": [1, 2]}},
    {"axis": {"name": "speed", "values": [1, 2]}},
    {"axis": {"name": ["ervs"], "values": [1, 2]}},
    {"axis": {"name": "ervs"}},
    {"axis": {"name": "ervs", "values": []}},
    {"axis": {"name": "ervs", "values": "1,2"}},
    {"trials": None},
    {"trials": "x"},
    {"trials": 1.5},
    {"trials": 0},
    {"trials": True},
    # every axis value is checked against the axis's type when it loads
    {"axis": {"name": "iterations", "values": ["x"]}},
    {"axis": {"name": "ervs", "values": ["x"]}},
    {"axis": {"name": "ervs", "values": [{"a": 1}]}},
    {"axis": {"name": "ervs", "values": [2.5]}},
    {"axis": {"name": "iterations", "values": [True]}},
    {"axis": {"name": "kappa", "values": ["0.5"]}},
    {"axis": {"name": "kappa", "values": [True]}},
    {"axis": {"name": "kappa", "values": [float("inf")]}},
    {"axis": {"name": "dsa_threshold", "values": [[0.5]]}},
    {"axis": {"name": "algorithm", "values": [1]}},
    {"axis": {"name": "cooperation", "values": ["false"]}},
    {"axis": {"name": "cooperation", "values": [0]}},
    # and against the scenario, before any sweep point runs
    {"axis": {"name": "iterations", "values": [5, 20000]}},
    # a value given twice, in any spelling the axis reads as one value
    {"axis": {"name": "ervs", "values": [1, 1]}},
    {"axis": {"name": "ervs", "values": [1, 2, 1.0]}},
    {"axis": {"name": "dsa_threshold", "values": [0.5, 0.1, 0.50]}},
    {"axis": {"name": "algorithm", "values": ["dsa", "dsa"]}},
    {"axis": {"name": "cooperation", "values": [False, False]}},
    # the policy is read as --policy reads it, and a sweep takes one
    {"policy": 5},
    {"policy": "nope"},
    {"policy": "conventional,pdronetim"},
])
def test_invalid_sweep_manifest_exits_2_before_writing(tmp_path, capsys, bad):
    doc = {k: v for k, v in {**SWEEP_BASE, **bad}.items() if v is not None}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, message", [
    ("run", {"kind": "run", "scenario": TINY, "policy": ["opt"]},
     "unknown run manifest key 'policy'"),
    ("sweep", {**SWEEP_BASE, "polciy": "opt"},
     "unknown sweep manifest key 'polciy'"),
    ("sweep", {**SWEEP_BASE, "axis": {"name": "ervs", "values": [1], "trials": 2}},
     "unknown sweep manifest axis key 'trials'"),
    # each command reads only the manifest it writes: run would drop the axis
    ("run", SWEEP_BASE, "is not a run manifest: its kind is 'sweep'"),
    ("sweep", {"kind": "run", "scenario": TINY},
     "is not a sweep manifest: its kind is 'run'"),
    ("run", {"scenario": TINY}, "is not a run manifest: its kind is None"),
])
def test_a_manifest_key_its_kind_lacks_exits_2(tmp_path, capsys, command, doc,
                                                message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([command, "--manifest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"grid": {"rows": 1, "cols": 8}},
    {"forecast": {"prob_range": [0.5, 1.5]}},
    {"grid": {"edge_time_range": [0, 1]}},
    {"grid": {"rows": 5000, "cols": 5000}},
    {"schedule": [1] * 998, "grid": {"rows": 100, "cols": 100}},
    *CEILING_PROBES.values(),
])
def test_a_world_the_builders_refuse_exits_2_before_any_sweep_point(
        tmp_path, capsys, monkeypatch, bad):
    monkeypatch.delenv("TIMDCOP_WORKERS", raising=False)
    points = []
    monkeypatch.setattr(cli, "_sweep_point", points.append)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 1, "schedule": [1], **bad}))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--axis", "ervs=1,2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()
    assert points == []


@pytest.mark.parametrize("source, points_held", [
    ("flags", 100_002),  # two values x 50,001 trials: just past the ceiling
    ("flags", 200_000_000),
    ("manifest", 200_000_000),
])
def test_a_sweep_past_the_point_ceiling_exits_2_before_any_point(
        tmp_path, capsys, monkeypatch, source, points_held):
    monkeypatch.delenv("TIMDCOP_WORKERS", raising=False)
    points = []
    monkeypatch.setattr(cli, "_sweep_point", points.append)
    trials = points_held // 2
    if source == "flags":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "schedule": [1]}))
        args = ["--scenario", str(path), "--axis", "dsa_threshold=0.5,0.9",
                "--trials", str(trials)]
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            **SWEEP_BASE, "trials": trials,
            "axis": {"name": "dsa_threshold", "values": [0.5, 0.9]}}))
        args = ["--manifest", str(path)]
    out = tmp_path / "o"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: the sweep holds {points_held:,} points (axis values x trials), "
        f"more than {scenarios.MAX_SWEEP_POINTS:,}\n")
    assert not out.exists()
    assert points == []


def test_checked_sweep_manifest_runs(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**SWEEP_BASE, "trials": 2.0,
                                "axis": {"name": "ervs", "values": [1.0, 2]}}))
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", str(path), "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_text()
    assert json.loads(manifest)["trials"] == 2
    # values reach the runs and the outputs parsed: 1.0 is the count 1
    assert '"values": [\n      1,\n      2\n    ]' in manifest


def test_sweep_manifest_policy_is_read_like_the_option(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**SWEEP_BASE, "policy": "OPT"}))
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["policy"] == "opt"


@pytest.mark.parametrize("flag, value", [
    ("--axis", "lookahead=0,1"),
    ("--trials", "3"),
    ("--trials", "10"),  # the default, given: still refused
    ("--policy", "opt"),
])
def test_a_sweep_manifest_refuses_the_flags_it_states(
        tiny_scenario, tmp_path, capsys, monkeypatch, flag, value):
    first = tmp_path / "first"
    assert main(["sweep", "--scenario", str(tiny_scenario), "--axis", "ervs=1,2",
                 "--trials", "1", "--out", str(first)]) == 0
    capsys.readouterr()
    points = []
    monkeypatch.setattr(cli, "_sweep_point", points.append)
    out = tmp_path / "again"
    assert main(["sweep", "--manifest", str(first / "manifest.json"),
                 flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} cannot be given with --manifest")
    assert not out.exists()
    assert points == []


def test_only_opt_imports_scipy_optimize(tmp_path):
    """A fresh interpreter runs conventional and pdronetim without calling
    the LSAP, and opt calls it when its floor first reaches the refinement;
    no run loads the scipy.optimize package."""
    # the bench traces the solver through this module-level function
    assert inspect.isfunction(scenarios.linear_sum_assignment)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**TINY, "schedule": [2, 1]}))
    args = ["run", "--scenario", str(path), "--out"]
    code = (
        "import json, sys\n"
        "import timdcop.scenarios as scenarios\n"
        "from timdcop.cli import main\n"
        "calls = []\n"
        "lsap = scenarios.linear_sum_assignment\n"
        "scenarios.linear_sum_assignment = lambda c: calls.append(1) or lsap(c)\n"
        f"codes = [main({args + [str(tmp_path / 'a')]!r}"
        " + ['--policy', 'conventional,pdronetim'])]\n"
        "seen = ['scipy.optimize' in sys.modules, len(calls)]\n"
        f"codes.append(main({args + [str(tmp_path / 'b')]!r} + ['--policy', 'opt']))\n"
        "seen += ['scipy.optimize' in sys.modules, len(calls) > 0]\n"
        "print(json.dumps([codes, seen]))\n"
    )
    codes, seen = fresh_python(code)
    assert codes == [0, 0]
    assert seen == [False, 0, False, True]


def fresh_python(code: str) -> list:
    """The last stdout line of `code` run by a fresh interpreter on this
    checkout's package, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(timdcop.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_opt_loads_scipys_compiled_lsap_module_alone(tmp_path):
    """All three policies run without the scipy.optimize package; the LSAP
    module opt loaded is the one scipy.optimize re-exports from when it is
    imported later, and later calls do not search for it again."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**TINY, "schedule": [2, 1]}))
    out = str(tmp_path / "out")
    code = (
        "import importlib.machinery, json, sys\n"
        "import numpy as np\n"
        "import timdcop.scenarios as scenarios\n"
        "from timdcop.cli import main\n"
        f"code = main(['run', '--scenario', {str(path)!r}, '--policy',"
        f" 'conventional,pdronetim,opt', '--out', {out!r}])\n"
        "lsap = sys.modules.get('scipy.optimize._lsap')\n"
        "seen = [code, 'scipy.optimize' in sys.modules, lsap is not None,\n"
        "        isinstance(getattr(lsap, '__loader__', None),\n"
        "                   importlib.machinery.ExtensionFileLoader)]\n"
        "find = importlib.machinery.PathFinder.find_spec\n"
        "importlib.machinery.PathFinder.find_spec = None\n"
        "rows, cols = scenarios.linear_sum_assignment(np.array([[2.0, 1.0], [1.0, 3.0]]))\n"
        "importlib.machinery.PathFinder.find_spec = find\n"
        "seen.append([rows.tolist(), cols.tolist()])\n"
        "import scipy.optimize, scipy.stats\n"
        "seen.append(scipy.optimize.linear_sum_assignment\n"
        "            is sys.modules['scipy.optimize._lsap'].linear_sum_assignment)\n"
        "print(json.dumps(seen))\n"
    )
    assert fresh_python(code) == [0, False, True, True, [[0, 1], [1, 0]], True]


def refinement_shaped_costs() -> list[list]:
    """Cost matrices shaped like the floor refinement's, incidents x
    (vehicle, rank) slots, as lists; half of them are drawn from few values,
    so ties are common."""
    rng = np.random.default_rng(3003)
    costs = []
    for k in range(2, 13):
        for n_erv in range(1, 5):
            shape = (k, n_erv * k)
            costs += [(rng.random(shape) * 100.0).tolist(),
                      rng.integers(0, 3, size=shape).astype(float).tolist()]
    return costs


@pytest.mark.parametrize("found", ["compiled", "missing", "source"])
def test_the_lsap_wrapper_answers_as_scipy_optimize(tmp_path, found):
    """A fresh interpreter's wrapper answers as scipy.optimize does here,
    whether it loads scipy's compiled LSAP module alone or falls back: where
    that module is missing, or is a Python source file (which would import
    its own package), the first call imports scipy.optimize and runs none of
    that file. Either way only the first call loads a module."""
    source = tmp_path / "_lsap.py"
    source.write_text("raise AssertionError('the source LSAP module ran')\n")
    costs = refinement_shaped_costs()
    (tmp_path / "costs.json").write_text(json.dumps(costs))
    code = (
        "import importlib.machinery, importlib.util, json, sys\n"
        "import numpy as np\n"
        "import timdcop.scenarios as scenarios\n"
        "finder = importlib.machinery.PathFinder\n"
        "real, asked = finder.find_spec, []\n"
        "def find_once(name, path=None, target=None):\n"
        "    finder.find_spec = real\n"
        "    asked.append(name)\n"
        f"    if {found!r} == 'source':\n"
        f"        return importlib.util.spec_from_file_location(name, {str(source)!r})\n"
        f"if {found!r} != 'compiled':\n"
        "    finder.find_spec = staticmethod(find_once)\n"
        "load, loads = scenarios._load_lsap, []\n"
        "scenarios._load_lsap = lambda: loads.append(1) or load()\n"
        f"costs = json.loads(open({str(tmp_path / 'costs.json')!r}).read())\n"
        "answers = [[a.tolist() for a in scenarios.linear_sum_assignment(np.array(c))]"
        " for c in costs]\n"
        "print(json.dumps([asked, len(loads), 'scipy.optimize' in sys.modules, answers]))\n"
    )
    asked, loads, loaded, answers = fresh_python(code)
    fell_back = found != "compiled"
    assert asked == (["scipy.optimize._lsap"] if fell_back else [])
    assert loads == 1
    assert loaded == fell_back
    from scipy.optimize import linear_sum_assignment

    assert answers == [[a.tolist() for a in linear_sum_assignment(np.array(c))]
                       for c in costs]


def test_cli_entry_point_is_installed():
    """The console script declared in pyproject.toml resolves to a callable
    that serves `run --help`, called the way an installed wrapper calls it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["timdcop"]
    # the subprocess must import the same package as this test
    src = str(Path(timdcop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name='timdcop', value={value!r}, "
        "group='console_scripts')\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "run", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--scenario" in proc.stdout


@pytest.mark.skipif(
    shutil.which("timdcop") is None,
    reason="timdcop console script not on PATH (package not installed)",
)
def test_cli_console_script_on_path():
    proc = subprocess.run(
        ["timdcop", "run", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "--scenario" in proc.stdout
