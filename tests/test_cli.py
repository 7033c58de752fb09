"""Command-line front end: outputs, exit codes, manifests, sweeps."""
import csv
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import timdcop
import timdcop.scenarios as scenarios
from timdcop.cli import main
from timdcop.errors import ModelDomainError
from timdcop.scenarios import (
    Scenario,
    run_opt,
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


# ------------------------------------------------------------- exit codes


def test_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_search_cap_exits_3(tmp_path, monkeypatch, capsys):
    # squeeze the exact search's evaluation budget; the real cap needs a
    # far bigger request set than a unit test should run
    monkeypatch.setattr(
        scenarios, "run_opt", functools.partial(run_opt, cap=10)
    )
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(scenario_to_dict(
        Scenario(seed=305, schedule=(3, 3, 3), rows=4, cols=4, n_ervs=2)
    )))
    assert main([
        "run", "--scenario", str(hard), "--policy", "opt",
        "--out", str(tmp_path / "o"),
    ]) == 3
    assert "cap exceeded" in capsys.readouterr().err


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
    monkeypatch.setattr(scenarios, "_stage_guard", lambda sc, world: 0)
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


def test_sweep_axis_validation(tiny_scenario, tmp_path, capsys):
    base = ["sweep", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")]
    assert main(base + ["--axis", "speed=1,2"]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err
    assert main(base + ["--axis", "no-equals-sign"]) == 2
    assert main(base + ["--axis", "dsa_threshold=fast"]) == 2
    assert main(base + ["--axis", "dsa_threshold="]) == 2
    assert main(base + ["--axis", "ervs=1", "--trials", "0"]) == 2


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


def test_checked_sweep_manifest_runs(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**SWEEP_BASE, "trials": 2.0}))
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["trials"] == 2


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
