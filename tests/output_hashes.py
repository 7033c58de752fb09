#!/usr/bin/env python3
"""sha256 of every output file of a fixed set of CLI runs, one line each.

    python3 tests/output_hashes.py WORKDIR

Runs the checkout's own package (src/ next to this file), each run through
``timdcop.cli.main`` with its outputs under WORKDIR, which must not exist
yet:

- every scenario of the three bench workloads at bench seeds 0 and 1, under
  the workload's policies (bench/workloads.py is only read);
- one MGM scenario with UAVs under all three policies, and its manifest
  re-run;
- one world past `i999` with 12 ERVs under conventional and pdronetim, where
  string ids stop sorting like indices, for incidents and for vehicles;
- a two-value, two-trial sweep on each sweep axis, run serially, with
  TIMDCOP_WORKERS=2, and from its manifest;
- criterion 05's generated instances other than seed 5011 (3 ERVs, no UAVs)
  under opt, which reach the exact floor's LSAP refinement about 86,000
  times (about 15 s).

Prints ``sha256  relative/path`` for every file written, sorted by path. A
change that keeps every output byte prints the same lines on both sides, so
run it on two checkouts and diff the output. The name keeps pytest from
collecting it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import criterion_05

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from timdcop.cli import _AXES, WORKERS_ENV  # noqa: E402
from timdcop.cli import main as timdcop_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MGM = {"seed": 11, "schedule": [4, 3, 2], "grid": {"rows": 6, "cols": 6},
       "fleet": {"ervs": 3, "uavs": 2}, "solver": {"algorithm": "mgm"}}
PAST_I999 = {"seed": 5, "schedule": [10] * 101, "grid": {"rows": 10, "cols": 10},
             "fleet": {"ervs": 12, "uavs": 2}}
SWEPT = {"seed": 4, "schedule": [3, 3, 3], "grid": {"rows": 8, "cols": 8},
         "fleet": {"ervs": 3, "uavs": 2}}


def criterion_05_docs():
    """test_criterion_05's instances as scenario files, but for seed 5011,
    whose exact search alone takes most of that test's time."""
    return {5000 + k: {"seed": 5000 + k, "schedule": s, "fleet": {"ervs": 3, "uavs": 0}}
            for k, s in enumerate(criterion_05.schedules()) if k != 11}


# sweep axis -> two values it takes
AXIS_VALUES = {
    "dsa_threshold": "0.5,0.9", "iterations": "10,45", "algorithm": "mgm,dsa",
    "ervs": "2,3", "uavs": "0,2", "lookahead": "1,2", "relocation_k": "5,10",
    "kappa": "0.5,2", "cooperation": "on,off",
}


def cli(*args: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = timdcop_main(list(args))
    if code != 0:
        raise SystemExit(f"timdcop {' '.join(args)} exited {code}")


def scenario(work: Path, name: str, doc: dict) -> str:
    path = work / "scenarios" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def run_all(work: Path) -> None:
    out = work / "out"
    for w in WORKLOADS.values():
        for seed in (0, 1):
            for doc in w.scenario_dicts(seed):
                name = f"{doc['name']}-seed{seed}"
                cli("run", "--scenario", scenario(work, name, doc),
                    "--policy", ",".join(w.policies), "--out", str(out / name))
    cli("run", "--scenario", scenario(work, "mgm", MGM),
        "--policy", "conventional,pdronetim,opt", "--out", str(out / "mgm"))
    cli("run", "--manifest", str(out / "mgm" / "manifest.json"),
        "--out", str(out / "mgm-manifest"))
    cli("run", "--scenario", scenario(work, "past-i999", PAST_I999),
        "--policy", "conventional,pdronetim", "--out", str(out / "past-i999"))
    for seed, doc in criterion_05_docs().items():
        name = f"criterion-05-seed{seed}"
        cli("run", "--scenario", scenario(work, name, doc),
            "--policy", "opt", "--out", str(out / name))
    base = scenario(work, "swept", SWEPT)
    if set(AXIS_VALUES) != set(_AXES):
        raise SystemExit(f"AXIS_VALUES must name every sweep axis: {sorted(_AXES)}")
    for axis, values in AXIS_VALUES.items():
        for workers in ("1", "2"):
            os.environ[WORKERS_ENV] = workers
            cli("sweep", "--scenario", base, "--axis", f"{axis}={values}",
                "--trials", "2", "--out", str(out / f"sweep-{axis}-w{workers}"))
        os.environ[WORKERS_ENV] = "1"
        cli("sweep", "--manifest", str(out / f"sweep-{axis}-w1" / "manifest.json"),
            "--out", str(out / f"sweep-{axis}-manifest"))


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    work = Path(sys.argv[1])
    work.mkdir(parents=True)
    run_all(work)
    out = work / "out"
    for name in sorted(p.relative_to(out).as_posix()
                       for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
