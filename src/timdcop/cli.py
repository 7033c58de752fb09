"""Command-line front end: single runs and parameter sweeps.

Every invocation writes a manifest next to its outputs with the fully
resolved scenario and settings (no paths, no timestamps), so re-running from
the manifest reproduces every output file byte for byte.

Exit codes: 0 success, 1 model-domain error, 2 bad input, 3 search cap or
stage-loop bound exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .errors import CapExceededError, InputError, ModelDomainError
from .scenarios import (
    POLICIES,
    READERS,
    SCENARIO_FIELDS,
    Scenario,
    known_keys,
    materialize,
    result_to_json,
    run_policy,
    scenario_from_dict,
    scenario_to_dict,
    string,
    whole_number,
    write_incident_csv,
    write_stage_csv,
)
from .uav import write_assimilation_csv

WORKERS_ENV = "TIMDCOP_WORKERS"

# sweep axis -> the scenario file key it sets
_AXES = {key.rpartition(".")[2]: key for key in (
    "solver.dsa_threshold", "solver.iterations", "solver.algorithm",
    "fleet.ervs", "fleet.uavs", "lookahead", "relocation_k", "kappa",
    "cooperation")}
# --axis cooperation=... words
_ON, _OFF = ("1", "true", "on"), ("0", "false", "off")
# manifest kind (the command that writes and reads it) -> the keys it holds
_MANIFEST_KEYS = {
    "run": ("kind", "scenario", "policies"),
    "sweep": ("kind", "scenario", "axis", "trials", "policy"),
}


def _text_number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{what} must be a number, got {text!r}") from None


def _axis_text(kind: str, text: str, what: str):
    """An --axis value as the JSON value its field's reader takes."""
    if kind == "switch":
        if text.lower() not in _ON + _OFF:
            raise InputError(f"{what} must be one of {', '.join(_ON + _OFF)}, "
                             f"got {text!r}")
        return text.lower() in _ON
    return text if kind == "text" else _text_number(text, what)


def _workers() -> int:
    """Sweep processes from TIMDCOP_WORKERS: a whole number >= 1, 1 when unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    workers = whole_number(_text_number(raw, WORKERS_ENV), WORKERS_ENV)
    if workers < 1:
        raise InputError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
    return workers


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, not UTF-8, or an int too long to read
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _out_path(raw: str) -> Path:
    """--out, checked before any policy runs: the nearest part of it that
    exists must be a directory. Nothing is created here."""
    out = Path(raw)
    there = next((p for p in (out, *out.parents) if p.exists()), None)
    if there is not None and not there.is_dir():
        raise InputError(f"--out {raw}: {there} is not a directory")
    return out


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _filling(out: Path):
    """Yield a fresh sibling directory of --out to write into, once every
    result is in hand. On success its files move into --out, or the sibling
    becomes --out when there is none yet; on failure it is removed, so a
    failed write leaves --out as it was. A failure to create, write or move
    maps to exit 2."""
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    try:
        work.chmod(0o777 & ~_umask())  # as mkdir would make --out
        yield work
        if out.is_dir():
            moves = [(path, out / path.name) for path in work.iterdir()]
            # a directory cannot be replaced by a file: refuse before any move
            for _, target in moves:
                if target.is_dir() and not target.is_symlink():
                    raise InputError(f"cannot write {out}: {target} is a directory")
            for path, target in moves:
                os.replace(path, target)
        else:
            os.rename(work, out)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _manifest_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _apply_axis(sc: Scenario, axis: str, value) -> Scenario:
    return replace(sc, **{SCENARIO_FIELDS[_AXES[axis]][0]: value})


def _parse_policies(raw: list[str]) -> list[str]:
    out: list[str] = []
    for chunk in raw:
        for p in string(chunk, "a policy").split(","):
            p = p.strip().lower()
            if not p:
                continue
            if p not in POLICIES:
                raise InputError(
                    f"unknown policy {p!r}; choose from {', '.join(POLICIES)}"
                )
            if p not in out:
                out.append(p)
    return out or ["pdronetim"]


def _resolve_scenario(args) -> tuple[Scenario, dict | None]:
    """Scenario from --manifest or --scenario (+ --seed override)."""
    manifest = None
    if args.manifest:
        manifest = _load_json(args.manifest)
        if manifest.get("kind") != args.command:
            raise InputError(f"{args.manifest} is not a {args.command} manifest: "
                             f"its kind is {manifest.get('kind')!r}")
        known_keys(manifest, _MANIFEST_KEYS[args.command], f"{args.command} manifest")
        if "scenario" not in manifest:
            raise InputError(f"{args.manifest} has no scenario block")
        sc = scenario_from_dict(manifest["scenario"])
    elif args.scenario:
        sc = scenario_from_dict(_load_json(args.scenario))
    else:
        raise InputError("need --scenario or --manifest")
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, seed=args.seed)
    return sc, manifest


def cmd_run(args) -> int:
    sc, manifest = _resolve_scenario(args)
    if manifest is not None and not args.policy:
        policies = manifest.get("policies", ["pdronetim"])
        if not isinstance(policies, list) or not policies:
            raise InputError("a run manifest's policies must be a non-empty list")
        policies = _parse_policies(policies)
    else:
        policies = _parse_policies(args.policy)

    out = _out_path(args.out)
    world = materialize(sc)
    results = [run_policy(sc, policy, world) for policy in policies]
    for policy, res in zip(policies, results):
        print(
            f"{policy}: delay {res.total_delay_veh_h:.1f} veh-h, "
            f"response {res.total_response_min:.1f} min, "
            f"{len(res.incidents)} incidents"
        )

    with _filling(out) as work:
        for policy, res in zip(policies, results):
            _write(work / f"{policy}_result.json", result_to_json(res))
            write_stage_csv(res, work / f"{policy}_stages.csv")
            write_incident_csv(res, work / f"{policy}_incidents.csv")
            if res.assimilation:
                write_assimilation_csv(res.assimilation,
                                       work / f"{policy}_assimilation.csv")
        if len(results) > 1:
            with open(work / "comparison.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["policy", "total_delay_veh_h", "total_response_min"])
                for res in results:
                    w.writerow([
                        res.policy,
                        repr(res.total_delay_veh_h),
                        repr(res.total_response_min),
                    ])
        _write(work / "manifest.json", _manifest_text({
            "kind": "run",
            "scenario": scenario_to_dict(sc),
            "policies": policies,
        }))
    return 0


def _sweep_point(point: tuple[Scenario, str]) -> tuple[float, float]:
    """One sweep cell's totals; top-level so pools can pickle it."""
    sc, policy = point
    res = run_policy(sc, policy)
    return res.total_delay_veh_h, res.total_response_min


def cmd_sweep(args) -> int:
    if args.manifest:  # the manifest states the axis, trials and policy
        for flag, given in (("--axis", args.axis is not None),
                            ("--trials", args.trials is not None),
                            ("--policy", bool(args.policy))):
            if given:
                raise InputError(f"{flag} cannot be given with --manifest: "
                                 "the manifest states it")
    sc, manifest = _resolve_scenario(args)
    if manifest is not None:
        axis_d = manifest.get("axis")
        if not isinstance(axis_d, dict):
            raise InputError("a sweep manifest needs an axis object")
        known_keys(axis_d, ("name", "values"), "sweep manifest axis")
        axis, values, text = axis_d.get("name"), axis_d.get("values"), False
        trials = manifest.get("trials")
        policies = [manifest["policy"]] if "policy" in manifest else []
    else:
        if not args.axis or "=" not in args.axis:
            raise InputError("--axis must look like name=v1,v2,...")
        axis, _, rest = args.axis.partition("=")
        axis = axis.strip()
        values, text = [v.strip() for v in rest.split(",") if v.strip()], True
        trials = 10 if args.trials is None else args.trials
        policies = args.policy
    if not isinstance(axis, str) or axis not in _AXES:
        raise InputError(
            f"unknown sweep axis {axis!r}; choose from {', '.join(sorted(_AXES))}"
        )
    if not isinstance(values, list) or not values:
        raise InputError(f"sweep axis {axis} needs a non-empty list of values")
    trials = whole_number(trials, "trials")
    if trials < 1:
        raise InputError("--trials must be >= 1")
    policies = _parse_policies(policies)
    if len(policies) > 1:
        raise InputError(f"a sweep takes one policy, got {', '.join(policies)}")
    policy = policies[0]
    kind, what = SCENARIO_FIELDS[_AXES[axis]][1], f"a value of sweep axis {axis}"
    values = [READERS[kind](_axis_text(kind, v, what) if text else v, what)
              for v in values]
    # every point's scenario, built (and so checked) before any run: exit 2
    # on a repeated value or one the scenario rejects
    cells, grid = [], []
    for i, v in enumerate(values):
        if v in values[:i]:
            raise InputError(f"sweep axis {axis} repeats the value {v!r}")
        for t in range(trials):
            cells.append((v, t))
            grid.append((_apply_axis(replace(sc, seed=sc.seed + t), axis, v), policy))

    out = _out_path(args.out)
    # a fork pool starts all its workers at the first submit
    workers = min(_workers(), len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(_sweep_point, grid))
    else:
        totals = [_sweep_point(p) for p in grid]
    rows = sorted(
        ((axis, v, t, p.seed, *tot)
         for (v, t), (p, _), tot in zip(cells, grid, totals)),
        key=lambda r: (str(r[1]), r[2]),
    )

    with _filling(out) as work:
        with open(work / "sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([
                "axis", "value", "trial", "seed",
                "total_delay_veh_h", "total_response_min",
            ])
            for r in rows:
                w.writerow([r[0], r[1], r[2], r[3], repr(r[4]), repr(r[5])])

        # per-value mean and standard error, with plain adds in trial order,
        # not sum() (which compensates from 3.12)
        with open(work / "summary.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["axis", "value", "trials", "mean_delay_veh_h", "se_delay_veh_h"])
            for v in values:
                sel = [r[4] for r in rows if r[1] == v]
                mean = 0.0
                for x in sel:
                    mean += x
                mean /= len(sel)
                if len(sel) > 1:
                    var = 0.0
                    for x in sel:
                        var += (x - mean) ** 2
                    var /= len(sel) - 1
                    se = (var / len(sel)) ** 0.5
                else:
                    se = 0.0
                w.writerow([axis, v, len(sel), repr(mean), repr(se)])

        _write(work / "manifest.json", _manifest_text({
            "kind": "sweep",
            "scenario": scenario_to_dict(sc),
            "axis": {"name": axis, "values": values},
            "trials": trials,
            "policy": policy,
        }))
    print(f"sweep over {axis}: {len(values)} values x {trials} trials")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="timdcop",
        description="Proactive traffic-incident dispatch simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario under one or more policies")
    run.add_argument("--scenario", help="scenario JSON file")
    run.add_argument("--manifest", help="manifest JSON from a previous run")
    run.add_argument("--policy", action="append", default=[],
                     help="conventional | pdronetim | opt (repeatable or comma list)")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    sweep.add_argument("--scenario", help="base scenario JSON file")
    sweep.add_argument("--manifest", help="manifest JSON from a previous sweep")
    sweep.add_argument("--axis", metavar="NAME=V1,V2,...",
                       help=f"axis to vary, one of {', '.join(_AXES)}; "
                            "e.g. dsa_threshold=0.9,0.5,0.1")
    sweep.add_argument("--trials", type=int, default=None,
                       help="seeds per axis value (default 10)")
    sweep.add_argument("--policy", action="append", default=[],
                       help="policy to sweep (default pdronetim)")
    sweep.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(fn=cmd_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelDomainError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
