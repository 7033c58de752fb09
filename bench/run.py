#!/usr/bin/env python3
"""timdcop benchmark: host time and answers of `timdcop run`, per workload.

    python3 bench/run.py --workload dispatch-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 10     # every workload, one interpreter each

Each pass materializes fresh worlds and runs every scenario of the workload
through ``timdcop.cli.main(["run", ...])``, in process, writing the CLI's
usual outputs. Passes repeat while the next one fits in --seconds (at least
three).

Times are speed-scaled host seconds. On a shared host the speed of a core
drifts by up to 2x for tens of seconds at a time, so a fixed piece of
interpreter work (``reference``) is timed after each materialize and policy
run and between scenarios, and every time measured between two of these is
multiplied by REF_S / (mean of their reference times). A value therefore
reads as the seconds the work takes on a core where the reference takes
REF_S. An end-to-end time is the sum over scenarios of each scenario's
median across untraced passes; the record also keeps the unscaled seconds.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced pass,
then traced passes in which every public function of the package is wrapped
(see tracer.py), and reports the per-layer metrics (medians over traced
passes). A traced run also fails when a per-layer metric reads zero on a
workload whose layers should produce it, so `--trace 1` without --workload
is the benchmark's self-test.

Every (scenario, policy) run is checked: the CLI exits 0, every incident is
served exactly once, opt is no worse than either policy, and the result JSON
bytes and deterministic counters repeat across passes, traced or not.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; bench/results/ keeps a fuller record with answer checksums.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: stay within the cores given

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import LAYER_TARGETS, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
POLICIES = ("conventional", "pdronetim", "opt")
MIN_PASSES = 3
# About the time reference() takes on an unloaded core of the 2-core Intel
# Xeon host the benchmark was tuned on (Python 3.11): only the unit of the
# speed-scaled times, never a threshold.
REF_S = 0.0026
# counters that must repeat exactly across passes of one seed
DETERMINISTIC = ("opt.nodes", "network.rows_built", "incidents.clamped",
                 "solvers.rounds", "solvers.moves", "solvers.messages")


def import_program():
    """timdcop from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import timdcop
        import timdcop.cli
        import timdcop.incidents
    except ImportError as exc:
        sys.exit(f"bench: cannot import timdcop from {src}: {exc}")
    if not Path(timdcop.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: timdcop resolved to {timdcop.__file__}, not {src}")
    return timdcop.cli, timdcop.incidents


class PolicyProbe:
    """Times materialize and run_policy where the CLI calls them.

    The reference is timed after each of these calls and once per scenario
    (``lap``), which cuts a scenario into intervals; a time measured in an
    interval is scaled by REF_S / (mean of the two reference times that
    bound it). `raw` holds unscaled seconds, `times` scaled ones; both
    describe the latest scenario, and start() clears them. Time spent in the
    reference itself is left out of both.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.ref = reference()
        self.start()

    def start(self) -> None:
        self.raw: dict[str, float] = {"wall_s": 0.0}
        self.times: dict[str, float] = {"wall_s": 0.0}
        self.world = None
        self.mark = perf_counter()

    def lap(self) -> float:
        """Close the interval since the last lap; return its scale."""
        elapsed = perf_counter() - self.mark
        ref = reference()
        scale = REF_S / ((self.ref + ref) / 2)
        self._add("wall_s", elapsed, scale)
        self.ref, self.mark = ref, perf_counter()
        return scale

    def _add(self, key: str, seconds: float, scale: float) -> None:
        self.raw[key] = self.raw.get(key, 0.0) + seconds
        self.times[key] = self.times.get(key, 0.0) + seconds * scale

    @contextlib.contextmanager
    def installed(self):
        materialize, run_policy = self.cli.materialize, self.cli.run_policy

        def timed_materialize(sc):
            t0 = perf_counter()
            self.world = materialize(sc)
            elapsed = perf_counter() - t0
            self._add("setup_s", elapsed, self.lap())
            return self.world

        def timed_run_policy(sc, policy, world=None):
            t0 = perf_counter()
            res = run_policy(sc, policy, world)
            elapsed = perf_counter() - t0
            self._add(f"{policy}_s", elapsed, self.lap())
            return res

        self.cli.materialize, self.cli.run_policy = timed_materialize, timed_run_policy
        try:
            yield self
        finally:
            self.cli.materialize, self.cli.run_policy = materialize, run_policy


def reference() -> float:
    """Seconds for a fixed piece of dict and float work in the interpreter,
    the kind of work the program spends its time on."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    acc = 0.5
    for i in range(10_000):
        k = i & 1023
        acc = acc * 0.999 + table.get(k, 1.0)
        table[k] = acc - int(acc)
    return perf_counter() - t0


# ------------------------------------------------------------------ checks


def check_outputs(wl: Workload, out: Path, world, error: str | None) -> dict:
    """Answers and invariant breaks of one scenario's CLI run."""
    rec = {"sha256": {}, "delay_veh_h": {}, "failures": []}
    if error is None and world is None:
        error = "materialize was never called"
    if error is not None:
        rec["failures"] = [(p, error) for p in wl.policies]
        return rec
    expected = sorted(i.id for i in world.incidents)
    for p in wl.policies:
        try:
            raw = (out / f"{p}_result.json").read_bytes()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            rec["failures"].append((p, f"unreadable result: {exc}"))
            continue
        rec["sha256"][p] = hashlib.sha256(raw).hexdigest()
        rec["delay_veh_h"][p] = doc["totals"]["delay_veh_h"]
        served = sorted(o["id"] for o in doc["incidents"])
        if served != expected:
            rec["failures"].append((p, "incidents not served exactly once"))
        if p == "opt":
            rec["opt.nodes"] = doc["opt_nodes"]
    d = rec["delay_veh_h"]
    if "opt" in d and d["opt"] > min(d.get(p, d["opt"]) for p in wl.policies) + 1e-6:
        rec["failures"].append(("opt", "opt worse than a policy it seeds from"))
    # one cached Dijkstra row per (world, source) pair
    rec["network.rows_built"] = len(getattr(world.net, "_dist_cache", ()))
    return rec


# ----------------------------------------------------------------- tracing


class Counters:
    """Counts read from the problems solve receives, the SolveTrace it
    returns, and the cells UAV tasking observes."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.c = dict.fromkeys((
            "solvers.erv.s", "solvers.uav.s", "solvers.rounds", "solvers.moves",
            "solvers.messages", "rounds_to_best", "useful_rounds", "solves",
            "agents", "domain", "binary", "uav.observations"), 0)

    def solve(self, args, trace, seconds) -> None:
        p, c = args[0], self.c
        c["solvers.erv.s" if p.sense == "min" else "solvers.uav.s"] += seconds
        c["solvers.rounds"] += len(trace.moves)
        c["solvers.moves"] += sum(trace.moves)
        c["solvers.messages"] += trace.messages
        c["rounds_to_best"] += 1 + trace.best_costs.index(trace.final_cost)
        c["useful_rounds"] += max(
            (r + 1 for r, m in enumerate(trace.moves) if m), default=0)
        c["solves"] += 1
        c["agents"] += len(p.agents)
        c["domain"] += sum(len(p.domains[a]) for a in p.agents) / len(p.agents)
        c["binary"] += len(p.binary)

    def observations(self, args, observed, seconds) -> None:
        self.c["uav.observations"] += len(observed)


def stage_latencies(spans) -> list[float]:
    """Per-stage decision time of pdronetim runs, in ms: ERV build + solve
    + UAV build + solve. A stage starts at each ERV build under run_proactive."""
    name = spans.labels()
    stage: dict[int, list[float]] = {}
    for i, n in enumerate(name):
        p = spans.parent[i]
        if p < 0 or name[p] != "scenarios.run_proactive":
            continue
        if n == "erv.build_erv_problem":
            stage.setdefault(p, []).append(0.0)
        if n in ("erv.build_erv_problem", "solvers.solve", "uav.build_uav_problem"):
            stage[p][-1] += spans.duration(i) * 1e3
    return [ms for groups in stage.values() for ms in groups]


def incumbent_seconds(spans) -> float:
    """Time in the policy runs that run_opt replays as incumbents."""
    name = spans.labels()
    return sum(
        spans.duration(i) for i, n in enumerate(name)
        if n in ("scenarios.run_conventional", "scenarios.run_proactive")
        and spans.parent[i] >= 0 and name[spans.parent[i]] == "scenarios.run_opt"
    )


# ------------------------------------------------------------------ passes


def run_pass(cli, incidents, wl: Workload, paths: list[Path], work: Path,
             tracer: Tracer | None, counters: Counters) -> dict:
    """One pass over the workload's scenarios; returns its timings and answers."""
    probe = PolicyProbe(cli)
    incidents.clamped.reset()
    scenarios = []
    spans = {"calls": {}, "total": {}, "self": {}, "stage_ms": [], "incumbents_s": 0.0}
    totals: dict[str, float] = {}
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(probe.installed())
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        for k, path in enumerate(paths):
            out = work / f"out{k}"
            argv = ["run", "--scenario", str(path),
                    "--policy", ",".join(wl.policies), "--out", str(out)]
            probe.start()
            clamped0 = incidents.clamped.count
            counters.reset()
            error = None
            try:
                code = cli.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except Exception as exc:  # a crash is a failed run, not a dead benchmark
                error = f"{type(exc).__name__}: {exc}"
            probe.lap()
            rec = check_outputs(wl, out, probe.world, error)
            rec["raw_times"], rec["times"] = probe.raw, probe.times
            rec["incidents.clamped"] = incidents.clamped.count - clamped0
            if tracer is not None:
                sp = tracer.drain()
                for name, (calls, total, self_s) in sp.summary().items():
                    for key, v in (("calls", calls), ("total", total), ("self", self_s)):
                        spans[key][name] = spans[key].get(name, 0) + v
                spans["stage_ms"] += stage_latencies(sp)
                spans["incumbents_s"] += incumbent_seconds(sp)
                for name, v in counters.c.items():
                    totals[name] = totals.get(name, 0) + v
                for name in ("solvers.rounds", "solvers.moves", "solvers.messages"):
                    rec[name] = counters.c[name]
            shutil.rmtree(out, ignore_errors=True)
            scenarios.append(rec)

    return {
        "traced": tracer is not None,
        **{n: sum(r["times"].get(n, 0.0) for r in scenarios) for n in time_names(wl)},
        "raw_wall_s": sum(r["raw_times"]["wall_s"] for r in scenarios),
        **{f"delay_veh_h.{p}": sum(r["delay_veh_h"].get(p, 0.0) for r in scenarios)
           for p in wl.policies},
        "scenarios": scenarios,
        "spans": spans if tracer is not None else None,
        "counters": totals,
    }


def layer_metrics(ps: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `untraced` is the reference pass."""
    sp, c, sc = ps["spans"], ps["counters"], ps["scenarios"]
    calls = lambda n: sp["calls"].get(n, 0)
    total = lambda n: sp["total"].get(n, 0.0)
    self_s = lambda n: sp["self"].get(n, 0.0)
    solves = c.get("solves", 0) or 1
    stage = sp["stage_ms"]
    opt_nodes = sum(r.get("opt.nodes", 0) for r in sc)
    opt_s = untraced.get("opt_s", 0.0)
    return {
        "network.travel_time.calls": calls("network.travel_time"),
        "network.travel_time.self_s": self_s("network.travel_time"),
        "network.rows_built": sum(r.get("network.rows_built", 0) for r in sc),
        "forecast.expected_probability.calls": calls("forecast.expected_probability"),
        "forecast.expected_probability.self_s": self_s("forecast.expected_probability"),
        "forecast.generate_field.s": total("forecast.generate_field"),
        "forecast.default_kernel.s": total("forecast.default_kernel"),
        "incidents.expected_delay.calls": calls("incidents.expected_delay"),
        "incidents.expected_delay.self_s": self_s("incidents.expected_delay"),
        "incidents.clamped": sum(r["incidents.clamped"] for r in sc),
        "dcop.total_cost.calls": calls("dcop.total_cost"),
        "dcop.agents.mean": c.get("agents", 0) / solves,
        "dcop.domain.mean": c.get("domain", 0) / solves,
        "dcop.binary.mean": c.get("binary", 0) / solves,
        "solvers.solve.calls": calls("solvers.solve"),
        "solvers.solve.s": total("solvers.solve"),
        "solvers.erv.s": c.get("solvers.erv.s", 0.0),
        "solvers.uav.s": c.get("solvers.uav.s", 0.0),
        "solvers.rounds": c.get("solvers.rounds", 0),
        "solvers.moves": c.get("solvers.moves", 0),
        "solvers.messages": c.get("solvers.messages", 0),
        "solvers.rounds_to_best.mean": c.get("rounds_to_best", 0) / solves,
        "solvers.useful_round_frac":
            c.get("useful_rounds", 0) / (c.get("solvers.rounds", 0) or 1),
        "erv.build_erv_problem.calls": calls("erv.build_erv_problem"),
        "erv.build_erv_problem.self_s": self_s("erv.build_erv_problem"),
        "erv.relocation_candidates.s": total("erv.relocation_candidates"),
        "erv.forecast_hotspots.s": total("erv.forecast_hotspots"),
        "erv.apply_assignment.s": total("erv.apply_assignment"),
        "uav.build_uav_problem.s": total("uav.build_uav_problem"),
        "uav.assimilate.calls": calls("uav.assimilate"),
        "uav.observations": c.get("uav.observations", 0),
        "scenarios.materialize.s": total("scenarios.materialize"),
        "pdronetim.stage_ms.p50": statistics.median(stage) if stage else 0.0,
        "pdronetim.stage_ms.p95":
            statistics.quantiles(stage, n=20)[18] if len(stage) > 1 else 0.0,
        "opt_s": opt_s,
        **{f"delay_veh_h.{p}": untraced.get(f"delay_veh_h.{p}", 0.0) for p in POLICIES},
        "opt.nodes": opt_nodes,
        "opt.lsap.calls": calls("scenarios.linear_sum_assignment"),
        "opt.lsap.self_s": self_s("scenarios.linear_sum_assignment"),
        "opt.incumbents_s": sp["incumbents_s"],
        "opt.self_s": self_s("scenarios.run_opt"),
        "opt.nodes_per_s": opt_nodes / opt_s if opt_s else 0.0,
        "cli.write_s": sum(total(n) for n in (
            "scenarios.result_to_json", "scenarios.write_stage_csv",
            "scenarios.write_incident_csv", "uav.write_assimilation_csv")),
        "trace.overhead_pct": 100.0 * (ps["wall_s"] / untraced["wall_s"] - 1.0),
    }


def compare_passes(wl: Workload, passes: list[dict]) -> list[tuple]:
    """(pass, scenario, policy, reason) for every answer or deterministic
    counter that differs from the first pass that recorded it."""
    first: dict[tuple, object] = {}
    breaks = []
    for j, ps in enumerate(passes):
        for k, rec in enumerate(ps["scenarios"]):
            seen = {**{f"sha256.{p}": h for p, h in rec["sha256"].items()},
                    **{n: rec[n] for n in DETERMINISTIC if n in rec}}
            for name, v in seen.items():
                ref = first.setdefault((k, name), (j, v))
                if ref[1] != v:
                    breaks += [(j, k, p, f"{name} differs from pass {ref[0]}")
                               for p in wl.policies
                               if not name.startswith("sha256.") or name == f"sha256.{p}"]
    return breaks


# ----------------------------------------------------------------- records


def unit(name: str) -> str:
    if name.startswith("delay_veh_h."):
        return "veh-h"
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if ".stage_ms." in name:
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def time_names(wl: Workload) -> tuple[str, ...]:
    return ("wall_s", "setup_s", *(f"{p}_s" for p in wl.policies))


def typical(passes: list[dict], name: str) -> float:
    """Sum over scenarios of each scenario's median speed-scaled time
    across passes."""
    return sum(statistics.median(rs) for rs in zip(*(
        [r["times"].get(name, 0.0) for r in ps["scenarios"]] for ps in passes)))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    cli, incidents = import_program()
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for k, doc in enumerate(wl.scenario_dicts(seed)):
            paths.append(work / f"scenario{k}.json")
            paths[-1].write_text(json.dumps(doc))
        counters = Counters()
        tracer = Tracer("timdcop", observers={
            "solvers.solve": counters.solve,
            "uav.apply_uav_assignment": counters.observations,
        }) if trace else None
        passes = []
        t0 = last = perf_counter()
        # stop before a pass that would end past --seconds
        while len(passes) < MIN_PASSES or 2 * perf_counter() - last - t0 <= seconds:
            traced = trace and len(passes) > 0
            last = perf_counter()
            passes.append(run_pass(cli, incidents, wl, paths, work,
                                   tracer if traced else None, counters))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failures = [(j, k, p, why) for j, ps in enumerate(passes)
                for k, r in enumerate(ps["scenarios"]) for p, why in r["failures"]]
    failures += compare_passes(wl, passes)
    attempted = len(passes) * len(paths) * len(wl.policies)
    failed = len({(j, k, p) for j, k, p, _ in failures})

    untraced = [ps for ps in passes if not ps["traced"]]
    e2e = {name: typical(untraced, name) for name in time_names(wl)}
    e2e.update({f"delay_veh_h.{p}": untraced[0][f"delay_veh_h.{p}"] for p in wl.policies})
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["failed_frac"] = failed / attempted

    layers, zero = {}, []
    if trace:
        per_pass = [layer_metrics(ps, untraced[0]) for ps in passes if ps["traced"]]
        layers = {name: statistics.median(lm[name] for lm in per_pass)
                  for name in per_pass[0]}
        # self-test: a layer that runs on this workload must show up
        zero = sorted(n for n, v in layers.items() if v == 0 and n not in wl.idle)
        for name in zero:
            print(f"selftest: {name} reads zero on {wl.name}", file=sys.stderr)

    correct = failed == 0 and not zero
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "scenario": wl.scenario, "policies": list(wl.policies),
        "scenario_seeds": wl.scenario_seeds(seed),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": [list(f) for f in failures],
        "selftest_zero": zero,
        "end_to_end": {n: {"value": v, "unit": unit(n)} for n, v in e2e.items()},
        "per_layer": {n: {"value": v, "unit": unit(n),
                          "target": LAYER_TARGETS[n]} for n, v in layers.items()},
        "passes": [{k: v for k, v in ps.items() if k not in ("scenarios", "spans", "counters")}
                   for ps in passes],
        "checksums": [
            {"scenario_seed": s,
             **{k: v for k, v in r.items() if k not in ("failures", "times", "raw_times")},
             "median_times": {n: statistics.median(ps["scenarios"][k]["times"].get(n, 0.0)
                                                   for ps in untraced)
                              for n in time_names(wl)}}
            for k, (s, r) in enumerate(zip(wl.scenario_seeds(seed), passes[-1]["scenarios"]))
        ],
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{wl.name}: seed {seed}, {len(paths)} scenarios x {len(wl.policies)} "
          f"policies, {len(passes)} passes ({len(untraced)} untraced)")
    for name, v in (*e2e.items(), *layers.items()):
        print(f"  {name:40s} {v:14.6g} {unit(name)}")
    print(f"  {'attempted':40s} {attempted:14d} runs")
    for f in failures[:20]:
        print(f"  failed: pass {f[0]} scenario {f[1]} {f[2]}: {f[3]}")
    reported = layers if trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": reported[n], "unit": unit(n)}
                    for n in declared_metrics("per_layer" if trace else "end_to_end")},
    }))
    return 0


def declared_metrics(section: str) -> list[str]:
    """Metric names BENCHMARK.json lists under `section`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh interpreter so peak memory is its own."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
