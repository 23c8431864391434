"""The benchmark: the jobs users of this reproduction wait on.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]
    python3 bench/run.py --agree A.jsonl B.jsonl

Run from the root of a checkout. Each workload runs in fresh
interpreters, each pass with its own empty ``REPRO_CACHE_DIR`` under
``.bench_out/``, for about ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``). Outputs are checked, every metric is printed with its
unit, one JSON line per run is appended to ``--out`` (default
``.bench_out/results.jsonl``), and the last line of standard output is
the result object. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones, from passes timed
through :mod:`layers` (spans written to ``.bench_out/trace-<workload>.json``)
alternating with untraced passes whose difference is the tracing
overhead. Exit status 1 means an output was wrong; 2 means the
benchmark could not run.

``--agree`` compares two files of results (run sets) by the bounds in
``BENCHMARK.json``; see :func:`stats.agree`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
import serveload
import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

#: Set-up samples per run: passes plus set-up-only spawns. A sample is
#: ~0.15 s, short enough for one scheduling hiccup to skew it.
MIN_SETUPS = 9
#: Seconds one worker may run before it is killed and the run abandoned.
PASS_DEADLINE_S = 150.0

#: Layers each in-process workload must record at least one call in
#: (``figures.build.`` stands for every figure of the catalog).
DECLARED_LAYERS = {
    "figures-quick-cold": [
        "baselines.dataflows", "baselines.models",
        "preprocessing.preprocess", "preprocessing.tile",
        "preprocessing.reorder", "preprocessing.estimate",
        "core.simulate", "matrices.generate", "engine.cache_load",
        "engine.cache_store", "engine.program", "engine.execute_point",
        "figures.emit", "figures.build.",
    ],
    "figures-quick-warm": [
        "baselines.dataflows", "matrices.generate", "engine.cache_load",
        "engine.execute_point", "figures.emit", "figures.build.",
    ],
    "sweep-common-cold": [
        "baselines.models", "preprocessing.preprocess",
        "preprocessing.tile", "preprocessing.reorder",
        "preprocessing.estimate", "core.simulate", "matrices.generate",
        "engine.cache_load", "engine.cache_store", "engine.program",
        "engine.execute_point",
    ],
    "sim-deep-tree": [
        "core.simulate", "core.ref_simulate", "matrices.generate",
        "engine.execute_point",
    ],
}

#: Traced passes must attribute this share of their wall to layers.
COVERAGE = (0.9, 1.0)

#: Open-loop serve phases: the cold burst and the steady-state ladder.
COLD_REQUESTS, COLD_RATE = 400, 200
LADDER_RATES = (200, 400, 800, 1200, 1600)
#: The ladder rate whose median latency is the serve workload's wall_s.
REPORTED_RATE = 400
SERVER_STARTS = 5


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


class Run:
    """Scratch space, child environment and verdict of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = OUT_DIR / f"work-{os.getpid()}-{workload}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}
        self._dirs = 0

    def fail(self, message: str, operations: int = 1) -> None:
        """Record a wrong output covering ``operations`` operations."""
        self.failures.append(message)
        self.failed += operations

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self, cache: Path, **extra: str) -> Dict[str, str]:
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
                   REPRO_CACHE_DIR=str(cache), **extra)
        return env


def spawn_worker(run: Run, workload: str, cache: Path, *args: str,
                 **env: str) -> Dict[str, Any]:
    """Run ``worker.py`` once; returns its ``done`` payload plus
    ``setup_s`` (spawn to ``ready``) and ``pass_s`` (spawn to exit)."""
    scratch = run.fresh_dir("pass")
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload,
         "--scratch", str(scratch), *args],
        cwd=ROOT, env=run.env(cache, **env), stdout=subprocess.PIPE,
        text=True)
    watchdog = threading.Timer(PASS_DEADLINE_S, proc.kill)
    watchdog.start()
    result: Dict[str, Any] = {}
    done = False
    try:
        for line in proc.stdout:
            if line.startswith("@bench ready"):
                result["setup_s"] = time.perf_counter() - begin
            elif line.startswith("@bench done "):
                result.update(json.loads(line[len("@bench done "):]))
                done = True
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    result["pass_s"] = time.perf_counter() - begin
    shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or not done:
        raise BenchError(f"worker {workload} exited with status {code}")
    return result


# ----------------------------------------------------------------------
# In-process workloads: repeated passes in fresh interpreters
# ----------------------------------------------------------------------
def run_passes(run: Run) -> Dict[str, Any]:
    workload = run.workload
    env = {"REPRO_NO_DISK_CACHE": "1"} if workload == "sim-deep-tree" \
        else {}
    shared_cache: Optional[Path] = None
    if workload == "figures-quick-warm":
        # The cold pass that fills the cache is preparation, not set-up:
        # it is the figures-quick-cold workload's job.
        shared_cache = run.fresh_dir("warm-cache")
        fill = spawn_worker(run, workload, shared_cache)
        run.attempted += fill["attempted"]
        for failure in fill["failures"]:
            run.fail(f"cache fill: {failure}")

    passes: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        traced = run.trace and len(passes) % 2 == 1
        cache = shared_cache or run.fresh_dir("cache")
        args = ["--trace"] if traced else []
        result = spawn_worker(run, workload, cache, *args, **env)
        if shared_cache is None:
            shutil.rmtree(cache, ignore_errors=True)
        result["traced"] = traced
        passes.append(result)
        run.attempted += result["attempted"]
        for failure in result["failures"]:
            run.fail(failure)
        # Another pass starts while it would end within half a pass of
        # the budget, so a pass just over half the budget still runs twice.
        need_traced = run.trace and len(passes) < 2
        elapsed = time.perf_counter() - begin
        if (not need_traced
                and elapsed + result["pass_s"] / 2 > run.seconds):
            break

    first = passes[0]["fingerprints"]
    for index, result in enumerate(passes[1:], start=2):
        changed = sorted(k for k in set(first) | set(result["fingerprints"])
                         if first.get(k) != result["fingerprints"].get(k))
        for key in changed:
            run.fail(f"pass {index}: {key} differs from pass 1")

    plain = [p for p in passes if not p["traced"]]
    setups = [p["setup_s"] for p in plain]
    while not run.trace and len(setups) < MIN_SETUPS:
        probe = spawn_worker(run, workload, run.fresh_dir("cache"),
                             "--setup-only", **env)
        setups.append(probe["setup_s"])
    run.extra["pass_walls_s"] = [p["wall_s"] for p in passes]
    run.extra["setups_s"] = setups
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    if run.trace:
        traced = [p for p in passes if p["traced"]]
        check_conservation(run, traced)
        metrics.update(layer_metrics(traced, metrics["wall_s"]))
        write_trace(run, traced)
    return metrics


def check_conservation(run: Run, traced: List[Dict[str, Any]]) -> None:
    """Layer self times must cover the traced wall within
    :data:`COVERAGE`, and every declared layer must record a call."""
    low, high = COVERAGE
    for result in traced:
        summary = result["summary"]
        covered = sum(entry["self_s"]
                      for entry in summary["layers"].values())
        share = covered / summary["wall_s"]
        if not low <= share <= high + 1e-9:
            run.fail(f"layer self times cover {share:.3f} of the traced "
                     f"wall, outside [{low}, {high}]")
        for declared in DECLARED_LAYERS[run.workload]:
            names = [n for n in summary["layer_names"]
                     if n == declared or (declared.endswith(".")
                                          and n.startswith(declared))]
            if not names:
                run.fail(f"declared layer {declared} unknown")
            for name in names:
                if summary["layers"].get(name, {}).get("calls", 0) < 1:
                    run.fail(f"layer {name} recorded no call")


def share_metric(layer: str) -> str:
    """Metric name of a layer's time share: ``<layer>_pct``, and
    ``figures.build_pct.<figure_id>`` for the figure builds."""
    if layer.startswith(layers.FIGURE_BUILD):
        return "figures.build_pct." + layer[len(layers.FIGURE_BUILD):]
    return layer + "_pct"


def layer_metrics(traced: List[Dict[str, Any]],
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of the traced passes.

    Layer times are shares of the traced wall (summed over passes): self
    time, except that a figure build counts everything it called, since
    a builder's own code is negligible and the question is which figure
    costs most. Counts come from the first traced pass, since every pass
    does the same work.
    """
    summaries = [p["summary"] for p in traced]
    wall = sum(s["wall_s"] for s in summaries)

    def share(name: str, key: str) -> float:
        return 100.0 * sum(s["layers"].get(name, {}).get(key, 0.0)
                           for s in summaries) / wall

    metrics: Dict[str, float] = {}
    covered = 0.0
    for name in summaries[0]["layer_names"]:
        covered += share(name, "self_s")
        metrics[share_metric(name)] = share(
            name, "total_s" if name.startswith(layers.FIGURE_BUILD)
            else "self_s")
    first = summaries[0]

    def calls(name: str) -> int:
        return first["layers"].get(name, {}).get("calls", 0)

    sim = first["simulator"]
    sim_s = first["layers"].get("core.simulate", {}).get("total_s", 0.0)
    dispatched = sim["scalar"] + sim["epoch"]
    loads = first["cache"]["loads"]
    traced_wall = statistics.median(s["wall_s"] for s in summaries)
    metrics.update({
        "preprocessing.calls": calls("preprocessing.preprocess"),
        "matrices.generate_calls": calls("matrices.generate"),
        "engine.cache_loads": loads,
        "engine.cache_stores": calls("engine.cache_store"),
        "engine.cache_hit_pct":
            100.0 * first["cache"]["hits"] / loads if loads else 0.0,
        "core.tasks": sim["tasks"],
        "core.sim_cycles": sim["cycles"],
        "core.tasks_per_s": sim["tasks"] / sim_s if sim_s else 0.0,
        "core.scalar_dispatch_pct":
            100.0 * sim["scalar"] / dispatched if dispatched else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
        "trace.unattributed_pct": 100.0 - covered,
    })
    for matrix, per in first["by_matrix"].items():
        batched = per.get("core.simulate", 0.0)
        ref = per.get("core.ref_simulate", 0.0)
        if batched and ref:
            metrics[f"core.ref_over_batched.{matrix}"] = ref / batched
    return metrics


def write_trace(run: Run, traced: List[Dict[str, Any]]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload}.json"
    path.write_text(json.dumps({
        "workload": run.workload, "seed": run.seed,
        "passes": [{"wall_s": p["wall_s"], "summary": p["summary"],
                    "spans": p["spans"]} for p in traced],
    }))
    run.extra["trace_file"] = str(path.relative_to(ROOT))


# ----------------------------------------------------------------------
# serve-zipf: the job server under open-loop HTTP load
# ----------------------------------------------------------------------
def run_serve(run: Run) -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve.loadgen import build_schedule

    connections = min(2, os.cpu_count() or 1)
    step_s = max(0.5, (run.seconds - COLD_REQUESTS / COLD_RATE)
                 / len(LADDER_RATES))
    cold_schedule = build_schedule(
        seed=run.seed, requests=COLD_REQUESTS,
        mean_gap_ms=1000.0 / COLD_RATE)
    ladder_schedules = {
        rate: build_schedule(seed=run.seed * 10 + step + 1,
                             requests=round(rate * step_s),
                             mean_gap_ms=1000.0 / rate)
        for step, rate in enumerate(LADDER_RATES, start=1)
    }
    setups = []
    for _ in range(SERVER_STARTS - 1):
        probe = serveload.Server(ROOT, run.env(run.fresh_dir("cache")))
        try:
            setups.append(probe.start())
        finally:
            for problem in probe.stop()[1]:
                run.fail(problem)
    server = serveload.Server(ROOT, run.env(run.fresh_dir("cache")))
    try:
        setups.append(server.start())
        before = serveload.metrics_snapshot(server)
        cold = serveload.run_phase(server, cold_schedule, connections)
        ladder = {rate: serveload.run_phase(server, schedule, connections)
                  for rate, schedule in ladder_schedules.items()}
        after = serveload.metrics_snapshot(server)
    finally:
        rss_mb, problems = server.stop()
        for problem in problems:
            run.fail(problem)

    phases = [cold, *ladder.values()]
    check_serve_fingerprints(run, phases)
    run.attempted += sum(len(p.latencies_ms) + p.failed for p in phases)
    for phase in phases:
        if phase.failed:
            run.fail(f"{phase.failed} request(s) refused or failed",
                     phase.failed)
    steady = ladder[REPORTED_RATE]
    wall_s = statistics.median(steady.latencies_ms) / 1000.0
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall_s,
               "peak_rss_mb": rss_mb, "trace.wall_s": wall_s}
    metrics.update(serve_metrics(cold, ladder, before, after))
    run.extra["setups_s"] = setups
    run.extra["latency_ms"] = {
        "cold": _latency_summary(cold),
        **{str(rate): _latency_summary(p) for rate, p in ladder.items()},
    }
    return metrics


def _latency_summary(phase: serveload.Phase) -> Dict[str, Any]:
    n = len(phase.latencies_ms) + phase.failed
    tail = stats.tail_quantile(n)
    summary = {"samples": n, "p50": phase.tail_ms(0.5),
               "offered_rps": phase.offered_rps,
               "achieved_rps": phase.achieved_rps,
               "generator_late_p99": stats.percentile(phase.late_ms, 0.99)}
    if tail is not None and tail > 0.5:
        summary[f"p{tail * 100:g}"] = phase.tail_ms(tail)
    return summary


def check_serve_fingerprints(run: Run,
                             phases: List[serveload.Phase]) -> None:
    """Every ``done`` response must carry the fingerprint a serial
    ``execute_point`` computes for its spec in a fresh cache."""
    specs = {}
    for phase in phases:
        for response in phase.responses:
            specs[response["key"]] = response["spec"]
    specs_file = run.work / "specs.json"
    specs_file.write_text(json.dumps(list(specs.values())))
    reference = spawn_worker(run, "serve-reference", run.fresh_dir("cache"),
                             "--specs", str(specs_file))["fingerprints"]
    for phase in phases:
        for response in phase.responses:
            if response["fingerprint"] != reference.get(response["key"]):
                run.fail(f"job {response['id']} ({response['key']}): "
                         "fingerprint differs from serial execute_point")


def serve_metrics(cold: serveload.Phase,
                  ladder: Dict[int, serveload.Phase],
                  before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
    def delta(section: str, key: str) -> int:
        return after[section][key] - before[section][key]

    lookups = delta("store", "l1_hits") + delta("store", "l1_misses")
    l2_lookups = delta("store", "l2_hits") + delta("store", "l2_misses")
    submitted = delta("jobs", "submitted")
    metrics = {
        "serve.l1_hit_pct":
            100.0 * delta("store", "l1_hits") / lookups if lookups else 0.0,
        "serve.l2_hit_pct":
            100.0 * delta("store", "l2_hits") / l2_lookups
            if l2_lookups else 0.0,
        "serve.coalesced_pct":
            100.0 * delta("coalesce", "riders") / submitted
            if submitted else 0.0,
        "serve.computed": delta("jobs", "computed"),
        "serve.rejected": sum(delta("admission", key)
                              for key in after["admission"]),
        "serve.cold_miss_pct": _miss_pct(cold),
        "serve.max_rate_rps": max(
            [rate for rate, phase in ladder.items() if phase.meets()],
            default=0),
        "serve.generator_late_pct": 100.0 * sum(
            late > 1.0 for p in ladder.values() for late in p.late_ms)
        / sum(len(p.late_ms) for p in ladder.values()),
    }
    for rate, phase in ladder.items():
        metrics[f"serve.achieved_rps.{rate}"] = phase.achieved_rps
        metrics[f"serve.miss_pct.{rate}"] = _miss_pct(phase)
    return metrics


def _miss_pct(phase: serveload.Phase) -> float:
    """Share of requests over the latency limit, failures included."""
    missed = phase.failed + sum(
        latency > serveload.LIMIT_MS for latency in phase.latencies_ms)
    return 100.0 * missed / (len(phase.latencies_ms) + phase.failed)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Run:
    run = Run(workload, seed, seconds, trace)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve-zipf":
            run.metrics = run_serve(run)
        else:
            run.metrics = run_passes(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return run


def select_metrics(run: Run, declared: List[Dict]) -> Dict[str, Dict]:
    """The declared metrics with their units; layers a workload never
    reaches read 0."""
    selected = {}
    for metric in declared:
        value = run.metrics.get(metric["name"], 0.0)
        if "bound" in metric and not value > 0:
            raise BenchError(f"{metric['name']} measured {value}")
        selected[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return selected


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    runs: Dict[str, Dict[str, List[float]]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        per = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return runs


def agree_command(paths: List[str], spec: Dict) -> int:
    rows = stats.agree(load_runs(paths[0]), load_runs(paths[1]),
                       spec["end_to_end"])
    print(f"{'workload':20s} {'metric':12s} {'median A':>11s} "
          f"{'median B':>11s} {'spread A':>8s} {'spread B':>8s} "
          f"{'worse':>7s} {'bound':>5s}  status")
    for row in rows:
        if row["status"] == "missing":
            print(f"{row['workload']:20s} {row['metric']:12s} missing")
            continue
        print(f"{row['workload']:20s} {row['metric']:12s} "
              f"{row['median_a']:11.5g} {row['median_b']:11.5g} "
              f"{row['spread_a']:8.3f} {row['spread_b']:8.3f} "
              f"{row['worse']:+7.3f} {row['bound']:5.2f}  {row['status']}")
    return 0 if all(r["status"] == "agree" for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(OUT_DIR / "results.jsonl"))
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.agree:
        return agree_command(args.agree, spec)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict] = {}
    for workload in workloads:
        try:
            run = run_workload(workload, args.seed, seconds,
                               bool(args.trace))
            selected = select_metrics(run, declared)
        except (BenchError, serveload.ServerError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        for failure in run.failures:
            print(f"FAIL {workload}: {failure}", file=sys.stderr)
        correct = correct and not run.failures
        attempted += run.attempted
        failed += run.failed
        for name, metric in selected.items():
            print(f"{workload} {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            metrics[key] = metric
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": workload, "seed": args.seed,
                "seconds": seconds, "trace": args.trace,
                "correct": not run.failures, "attempted": run.attempted,
                "failed": run.failed, "failures": run.failures,
                "metrics": selected, "extra": run.extra,
            }) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
