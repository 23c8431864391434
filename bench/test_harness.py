"""Tests of the benchmark harness itself: ``python -m pytest bench/``."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import serveload
import stats
import worker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Percentiles and spreads
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 1201))  # 1..1200, shuffled order irrelevant
    assert stats.percentile(values[::-1], 0.5) == 600
    assert stats.percentile(values, 0.99) == 1188  # 12 samples beyond
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_quantile_keeps_ten_samples_beyond():
    assert stats.tail_quantile(1200) == 0.99
    assert stats.tail_quantile(400) == 0.9  # p99 would leave only 4
    assert stats.tail_quantile(100) == 0.9
    assert stats.tail_quantile(99) == 0.5
    assert stats.tail_quantile(15) is None


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread([3.0]) == 0.0


def test_worsening_respects_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_agree_statuses():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.1},
               {"name": "setup_s", "better": "lower", "bound": 0.1}]
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    runs_a = {"w": {"wall_s": steady, "setup_s": [1, 2, 3, 4, 5]}}
    runs_b = {"w": {"wall_s": [x * 1.05 for x in steady]},
              "v": {"wall_s": steady}}
    rows = {(r["workload"], r["metric"]): r["status"]
            for r in stats.agree(runs_a, runs_b, metrics)}
    assert rows[("w", "wall_s")] == "agree"
    assert rows[("w", "setup_s")] == "missing"
    assert rows[("v", "wall_s")] == "missing"
    slower = {"w": {"wall_s": [x * 1.2 for x in steady]}}
    (row,) = stats.agree(runs_a, slower, metrics[:1])
    assert row["status"] == "disagree"
    noisy = {"w": {"wall_s": [0.5, 1.0, 1.5, 2.0, 1.0]}}
    (row,) = stats.agree(runs_a, noisy, metrics[:1])
    assert row["status"] == "unresolved"


def test_agree_command_reads_run_sets(tmp_path, capsys):
    def write(path, walls):
        lines = [json.dumps({
            "workload": "w", "trace": 0,
            "metrics": {"wall_s": {"value": v, "unit": "s"}}})
            for v in walls]
        lines.append(json.dumps({  # traced runs are ignored
            "workload": "w", "trace": 1,
            "metrics": {"wall_s": {"value": 99.0, "unit": "s"}}}))
        path.write_text("\n".join(lines) + "\n")

    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    write(tmp_path / "a.jsonl", [1.0, 1.01, 0.99])
    write(tmp_path / "b.jsonl", [1.02, 1.0, 1.01])
    write(tmp_path / "c.jsonl", [1.5, 1.51, 1.49])
    paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    assert run.agree_command(paths, spec) == 0
    assert "agree" in capsys.readouterr().out
    paths[1] = str(tmp_path / "c.jsonl")
    assert run.agree_command(paths, spec) == 1


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nesting_and_self_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(0.5)
        clock.now += 0.25

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_middle()
    clock.now += 3.0  # untraced time between calls
    traced_leaf(1.0)

    spans = tracer.spans
    assert [s["layer"] for s in spans] == ["middle", "leaf", "leaf",
                                           "leaf"]
    assert [s["parent"] for s in spans] == [None, 0, 0, None]
    assert layers.self_times(spans) == pytest.approx(
        [1.25, 2.0, 0.5, 1.0])
    summary = layers.summarize(spans, wall=clock.now)
    assert summary["layers"]["middle"] == pytest.approx(
        {"calls": 1, "total_s": 3.75, "self_s": 1.25})
    assert summary["layers"]["leaf"]["calls"] == 3
    covered = sum(e["self_s"] for e in summary["layers"].values())
    assert covered == pytest.approx(3.75 + 1.0)  # top-level spans only


def test_tracer_closes_span_when_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.spans
    assert span["end"] - span["start"] == 1.0
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans[1]["parent"] is None


def test_summarize_attributes_simulator_time_to_matrices():
    spans = [
        {"layer": "engine.execute_point", "parent": None, "start": 0.0,
         "end": 4.0, "attrs": {"matrix": "m", "model": "gamma"}},
        {"layer": "core.simulate", "parent": 0, "start": 0.5, "end": 3.5,
         "attrs": {"cycles": 10.0, "tasks": 4, "scalar": 1, "epoch": 3}},
        {"layer": "engine.execute_point", "parent": None, "start": 4.0,
         "end": 6.0, "attrs": {"matrix": "m", "model": "gamma-ref"}},
        {"layer": "core.ref_simulate", "parent": 2, "start": 4.0,
         "end": 5.5, "attrs": {"cycles": 10.0, "tasks": 4, "scalar": 4,
                               "epoch": 0}},
    ]
    summary = layers.summarize(spans, wall=6.0)
    assert summary["by_matrix"]["m"] == pytest.approx(
        {"core.simulate": 3.0, "core.ref_simulate": 1.5})
    assert summary["simulator"] == {"cycles": 10.0, "tasks": 4,
                                    "scalar": 1, "epoch": 3}


def test_layer_metrics_shares_and_ratio():
    summary = layers.summarize([
        {"layer": "engine.execute_point", "parent": None, "start": 0.0,
         "end": 4.0, "attrs": {"matrix": "m", "model": "gamma"}},
        {"layer": "core.simulate", "parent": 0, "start": 0.0, "end": 2.0,
         "attrs": {"cycles": 5.0, "tasks": 8, "scalar": 0, "epoch": 8}},
        {"layer": "core.ref_simulate", "parent": None, "start": 4.0,
         "end": 5.0, "attrs": {"cycles": 5.0, "tasks": 8, "scalar": 8,
                               "epoch": 0}},
    ], wall=5.0)
    summary["layers"]["figures.build.x"] = {"calls": 1, "total_s": 1.0,
                                            "self_s": 0.0}
    summary["layer_names"] = ["engine.execute_point", "core.simulate",
                              "core.ref_simulate", "figures.build.x"]
    metrics = run.layer_metrics([{"summary": summary}], untraced_wall=4.0)
    assert metrics["engine.execute_point_pct"] == pytest.approx(40.0)
    assert metrics["core.simulate_pct"] == pytest.approx(40.0)
    assert metrics["figures.build_pct.x"] == pytest.approx(20.0)  # total
    assert metrics["trace.unattributed_pct"] == pytest.approx(0.0)
    assert metrics["trace.overhead_pct"] == pytest.approx(25.0)
    assert metrics["core.tasks_per_s"] == pytest.approx(4.0)
    assert "core.ref_over_batched.m" not in metrics  # ref ran outside m


def test_conservation_flags_gaps_and_silent_layers():
    summary = {"wall_s": 10.0, "layer_names": ["core.simulate",
                                               "matrices.generate"],
               "layers": {"core.simulate": {"calls": 2, "self_s": 5.0,
                                            "total_s": 5.0}}}
    bad = run.Run("sim-deep-tree", 0, 1.0, True)
    run.check_conservation(bad, [{"summary": summary}])
    assert any("cover 0.500" in f for f in bad.failures)
    assert any("matrices.generate recorded no call" in f
               for f in bad.failures)


def test_install_rebinds_every_caller():
    """In a fresh interpreter: the wrapped callables are the ones callers
    resolve, and a real point records nested spans."""
    script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import layers
tracer = layers.Tracer()
layers.install(tracer)
from repro.engine import sweep
from repro.experiments import runner
from repro import engine
assert engine.execute_point is sweep.execute_point is runner.execute_point
import repro.preprocessing as pre
from repro.preprocessing import pipeline
assert pre.affinity_reorder is pipeline.affinity_reorder
engine.execute_point(engine.SweepPoint("gamma", "wiki-Vote", "full"))
summary = layers.summarize(tracer.spans, 1.0)
names = set(summary["layers"])
assert {{"engine.execute_point", "core.simulate", "preprocessing.reorder",
         "matrices.generate", "engine.cache_store"}} <= names, names
assert len(layers.layer_names()) == len(layers.LAYERS) + 17
"""
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_NO_DISK_CACHE": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# BENCHMARK.json and the metrics the harness produces
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(run.DECLARED_LAYERS) | {"serve-zipf"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    summary = layers.summarize([], 1.0)
    summary["layer_names"] = layers.layer_names()
    summary["by_matrix"] = {m: {"core.simulate": 1.0,
                                "core.ref_simulate": 1.0}
                            for m, _, _ in worker.DEEP_TREE_POINTS}
    produced = set(run.layer_metrics([{"summary": summary}], 1.0))
    cold, phase = serveload.Phase(1.0), serveload.Phase(1.0)
    for p in (cold, phase):
        p.latencies_ms, p.late_ms = [1.0], [0.0]
    snapshot = {"store": {"l1_hits": 0, "l1_misses": 0, "l2_hits": 0,
                          "l2_misses": 0},
                "coalesce": {"riders": 0}, "jobs": {"submitted": 0,
                                                    "computed": 0},
                "admission": {"rejected_queue_full": 0}}
    produced |= set(run.serve_metrics(
        cold, {r: phase for r in run.LADDER_RATES}, snapshot, snapshot))
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= produced, sorted(declared - produced)


def test_select_metrics_refuses_zero_end_to_end():
    measured = run.Run("w", 0, 1.0, False)
    measured.metrics = {"wall_s": 1.5}
    declared = [{"name": "wall_s", "unit": "s", "bound": 0.1},
                {"name": "x_pct", "unit": "%", "better": "lower"}]
    assert run.select_metrics(measured, declared) == {
        "wall_s": {"value": 1.5, "unit": "s"},
        "x_pct": {"value": 0.0, "unit": "%"}}
    measured.metrics = {}
    with pytest.raises(run.BenchError):
        run.select_metrics(measured, declared)


# ----------------------------------------------------------------------
# The serve load client, end to end against a real server (about a second)
# ----------------------------------------------------------------------
def test_serve_load_round_trip(tmp_path):
    from repro.serve.loadgen import build_schedule

    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    server = serveload.Server(ROOT, env)
    try:
        setup = server.start()
        children = server.children()
        before = serveload.metrics_snapshot(server)
        schedule = build_schedule(seed=3, requests=30, mean_gap_ms=20.0,
                                  matrices=("wiki-Vote",),
                                  models=("mkl",))
        phase = serveload.run_phase(server, schedule, connections=2)
        after = serveload.metrics_snapshot(server)
    finally:
        rss_mb, problems = server.stop()
    assert setup > 0 and rss_mb > 0
    assert problems == []
    assert children, "the --workers 1 slot process should exist"
    assert not any(serveload._alive(pid) for pid in children)
    assert phase.failed == 0 and len(phase.latencies_ms) == 30
    assert all(r["state"] == "done" and r["fingerprint"]
               for r in phase.responses)
    assert len(phase.late_ms) == 30 and phase.achieved_rps > 0
    assert after["jobs"]["submitted"] - before["jobs"]["submitted"] == 30
    assert after["jobs"]["computed"] - before["jobs"]["computed"] == 1
