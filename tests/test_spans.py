"""Span recorder round-trip, cross-process merge, run-log schema, and
the recording overhead budget."""

import json
import multiprocessing
import os
import time

import pytest

from repro.obs import spans


@pytest.fixture(autouse=True)
def no_inherited_telemetry(monkeypatch):
    monkeypatch.delenv(spans.SPAN_DIR_ENV, raising=False)
    monkeypatch.delenv(spans.SPAN_SLOT_ENV, raising=False)
    yield
    spans.disable_current()


class TestRecorderRoundTrip:
    def test_span_and_instant_round_trip(self, tmp_path):
        path = tmp_path / "spans-1.jsonl"
        recorder = spans.SpanRecorder(path, role="parent", slot=None)
        recorder.instant("cache/hit", key="abc")
        recorder.span("sweep/point", 100.0, 100.5,
                      point="gamma:wiki-Vote:none", outcome="ok")
        recorder.close()
        records, torn = spans.read_span_file(path)
        assert torn == 0
        assert [r["type"] for r in records] == ["instant", "span"]
        instant, span = records
        assert instant["name"] == "cache/hit"
        assert instant["attrs"] == {"key": "abc"}
        assert instant["pid"] == os.getpid()
        assert span["ts"] == 100.0
        assert span["dur"] == pytest.approx(0.5)
        assert span["attrs"]["outcome"] == "ok"
        # seq is per-recorder monotonic (the merge tiebreaker).
        assert instant["seq"] < span["seq"]

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "spans-2.jsonl"
        spans.SpanRecorder(path, role="worker", slot=3).close()
        spans.SpanRecorder(path, role="worker", slot=3).close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["schema"] == spans.SPAN_SCHEMA_VERSION
        assert header["slot"] == 3

    def test_emit_is_noop_when_inactive(self, tmp_path):
        assert not spans.active()
        spans.emit_instant("cache/hit", key="x")  # must not raise
        spans.emit_span("sweep/point", 1.0, 2.0)
        assert list(tmp_path.iterdir()) == []


class TestEnvActivation:
    def test_enable_points_children_at_directory(self, tmp_path):
        spans.enable(tmp_path, role="parent")
        try:
            assert os.environ[spans.SPAN_DIR_ENV] == str(tmp_path)
            assert spans.active()
            spans.emit_instant("sweep/executed")
        finally:
            spans.disable()
        assert not spans.active()
        merged = spans.merge_directory(tmp_path)
        assert [r["name"] for r in merged["spans"]] == ["sweep/executed"]

    def test_worker_opens_own_file_from_env(self, tmp_path):
        """A spawned process inheriting the env records into its own
        spans-<pid>.jsonl with the slot from SPAN_SLOT_ENV."""
        ctx = multiprocessing.get_context("spawn")
        env_patch = {spans.SPAN_DIR_ENV: str(tmp_path),
                     spans.SPAN_SLOT_ENV: "2"}
        old = {k: os.environ.get(k) for k in env_patch}
        os.environ.update(env_patch)
        try:
            process = ctx.Process(target=_emit_in_child)
            process.start()
            process.join(60)
        finally:
            for key, value in old.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        assert process.exitcode == 0
        merged = spans.merge_directory(tmp_path)
        assert len(merged["spans"]) == 1
        record = merged["spans"][0]
        assert record["name"] == "child/event"
        assert record["slot"] == 2
        assert record["pid"] != os.getpid()


def _emit_in_child():
    from repro.obs import spans as child_spans

    child_spans.emit_instant("child/event")


class TestMergeAndRunLog:
    def _populate(self, tmp_path):
        a = spans.SpanRecorder(tmp_path / "spans-100.jsonl", slot=0)
        b = spans.SpanRecorder(tmp_path / "spans-200.jsonl", slot=1)
        a.pid, b.pid = 100, 200  # deterministic merge keys
        a.span("sweep/point", 10.0, 11.0, outcome="ok")
        b.span("sweep/point", 10.5, 12.0, outcome="ok")
        a.instant("cache/hit", key="k")
        a.close()
        b.close()

    def test_merge_orders_by_ts_pid_seq(self, tmp_path):
        self._populate(tmp_path)
        merged = spans.merge_directory(tmp_path)
        assert merged["source_files"] == 2
        assert merged["torn_lines"] == 0
        keys = [(r["ts"], r["pid"], r["seq"]) for r in merged["spans"]]
        assert keys == sorted(keys)
        # Remerging the same files yields the identical stream.
        assert spans.merge_directory(tmp_path) == merged

    def test_killed_worker_partial_file_is_tolerated(self, tmp_path):
        """A worker killed mid-write leaves a torn final line; the merge
        keeps the valid prefix and counts the tear."""
        self._populate(tmp_path)
        victim = tmp_path / "spans-200.jsonl"
        with open(victim, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "sweep/po')  # torn
        merged = spans.merge_directory(tmp_path)
        assert merged["torn_lines"] == 1
        assert len(merged["spans"]) == 3  # nothing valid was dropped

    def test_run_log_round_trip(self, tmp_path):
        self._populate(tmp_path)
        merged = spans.merge_directory(tmp_path)
        log = tmp_path / "run_log.jsonl"
        lines = spans.write_run_log(log, merged, plan_points=4)
        assert lines == len(merged["spans"]) + 1
        header, events = spans.read_run_log(log)
        assert header["kind"] == spans.RUN_LOG_KIND
        assert header["schema"] == spans.SPAN_SCHEMA_VERSION
        assert header["plan_points"] == 4
        assert events == merged["spans"]

    def test_run_log_rejects_bad_header_and_count(self, tmp_path):
        log = tmp_path / "run_log.jsonl"
        log.write_text('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="header"):
            spans.read_run_log(log)
        header = {"type": "header", "kind": spans.RUN_LOG_KIND,
                  "schema": spans.SPAN_SCHEMA_VERSION, "num_spans": 5}
        log.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="5 events"):
            spans.read_run_log(log)

    def test_count_by_name(self, tmp_path):
        self._populate(tmp_path)
        events = spans.merge_directory(tmp_path)["spans"]
        assert spans.count_by_name(events) == {
            "sweep/point": 2, "cache/hit": 1}
        assert spans.count_by_name(events, prefix="cache/") == {
            "cache/hit": 1}


#: Span recording may add at most this share to a compute-bound sweep.
OVERHEAD_BUDGET = 0.05


class TestOverheadBudget:
    """Spans stay near-free: the budget is bounded from the emit cost.

    Comparing the wall of a sweep with spans on and off would flake:
    the difference (~0.2%) is far below a shared machine's run-to-run
    spread. The bound instead multiplies the events one run records by
    the measured extra cost of recording each of them, over the wall of
    the same run with spans off.
    """

    def test_recording_costs_under_budget(self, tmp_path, monkeypatch):
        from repro.engine.sweep import SweepPoint, run_sweep
        from repro.matrices import suite

        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        plan = [SweepPoint("gamma", "wiki-Vote", "none"),
                SweepPoint("gamma", "wiki-Vote", "full"),
                SweepPoint("gamma", "poisson3Da", "none")]
        for point in plan:  # generate operands outside the timed runs
            suite.operands(point.matrix)

        walls = []
        for _ in range(3):
            start = time.perf_counter()
            assert run_sweep(plan, serial=True).complete
            walls.append(time.perf_counter() - start)
        wall_off = min(walls)

        spans.enable(tmp_path / "run")
        try:
            assert run_sweep(plan, serial=True).complete
        finally:
            spans.disable()
        events = spans.merge_directory(tmp_path / "run")["spans"]
        assert spans.count_by_name(events) == {
            "sweep/point": 3, "point/execute": 3, "sweep/executed": 3}

        def emit_cost(runs=200, repeat=3):
            """Best-of-``repeat`` seconds to emit the run's events once."""
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                for _ in range(runs):
                    for event in events:
                        if event["type"] == "span":
                            spans.emit_span(event["name"], event["ts"],
                                            event["ts"] + event["dur"],
                                            **event["attrs"])
                        else:
                            spans.emit_instant(event["name"],
                                               **event["attrs"])
                best = min(best, (time.perf_counter() - start) / runs)
            return best

        cost_off = emit_cost()
        spans.enable(tmp_path / "emit")
        try:
            cost_on = emit_cost()
        finally:
            spans.disable()
        overhead = (cost_on - cost_off) / wall_off
        assert overhead < OVERHEAD_BUDGET, (
            f"recording a run's {len(events)} events costs "
            f"{(cost_on - cost_off) * 1e6:.0f} us over its "
            f"{wall_off * 1e3:.0f} ms wall: {overhead:.1%} against the "
            f"{OVERHEAD_BUDGET:.0%} budget")
