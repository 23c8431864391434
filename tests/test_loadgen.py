"""Load-generator suite: schedule determinism, the golden schedule,
and an end-to-end replay against an in-process server.

The schedule is the part of a load test that must be *exactly*
reproducible — ``tests/golden/loadgen_schedule.json`` pins one
representative schedule byte-for-byte, so any drift in the RNG
discipline (draw order, zipf weighting, rounding) fails here instead of
silently changing every chaos/bench run.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_loadgen.py --regenerate

and justify the new golden file in the commit message.
"""

import asyncio
import json
import pathlib
import sys

import pytest

from repro.serve import (
    JobServer,
    ServerConfig,
    build_population,
    build_schedule,
    run_schedule,
    summarize_results,
)

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "loadgen_schedule.json")

#: The pinned schedule's parameters (small but fully featured: zipf
#: skew, multiple clients, gamma + baseline population).
GOLDEN_PARAMS = dict(
    seed=2024, requests=32, clients=6, zipf_s=1.2, mean_gap_ms=5.0,
    matrices=("wiki-Vote",), models=("gamma", "mkl"),
    variants=("none", "reorder"),
    semirings=("arithmetic", "boolean"))


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        assert build_schedule(seed=7) == build_schedule(seed=7)

    def test_different_seed_different_schedule(self):
        a = build_schedule(seed=7)["requests"]
        b = build_schedule(seed=8)["requests"]
        assert a != b

    def test_schedule_roundtrips_through_json(self):
        schedule = build_schedule(**GOLDEN_PARAMS)
        assert json.loads(json.dumps(schedule)) == schedule

    def test_population_shape(self):
        population = build_population(**{
            k: GOLDEN_PARAMS[k]
            for k in ("matrices", "models", "variants", "semirings")})
        # 1 matrix x (2 variants x 2 semirings) gamma + 1 mkl
        assert len(population) == 5
        assert population[0]["model"] == "gamma"  # hot rank is gamma
        # zipf skew: the hot rank takes more than a uniform share
        requests = build_schedule(**GOLDEN_PARAMS)["requests"]
        hottest = sum(entry["spec"] == population[0] for entry in requests)
        assert hottest > len(requests) / len(population)


class TestGoldenSchedule:
    def test_matches_golden_file(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = build_schedule(**GOLDEN_PARAMS)
        assert current == golden, (
            "loadgen schedule drifted from tests/golden/"
            "loadgen_schedule.json — the RNG discipline changed. If the "
            "change is intentional, regenerate with PYTHONPATH=src "
            "python tests/test_loadgen.py --regenerate")


class TestSummarize:
    def test_summarize_results(self):
        results = [
            {"i": 0, "client": "a", "status": 200, "state": "done",
             "source": "l1", "resubmits": 0},
            {"i": 1, "client": "b", "status": 202, "state": "done",
             "source": "computed", "resubmits": 2},
            {"i": 2, "client": "c", "status": 400, "resubmits": 0},
        ]
        summary = summarize_results(results)
        assert summary["requests"] == 3
        assert summary["statuses"] == {"200": 1, "202": 1, "400": 1}
        assert summary["sources"] == {"computed": 1, "l1": 1}
        assert summary["resubmits"] == 2

    def test_summarize_empty(self):
        summary = summarize_results([])
        assert summary["requests"] == 0
        assert summary["statuses"] == summary["sources"] == {}


class TestReplay:
    @pytest.mark.timeout(300)
    def test_golden_schedule_replays_deterministically(self, tmp_path,
                                                       monkeypatch):
        """Replaying the pinned schedule in-process: every request
        terminates 'done', the outcome mix is deterministic, and the
        zipf skew earns an aggregate reuse rate above the acceptance
        bar. A restarted server (L1 empty, L2 on disk) then serves the
        same schedule without computing anything."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        schedule = json.loads(GOLDEN_PATH.read_text())

        async def replay():
            server = JobServer(ServerConfig(
                workers=0, queue_depth=32, per_client_limit=32,
                retry_after_seconds=0.05))
            await server.start()
            results = await run_schedule(server, schedule,
                                         time_scale=0.0)
            metrics = server.metrics_payload()
            await server.shutdown()
            return results, metrics["jobs"]

        def reused(jobs):
            return jobs["coalesced"] + jobs["hits_l1"] + jobs["hits_l2"]

        results, jobs = asyncio.run(replay())
        summary = summarize_results(results)
        assert summary["requests"] == 32
        assert summary["states"] == {"done": 32}
        assert set(summary["statuses"]) <= {"200", "202"}
        # with 32 requests over <=5 distinct specs, reuse dominates:
        # everything after the first computation of a spec is a
        # coalesced join or a store hit
        distinct = len({json.dumps(entry["spec"], sort_keys=True)
                        for entry in schedule["requests"]})
        assert jobs["computed"] == distinct
        assert reused(jobs) == 32 - distinct
        assert reused(jobs) / 32 > 0.8  # the acceptance bar

        # the restart: a new server on the same cache directory
        results, jobs = asyncio.run(replay())
        assert summarize_results(results)["states"] == {"done": 32}
        assert jobs["computed"] == 0
        assert jobs["hits_l2"] == distinct
        assert reused(jobs) / 32 >= 0.8  # the steady-state bar


def regenerate():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    schedule = build_schedule(**GOLDEN_PARAMS)
    GOLDEN_PATH.write_text(json.dumps(schedule, indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} "
          f"({len(schedule['requests'])} requests)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        sys.path.insert(0, str(
            pathlib.Path(__file__).resolve().parents[1] / "src"))
        regenerate()
    else:
        print("usage: python tests/test_loadgen.py --regenerate",
              file=sys.stderr)
        sys.exit(2)
