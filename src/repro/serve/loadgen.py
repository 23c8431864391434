"""Deterministic load generation for the job server.

The load tests and the serving benchmark need *thousands* of simulated
clients whose traffic is reproducible down to the request: the schedule
— who asks for what, when — is a pure function of a seed, built from a
single ``random.Random`` stream and expressible as JSON (the golden
file ``tests/golden/loadgen_schedule.json`` pins it byte-for-byte).

Request popularity is zipf-skewed: spec ranked ``r`` (0-based) in the
population is drawn with weight ``1 / (r + 1) ** s``. That mirrors real
result-serving workloads (a few hot configurations, a long tail) and is
what makes the tiered store earn its keep — the acceptance bar is an
L1+L2 hit rate above 80% on the default mix.

Running a schedule is separate from building it. :func:`run_schedule`
replays one in-process, straight into
:meth:`~repro.serve.server.JobServer.submit`: each request is submitted
until admitted (honoring 429/503 ``Retry-After``) and awaited to its
terminal job state. There are no sockets and no timers, so a replay's
outcome (statuses, states, sources) is deterministic for a
deterministic server, which the chaos tests assert. The benchmark's
``serve-zipf`` workload times a ``repro serve`` process over HTTP with
its own client.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Sequence

#: Schedule schema version (bump when the JSON shape changes).
SCHEDULE_SCHEMA = 1

#: Default population axes (all gamma variants on the two fastest
#: suite matrices, plus the two baselines) — small enough that a CI
#: smoke run computes every distinct point at least once, skewed
#: enough that coalescing and both cache tiers all see traffic.
DEFAULT_MATRICES = ("wiki-Vote", "poisson3Da")
DEFAULT_MODELS = ("gamma", "mkl", "outerspace")
DEFAULT_VARIANTS = ("none", "reorder", "full")
DEFAULT_SEMIRINGS = ("arithmetic", "boolean")


def build_population(matrices: Sequence[str] = DEFAULT_MATRICES,
                     models: Sequence[str] = DEFAULT_MODELS,
                     variants: Sequence[str] = DEFAULT_VARIANTS,
                     semirings: Sequence[str] = DEFAULT_SEMIRINGS,
                     ) -> List[Dict[str, Any]]:
    """The ranked spec population (rank 0 = most popular under zipf).

    Gamma models cross matrices x variants x semirings; baseline models
    contribute one spec per matrix (they take no variant/semiring).
    """
    population: List[Dict[str, Any]] = []
    for matrix in matrices:
        for model in models:
            if model in ("gamma", "gamma-ideal"):
                for variant in variants:
                    for semiring in semirings:
                        population.append({
                            "matrix": matrix, "model": model,
                            "variant": variant, "semiring": semiring,
                        })
            else:
                population.append({"matrix": matrix, "model": model})
    return population


def build_schedule(seed: int = 0,
                   requests: int = 200,
                   clients: int = 20,
                   zipf_s: float = 1.2,
                   mean_gap_ms: float = 5.0,
                   matrices: Sequence[str] = DEFAULT_MATRICES,
                   models: Sequence[str] = DEFAULT_MODELS,
                   variants: Sequence[str] = DEFAULT_VARIANTS,
                   semirings: Sequence[str] = DEFAULT_SEMIRINGS,
                   ) -> Dict[str, Any]:
    """A reproducible request schedule: pure function of the arguments.

    Each request carries an issue offset ``at_ms`` (exponential
    inter-arrivals of mean ``mean_gap_ms``, rounded to microseconds so
    the JSON round-trips exactly), a client id, and a job-spec payload
    drawn zipf-skewed from the population.
    """
    rng = random.Random(seed)
    population = build_population(matrices, models, variants, semirings)
    weights = [1.0 / (rank + 1) ** zipf_s
               for rank in range(len(population))]
    at_ms = 0.0
    entries: List[Dict[str, Any]] = []
    for index in range(requests):
        at_ms += rng.expovariate(1.0 / mean_gap_ms) if mean_gap_ms else 0.0
        spec = rng.choices(population, weights=weights, k=1)[0]
        entries.append({
            "i": index,
            "client": f"c{rng.randrange(clients):04d}",
            "at_ms": round(at_ms, 3),
            "spec": dict(spec),
        })
    return {
        "schema": SCHEDULE_SCHEMA,
        "params": {
            "seed": seed, "requests": requests, "clients": clients,
            "zipf_s": zipf_s, "mean_gap_ms": mean_gap_ms,
            "matrices": list(matrices), "models": list(models),
            "variants": list(variants), "semirings": list(semirings),
        },
        "requests": entries,
    }


def summarize_results(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-request outcomes into the report the tests consume;
    deterministic for a deterministic server run."""
    statuses: Dict[str, int] = {}
    sources: Dict[str, int] = {}
    states: Dict[str, int] = {}
    resubmits = 0
    for result in results:
        status = str(result["status"])
        statuses[status] = statuses.get(status, 0) + 1
        if result.get("source"):
            sources[result["source"]] = sources.get(result["source"], 0) + 1
        if result.get("state"):
            states[result["state"]] = states.get(result["state"], 0) + 1
        resubmits += result.get("resubmits", 0)
    return {
        "requests": len(results),
        "statuses": dict(sorted(statuses.items())),
        "states": dict(sorted(states.items())),
        "sources": dict(sorted(sources.items())),
        "resubmits": resubmits,
    }


async def _drive_one(server, entry: Dict[str, Any],
                     max_attempts: int, time_scale: float,
                     job_timeout: float) -> Dict[str, Any]:
    """Submit one scheduled request until accepted (honoring
    ``Retry-After``) and await its terminal payload."""
    resubmits = 0
    status, payload = 0, None
    for attempt in range(max_attempts):
        status, payload = await server.submit_and_wait(
            entry["spec"], client=entry["client"], timeout=job_timeout)
        if status not in (429, 503):
            break
        resubmits += 1
        if attempt + 1 < max_attempts:
            retry_after = server.config.retry_after_seconds
            await asyncio.sleep(max(retry_after, 0.001) * time_scale
                                if time_scale else 0.001)
    result: Dict[str, Any] = {
        "i": entry["i"], "client": entry["client"], "status": status,
        "resubmits": resubmits,
    }
    if isinstance(payload, dict) and "state" in payload:
        result["state"] = payload["state"]
        result["source"] = payload.get("source")
        result["key"] = payload.get("key")
        if payload.get("fingerprint") is not None:
            result["fingerprint"] = payload["fingerprint"]
        if payload.get("error") is not None:
            result["error"] = payload["error"]
    elif isinstance(payload, dict) and "error" in payload:
        result["error"] = payload["error"]
    return result


async def run_schedule(server, schedule: Dict[str, Any],
                       time_scale: float = 0.0,
                       max_attempts: int = 8,
                       job_timeout: float = 300.0,
                       ) -> List[Dict[str, Any]]:
    """Replay a schedule straight into an in-process
    :class:`~repro.serve.server.JobServer` (no sockets).

    Every request runs concurrently from its issue instant.
    ``time_scale`` scales the schedule's arrival offsets (0 = issue as
    fast as admission allows — the chaos tests' mode, maximizing
    coalescing pressure).
    """
    origin = time.perf_counter()
    tasks = []
    for entry in schedule["requests"]:
        if time_scale:
            delay = entry["at_ms"] / 1000.0 * time_scale
            elapsed = time.perf_counter() - origin
            if delay > elapsed:
                await asyncio.sleep(delay - elapsed)
        tasks.append(asyncio.ensure_future(_drive_one(
            server, entry, max_attempts, time_scale, job_timeout)))
    return list(await asyncio.gather(*tasks))
