"""SpGEMM-as-a-service: async job server over the engine registry.

The serving tier turns the repo's one-shot experiment machinery into a
long-lived service — the same :func:`~repro.engine.sweep.execute_point`
and the same checksum-validated disk cache, fronted by an asyncio HTTP
job API with request coalescing, an L1/L2 tiered result store, bounded
admission, and graceful drain-and-checkpoint shutdown. Its test
harness (:mod:`repro.serve.loadgen` plus the chaos/property suites)
drives thousands of simulated clients against it deterministically.

* :mod:`repro.serve.jobs` — request validation and job lifecycle;
* :mod:`repro.serve.store` — L1 LRU + L2 disk cache + coalescing map;
* :mod:`repro.serve.server` — HTTP server, slot pool, admission,
  shutdown;
* :mod:`repro.serve.loadgen` — deterministic zipf-skewed load schedules
  and the in-process driver that replays them.
"""

from repro.serve.jobs import JOB_STATES, Job, JobSpec, JobValidationError
from repro.serve.loadgen import (
    build_population,
    build_schedule,
    run_schedule,
    summarize_results,
)
from repro.serve.server import (
    JobServer,
    ServerConfig,
    SlotPool,
    http_request,
    run_service,
)
from repro.serve.store import (
    CoalescingMap,
    DiskBackend,
    LruCache,
    TieredStore,
)

__all__ = [
    "JOB_STATES",
    "Job",
    "JobServer",
    "JobSpec",
    "JobValidationError",
    "CoalescingMap",
    "DiskBackend",
    "LruCache",
    "ServerConfig",
    "SlotPool",
    "TieredStore",
    "build_population",
    "build_schedule",
    "http_request",
    "run_schedule",
    "run_service",
    "summarize_results",
]
