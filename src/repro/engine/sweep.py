"""Sweep planner and fault-tolerant process-parallel executor.

The paper's figures are a cross-product — models x matrices x
preprocessing variants x hardware configs (Figs. 10-25) — and each point
is independent, so the sweep engine enumerates them as
:class:`SweepPoint` values, skips the ones already in the disk cache, and
executes the misses across worker processes. The disk cache is the
cross-process result store: workers write records atomically and
checksum-validated (see :mod:`repro.engine.diskcache`), so a crashed or
raced sweep never leaves torn entries and a re-run only pays for what is
missing.

Campaign-scale sweeps (thousands of points) cannot afford one bad point
taking the run down, so execution is governed by a :class:`SweepPolicy`:

* **timeouts** — a point that exceeds ``timeout_seconds`` has its worker
  process killed (the only reliable cancellation for a hung or wedged
  native call) and the slot respawned;
* **bounded retries** — failed attempts (crash, hard worker death,
  timeout, exception) are retried up to ``max_retries`` times with
  exponential backoff and deterministic jitter;
* **quarantine** — a point that exhausts its retries is quarantined with
  its failure history and the sweep *completes*, returning partial
  results (:class:`SweepResult`) instead of aborting;
* **checkpoint/resume** — progress and quarantine state persist through
  the disk cache, so an interrupted sweep resumed with ``resume=True``
  (CLI ``--resume``) recomputes nothing already cached and does not
  re-burn retries on points already known bad.

``execute_point`` is the single entry point for evaluating one point; the
serial facade (:class:`repro.experiments.ExperimentRunner`) and the
parallel workers both go through it, which is what makes parallel,
retried, or resumed execution produce byte-identical records to a cold
serial run — the guarantee the chaos suite (``tests/test_chaos.py``)
enforces under injected faults.

When telemetry is active (:mod:`repro.obs.spans`, CLI ``--trace-dir``)
the engine publishes its whole lifecycle into the span stream: a
``sweep/point`` span per attempt (parent side, carrying slot/outcome), a
``point/execute`` span per computed point (worker side), ``sweep/<stat>``
instants mirroring every ``SweepResult.stats`` increment (emitted at the
single place the stat increments, so counts agree exactly),
``sweep/backoff`` delays, ``sweep/timeout_kill``, and ``sweep/checkpoint``
writes. ``collect_metrics=True`` (CLI ``--metrics``) additionally attaches
a :class:`~repro.obs.MetricsRegistry` to every computed point and stores
the blob on its record for the fleet roll-up. Both are strictly opt-in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.config import CpuConfig, GammaConfig
from repro.engine import diskcache, faults
from repro.engine.defaults import (
    PREPROCESS_VARIANTS,
    preprocess_config_key,
    preprocess_options,
)
from repro.engine.record import (
    RunRecord,
    _config_from_payload,
    _config_payload,
)
from repro.engine.registry import (GAMMA_MODELS, SIMULATOR_MODELS,
                                   available_models, default_config_for,
                                   get_model)
from repro.obs import spans

#: Environment flag that tells workers to attach a MetricsRegistry to
#: every point they compute (set by ``run_sweep(collect_metrics=True)``
#: so the instruction crosses process boundaries with zero protocol
#: changes; unset means the default no-instrumentation fast path).
METRICS_ENV = "REPRO_SWEEP_METRICS"

#: Models evaluated by the paper's headline figures (MatRaptor is an
#: extension and is opted into explicitly).
DEFAULT_MODELS = ("gamma", "ip", "outerspace", "sparch", "mkl")

#: Variants the headline figures need ('G' and 'GP' bars).
DEFAULT_VARIANTS = ("none", "full")


#: The semiring every sweep/figure point runs under; non-default
#: semirings are a serving-tier feature and key their cache entries
#: separately (see :func:`record_key`).
DEFAULT_SEMIRING = "arithmetic"

#: The mask mode every sweep/figure point runs under; masked products
#: (:mod:`repro.apps.masked`) key their cache entries separately.
DEFAULT_MASK = "none"

#: The operand shape axis default: SpGEMM models take B as-is, and
#: ``gamma-spmv`` resolves it to its natural ``sparse-vector`` shape
#: (see :mod:`repro.baselines.spmv`).
DEFAULT_OPERAND = "matrix"


@dataclass(frozen=True)
class SweepPoint:
    """One (model, matrix, variant, config) evaluation to perform.

    ``config=None`` means the model's scaled experiment default; carrying
    the resolved config explicitly would bloat keys without changing
    results. ``variant``, ``multi_pe``, ``semiring``, and ``mask`` only
    affect the simulator models; ``semiring`` names a
    :data:`repro.semiring.STANDARD_SEMIRINGS` entry (the job server
    exposes it — sweeps always run the default), ``mask`` a
    :data:`repro.apps.masked.MASK_MODES` mode (the Gamma SpGEMM engines
    only), and ``operand`` a
    :data:`repro.baselines.spmv.OPERAND_SHAPES` vector shape
    (``gamma-spmv`` only).
    """

    model: str
    matrix: str
    variant: str = "none"
    config: Union[GammaConfig, CpuConfig, None] = None
    multi_pe: bool = True
    semiring: str = DEFAULT_SEMIRING
    mask: str = DEFAULT_MASK
    operand: str = DEFAULT_OPERAND

    def resolved_config(self) -> Union[GammaConfig, CpuConfig]:
        return self.config or default_config_for(self.model)

    def label(self) -> str:
        """Human-readable point name used in logs and failure reports."""
        text = f"{self.model}:{self.matrix}"
        if self.model in GAMMA_MODELS:
            text += f":{self.variant}"
        if self.model in SIMULATOR_MODELS:
            if self.semiring != DEFAULT_SEMIRING:
                text += f":{self.semiring}"
        if self.model in GAMMA_MODELS and self.mask != DEFAULT_MASK:
            text += f":mask-{self.mask}"
        if self.model == "gamma-spmv" and self.operand != DEFAULT_OPERAND:
            text += f":{self.operand}"
        return text


def record_key(point: SweepPoint) -> str:
    """The disk-cache key of a point's :class:`RunRecord`.

    The semiring, mask, and operand axes participate only when they are
    not the default, so every pre-existing cache entry (all keyed before
    the fields existed) stays addressable.
    """
    config = point.resolved_config()
    params = dict(
        model=point.model,
        matrix=point.matrix,
        variant=point.variant if point.model in GAMMA_MODELS else "",
        config=dataclasses.asdict(config),
        config_kind=type(config).__name__,
        multi_pe=(point.multi_pe if point.model in SIMULATOR_MODELS
                  else True),
    )
    if (point.model in SIMULATOR_MODELS
            and point.semiring != DEFAULT_SEMIRING):
        params["semiring"] = point.semiring
    if point.model in GAMMA_MODELS and point.mask != DEFAULT_MASK:
        params["mask"] = point.mask
    if point.model == "gamma-spmv" and point.operand != DEFAULT_OPERAND:
        params["operand"] = point.operand
    return diskcache.cache_key("record", **params)


def point_to_payload(point: SweepPoint) -> Dict:
    """JSON-compatible form of a point (checkpoint serialization)."""
    return {
        "model": point.model,
        "matrix": point.matrix,
        "variant": point.variant,
        "config": _config_payload(point.config),
        "multi_pe": point.multi_pe,
        "semiring": point.semiring,
        "mask": point.mask,
        "operand": point.operand,
    }


def point_from_payload(payload: Dict) -> SweepPoint:
    return SweepPoint(
        model=payload["model"],
        matrix=payload["matrix"],
        variant=payload.get("variant", "none"),
        config=_config_from_payload(payload.get("config")),
        multi_pe=payload.get("multi_pe", True),
        semiring=payload.get("semiring", DEFAULT_SEMIRING),
        mask=payload.get("mask", DEFAULT_MASK),
        operand=payload.get("operand", DEFAULT_OPERAND),
    )


# ----------------------------------------------------------------------
# Failure policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPolicy:
    """How a sweep responds to failing points.

    Attributes:
        timeout_seconds: Kill a worker whose point exceeds this wall
            clock (None disables; serial mode cannot cancel and ignores
            it). The killed attempt counts as a failure and retries.
        max_retries: Additional attempts after the first failure before a
            point is quarantined.
        backoff_base_seconds: First retry delay; attempt ``n`` waits
            ``base * 2**n``, capped at ``backoff_max_seconds``.
        backoff_max_seconds: Ceiling on any single retry delay.
        jitter_fraction: Each delay is stretched by up to this fraction,
            *deterministically* seeded from (point key, attempt) so runs
            remain reproducible while concurrent retries still spread out.
        fail_fast: Raise :class:`SweepPointError` on the first quarantine
            instead of completing with partial results (the pre-PR-4
            behavior, useful in tests that want hard failures).
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_base_seconds: float = 0.5
    backoff_max_seconds: float = 30.0
    jitter_fraction: float = 0.25
    fail_fast: bool = False

    def backoff_delay(self, key: str, attempt: int) -> float:
        """The wait before retry ``attempt`` (0-based) of point ``key``."""
        base = min(self.backoff_base_seconds * (2 ** attempt),
                   self.backoff_max_seconds)
        seed = int.from_bytes(
            hashlib.sha256(f"{key}:{attempt}".encode()).digest()[:8], "big")
        jitter = random.Random(seed).random() * self.jitter_fraction
        return base * (1.0 + jitter)


@dataclass
class PointFailure:
    """Why a point was quarantined (or is being retried)."""

    point: SweepPoint
    attempts: int
    reason: str  # 'crash' | 'timeout' | 'error' | 'previous-run'
    error: str = ""

    def to_payload(self) -> Dict:
        return {
            "point": point_to_payload(self.point),
            "attempts": self.attempts,
            "reason": self.reason,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "PointFailure":
        return cls(
            point=point_from_payload(payload["point"]),
            attempts=payload["attempts"],
            reason=payload["reason"],
            error=payload.get("error", ""),
        )


class SweepPointError(RuntimeError):
    """Raised under ``fail_fast`` when a point exhausts its retries."""

    def __init__(self, failure: PointFailure) -> None:
        super().__init__(
            f"sweep point {failure.point.label()} failed "
            f"({failure.reason}) after {failure.attempts} attempts: "
            f"{failure.error}")
        self.failure = failure


class SweepResult(Dict[SweepPoint, RunRecord]):
    """Sweep output: records for completed points plus failure state.

    A plain mapping (point -> record) for every point that succeeded —
    drop-in compatible with the pre-fault-tolerance dict return — with
    the partial-result bookkeeping on top:

    Attributes:
        quarantined: Points that exhausted their retries, with failure
            reasons; empty on a clean sweep.
        stats: Counter totals (``executed``, ``cached``, ``retries``,
            ``timeouts``, ``crashes``, ``errors``, ``quarantined``).
        provenance: Per completed point: where its record came from
            (``source``: 'cached' or 'computed'), how many attempts it
            took, and — for computed points — the wall-clock seconds.
            Prerequisite Gamma runs computed for baseline points appear
            too, so a run report can account for every evaluation.
    """

    def __init__(self) -> None:
        super().__init__()
        self.quarantined: Dict[SweepPoint, PointFailure] = {}
        self.stats: Dict[str, int] = {
            "executed": 0, "cached": 0, "retries": 0,
            "timeouts": 0, "crashes": 0, "errors": 0, "quarantined": 0,
        }
        self.provenance: Dict[SweepPoint, Dict] = {}

    @property
    def complete(self) -> bool:
        return not self.quarantined


# ----------------------------------------------------------------------
# Work programs (preprocessing output), cached like records
# ----------------------------------------------------------------------
_PROGRAM_MEMO: Dict[tuple, object] = {}


def cached_program(matrix: str, variant: str, config: GammaConfig):
    """Build (or recall) the preprocessed work program for a Gamma point.

    Keys on :func:`preprocess_config_key` — exactly the config fields the
    preprocessing pipeline reads — so PE-count/bandwidth sweeps share one
    program per (matrix, variant, cache size, radix). On disk a program
    is its items' nonzero offsets into A (:func:`program_slices`); an
    entry that fails validation is a miss, rebuilt and overwritten.
    """
    options = preprocess_options(variant)
    if options is None:
        return None
    config_fields = preprocess_config_key(config)
    memo_key = (matrix, variant, tuple(sorted(config_fields.items())))
    if memo_key in _PROGRAM_MEMO:
        return _PROGRAM_MEMO[memo_key]

    from repro.matrices import suite
    from repro.preprocessing import preprocess

    disk_key = program_key(matrix, variant, config)
    cached = diskcache.load(disk_key)
    program = None
    if cached is not None:
        program = program_from_slices(cached, suite.load(matrix))
    if program is None:
        a, b = suite.operands(matrix)
        program = preprocess(a, b, config, options)
        if diskcache.cache_enabled():
            diskcache.store(disk_key, program_slices(program))
    _PROGRAM_MEMO[memo_key] = program
    return program


def program_key(matrix: str, variant: str, config: GammaConfig) -> str:
    """Disk-cache key of a program in the slice encoding."""
    return diskcache.cache_key(
        "program-slices", matrix=matrix, variant=variant,
        **preprocess_config_key(config))


def program_slices(program) -> Dict:
    """A work program's cache payload: its items' ``(start, end)``
    nonzero offsets into A, in processing order, and A's shape. Rows,
    subrow numbering and values follow from A (see
    :func:`program_from_slices`)."""
    return {"starts": program.starts.tolist(),
            "ends": program.ends.tolist(),
            "num_rows": program.num_rows, "num_cols": program.num_cols}


def program_from_slices(payload: Dict, a):
    """Rebuild a program stored by :func:`program_slices` over A.

    Returns None — a cache miss — for a payload of another layout or
    shape, or slices :meth:`WorkProgram.from_slices` rejects.
    """
    from repro.core import WorkProgram

    try:
        starts = np.asarray(payload["starts"], dtype=np.int64)
        ends = np.asarray(payload["ends"], dtype=np.int64)
        shape = (payload["num_rows"], payload["num_cols"])
        if shape == a.shape:
            return WorkProgram.from_slices(a, starts, ends)
    except (KeyError, TypeError, ValueError):
        pass
    return None


# ----------------------------------------------------------------------
# Point execution (shared by the serial facade and parallel workers)
# ----------------------------------------------------------------------
def metrics_requested() -> bool:
    """Whether this process should instrument the points it computes.

    ``run_sweep(collect_metrics=True)`` sets :data:`METRICS_ENV`, which
    worker processes inherit — the flag crosses process boundaries the
    same way the fault plan and span directory do.
    """
    return os.environ.get(METRICS_ENV, "") == "1"


def execute_point(point: SweepPoint,
                  collect_metrics: Optional[bool] = None) -> RunRecord:
    """Evaluate one sweep point, reading/populating the disk cache.

    ``collect_metrics=None`` defers to :func:`metrics_requested`. When
    metrics are requested and the cached Gamma record predates them
    (no blob), the point is recomputed instrumented and the entry is
    overwritten — behaviorally identical (the fingerprint excludes
    metrics), just richer. A Gamma point whose program keeps A's natural
    row order takes its ``none`` twin's cached record instead of
    simulating again (:func:`natural_order_record`).

    The fault hooks (:mod:`repro.engine.faults`) are no-ops unless a
    fault plan is active — the chaos suite uses them to make this exact
    code path crash, hang, or poison its cache write on demand.
    """
    if collect_metrics is None:
        collect_metrics = metrics_requested()
    want_metrics = collect_metrics and point.model in SIMULATOR_MODELS
    key = record_key(point)
    payload = diskcache.load(key)
    if payload is not None:
        if not (want_metrics and payload.get("metrics") is None):
            try:
                return RunRecord.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                pass  # stale/foreign entry: recompute and overwrite

    faults.on_point_start(point.model, point.matrix, point.variant)

    from repro.matrices import suite

    compute_start = time.time()
    a, b = suite.operands(point.matrix)
    config = point.resolved_config()
    model = get_model(point.model)
    if point.model in GAMMA_MODELS:
        program = record = None
        if point.mask == DEFAULT_MASK:
            program = cached_program(point.matrix, point.variant, config)
        if program is not None:
            record = natural_order_record(point, program, want_metrics)
        if record is None:
            record = model.run(
                a, b, config, matrix=point.matrix, variant=point.variant,
                multi_pe=point.multi_pe, program=program,
                semiring=point.semiring, mask=point.mask,
                collect_metrics=want_metrics)
    elif point.model in SIMULATOR_MODELS:  # gamma-spmv
        record = model.run(
            a, b, config, matrix=point.matrix, variant=point.variant,
            multi_pe=point.multi_pe, semiring=point.semiring,
            operand=point.operand, collect_metrics=want_metrics)
    else:
        c_nnz = execute_point(SweepPoint("gamma", point.matrix)).c_nnz
        record = model.run(a, b, config, matrix=point.matrix, c_nnz=c_nnz)
    diskcache.store(key, record.to_payload())
    spans.emit_span("point/execute", compute_start,
                    point=point.label(), model=point.model,
                    metrics=bool(want_metrics))
    faults.corrupt_cache_path(
        point.model, point.matrix, point.variant,
        diskcache.entry_path(key))
    return record


def natural_order_record(point: SweepPoint, program,
                         want_metrics: bool) -> Optional[RunRecord]:
    """The cached record of ``point`` at variant ``none``, relabelled as
    ``point``'s own, when ``program`` is A's natural row order.

    The simulator is a function of A, B, config, ``multi_pe``, semiring
    and program alone. A program whose items are A's nonempty rows, whole
    and in row order, is the program a ``none`` point runs, so the two
    records differ only in ``variant``. Returns None, and the point
    simulates, when the program reorders or tiles, when the ``none``
    record is not cached or fails to decode, or when metrics are wanted
    and it carries no blob.
    """
    from repro.core import WorkProgram

    natural = WorkProgram.from_matrix(program.a)
    if not (np.array_equal(program.starts, natural.starts)
            and np.array_equal(program.ends, natural.ends)):
        return None
    payload = diskcache.load(
        record_key(dataclasses.replace(point, variant="none")))
    if payload is None or (want_metrics and payload.get("metrics") is None):
        return None
    try:
        record = RunRecord.from_payload(payload)
    except (KeyError, TypeError, ValueError):
        return None
    return dataclasses.replace(record, variant=point.variant)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_sweep(
    matrices: Sequence[str],
    models: Sequence[str] = DEFAULT_MODELS,
    variants: Sequence[str] = DEFAULT_VARIANTS,
    configs: Optional[Sequence[GammaConfig]] = None,
    multi_pe: bool = True,
    masks: Sequence[str] = (DEFAULT_MASK,),
    operand: str = DEFAULT_OPERAND,
) -> List[SweepPoint]:
    """Enumerate the (model, matrix, variant, config) cross-product.

    Gamma points expand over ``variants``, ``configs`` (``None`` =
    scaled default only), and ``masks``; masked points always run the
    plain row dataflow (preprocessing programs are built for the full B
    operand, which the mask narrows), so they do not expand over
    ``variants``. ``gamma-spmv`` points expand over ``configs`` and take
    the ``operand`` vector shape; the remaining baseline points get one
    evaluation per matrix under their default config, matching what the
    figures consume.
    """
    from repro.apps.masked import MASK_MODES
    from repro.baselines.spmv import OPERAND_SHAPES

    for model in models:
        if model not in available_models():
            raise ValueError(
                f"unknown model {model!r}; known: {available_models()}")
    for variant in variants:
        if variant not in PREPROCESS_VARIANTS:
            raise ValueError(
                f"unknown preprocessing variant {variant!r}; "
                f"known: {PREPROCESS_VARIANTS}")
    for mask in masks:
        if mask not in MASK_MODES:
            raise ValueError(
                f"unknown mask mode {mask!r}; known: {MASK_MODES}")
    if operand not in OPERAND_SHAPES:
        raise ValueError(
            f"unknown operand shape {operand!r}; known: {OPERAND_SHAPES}")
    points: List[SweepPoint] = []
    gamma_configs: Sequence[Optional[GammaConfig]] = configs or [None]
    for matrix in matrices:
        for model in models:
            if model in GAMMA_MODELS:
                for config in gamma_configs:
                    for mask in masks:
                        if mask == DEFAULT_MASK:
                            for variant in variants:
                                points.append(SweepPoint(
                                    model, matrix, variant, config,
                                    multi_pe))
                        else:
                            points.append(SweepPoint(
                                model, matrix, "none", config, multi_pe,
                                mask=mask))
            elif model in SIMULATOR_MODELS:  # gamma-spmv
                for config in gamma_configs:
                    points.append(SweepPoint(
                        model, matrix, "none", config, multi_pe,
                        operand=operand))
            else:
                points.append(SweepPoint(model, matrix, ""))
    return points


def pending_points(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Deduplicate a plan and drop points already in the disk cache."""
    seen = set()
    pending = []
    for point in points:
        if point in seen:
            continue
        seen.add(point)
        if diskcache.load(record_key(point)) is None:
            pending.append(point)
    return pending


# ----------------------------------------------------------------------
# Checkpoint (interrupted-sweep state, persisted through the disk cache)
# ----------------------------------------------------------------------
CHECKPOINT_VERSION = 1


def checkpoint_key(points: Sequence[SweepPoint]) -> str:
    """The checkpoint's cache key — a function of the plan, nothing else,
    so re-issuing the same ``python -m repro sweep`` finds it."""
    return diskcache.cache_key(
        "sweep-checkpoint",
        plan=sorted(record_key(p) for p in dict.fromkeys(points)))


def save_checkpoint(key: str, total: int, result: SweepResult) -> None:
    """Persist sweep progress (records themselves live in the cache).

    ``key`` is the plan's :func:`checkpoint_key`, computed once per
    sweep, and ``total`` its number of distinct points. Only
    resume-relevant state goes in: execution stats vary with
    scheduling (e.g. racing workers may each compute a shared
    prerequisite), and the cache must stay byte-identical between
    serial and parallel runs of the same plan.
    """
    diskcache.store(key, {
        "version": CHECKPOINT_VERSION,
        "total": total,
        "completed": len(result),
        "quarantined": [
            f.to_payload() for f in result.quarantined.values()
        ],
    })
    spans.emit_instant("sweep/checkpoint", completed=len(result),
                       quarantined=len(result.quarantined))


def load_checkpoint(
        points: Sequence[SweepPoint]) -> Optional[Dict]:
    payload = diskcache.load(checkpoint_key(points))
    if not payload or payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload


def clear_checkpoint(points: Sequence[SweepPoint]) -> None:
    diskcache.invalidate(checkpoint_key(points))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_sweep(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    serial: bool = False,
    on_result: Optional[Callable[[SweepPoint, RunRecord], None]] = None,
    on_executed: Optional[
        Callable[[SweepPoint, RunRecord, float], None]] = None,
    policy: Optional[SweepPolicy] = None,
    metrics=None,
    resume: bool = False,
    collect_metrics: bool = False,
) -> SweepResult:
    """Execute a sweep, parallelizing cache misses across processes.

    Already-cached points are loaded, not recomputed. Baseline points
    need each matrix's output size, which comes from a plain Gamma run;
    those prerequisite points are executed first so parallel baseline
    workers find them in the cache instead of redoing the simulation.

    Failing points are retried and eventually quarantined per ``policy``
    — the sweep always completes (unless ``policy.fail_fast``) and the
    returned :class:`SweepResult` maps every *successful* point to its
    record, with quarantined points reported separately.

    Args:
        points: The plan (duplicates are collapsed).
        workers: Process count (default: ``os.cpu_count()``).
        serial: Run misses in this process instead — same results,
            useful for determinism checks and debugging. Serial mode
            retries and quarantines but cannot cancel a hung point
            (``timeout_seconds`` needs a killable worker process).
        on_result: Called in the parent as each point completes.
        on_executed: Called in the parent for each point actually
            *computed* (a cache miss) with its wall-clock seconds —
            cached loads do not fire it. Prerequisite Gamma runs that
            were not themselves planned fire it too.
        policy: Failure-handling policy (default :class:`SweepPolicy`).
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; retries,
            timeouts, crashes, and quarantines are published as
            ``sweep/*`` counters for the CLI summary.
        resume: Honor a previous interrupted run's checkpoint for this
            exact plan: its quarantined points are skipped (reported as
            ``previous-run`` failures) instead of re-burning retries,
            and — via the disk cache — nothing already computed reruns.
        collect_metrics: Attach a
            :class:`~repro.obs.MetricsRegistry` to every *computed*
            point (CLI ``--metrics``), serializing the blob onto its
            record; propagated to worker processes via
            :data:`METRICS_ENV`. Off by default — sweeps pay nothing
            unless asked.

    Returns:
        Every completed point mapped to its record, serial or parallel
        alike — the result of a sweep does not depend on how it ran.
    """
    policy = policy or SweepPolicy()
    ordered = list(dict.fromkeys(points))
    result = SweepResult()
    failed_attempts: Dict[SweepPoint, int] = {}

    def count(name: str, amount: int = 1,
              point: Optional[SweepPoint] = None) -> None:
        """Update stats and mirror the event into the active telemetry.

        Every ``sweep/<name>`` span instant is emitted *here*, right
        where the stat increments, which is what makes span counts and
        ``SweepResult.stats`` agree exactly (the chaos-integration test
        pins this).
        """
        result.stats[name] = result.stats.get(name, 0) + amount
        if metrics is not None:
            metrics.inc(f"sweep/{name}", amount)
        if point is not None and name in ("errors", "timeouts", "crashes"):
            failed_attempts[point] = failed_attempts.get(point, 0) + 1
        if spans.active():
            attrs = {"point": point.label()} if point is not None else {}
            spans.emit_instant(f"sweep/{name}", **attrs)

    skip: Dict[SweepPoint, PointFailure] = {}
    if resume:
        checkpoint = load_checkpoint(ordered)
        if checkpoint:
            for payload in checkpoint.get("quarantined", ()):
                failure = PointFailure.from_payload(payload)
                failure.reason = "previous-run"
                skip[failure.point] = failure
    for point, failure in skip.items():
        if point in ordered:
            result.quarantined[point] = failure
            count("quarantined", point=point)

    runnable = [p for p in ordered if p not in result.quarantined]
    pending = pending_points(runnable)
    pending_set = set(pending)
    prerequisites = [
        p for p in dict.fromkeys(
            SweepPoint("gamma", q.matrix)
            for q in pending if q.model not in SIMULATOR_MODELS)
        if p not in result.quarantined
    ]

    computed: set = set()
    plan_key = checkpoint_key(ordered)

    def checkpoint() -> None:
        if diskcache.cache_enabled():
            save_checkpoint(plan_key, len(ordered), result)

    def on_point_done(point: SweepPoint, record: RunRecord,
                      wall_seconds: float) -> None:
        computed.add(point)
        count("executed", point=point)
        result.provenance[point] = {
            "source": "computed",
            "attempts": failed_attempts.get(point, 0) + 1,
            "wall_seconds": wall_seconds,
        }
        if on_executed is not None:
            on_executed(point, record, wall_seconds)
        checkpoint()

    def on_point_quarantined(failure: PointFailure) -> None:
        result.quarantined[failure.point] = failure
        count("quarantined", point=failure.point)
        checkpoint()
        if policy.fail_fast:
            raise SweepPointError(failure)

    if collect_metrics:
        os.environ[METRICS_ENV] = "1"
    try:
        return _run_sweep_body(
            ordered, pending_set, pending, prerequisites, result,
            computed, workers, serial, policy, count,
            on_result, on_point_done, on_point_quarantined, checkpoint)
    finally:
        if collect_metrics:
            os.environ.pop(METRICS_ENV, None)


def _run_sweep_body(
    ordered, pending_set, pending, prerequisites, result,
    computed, workers, serial, policy, count,
    on_result, on_point_done, on_point_quarantined, checkpoint,
) -> SweepResult:
    use_processes = (not serial and diskcache.cache_enabled()
                     and (workers is None or workers > 1))
    if use_processes:
        max_workers = workers or os.cpu_count() or 1
        for batch in (pending_points(prerequisites), pending):
            batch = [p for p in batch if p not in result.quarantined]
            _run_batch_parallel(
                batch, max_workers, policy, count,
                on_point_done, on_point_quarantined)
        pending_set = set()  # workers computed (and notified) them all
    # Serial mode (and the no-disk-cache fallback, where processes cannot
    # share results) computes misses right here, in plan order.
    for point in ordered:
        if point in result.quarantined:
            continue
        if point in pending_set:
            outcome = _execute_with_retries(point, policy, count)
            if isinstance(outcome, PointFailure):
                on_point_quarantined(outcome)
                continue
            record, wall_seconds = outcome
            on_point_done(point, record, wall_seconds)
        else:
            try:
                record = execute_point(point)
            except Exception as exc:
                # A cached load can only fail here if the entry was
                # invalidated underneath us *and* recomputation failed.
                outcome = _execute_with_retries(
                    point, policy, count, first_error=exc)
                if isinstance(outcome, PointFailure):
                    on_point_quarantined(outcome)
                    continue
                record, wall_seconds = outcome
                on_point_done(point, record, wall_seconds)
            if point not in computed:
                count("cached", point=point)
                result.provenance.setdefault(
                    point, {"source": "cached", "attempts": 0})
        result[point] = record
        if on_result is not None:
            on_result(point, record)
    checkpoint()
    return result


def _execute_with_retries(
    point: SweepPoint,
    policy: SweepPolicy,
    count: Callable[..., None],
    first_error: Optional[BaseException] = None,
) -> Union[Tuple[RunRecord, float], PointFailure]:
    """Serial-mode attempt loop: retries with backoff, then quarantine."""
    attempt = 0
    last_error = repr(first_error) if first_error is not None else ""
    if first_error is not None:
        count("errors", point=point)
        attempt = 1
    while attempt <= policy.max_retries:
        if attempt > 0:
            count("retries", point=point)
            backoff_start = time.time()
            time.sleep(policy.backoff_delay(record_key(point), attempt - 1))
            spans.emit_span("sweep/backoff", backoff_start,
                            point=point.label(), attempt=attempt)
        start = time.perf_counter()
        span_start = time.time()
        try:
            record = execute_point(point)
            spans.emit_span("sweep/point", span_start,
                            point=point.label(), attempt=attempt,
                            outcome="ok")
            return record, time.perf_counter() - start
        except Exception as exc:
            spans.emit_span("sweep/point", span_start,
                            point=point.label(), attempt=attempt,
                            outcome="error")
            count("errors", point=point)
            last_error = repr(exc)
            attempt += 1
    return PointFailure(point, attempt, "error", last_error)


# ----------------------------------------------------------------------
# Parallel executor: worker slots with kill-based cancellation
# ----------------------------------------------------------------------
def worker_loop(conn) -> None:
    """Worker process body: evaluate points until the parent hangs up.

    Every outcome — success payload or exception detail — travels back
    over the pipe; the parent treats a vanished pipe (hard crash,
    ``os._exit``, OOM-kill) as a failed attempt of whatever point the
    slot was running.
    """
    while True:
        try:
            point = conn.recv()
        except (EOFError, OSError):
            return
        if point is None:
            return
        start = time.perf_counter()
        try:
            payload = execute_point(point).to_payload()
            conn.send({"ok": True, "payload": payload,
                       "wall_seconds": time.perf_counter() - start})
        except BaseException as exc:  # report, don't die: slot is reused
            try:
                conn.send({"ok": False, "error": repr(exc),
                           "wall_seconds": time.perf_counter() - start})
            except (BrokenPipeError, OSError):
                return


class WorkerSlot:
    """One worker process + pipe, respawned after kills and crashes.

    Public because the sweep executor and the job server
    (:mod:`repro.serve.server`) share it: both need per-point
    kill-based cancellation — the only reliable way to stop a hung
    or wedged native call — with the slot immediately respawned for
    the next assignment.
    """

    def __init__(self, ctx, index: int = 0) -> None:
        self._ctx = ctx
        self.index = index
        self.busy_point: Optional[SweepPoint] = None
        self.busy_attempt = 0
        self.deadline: Optional[float] = None
        self.assigned_ts: float = 0.0
        self._spawn()

    def _spawn(self) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.process = self._ctx.Process(
            target=worker_loop, args=(child_conn,), daemon=True)
        # The slot index rides to the child through the environment
        # (fork and spawn contexts both inherit it at start()); the
        # worker's span recorder labels its lane with it. Harmless when
        # telemetry is off.
        os.environ[spans.SPAN_SLOT_ENV] = str(self.index)
        try:
            self.process.start()
        finally:
            os.environ.pop(spans.SPAN_SLOT_ENV, None)
        child_conn.close()

    def assign(self, point: SweepPoint, attempt: int,
               timeout: Optional[float]) -> None:
        self.busy_point = point
        self.busy_attempt = attempt
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.assigned_ts = time.time()
        self.conn.send(point)

    def release(self) -> None:
        self.busy_point = None
        self.deadline = None

    def respawn(self) -> None:
        """Kill the current process (hung or dead) and start a fresh one."""
        self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()
        self.release()
        self._spawn()

    def shutdown(self) -> None:
        if self.busy_point is None and self.process.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
        self.conn.close()


def _run_batch_parallel(
    batch: Sequence[SweepPoint],
    workers: int,
    policy: SweepPolicy,
    count: Callable[..., None],
    on_point_done: Callable[[SweepPoint, RunRecord, float], None],
    on_point_quarantined: Callable[[PointFailure], None],
) -> None:
    """Drive a batch through worker slots with timeout/retry/quarantine.

    Unlike a ``ProcessPoolExecutor`` — where a hung task occupies its
    worker forever and a crashed worker breaks the whole pool — each
    slot's process can be killed and respawned independently, which is
    what makes per-point cancellation and crash isolation possible.
    """
    if not batch:
        return
    ctx = multiprocessing.get_context()
    slots = [WorkerSlot(ctx, index)
             for index in range(min(workers, len(batch)))]
    # (ready_at, sequence, attempt, point): a heap so backoff delays and
    # fresh points interleave correctly; sequence breaks ties FIFO.
    sequence = itertools.count()
    queue: List[Tuple[float, int, int, SweepPoint]] = []
    now = time.monotonic()
    for point in batch:
        heapq.heappush(queue, (now, next(sequence), 0, point))
    outstanding = len(batch)

    def fail(slot_point: SweepPoint, attempt: int, reason: str,
             error: str) -> None:
        nonlocal outstanding
        count({"timeout": "timeouts", "crash": "crashes"}
              .get(reason, "errors"), point=slot_point)
        if attempt < policy.max_retries:
            count("retries", point=slot_point)
            delay = policy.backoff_delay(record_key(slot_point), attempt)
            spans.emit_instant("sweep/backoff", point=slot_point.label(),
                               attempt=attempt + 1, delay_seconds=delay)
            heapq.heappush(queue, (
                time.monotonic() + delay, next(sequence),
                attempt + 1, slot_point))
        else:
            outstanding -= 1
            on_point_quarantined(
                PointFailure(slot_point, attempt + 1, reason, error))

    try:
        while outstanding > 0:
            now = time.monotonic()
            # Hand ready work to idle slots.
            for slot in slots:
                if (slot.busy_point is None and queue
                        and queue[0][0] <= now):
                    _, _, attempt, point = heapq.heappop(queue)
                    slot.assign(point, attempt, policy.timeout_seconds)
            # Wait for a result, a deadline, or a retry becoming ready.
            busy = [s for s in slots if s.busy_point is not None]
            wake_times = [s.deadline for s in busy
                          if s.deadline is not None]
            if queue and any(s.busy_point is None for s in slots):
                wake_times.append(queue[0][0])
            timeout = None
            if wake_times:
                timeout = max(0.0, min(wake_times) - time.monotonic())
            if busy:
                readable = multiprocessing.connection.wait(
                    [s.conn for s in busy], timeout)
            else:
                readable = []
                if timeout:
                    time.sleep(min(timeout, 0.05))
            by_conn = {s.conn: s for s in busy}
            for conn in readable:
                slot = by_conn[conn]
                point, attempt = slot.busy_point, slot.busy_attempt
                assigned_ts = slot.assigned_ts
                try:
                    outcome = slot.conn.recv()
                except (EOFError, OSError):
                    # Hard worker death (os._exit, segfault, OOM-kill).
                    slot.respawn()
                    spans.emit_span(
                        "sweep/point", assigned_ts, point=point.label(),
                        attempt=attempt, slot=slot.index, outcome="crash")
                    fail(point, attempt, "crash",
                         "worker process died mid-point")
                    continue
                slot.release()
                spans.emit_span(
                    "sweep/point", assigned_ts, point=point.label(),
                    attempt=attempt, slot=slot.index,
                    outcome="ok" if outcome["ok"] else "error")
                if outcome["ok"]:
                    outstanding -= 1
                    record = RunRecord.from_payload(outcome["payload"])
                    on_point_done(point, record, outcome["wall_seconds"])
                else:
                    fail(point, attempt, "error", outcome["error"])
            # Deadline pass: anything still busy past its deadline hangs.
            now = time.monotonic()
            for slot in slots:
                if (slot.busy_point is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                        and not slot.conn.poll()):
                    point, attempt = slot.busy_point, slot.busy_attempt
                    assigned_ts = slot.assigned_ts
                    slot.respawn()
                    spans.emit_span(
                        "sweep/point", assigned_ts, point=point.label(),
                        attempt=attempt, slot=slot.index,
                        outcome="timeout")
                    spans.emit_instant(
                        "sweep/timeout_kill", point=point.label(),
                        slot=slot.index,
                        timeout_seconds=policy.timeout_seconds)
                    fail(point, attempt, "timeout",
                         f"exceeded {policy.timeout_seconds}s timeout")
    finally:
        for slot in slots:
            slot.shutdown()
