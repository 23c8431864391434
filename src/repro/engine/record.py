"""The unified, serializable result record every model produces.

``RunRecord`` replaces the old split between :class:`SimulationResult`
(Gamma) and :class:`BaselineResult` (the traffic models) at the experiment
layer: one dataclass, one schema, one (de)serialization path shared by the
in-memory memo, the disk cache, and the parallel sweep workers. The core
simulator and the baseline models keep their own richer/leaner result types
for direct use; :meth:`RunRecord.from_simulation` and
:meth:`RunRecord.from_baseline` adapt them.

The record carries every derived metric both old types exposed, so code
written against either keeps working when handed a record by the
experiment facade.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.config import CpuConfig, ELEMENT_BYTES, GammaConfig, OFFSET_BYTES

#: Bump to invalidate every cached record (part of each disk-cache key).
SCHEMA_VERSION = 2

_CONFIG_KINDS = {"gamma": GammaConfig, "cpu": CpuConfig}


def derive_c_nnz(compulsory_c_bytes: int, num_rows: int) -> int:
    """Recover the output nonzero count from compulsory C traffic.

    Compulsory C traffic is ``c_nnz * ELEMENT_BYTES + num_rows *
    OFFSET_BYTES`` (values+coords plus the row-pointer array), so the count
    can be back-derived for legacy cache entries that predate the explicit
    ``c_nnz`` field.
    """
    return (compulsory_c_bytes - num_rows * OFFSET_BYTES) // ELEMENT_BYTES


def _config_payload(config: Union[GammaConfig, CpuConfig, None]):
    if config is None:
        return None
    for kind, cls in _CONFIG_KINDS.items():
        if isinstance(config, cls):
            return {"kind": kind, **dataclasses.asdict(config)}
    raise TypeError(f"unsupported config type {type(config).__name__}")


def _config_from_payload(payload) -> Union[GammaConfig, CpuConfig, None]:
    if payload is None:
        return None
    params = dict(payload)
    cls = _CONFIG_KINDS[params.pop("kind")]
    return cls(**params)


@dataclass(frozen=True)
class RunRecord:
    """One (model, matrix, variant, config) evaluation, fully serializable.

    Attributes:
        model: Registry key of the model that produced it ('gamma', 'mkl',
            'ip', 'outerspace', 'sparch', 'matraptor').
        matrix: Suite matrix name (or a caller-chosen label).
        variant: Preprocessing variant for Gamma runs; '' for baselines.
        cycles: Execution time in the model's clock cycles.
        frequency_hz: The model's clock.
        traffic_bytes: DRAM bytes by category
            (A / B / C / partial_read / partial_write).
        compulsory_bytes: Minimum possible traffic by category (A / B / C).
        flops: Multiply-accumulate operations.
        c_nnz: Nonzeros of the output matrix (explicit — no magic-number
            back-derivation needed by consumers).
        pe_busy_cycles / num_tasks / num_partial_fibers /
        cache_utilization: Gamma-only detail metrics (zero/empty for
            baselines).
        config: The simulated system (GammaConfig, or CpuConfig for MKL).
        multi_pe: Whether Gamma used multi-PE-per-row scheduling.
        metrics: Serialized :class:`~repro.obs.MetricsRegistry` blob when
            the run was instrumented; None otherwise (the default —
            sweeps never collect metrics, so cached records stay small).
        dispatch: Execution-path split ``{"scalar": n, "epoch": m}`` of
            the producing engine (Gamma only). Engine diagnostics, not
            behavior — excluded from the fingerprint like ``metrics``.
    """

    model: str
    matrix: str
    variant: str
    cycles: float
    frequency_hz: float
    traffic_bytes: Dict[str, int]
    compulsory_bytes: Dict[str, int]
    flops: int
    c_nnz: int
    pe_busy_cycles: float = 0.0
    num_tasks: int = 0
    num_partial_fibers: int = 0
    cache_utilization: Dict[str, float] = field(default_factory=dict)
    config: Union[GammaConfig, CpuConfig, None] = None
    multi_pe: bool = True
    metrics: Optional[Dict[str, Any]] = None
    dispatch: Optional[Dict[str, int]] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_simulation(cls, result, *, model: str = "gamma",
                        matrix: str = "", variant: str = "none",
                        multi_pe: bool = True) -> "RunRecord":
        """Adapt a :class:`repro.core.SimulationResult`."""
        c_nnz = getattr(result, "c_nnz", None)
        if c_nnz is None:
            raise ValueError(
                "SimulationResult lacks c_nnz; run it through "
                "GammaSimulator (which sets it) or pass the field")
        return cls(
            model=model, matrix=matrix, variant=variant,
            cycles=result.cycles,
            frequency_hz=result.config.frequency_hz,
            traffic_bytes=dict(result.traffic_bytes),
            compulsory_bytes=dict(result.compulsory_bytes),
            flops=result.flops,
            c_nnz=c_nnz,
            pe_busy_cycles=result.pe_busy_cycles,
            num_tasks=result.num_tasks,
            num_partial_fibers=result.num_partial_fibers,
            cache_utilization=dict(result.cache_utilization),
            config=result.config,
            multi_pe=multi_pe,
            metrics=getattr(result, "metrics", None),
            dispatch=getattr(result, "dispatch", None),
        )

    @classmethod
    def from_baseline(cls, result, *, model: str, matrix: str = "",
                      compulsory_bytes: Optional[Dict[str, int]] = None,
                      config: Union[GammaConfig, CpuConfig, None] = None,
                      c_nnz: Optional[int] = None) -> "RunRecord":
        """Adapt a :class:`repro.baselines.BaselineResult`."""
        if c_nnz is None:
            c_nnz = getattr(result, "c_nnz", None) or 0
        return cls(
            model=model, matrix=matrix, variant="",
            cycles=result.cycles,
            frequency_hz=result.frequency_hz,
            traffic_bytes=dict(result.traffic_bytes),
            compulsory_bytes=dict(compulsory_bytes or {}),
            flops=result.flops,
            c_nnz=c_nnz,
            config=config,
        )

    # -- serialization --------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-compatible dict (the disk-cache representation)."""
        payload = dataclasses.asdict(self)
        payload["config"] = _config_payload(self.config)
        payload["schema"] = SCHEMA_VERSION
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_payload` output.

        Tolerates legacy entries lacking ``c_nnz`` by back-deriving it
        from compulsory C traffic via the element/offset size constants.
        """
        params = {k: v for k, v in payload.items() if k != "schema"}
        params["config"] = _config_from_payload(params.get("config"))
        if params.get("c_nnz") is None:
            compulsory = params.get("compulsory_bytes") or {}
            num_rows = params.pop("num_rows", 0)
            params["c_nnz"] = derive_c_nnz(compulsory.get("C", 0), num_rows)
        params.pop("num_rows", None)
        return cls(**params)

    def fingerprint(self) -> str:
        """Stable digest of the record's behavioral content.

        Hashes the canonical JSON payload minus the ``metrics`` blob and
        the ``dispatch`` split (instrumentation/engine detail, not
        behavior). Two runs of the same point are bit-identical exactly
        when their fingerprints match — the equality the chaos suite and
        the golden-fingerprint regression test pin.
        """
        import hashlib
        import json

        payload = self.to_payload()
        payload.pop("metrics", None)
        payload.pop("dispatch", None)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary_row(self) -> Dict[str, Any]:
        """A deterministic, JSON-compatible digest of this record.

        The fleet roll-up and the run report are built from these rows:
        everything here is a pure function of the record (no wall clock,
        no environment), which is what keeps a report byte-identical
        across serial and parallel runs of the same plan.
        """
        return {
            "model": self.model,
            "matrix": self.matrix,
            "variant": self.variant,
            "cycles": self.cycles,
            "runtime_seconds": self.runtime_seconds,
            "c_nnz": self.c_nnz,
            "flops": self.flops,
            "total_traffic_bytes": self.total_traffic,
            "normalized_traffic": self.normalized_traffic,
            "pe_utilization": self.pe_utilization,
            "operational_intensity": self.operational_intensity,
            "gflops": self.gflops,
            "fingerprint": self.fingerprint(),
            "has_metrics": self.metrics is not None,
            "scalar_dispatch_fraction": self.scalar_dispatch_fraction,
        }

    # -- derived metrics (superset of both legacy result types) ---------
    @property
    def scalar_dispatch_fraction(self) -> Optional[float]:
        """Share of tasks dispatched on the scalar path (None if unknown).

        0 on the batched core, 1 on the reference engine (which also
        runs every instrumented point).
        """
        if not self.dispatch:
            return None
        total = (self.dispatch.get("scalar", 0)
                 + self.dispatch.get("epoch", 0))
        if not total:
            return None
        return self.dispatch.get("scalar", 0) / total

    @property
    def total_traffic(self) -> int:
        return sum(self.traffic_bytes.values())

    @property
    def total_compulsory(self) -> int:
        return sum(self.compulsory_bytes.values())

    @property
    def normalized_traffic(self) -> float:
        """Traffic relative to compulsory (1.0 = perfect, paper's y-axis)."""
        return self.total_traffic / max(1, self.total_compulsory)

    def normalized_breakdown(self) -> Dict[str, float]:
        """Per-category traffic normalized to total compulsory bytes."""
        compulsory = max(1, self.total_compulsory)
        return {
            category: count / compulsory
            for category, count in self.traffic_bytes.items()
        }

    @property
    def noncompulsory_bytes(self) -> int:
        return max(0, self.total_traffic - self.total_compulsory)

    @property
    def runtime_seconds(self) -> float:
        return self.cycles / self.frequency_hz

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth used over the run."""
        if self.cycles <= 0 or self.config is None:
            return 0.0
        bytes_per_cycle = (self.config.memory_bandwidth_bytes_per_s
                           / self.frequency_hz)
        peak = self.cycles * bytes_per_cycle
        return min(1.0, self.total_traffic / peak)

    @property
    def pe_utilization(self) -> float:
        if self.cycles <= 0 or not isinstance(self.config, GammaConfig):
            return 0.0
        return self.pe_busy_cycles / (self.cycles * self.config.num_pes)

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s (one MAC = one FLOP, Sec. 6.5)."""
        seconds = self.runtime_seconds
        return self.flops / seconds / 1e9 if seconds > 0 else 0.0

    @property
    def operational_intensity(self) -> float:
        """FLOPs per DRAM byte — the roofline x-axis (Fig. 21)."""
        return self.flops / max(1, self.total_traffic)
