"""Simulation outcome containers and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import GammaConfig
from repro.matrices.csr import CsrMatrix


@dataclass
class SimulationResult:
    """Everything one Gamma simulation produces.

    Attributes:
        output: The computed C matrix (functional result).
        cycles: Total execution time in clock cycles.
        traffic_bytes: DRAM bytes by category
            (A / B / C / partial_read / partial_write).
        compulsory_bytes: Minimum possible traffic by category
            (A / B / C), as with unbounded on-chip storage.
        flops: Multiply-accumulate operations performed.
        pe_busy_cycles: Sum of busy cycles across PEs.
        num_tasks: PE invocations executed.
        num_partial_fibers: Partial output fibers produced.
        cache_utilization: Time-averaged FiberCache occupancy fractions
            ('B' / 'partial' / 'unused').
        config: The simulated system.
        c_nnz: Nonzeros of the output matrix (known even when the output
            itself is discarded with ``keep_output=False``).
        metrics: Serialized :class:`~repro.obs.MetricsRegistry` blob when
            the run was instrumented (``GammaSimulator(metrics=...)``);
            None otherwise. See :mod:`repro.obs`.
        dispatch: Execution-path split ``{"scalar": n, "epoch": m}`` —
            tasks dispatched by the reference engine's per-task
            ``_execute_task`` vs by the batched core's timing loop. A
            batched run counts every task under ``epoch``; instrumented
            runs and semirings without an ``add_ufunc`` execute on the
            reference engine and count every task under ``scalar``.
            Engine diagnostics, not behavior: the lockstep suite
            excludes this field from its equality set.
    """

    output: Optional[CsrMatrix]
    cycles: float
    traffic_bytes: Dict[str, int]
    compulsory_bytes: Dict[str, int]
    flops: int
    pe_busy_cycles: float
    num_tasks: int
    num_partial_fibers: int
    cache_utilization: Dict[str, float]
    config: GammaConfig
    c_nnz: Optional[int] = None
    metrics: Optional[Dict] = None
    dispatch: Optional[Dict[str, int]] = None

    @property
    def scalar_dispatch_fraction(self) -> Optional[float]:
        """Fraction of tasks that ran on the scalar path (None if unknown).

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
    def bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth used over the run."""
        if self.cycles <= 0:
            return 0.0
        peak = self.cycles * self.config.bytes_per_cycle
        return min(1.0, self.total_traffic / peak)

    @property
    def pe_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.pe_busy_cycles / (self.cycles * self.config.num_pes)

    @property
    def runtime_seconds(self) -> float:
        return self.cycles / self.config.frequency_hz

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s (one MAC = one FLOP, Sec. 6.5)."""
        seconds = self.runtime_seconds
        return self.flops / seconds / 1e9 if seconds > 0 else 0.0

    @property
    def operational_intensity(self) -> float:
        """FLOPs per DRAM byte — the roofline x-axis (Fig. 21)."""
        return self.flops / max(1, self.total_traffic)
