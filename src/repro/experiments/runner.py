"""Experiment runner: a thin facade over the engine's registry + sweeps.

Experiments run on a 1/64-scale Gamma (see DESIGN.md and
:mod:`repro.engine.defaults`). The runner translates the figures' calls
(``gamma(name, variant, config)``, ``baseline(model, name)``) into
:class:`~repro.engine.sweep.SweepPoint` evaluations, memoizes the
resulting :class:`~repro.engine.record.RunRecord` per point in process,
and shares results across processes through the engine's disk cache —
so a parallel ``python -m repro sweep`` pre-warm makes every subsequent
serial figure run a pure cache read.

Model dispatch, configuration defaults, preprocessing-program caching,
and (de)serialization all live in :mod:`repro.engine`; keep this module
free of per-model logic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.traffic import compulsory_traffic
from repro.config import GammaConfig
from repro.engine import (
    MODEL_SCALE,
    PREPROCESS_VARIANTS,
    SCALED_FIBERCACHE_BYTES,
    TILE_THRESHOLD_BYTES,
    RunRecord,
    SweepPoint,
    available_models,
    execute_point,
    preprocess_options,
    run_sweep,
    scaled_cpu_config,
    scaled_gamma_config,
)
from repro.matrices import suite

__all__ = [
    "MODEL_SCALE",
    "PREPROCESS_VARIANTS",
    "SCALED_FIBERCACHE_BYTES",
    "TILE_THRESHOLD_BYTES",
    "ExperimentRunner",
    "preprocess_options",
    "scaled_cpu_config",
    "scaled_gamma_config",
]


class ExperimentRunner:
    """Runs and memoizes every model the figures need."""

    def __init__(self) -> None:
        self._records: Dict[SweepPoint, RunRecord] = {}

    # -- engine plumbing ------------------------------------------------
    def records(self) -> Dict[SweepPoint, RunRecord]:
        """Snapshot of every point this runner has evaluated.

        The figure pipeline fingerprints its inputs from exactly this
        mapping (point label x record fingerprint), which is why it
        runs on a fresh runner.
        """
        return dict(self._records)

    def run_point(self, point: SweepPoint) -> RunRecord:
        """Evaluate one sweep point (in-memory memo, then disk cache)."""
        if point not in self._records:
            self._records[point] = execute_point(point)
        return self._records[point]

    def sweep(self, points: Iterable[SweepPoint],
              workers: Optional[int] = None,
              serial: bool = False,
              collect_metrics: bool = False) -> List[RunRecord]:
        """Evaluate many points, parallelizing disk-cache misses.

        The figures need every record, so a sweep that quarantined any
        point (see :class:`~repro.engine.sweep.SweepPolicy`) raises here
        with the failure list instead of handing back partial data.
        ``collect_metrics`` asks gamma points for their cycle-level
        MetricsRegistry blob (see :func:`repro.engine.sweep.run_sweep`).
        """
        points = list(points)
        results = run_sweep(points, workers=workers, serial=serial,
                            collect_metrics=collect_metrics)
        if results.quarantined:
            detail = "; ".join(
                f"{f.point.label()}: {f.reason} after {f.attempts} "
                f"attempts ({f.error})"
                for f in results.quarantined.values())
            raise RuntimeError(
                f"{len(results.quarantined)} sweep point(s) failed "
                f"permanently — figures need complete data: {detail}")
        self._records.update(results)
        return [results[point] for point in dict.fromkeys(points)]

    # -- Gamma ----------------------------------------------------------
    def gamma(
        self,
        name: str,
        preprocess_variant: str = "none",
        config: Optional[GammaConfig] = None,
        multi_pe: bool = True,
    ) -> RunRecord:
        """Simulate Gamma on a suite matrix (cached in memory and on disk)."""
        return self.run_point(SweepPoint(
            "gamma", name, preprocess_variant, config, multi_pe))

    def spmv(self, name: str, operand: str = "sparse-vector",
             config: Optional[GammaConfig] = None) -> RunRecord:
        """Run the GUST-style ``gamma-spmv`` model on a suite matrix.

        ``operand`` picks the vector shape (see
        :data:`repro.baselines.spmv.OPERAND_SHAPES`); SpMV points take
        no preprocessing variant.
        """
        return self.run_point(SweepPoint(
            "gamma-spmv", name, "none", config, operand=operand))

    # -- output size (needed by the traffic models) ---------------------
    def c_nnz(self, name: str) -> int:
        return self.gamma(name).c_nnz

    def compulsory(self, name: str) -> Dict[str, int]:
        a, b = suite.operands(name)
        return compulsory_traffic(a, b, self.c_nnz(name))

    def compulsory_total(self, name: str) -> int:
        return sum(self.compulsory(name).values())

    # -- baselines ------------------------------------------------------
    def baseline(self, model: str, name: str) -> RunRecord:
        """Run a named baseline model on a suite matrix (cached)."""
        from repro.engine.registry import GAMMA_MODELS
        if model in GAMMA_MODELS or model not in available_models():
            raise ValueError(
                f"unknown baseline model {model!r}; known: "
                f"{[m for m in available_models() if m not in GAMMA_MODELS]}")
        return self.run_point(SweepPoint(model, name, ""))

    def speedup_over_mkl(self, name: str, runtime_seconds: float) -> float:
        mkl = self.baseline("mkl", name)
        return mkl.runtime_seconds / runtime_seconds
