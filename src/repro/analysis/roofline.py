"""Roofline model for Gamma (paper Sec. 6.5, Fig. 21)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import GammaConfig


@dataclass(frozen=True)
class RooflinePoint:
    """One matrix's position on the roofline plot.

    Attributes:
        name: Matrix name.
        intensity: Operational intensity in FLOPs per DRAM byte (x-axis).
        gflops: Achieved performance (y-axis).
        roof_gflops: The roofline value at this intensity.
    """

    name: str
    intensity: float
    gflops: float
    roof_gflops: float

    @property
    def efficiency(self) -> float:
        """Fraction of the roofline achieved (1.0 = on the roof)."""
        return self.gflops / self.roof_gflops if self.roof_gflops else 0.0


def roof_at(intensity: float, config: Optional[GammaConfig] = None) -> float:
    """The roofline in GFLOP/s at a given operational intensity.

    The sloped segment is memory bandwidth x intensity; the flat segment
    is PE throughput (32 GFLOP/s for the paper's 32-PE system).
    """
    config = config or GammaConfig()
    bandwidth_roof = config.memory_bandwidth_bytes_per_s * intensity
    compute_roof = config.peak_flops
    return min(bandwidth_roof, compute_roof) / 1e9


def ridge_intensity(config: Optional[GammaConfig] = None) -> float:
    """Intensity where the sloped and flat roofs meet."""
    config = config or GammaConfig()
    return config.peak_flops / config.memory_bandwidth_bytes_per_s


def roofline_point(name: str, result) -> RooflinePoint:
    """Place one run on the roofline.

    Accepts a :class:`~repro.core.result.SimulationResult` or a
    :class:`~repro.engine.record.RunRecord` — anything exposing
    ``operational_intensity``, ``gflops``, and ``config``.
    """
    intensity = result.operational_intensity
    return RooflinePoint(
        name=name,
        intensity=intensity,
        gflops=result.gflops,
        roof_gflops=roof_at(intensity, result.config),
    )


def phase_windows(metrics, config: Optional[GammaConfig] = None,
                  num_windows: int = 12) -> List[dict]:
    """Per-phase roofline placement from an instrumented run's timelines.

    Splits the run into time windows and places each on the roofline
    using the *measured* per-window compute (``timeline/busy`` — one
    multiply per busy cycle) and DRAM miss bytes (``timeline/miss_bytes``)
    instead of whole-run aggregates. This exposes the alternating
    memory-/compute-bound phases of the paper's Sec. 6.5 discussion.

    Because timelines are decimated samplers, window totals are
    stride-corrected estimates, not exact counts.

    Args:
        metrics: A :class:`~repro.obs.MetricsRegistry` or serialized blob.
        config: System parameters for the roof; defaults to the blob's
            recorded system, else the paper configuration.
        num_windows: Number of equal time windows.

    Returns:
        One dict per non-empty-run window: start/end cycles, estimated
        busy cycles and miss bytes, intensity, gflops, the roof, and
        which resource binds (``"memory"``/``"compute"``).
    """
    from repro.obs.metrics import as_registry

    registry = as_registry(metrics)
    if registry is None:
        raise ValueError("no metrics attached to this run")
    if num_windows < 1:
        raise ValueError("need at least one window")
    system = registry.info("system", {})
    if config is None:
        config = GammaConfig()
        if system:
            config = GammaConfig(
                num_pes=system.get("num_pes", config.num_pes),
                frequency_hz=system.get(
                    "frequency_hz", config.frequency_hz),
                memory_bandwidth_bytes_per_s=(
                    system.get("bytes_per_cycle", config.bytes_per_cycle)
                    * system.get("frequency_hz", config.frequency_hz)),
            )
    busy = registry.series("timeline/busy")
    miss = registry.series("timeline/miss_bytes")
    span = registry.gauge("run/cycles").value or max(busy.xs, default=0.0)
    if span <= 0 or not len(busy):
        return []
    width = span / num_windows
    windows = [
        {"start": i * width, "end": (i + 1) * width,
         "busy_cycles": 0.0, "miss_bytes": 0.0}
        for i in range(num_windows)
    ]

    def fold(series, key):
        for x, y in zip(series.xs, series.ys):
            index = min(num_windows - 1, int(x / width))
            windows[index][key] += y * series.stride

    fold(busy, "busy_cycles")
    fold(miss, "miss_bytes")
    seconds = width / config.frequency_hz
    for window in windows:
        flops = window["busy_cycles"]  # one multiply per busy cycle
        window["intensity"] = flops / max(1.0, window["miss_bytes"])
        window["gflops"] = flops / seconds / 1e9 if seconds > 0 else 0.0
        window["roof_gflops"] = roof_at(window["intensity"], config)
        bandwidth_roof = (config.memory_bandwidth_bytes_per_s
                          * window["intensity"])
        window["bound"] = ("memory" if bandwidth_roof < config.peak_flops
                           else "compute")
    return windows


def roofline_series(points: List[RooflinePoint]) -> List[dict]:
    """Rows for rendering/printing the Fig. 21 scatter."""
    return [
        {
            "name": p.name,
            "intensity": round(p.intensity, 4),
            "gflops": round(p.gflops, 3),
            "roof": round(p.roof_gflops, 3),
            "efficiency": round(p.efficiency, 3),
        }
        for p in points
    ]
