"""One-command cycle-level profiling: run instrumented, render a report.

``profile_point`` evaluates one (model, matrix, variant) point with the
full observability stack attached — MetricsRegistry plus an
:class:`~repro.core.trace.ExecutionTrace` — and ``render_report`` turns
the resulting record into the text report ``python -m repro profile``
prints: per-phase cycle accounting, the windowed phase timeline,
FiberCache behaviour down to per-bank hit rates, PE utilization, and the
DRAM stream breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.roofline import phase_windows
from repro.analysis.traffic import stream_breakdown_from_metrics
from repro.core.trace import ExecutionTrace
from repro.engine.record import RunRecord
from repro.obs.metrics import MetricsRegistry, as_registry


@dataclass
class ProfileRun:
    """One instrumented evaluation plus its observability artifacts."""

    record: RunRecord
    trace: ExecutionTrace
    wall_seconds: float


def profile_point(matrix: str, model: str = "gamma",
                  variant: str = "none", config=None,
                  multi_pe: bool = True, mask: str = "none",
                  operand: str = "matrix") -> ProfileRun:
    """Run one point with metrics + tracing attached.

    Only the simulator models publish metrics; baseline models accept
    and ignore the instrumentation kwargs, so profiling one still yields
    the record (and an empty trace) with a reduced report. ``mask``
    selects a masked product for the Gamma SpGEMM engines; ``operand``
    the vector shape for ``gamma-spmv`` (each ignored elsewhere).
    """
    from repro.engine.registry import GAMMA_MODELS, get_model
    from repro.matrices import suite

    a, b = suite.operands(matrix)
    trace = ExecutionTrace()
    extra = {}
    if model in GAMMA_MODELS:
        extra["mask"] = mask
    elif model == "gamma-spmv":
        extra["operand"] = operand
    start = time.perf_counter()
    record = get_model(model).run(
        a, b, config, matrix=matrix, variant=variant, multi_pe=multi_pe,
        collect_metrics=True, trace=trace, **extra)
    wall = time.perf_counter() - start
    return ProfileRun(record=record, trace=trace, wall_seconds=wall)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    """Compact numeric formatting for cycle/byte magnitudes."""
    if value != int(value):
        return f"{value:,.1f}"
    return f"{int(value):,}"


def _summary_line(values: List[float]) -> str:
    if not values:
        return "n/a"
    mean = sum(values) / len(values)
    return (f"min {_fmt(min(values))}  mean {_fmt(mean)}  "
            f"max {_fmt(max(values))}")


def _render_phases(lines: List[str], registry: MetricsRegistry,
                   record: RunRecord) -> None:
    lines.append("-- phase cycle accounting --")
    compute = registry.counter("cycles/compute").value
    stall = registry.counter("cycles/memory_stall").value
    busy_total = registry.counter("cycles/pe_busy_total").value
    idle_total = registry.counter("cycles/pe_idle_total").value
    lines.append(f"compute cycles        {_fmt(compute)}")
    lines.append(f"memory-stall cycles   {_fmt(stall)}")
    lines.append(f"PE busy total         {_fmt(busy_total)}")
    lines.append(f"PE idle total         {_fmt(idle_total)}")
    lines.append(
        f"PE makespan           "
        f"{_fmt(registry.gauge('run/pe_makespan_cycles').value)}")
    lines.append(
        f"memory busy until     "
        f"{_fmt(registry.gauge('run/memory_busy_cycles').value)}")
    lines.append(
        f"bandwidth floor       "
        f"{_fmt(registry.gauge('run/bandwidth_floor_cycles').value)}")
    lines.append(f"run bound by          {registry.info('run/bound', '?')}")
    lines.append("")

    windows = phase_windows(registry, config=record.config)
    if windows:
        lines.append(f"-- phase timeline ({len(windows)} windows, "
                     "stride-corrected estimates) --")
        lines.append("  window      busy-cyc    miss-bytes  "
                     "flop/B   gflops  bound")
        for i, w in enumerate(windows):
            lines.append(
                f"  {i:>2} {w['start']:>9,.0f}+ {w['busy_cycles']:>11,.0f}"
                f" {w['miss_bytes']:>13,.0f}"
                f" {w['intensity']:>7.2f} {w['gflops']:>8.2f}"
                f"  {w['bound']}")
        lines.append("")


def _render_cache(lines: List[str], registry: MetricsRegistry) -> None:
    lines.append("-- FiberCache --")
    for kind in ("fetch", "read", "consume"):
        hits = registry.counter(f"cache/{kind}_hits").value
        misses = registry.counter(f"cache/{kind}_misses").value
        total = hits + misses
        rate = hits / total if total else 1.0
        lines.append(f"{kind + ':':<9}{_fmt(hits)} hits / "
                     f"{_fmt(misses)} misses  ({rate:.1%} hit rate)")
    lines.append(
        f"writes:  {_fmt(registry.counter('cache/writes').value)}   "
        f"evictions: "
        f"{_fmt(registry.counter('cache/dirty_evictions').value)} dirty / "
        f"{_fmt(registry.counter('cache/clean_evictions').value)} clean")
    miss_lines = registry.counters_with_prefix("cache/miss_lines/")
    if miss_lines:
        parts = ", ".join(f"{cat} {_fmt(count)}"
                          for cat, count in sorted(miss_lines.items()))
        lines.append(f"miss lines by category: {parts}")
    rates = registry.info("cache/bank_hit_rates")
    if rates:
        lines.append(f"bank hit rates ({len(rates)} banks): "
                     f"min {min(rates):.1%}  "
                     f"mean {sum(rates) / len(rates):.1%}  "
                     f"max {max(rates):.1%}")
        lines.append(
            f"bank load imbalance (max/mean accesses): "
            f"{registry.gauge('cache/bank_load_imbalance').value:.2f}")
    occupancy = {
        name: registry.gauge(f"cache/utilization/{name}").value
        for name in ("B", "partial", "unused")
    }
    lines.append("avg occupancy: " + "  ".join(
        f"{name} {fraction:.1%}" for name, fraction in occupancy.items()))
    lines.append("")


def _render_pes(lines: List[str], registry: MetricsRegistry) -> None:
    lines.append("-- processing elements --")
    busy = registry.series("pe/busy")
    span = registry.gauge("run/cycles").value
    if len(busy) and span > 0:
        utils = [y / span for y in busy.ys]
        lines.append(f"per-PE busy cycles ({len(busy)} PEs): "
                     + _summary_line(list(busy.ys)))
        lines.append(f"per-PE utilization: min {min(utils):.1%}  "
                     f"mean {sum(utils) / len(utils):.1%}  "
                     f"max {max(utils):.1%}")
        mean_busy = sum(busy.ys) / len(busy.ys)
        imbalance = max(busy.ys) / mean_busy if mean_busy else 1.0
        lines.append(f"PE load imbalance (max/mean): {imbalance:.2f}")
    else:
        lines.append("no PE activity recorded")
    lines.append("")


def _render_dram(lines: List[str], registry: MetricsRegistry) -> None:
    lines.append("-- DRAM stream breakdown --")
    breakdown = stream_breakdown_from_metrics(registry)
    total = sum(breakdown.values())
    for stream, count in sorted(breakdown.items()):
        share = count / total if total else 0.0
        lines.append(f"{stream + ':':<15}{_fmt(count):>16} B  ({share:.1%})")
    lines.append(f"{'total:':<15}{_fmt(total):>16} B")
    lines.append("")


def _render_tasks(lines: List[str], registry: MetricsRegistry) -> None:
    lines.append("-- tasks & scheduling --")
    lines.append(
        f"dispatched {_fmt(registry.counter('tasks/dispatched').value)}  "
        f"(final {_fmt(registry.counter('tasks/final').value)}, "
        f"partial {_fmt(registry.counter('tasks/partial_outputs').value)})")
    level = registry.histogram("task/level")
    inputs = registry.histogram("task/inputs")
    if level.count:
        lines.append(f"task-tree level: mean {level.mean:.2f}  "
                     f"max {_fmt(level.max)}")
    if inputs.count:
        lines.append(f"inputs per task: mean {inputs.mean:.2f}  "
                     f"max {_fmt(inputs.max)}")
    depth = registry.histogram("sched/ready_depth")
    if depth.count:
        lines.append(f"ready-queue depth: mean {depth.mean:.2f}  "
                     f"max {_fmt(depth.max)}")
    lines.append("")


def render_report(record: RunRecord,
                  trace: Optional[ExecutionTrace] = None,
                  wall_seconds: Optional[float] = None) -> str:
    """The ``repro profile`` text report for one instrumented record."""
    lines: List[str] = []
    title = f"profile: {record.model} {record.matrix}"
    if record.variant:
        lines.append(f"== {title} (variant={record.variant}) ==")
    else:
        lines.append(f"== {title} ==")
    runtime_ms = record.runtime_seconds * 1e3
    head = (f"cycles {_fmt(record.cycles)}   "
            f"runtime {runtime_ms:.3f} ms   "
            f"gflops {record.gflops:.2f}   "
            f"intensity {record.operational_intensity:.2f} flop/B")
    if wall_seconds is not None:
        head += f"   (simulated in {wall_seconds:.2f} s)"
    lines.append(head)
    if trace is not None and trace.num_events:
        lines.append(f"trace: {trace.num_events} task events recorded")
    lines.append("")

    registry = as_registry(record.metrics)
    if registry is None:
        lines.append("(no metrics attached — only the Gamma model "
                     "publishes cycle-level metrics)")
        return "\n".join(lines)

    _render_phases(lines, registry, record)
    _render_cache(lines, registry)
    _render_pes(lines, registry)
    _render_dram(lines, registry)
    _render_tasks(lines, registry)
    return "\n".join(lines).rstrip() + "\n"
