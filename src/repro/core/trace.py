"""Execution tracing for the Gamma simulator.

Attach an :class:`ExecutionTrace` to a :class:`~repro.core.GammaSimulator`
to record one event per executed task — which PE ran it, when, how long,
and what it cost in cache misses. The trace offers the analyses an
architect reaches for first: per-PE utilization, dispatch-gap hunting,
and a phase timeline (the memory-bound vs compute-bound alternation the
paper's roofline discussion describes for gupta2/Ge87H76).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TaskEvent:
    """One executed task.

    Attributes:
        task_id: Unique task id.
        row: Output row the task contributes to.
        level: Task-tree level (0 = leaf).
        is_final: Whether the task emitted a final C row.
        pe: PE the task ran on.
        start: Dispatch time (cycles).
        finish: Completion time (cycles).
        busy_cycles: PE busy time (input elements consumed).
        b_miss_lines: FiberCache misses on B lines this task caused.
        partial_miss_lines: Misses on partial-fiber lines (spill reads).
    """

    task_id: int
    row: int
    level: int
    is_final: bool
    pe: int
    start: float
    finish: float
    busy_cycles: int
    b_miss_lines: int
    partial_miss_lines: int

    @property
    def stall_cycles(self) -> float:
        """Time the task occupied its PE beyond pure compute."""
        return max(0.0, (self.finish - self.start) - self.busy_cycles)


@dataclass
class ExecutionTrace:
    """Recorder plus post-run analyses."""

    events: List[TaskEvent] = field(default_factory=list)

    def record(self, event: TaskEvent) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def makespan(self) -> float:
        return max((e.finish for e in self.events), default=0.0)

    def pe_busy_cycles(self) -> Dict[int, float]:
        """Total busy cycles per PE."""
        busy: Dict[int, float] = {}
        for event in self.events:
            busy[event.pe] = busy.get(event.pe, 0.0) + event.busy_cycles
        return busy

    def pe_utilization(
        self, num_pes: Optional[int] = None
    ) -> Dict[int, float]:
        """Busy fraction per PE over the makespan."""
        span = max(self.makespan, 1e-12)
        busy = self.pe_busy_cycles()
        pes = range(num_pes) if num_pes else sorted(busy)
        return {pe: busy.get(pe, 0.0) / span for pe in pes}

    def load_imbalance(self) -> float:
        """max/mean busy cycles across PEs (1.0 = perfectly balanced)."""
        busy = list(self.pe_busy_cycles().values())
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 1.0

    def total_stall_cycles(self) -> float:
        return sum(e.stall_cycles for e in self.events)

    def tasks_by_level(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for event in self.events:
            counts[event.level] = counts.get(event.level, 0) + 1
        return counts

    def phase_timeline(self, num_windows: int = 20) -> List[Dict]:
        """Windowed compute vs memory activity over the run.

        Splits the makespan into windows; for each, reports busy PE-cycles
        and cache-miss lines attributed by task finish time. Reveals the
        alternating memory-/compute-bound phases of Sec. 6.5.
        """
        if num_windows < 1:
            raise ValueError("need at least one window")
        span = self.makespan
        if span <= 0:
            return []
        width = span / num_windows
        windows = [
            {"start": i * width, "end": (i + 1) * width,
             "busy_cycles": 0.0, "miss_lines": 0, "tasks": 0}
            for i in range(num_windows)
        ]
        for event in self.events:
            index = min(num_windows - 1, int(event.finish / width))
            window = windows[index]
            window["busy_cycles"] += event.busy_cycles
            window["miss_lines"] += (
                event.b_miss_lines + event.partial_miss_lines)
            window["tasks"] += 1
        return windows

    def longest_tasks(self, count: int = 10) -> List[TaskEvent]:
        return sorted(self.events, key=lambda e: e.busy_cycles,
                      reverse=True)[:count]

    def to_jsonl(self, destination, **header_extras) -> int:
        """Export as a schema-versioned JSON-lines event stream.

        One header record followed by one ``task`` record per event; see
        :mod:`repro.obs.events` for the schema and the reader/validator.
        Returns the number of lines written.
        """
        from repro.obs.events import write_jsonl

        return write_jsonl(self, destination, **header_extras)

    def to_rows(self) -> List[Tuple]:
        """Flatten to tuples for CSV export."""
        return [
            (e.task_id, e.row, e.level, int(e.is_final), e.pe, e.start,
             e.finish, e.busy_cycles, e.b_miss_lines,
             e.partial_miss_lines)
            for e in self.events
        ]

    CSV_HEADER = ("task_id", "row", "level", "is_final", "pe", "start",
                  "finish", "busy_cycles", "b_miss_lines",
                  "partial_miss_lines")
