"""The event-ordered reference simulator: the batched core's oracle.

This is the per-task, event-ordered execution engine — one
``_execute_task`` call, completion-heap push/pop, and dict update per
task. It was the production core before the struct-of-arrays rewrite and
is preserved verbatim (plus a heap-based single-PE picker) as the
bit-exactness oracle: ``tests/test_simulator_lockstep.py`` replays the
batched :class:`repro.core.simulator.GammaSimulator` against this class
and asserts identical output matrices, cycle counts, and traffic
breakdowns, the same way the FiberCache lockstep suite replays the
batched cache against ``ReferenceFiberCache``.

Runs Gustavson spMspM exactly as the hardware would organize it: the
scheduler streams fragments of A in processing order, expands them into
balanced top-full task trees, and dispatches tasks across PEs; every input
fiber touch goes through the FiberCache at 64 B line granularity; DRAM
requests flow through a bandwidth-limited memory interface. Timing follows
the paper's PE law (one merged input element per cycle) with list
scheduling over PEs, so execution time reflects whichever of compute or
memory binds — the basis of the paper's roofline analysis (Sec. 6.5).

Select it at the CLI with ``--engine ref`` (model name ``gamma-ref``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.config import ELEMENT_BYTES, GammaConfig, LINE_BYTES, OFFSET_BYTES
from repro.core.dram import MemoryInterface
from repro.core.fibercache import FiberCache
from repro.core.pe import ProcessingElement
from repro.core.result import SimulationResult
from repro.core.scheduler import Scheduler, WorkProgram
from repro.core.tasks import Task
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber

#: Partial-fiber address space starts far above any B matrix layout.
_PARTIAL_BASE_LINE = 1 << 40


class ReferenceGammaSimulator:
    """Simulates one spMspM on a Gamma system.

    Args:
        config: Hardware parameters.
        multi_pe_scheduling: Scheduler mode (Fig. 20 ablation); the default
            True lets tasks of one row run on any PE.
        keep_output: Retain the computed C matrix in the result (disable to
            save memory on large sweeps).
        semiring: Scalar algebra for the PEs' multiply/accumulate units;
            None selects ordinary (+, x). Graph analytics use e.g. the
            boolean or tropical semirings (see :mod:`repro.semiring`).
        trace: Optional :class:`~repro.core.trace.ExecutionTrace` that
            records one event per executed task.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when set,
            the simulator, FiberCache, scheduler, and memory interface
            publish cycle-level measurements into it (phase accounting,
            per-bank hit rates, PE busy/idle, DRAM stream time series).
            ``None`` (the default) collects nothing and costs nothing.
    """

    def __init__(
        self,
        config: Optional[GammaConfig] = None,
        multi_pe_scheduling: bool = True,
        keep_output: bool = True,
        semiring=None,
        trace=None,
        metrics=None,
    ) -> None:
        self.config = config or GammaConfig()
        self.multi_pe_scheduling = multi_pe_scheduling
        self.keep_output = keep_output
        self.semiring = semiring
        self.trace = trace
        self.metrics = metrics

    # ------------------------------------------------------------------
    def run(
        self,
        a: CsrMatrix,
        b: CsrMatrix,
        program: Optional[WorkProgram] = None,
    ) -> SimulationResult:
        """Execute C = A x B.

        Args:
            a: Left operand (CSR).
            b: Right operand (CSR) — Gustavson consumes B by rows.
            program: Optional preprocessed work program; defaults to plain
                row order.

        Returns:
            A :class:`SimulationResult` with the output matrix, cycle count,
            and the full traffic breakdown.
        """
        if a.num_cols != b.num_rows:
            raise ValueError(
                f"inner dimensions differ: {a.shape} x {b.shape}"
            )
        if program is None:
            program = WorkProgram.from_matrix(a)
        state = _ReferenceRunState(self.config, a, b, program,
                          self.multi_pe_scheduling, self.semiring,
                          self.trace, self.metrics)
        state.execute()
        return state.result(self.keep_output)


class _ReferenceRunState:
    """All mutable state of one simulation run."""

    def __init__(
        self,
        config: GammaConfig,
        a: CsrMatrix,
        b: CsrMatrix,
        program: WorkProgram,
        multi_pe: bool,
        semiring=None,
        trace=None,
        metrics=None,
    ) -> None:
        self.config = config
        self.semiring = semiring
        self.trace = trace
        self.metrics = metrics
        self.a = a
        self.b = b
        self.program = program
        self.multi_pe = multi_pe
        self.cache = FiberCache(config)
        self.memory = MemoryInterface(
            config.bytes_per_cycle, config.memory_latency_cycles,
            metrics=metrics,
        )
        self.scheduler = Scheduler(
            program,
            radix=config.radix,
            multi_pe=multi_pe,
            max_outstanding_partials=2 * config.num_pes,
            metrics=metrics,
        )
        self.pe_model = ProcessingElement(config.radix)
        # PE availability: heap of (free_time, pe_id).
        self.pe_free: List[Tuple[float, int]] = [
            (0.0, pe) for pe in range(config.num_pes)
        ]
        heapq.heapify(self.pe_free)
        self.row_pe: Dict[int, int] = {}
        self.pe_free_times: List[float] = [0.0] * config.num_pes
        self.pe_busy_cycles: List[float] = [0.0] * config.num_pes
        self.finish_time: Dict[int, float] = {}
        self.partial_fibers: Dict[int, Fiber] = {}
        self.partial_lines: Dict[int, Tuple[int, int]] = {}
        self._partial_cursor = _PARTIAL_BASE_LINE
        #: B rows are re-touched by many tasks; memoize the Fiber view and
        #: line range per row for the run instead of re-slicing per touch.
        self._b_rows: Dict[int, Tuple[Fiber, int, int]] = {}
        self.output_rows: Dict[int, Fiber] = {}
        self.pe_busy = 0.0
        self.flops = 0
        self.num_tasks = 0
        self.num_partials = 0
        self.now = 0.0
        #: Dispatch-path split: tasks executed one-at-a-time on the
        #: scalar path vs inside a batched epoch. The reference engine
        #: is scalar by construction; the batched core counts how much
        #: of the run its epoch machinery actually covered.
        self.dispatch_scalar = 0
        self.dispatch_epoch = 0

    # -- address mapping -------------------------------------------------
    def _b_row_lines(self, row: int) -> Tuple[int, int]:
        """Line address range [lo, hi) of one B row in the matrix layout."""
        start = int(self.b.offsets[row]) * ELEMENT_BYTES
        end = int(self.b.offsets[row + 1]) * ELEMENT_BYTES
        return (start // LINE_BYTES, -(-end // LINE_BYTES))

    def _allocate_partial_lines(self, nnz: int) -> Tuple[int, int]:
        """Reserve line-aligned space for a partial fiber (Sec. 3.4)."""
        lines = max(1, -(-nnz * ELEMENT_BYTES // LINE_BYTES))
        lo = self._partial_cursor
        self._partial_cursor += lines
        return (lo, lo + lines)

    # -- main loop --------------------------------------------------------
    def execute(self) -> None:
        """Event-ordered list scheduling.

        Ready tasks dispatch eagerly to the earliest-free PE; tasks whose
        dependencies are still in flight become ready only when the
        completion event fires, keeping dispatch (and therefore memory
        requests) in near-monotonic time order.
        """
        target_pending = 2 * self.config.num_pes
        completions: List[Tuple[float, int, Task]] = []
        sequence = 0
        while True:
            self.scheduler.refill(
                target_pending, allow_force=not completions
            )
            # A PE picks its task the moment it frees: release every
            # dependency that completes by then, so the highest-priority
            # task available *at that time* wins (dynamic scheduling,
            # Sec. 3.3) instead of committing PEs to far-future work.
            next_pe_time = self._next_pe_time()
            while completions and completions[0][0] <= next_pe_time:
                _, _, done = heapq.heappop(completions)
                self.scheduler.task_completed(done)
                self.scheduler.refill(
                    target_pending, allow_force=not completions
                )
            task = self.scheduler.next_task()
            if task is not None:
                finish = self._execute_task(task)
                heapq.heappush(completions, (finish, sequence, task))
                sequence += 1
                continue
            if completions:
                _, _, done = heapq.heappop(completions)
                self.scheduler.task_completed(done)
                continue
            if self.scheduler.exhausted:
                break
            raise RuntimeError(
                "scheduler stalled with blocked tasks outstanding"
            )
        self._account_a_traffic()
        # A is streamed in alongside everything else; the run can never be
        # shorter than total traffic at full bandwidth.
        bandwidth_floor = (
            self.memory.traffic.total_bytes / self.config.bytes_per_cycle
        )
        self.now = max(
            max(self.pe_free_times, default=0.0),
            self.memory.busy_until,
            bandwidth_floor,
        )
        if self.metrics is not None:
            self._publish_run_metrics(bandwidth_floor)

    def _clean_pe_heap(self) -> None:
        """Drop stale single-PE heap entries (lazy deletion).

        In single-PE mode the heap is advisory: every free-time update
        pushes a fresh ``(time, pe)`` entry and old ones go stale. A PE's
        free time grows strictly (every task runs >= 1 cycle), so an
        entry is current iff it matches ``pe_free_times``; after cleanup
        the top is the earliest-free PE with the lowest id breaking ties
        — the same PE the old ``min(range(num_pes))`` scan returned,
        without the O(num_pes) walk per dispatch that made Fig. 20
        ablations quadratic at high PE counts.
        """
        heap = self.pe_free
        free_times = self.pe_free_times
        while heap[0][0] != free_times[heap[0][1]]:
            heapq.heappop(heap)

    def _next_pe_time(self) -> float:
        if self.multi_pe:
            return self.pe_free[0][0]
        self._clean_pe_heap()
        return self.pe_free[0][0]

    def _pick_pe(self, task: Task) -> int:
        if self.multi_pe:
            _, pe = heapq.heappop(self.pe_free)
            return pe
        pe = self.row_pe.get(task.row)
        if pe is None:
            self._clean_pe_heap()
            pe = self.pe_free[0][1]
            self.row_pe[task.row] = pe
        return pe

    def _execute_task(self, task: Task) -> float:
        self.num_tasks += 1
        self.dispatch_scalar += 1
        pe = self._pick_pe(task)

        # --- gather input fibers and stream them through the FiberCache ---
        # One pass over the inputs: dependency readiness, fiber views, and
        # one batched cache call per input (see docs/architecture.md §10 —
        # no per-line Python calls here).
        fibers: List[Fiber] = []
        scales: List[float] = []
        cache = self.cache
        b_rows = self._b_rows
        deps_ready = 0.0
        b_miss_lines = 0
        partial_miss_lines = 0
        dirty_evictions = 0
        for inp in task.inputs:
            if inp.kind == "B":
                row = inp.index
                cached = b_rows.get(row)
                if cached is None:
                    lo, hi = self._b_row_lines(row)
                    cached = (self.b.row(row), lo, hi)
                    b_rows[row] = cached
                fiber, lo, hi = cached
                misses, dirty = cache.fetch_read_range(lo, hi, "B")
                b_miss_lines += misses
                dirty_evictions += dirty
                scales.append(inp.scale)
            else:
                finish = self.finish_time[inp.index]
                if finish > deps_ready:
                    deps_ready = finish
                fiber = self.partial_fibers.pop(inp.index)
                lo, hi = self.partial_lines.pop(inp.index)
                misses, _ = cache.consume_range(lo, hi)
                partial_miss_lines += misses
                self.scheduler.partial_consumed()
                if self.semiring is not None:
                    # Partial fibers pass through unscaled: the semiring's
                    # multiplicative identity, not necessarily 1.0.
                    scales.append(self.semiring.one)
                else:
                    scales.append(inp.scale)
            fibers.append(fiber)
        start = max(self.pe_free_times[pe], deps_ready)
        data_ready = start
        if b_miss_lines:
            data_ready = max(data_ready, self.memory.request(
                "B", b_miss_lines * LINE_BYTES, start))
        if partial_miss_lines:
            data_ready = max(data_ready, self.memory.request(
                "partial_read", partial_miss_lines * LINE_BYTES, start))

        # --- compute ------------------------------------------------------
        if self.config.detailed_pe_model:
            pe_result = self.pe_model.combine_detailed(
                fibers, scales, semiring=self.semiring)
        else:
            pe_result = self.pe_model.combine(
                fibers, scales, semiring=self.semiring)
        self.flops += pe_result.multiplies
        compute_finish = start + pe_result.cycles
        finish = max(compute_finish, data_ready)
        self.pe_busy += pe_result.cycles
        self.pe_busy_cycles[pe] += pe_result.cycles

        # --- emit output ----------------------------------------------------
        output = pe_result.output
        if task.is_final:
            self.output_rows[task.row] = output
            out_bytes = len(output) * ELEMENT_BYTES + OFFSET_BYTES
            self.memory.request("C", out_bytes, finish)
        else:
            self.num_partials += 1
            lines = self._allocate_partial_lines(len(output))
            self.partial_fibers[task.task_id] = output
            self.partial_lines[task.task_id] = lines
            _, dirty = self.cache.write_range(lines[0], lines[1], "partial")
            dirty_evictions += dirty
        if dirty_evictions:
            self.memory.request(
                "partial_write", dirty_evictions * LINE_BYTES, finish)

        self.pe_free_times[pe] = finish
        heapq.heappush(self.pe_free, (finish, pe))
        self.finish_time[task.task_id] = finish
        self.cache.sample_utilization(weight=pe_result.cycles)
        if self.metrics is not None:
            self._publish_task_metrics(
                task, pe_result, finish, compute_finish, data_ready,
                b_miss_lines, partial_miss_lines)
        if self.trace is not None:
            from repro.core.trace import TaskEvent

            self.trace.record(TaskEvent(
                task_id=task.task_id,
                row=task.row,
                level=task.level,
                is_final=task.is_final,
                pe=pe,
                start=start,
                finish=finish,
                busy_cycles=pe_result.cycles,
                b_miss_lines=b_miss_lines,
                partial_miss_lines=partial_miss_lines,
            ))
        return finish

    # -- observability ----------------------------------------------------
    def _publish_task_metrics(
        self, task: Task, pe_result, finish: float,
        compute_finish: float, data_ready: float,
        b_miss_lines: int, partial_miss_lines: int,
    ) -> None:
        """Per-task publishing: phase cycles, distributions, timelines."""
        metrics = self.metrics
        # Phase accounting: the task's PE occupancy splits into pure
        # compute and the memory-bound tail spent waiting for data.
        metrics.counter("cycles/compute").inc(pe_result.cycles)
        metrics.counter("cycles/memory_stall").inc(
            max(0.0, data_ready - compute_finish))
        metrics.counter("tasks/dispatched").inc()
        if task.is_final:
            metrics.counter("tasks/final").inc()
        else:
            metrics.counter("tasks/partial_outputs").inc()
        metrics.histogram("task/level").observe(task.level)
        metrics.histogram("task/inputs").observe(task.num_inputs)
        metrics.histogram("task/busy_cycles").observe(pe_result.cycles)
        miss_bytes = (b_miss_lines + partial_miss_lines) * LINE_BYTES
        metrics.series("timeline/busy").sample(finish, pe_result.cycles)
        metrics.series("timeline/miss_bytes").sample(finish, miss_bytes)
        occupancy = self.cache.utilization()
        metrics.series("timeline/occupancy_B").sample(
            finish, occupancy["B"])
        metrics.series("timeline/occupancy_partial").sample(
            finish, occupancy["partial"])

    def _publish_run_metrics(self, bandwidth_floor: float) -> None:
        """End-of-run publishing: PE busy/idle split, cache, bounds."""
        metrics = self.metrics
        metrics.gauge("run/cycles").set(self.now)
        metrics.gauge("run/pe_makespan_cycles").set(
            max(self.pe_free_times, default=0.0))
        metrics.gauge("run/memory_busy_cycles").set(self.memory.busy_until)
        metrics.gauge("run/bandwidth_floor_cycles").set(bandwidth_floor)
        metrics.gauge("run/flops").set(self.flops)
        metrics.set_info(
            "run/bound",
            "memory" if bandwidth_floor >= max(
                self.pe_free_times, default=0.0) else "compute",
        )
        metrics.set_info("system", {
            "num_pes": self.config.num_pes,
            "radix": self.config.radix,
            "frequency_hz": self.config.frequency_hz,
            "bytes_per_cycle": self.config.bytes_per_cycle,
            "fibercache_bytes": self.config.fibercache_bytes,
            "fibercache_banks": self.config.fibercache_banks,
        })
        for pe, busy in enumerate(self.pe_busy_cycles):
            idle = self.now - busy
            metrics.series("pe/busy").sample(pe, busy)
            metrics.series("pe/idle").sample(pe, idle)
            metrics.histogram("pe/busy_cycles").observe(busy)
            metrics.counter("cycles/pe_busy_total").inc(busy)
            metrics.counter("cycles/pe_idle_total").inc(idle)
        metrics.counter("sched/tasks_created").inc(
            self.scheduler.tasks_created)
        metrics.counter("sched/items_consumed").inc(
            self.scheduler.items_consumed)
        metrics.counter("dispatch/scalar").inc(self.dispatch_scalar)
        metrics.counter("dispatch/epoch").inc(self.dispatch_epoch)
        self.cache.publish_metrics(metrics)

    # -- A-side streaming traffic ----------------------------------------
    def _account_a_traffic(self) -> None:
        a_bytes = self.a.nnz * ELEMENT_BYTES
        a_bytes += len(self.program) * OFFSET_BYTES
        self.memory.account("A", a_bytes)

    # -- results ------------------------------------------------------------
    def c_nnz(self) -> int:
        """Nonzeros of the computed output."""
        return sum(len(f) for f in self.output_rows.values())

    def compulsory(self) -> Dict[str, int]:
        """Minimum traffic: read A, read touched B rows once, write C."""
        from repro.analysis.traffic import compulsory_traffic

        return compulsory_traffic(self.a, self.b, self.c_nnz())

    def result(self, keep_output: bool) -> SimulationResult:
        output = None
        if keep_output:
            rows = [
                self.output_rows.get(r, Fiber.empty())
                for r in range(self.a.num_rows)
            ]
            output = CsrMatrix.from_rows(rows, self.b.num_cols)
        return SimulationResult(
            output=output,
            cycles=self.now,
            traffic_bytes=self.memory.traffic.breakdown(),
            compulsory_bytes=self.compulsory(),
            flops=self.flops,
            pe_busy_cycles=self.pe_busy,
            num_tasks=self.num_tasks,
            num_partial_fibers=self.num_partials,
            cache_utilization=self.cache.average_utilization(),
            config=self.config,
            c_nnz=self.c_nnz(),
            metrics=(self.metrics.to_blob()
                     if self.metrics is not None else None),
            dispatch={"scalar": self.dispatch_scalar,
                      "epoch": self.dispatch_epoch},
        )


def multiply_reference(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    program: Optional[WorkProgram] = None,
) -> SimulationResult:
    """Convenience one-shot simulation of C = A x B on Gamma."""
    return ReferenceGammaSimulator(config).run(a, b, program=program)
