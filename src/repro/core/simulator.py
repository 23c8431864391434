"""The Gamma accelerator simulator: data-oriented batched core.

Functionally this is the same machine as
:mod:`repro.core.simulator_ref` — Gustavson spMspM with scheduler-driven
task trees, FiberCache line touches, a bandwidth-limited memory channel,
and the paper's PE timing law — and it is lockstep-tested to produce
bit-identical outputs, cycle counts, traffic breakdowns and traces.
What changed is the execution engine: every task is split into a
*functional* pass and a *timing* pass.

The functional pass. What a task computes — its output fiber and
length, its PE cycles, the B line ranges it reads — never depends on
time: a leaf merges B rows, an interior merge its children's outputs
plus its direct B rows, a tiled row's combine tree its parts' roots.
So the core merges whole task graphs *ahead of dispatch*, in
program-order chunks of work items (:meth:`_BatchedRunState._functional_pass`):
each chunk's tasks run stage by stage (leaves first, then every task
whose children are merged) through one composite-key merge kernel per
stage (stable argsort + group reduction, bit-matched to
``linear_combine``), and each task is merged exactly once. The results
are flat per-task arrays (:class:`_TaskRecords`) — row, level,
children, cycles, output length, B line ranges — and outputs are never
handed around at dispatch.

The timing pass is one loop that follows the reference event loop one
dispatch at a time over those arrays: refill (item expansion is index
arithmetic over the records), drain completions up to the next PE
time, pop the ready head by ``(row_order, -level, task_id)``, dispatch.
A dispatch only does bookkeeping — pick a PE, consume its children's
partial lines, touch its B ranges in one ``fetch_read_ranges`` call,
charge DRAM (result-less C writes and partial writebacks deferred
through ``MemoryInterface.request_epoch``), allocate and write its own
partial lines. It is exact by construction. Where no task tree is in
flight and the ready head is a final leaf, the run of final leaves
that follows dispatches as one *cursor stretch*, its cache touches
batched through one ``FiberCache.fetch_read_epoch`` call.

Runs that collect a MetricsRegistry, and custom semirings without an
``add_ufunc``, delegate to the reference engine wholesale, so every
per-dispatch metric sample stays bit-identical.

See docs/architecture.md §13 for the layout, and
``tests/test_simulator_lockstep.py`` for the differential suite against
the reference engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, LINE_BYTES, OFFSET_BYTES
from repro.core import tasks
from repro.core.accumulator import accumulate_groups
from repro.core.dram import MemoryInterface
from repro.core.fibercache import FiberCache
from repro.core.pe import epoch_cycles, epoch_merge_groups
from repro.core.result import SimulationResult
from repro.core.scheduler import WorkProgram
from repro.core.simulator_ref import (ReferenceGammaSimulator,
                                      _PARTIAL_BASE_LINE)
from repro.core.trace import TaskEvent
from repro.matrices.csr import CsrMatrix, spans
from repro.matrices.fiber import Fiber, _make_fiber

#: Merged-element budget of one functional-pass chunk computed ahead of
#: dispatch: large enough to amortize the merge kernel over thousands of
#: tasks, small enough to bound the records held ahead of the timing
#: pass (the chunk is cut at a work-item boundary, at least one item).
#: A run of simple items (one final leaf each) is merged as one chunk.
_LOOKAHEAD_ELEMENTS = 1 << 13


class _TaskRecords:
    """Functional-pass results for a contiguous run of the task stream.

    The run covers work items ``[item_start, item_end)``; their tasks,
    in task-id order (a tiled row's combine tree right after its last
    part's tree), hold stream slots ``base + local``. Item ``k`` of the
    run owns locals ``item_first[k]:item_first[k + 1]``; ``simple[k]``
    marks a one-final-leaf item. Per task: output row, level, finality,
    children (in input order, as offsets back from the task's own slot:
    child slot = slot - offset), PE cycles, output length, and its
    direct B inputs' line ranges, ``lows``/``highs`` entries
    ``b_first[t]:b_first[t + 1]`` (``counts`` per task). ``low_list`` /
    ``high_list`` are list copies of the ranges, made on the first
    per-dispatch touch.
    """

    __slots__ = ("base", "item_start", "item_end", "item_first", "simple",
                 "rows", "levels", "finals", "kids", "cycles", "out_lens",
                 "b_first", "counts", "lows", "highs", "low_list",
                 "high_list", "elements")

    def __init__(self, base: int, item_start: int, item_end: int) -> None:
        self.base = base
        self.item_start = item_start
        self.item_end = item_end
        self.rows: List[int] = []
        self.low_list = self.high_list = None
        #: Input elements the merge kernels consumed for this run.
        self.elements = 0


class GammaSimulator:
    """Simulates one spMspM on a Gamma system (batched engine).

    Drop-in replacement for :class:`ReferenceGammaSimulator` — same
    constructor, same results bit-for-bit. Runs that collect metrics,
    and custom semirings without a declared ``add_ufunc`` (no
    vectorizable accumulation), delegate to the reference engine
    wholesale.

    Args:
        config: Hardware parameters.
        multi_pe_scheduling: Scheduler mode (Fig. 20 ablation); the default
            True lets tasks of one row run on any PE.
        keep_output: Retain the computed C matrix in the result (disable to
            save memory on large sweeps; also skips computing output
            values, since structure alone determines traffic and
            timing).
        semiring: Scalar algebra for the PEs' multiply/accumulate units;
            None selects ordinary (+, x).
        trace: Optional :class:`~repro.core.trace.ExecutionTrace` that
            records one event per executed task.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when set,
            the run executes on the reference engine so per-dispatch
            samples match it exactly.
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

    def run(
        self,
        a: CsrMatrix,
        b: CsrMatrix,
        program: Optional[WorkProgram] = None,
    ) -> SimulationResult:
        """Execute C = A x B; see :meth:`ReferenceGammaSimulator.run`."""
        semiring = self.semiring
        if self.metrics is not None or (
                semiring is not None and not semiring.is_arithmetic
                and semiring.add_ufunc is None):
            return ReferenceGammaSimulator(
                self.config, self.multi_pe_scheduling, self.keep_output,
                semiring, self.trace, self.metrics,
            ).run(a, b, program=program)
        if a.num_cols != b.num_rows:
            raise ValueError(
                f"inner dimensions differ: {a.shape} x {b.shape}"
            )
        if program is None:
            program = WorkProgram.from_matrix(a)
        state = _BatchedRunState(self.config, a, b, program,
                                 self.multi_pe_scheduling, semiring,
                                 self.trace, self.keep_output)
        state.execute()
        return state.result()


class _BatchedRunState:
    """All mutable state of one batched run.

    Scheduler state mirrors :class:`~repro.core.scheduler.Scheduler`
    over stream slots instead of task objects: ready-heap entries are
    ``(row_order, -level, task_id, records, local)``, and a task's slot
    is ``records.base + local``. ``waiting`` maps a blocked task's slot
    to ``[missing_children, entry]``, and ``parent`` each registered
    child to its parent's slot; ``orphans`` holds tiled parts' roots
    that completed before their combine tree registered. ``made`` maps
    each dispatched non-final task's slot to ``(finish, line_lo,
    line_hi)`` until its parent consumes it.
    """

    def __init__(self, config, a, b, program, multi_pe, semiring, trace,
                 keep_output) -> None:
        self.config = config
        self.a = a
        self.b = b
        self.program = program
        self.multi_pe = multi_pe
        self.semiring = semiring
        self.trace = trace
        self.keep_output = keep_output
        self.cache = FiberCache(config)
        self.memory = MemoryInterface(config.bytes_per_cycle,
                                      config.memory_latency_cycles)
        num_pes = config.num_pes
        #: PE availability: heap of (free_time, pe_id).
        self.pe_free = [(0.0, pe) for pe in range(num_pes)]
        self.pe_free_times = [0.0] * num_pes
        self.pe_busy_cycles = [0.0] * num_pes
        self.row_pe: Dict[int, int] = {}
        #: Result-less C writes and partial writebacks, flushed in issue
        #: order before any request whose completion time is used.
        self.deferred: List = []
        self.output_rows: Dict[int, Fiber] = {}
        self.c_nnz = 0
        self.flops = 0
        self.pe_busy = 0.0
        self.num_tasks = 0
        self.num_partials = 0
        self.now = 0.0
        # Scheduler state (see the class docstring).
        self.target = 2 * num_pes
        self.max_partials = 2 * num_pes
        self.outstanding = 0
        self.cursor = 0
        self.ready: List = []
        self.waiting: Dict[int, List] = {}
        self.parent: Dict[int, int] = {}
        self.orphans: set = set()
        self.made: Dict[int, tuple] = {}
        # Functional-pass state: the latest records, parts of tiled rows
        # whose combine tree is not built yet (row -> part-root slots),
        # and retained outputs of parts merged in an earlier chunk.
        self.num_items = len(program)
        # Item lengths and their running sum (general chunks' budget),
        # and the items that end a simple run: tiled or wider than the
        # radix.
        self.item_lens = program.ends - program.starts
        self.item_cum = np.concatenate(([0], np.cumsum(self.item_lens)))
        self.not_simple = np.flatnonzero(
            (program.num_parts != 1) | (self.item_lens > config.radix))
        self.records = _TaskRecords(0, 0, 0)
        self.row_parts: Dict[int, List[int]] = {}
        self.retained: Dict[int, tuple] = {}

    # -- timing pass ------------------------------------------------------
    def execute(self) -> None:
        """Event-ordered list scheduling, one dispatch at a time.

        The reference loop's decision sequence exactly; runs of final
        leaves with no tree in flight take the cursor-stretch fast path.
        """
        num_items = self.num_items
        target = self.target
        max_partials = self.max_partials
        ready = self.ready
        waiting = self.waiting
        made = self.made
        deferred = self.deferred
        completions: List = []
        sequence = 0
        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        request = memory.request
        request_epoch = memory.request_epoch
        cache = self.cache
        fetch = cache.fetch_read_ranges
        consume = cache.consume_range
        write = cache.write_range
        sample = cache.sample_utilization
        trace = self.trace
        refill = self._refill
        complete = self._complete
        heappush = heapq.heappush
        heappop = heapq.heappop
        partial_cursor = _PARTIAL_BASE_LINE
        dispatched = 0
        partials = 0
        pe_busy = 0.0
        while True:
            # ``_refill``'s own conditions, checked inline: most
            # iterations have nothing to expand.
            if self.cursor < num_items and (
                    not ready and not completions
                    or len(ready) < target
                    and self.outstanding < max_partials):
                refill(not completions)
            if not multi:
                while pe_free[0][0] != free_times[pe_free[0][1]]:
                    heappop(pe_free)
            next_pe_time = pe_free[0][0]
            while completions and completions[0][0] <= next_pe_time:
                slot = heappop(completions)[2]
                if slot is not None:
                    complete(slot)
                if self.cursor < num_items:
                    refill(not completions)
            if ready:
                _, neg_level, task_id, rec, t = ready[0]
                final = rec.finals[t]
                if final and not neg_level and not waiting:
                    sequence = self._stretch(completions, sequence)
                    continue
                heappop(ready)
                row = rec.rows[t]
                if multi:
                    start, pe = heappop(pe_free)
                else:
                    pe = row_pe.get(row)
                    if pe is None:
                        while pe_free[0][0] != free_times[pe_free[0][1]]:
                            heappop(pe_free)
                        pe = pe_free[0][1]
                        row_pe[row] = pe
                    start = free_times[pe]
                slot = rec.base + t
                partial_miss = 0
                kids = rec.kids[t]
                if kids:
                    # Partial inputs first, in input order: wait for each
                    # child's finish and consume its lines.
                    for offset in kids:
                        kid_finish, lo, hi = made.pop(slot - offset)
                        if kid_finish > start:
                            start = kid_finish
                        partial_miss += consume(lo, hi)[0]
                    self.outstanding -= len(kids)
                b_first = rec.b_first
                lo = b_first[t]
                hi = b_first[t + 1]
                if hi > lo:
                    lows = rec.low_list
                    if lows is None:
                        lows = rec.low_list = rec.lows.tolist()
                        rec.high_list = rec.highs.tolist()
                    b_miss, dirty = fetch(lows[lo:hi], rec.high_list[lo:hi])
                else:
                    b_miss = dirty = 0
                cycles = rec.cycles[t]
                finish = start + cycles
                if b_miss or partial_miss:
                    if deferred:
                        request_epoch(deferred)
                        deferred.clear()
                    if b_miss:
                        data_ready = request("B", b_miss * LINE_BYTES, start)
                        if data_ready > finish:
                            finish = data_ready
                    if partial_miss:
                        data_ready = request("partial_read",
                                             partial_miss * LINE_BYTES, start)
                        if data_ready > finish:
                            finish = data_ready
                out_len = rec.out_lens[t]
                if final:
                    deferred.append(
                        ("C", out_len * ELEMENT_BYTES + OFFSET_BYTES, finish))
                    slot = None
                else:
                    # Dispatching a non-final task brings one more partial
                    # output fiber into existence (Sec. 3.4 budget).
                    self.outstanding += 1
                    partials += 1
                    lo = partial_cursor
                    partial_cursor += max(
                        1, -(-out_len * ELEMENT_BYTES // LINE_BYTES))
                    made[slot] = (finish, lo, partial_cursor)
                    dirty += write(lo, partial_cursor, "partial")[1]
                if dirty:
                    deferred.append(
                        ("partial_write", dirty * LINE_BYTES, finish))
                free_times[pe] = finish
                heappush(pe_free, (finish, pe))
                busy_cycles[pe] += cycles
                pe_busy += cycles
                sample(cycles)
                if trace is not None:
                    trace.record(TaskEvent(
                        task_id=task_id,
                        row=row,
                        level=-neg_level,
                        is_final=final,
                        pe=pe,
                        start=start,
                        finish=finish,
                        busy_cycles=cycles,
                        b_miss_lines=b_miss,
                        partial_miss_lines=partial_miss,
                    ))
                heappush(completions, (finish, sequence, slot))
                sequence += 1
                dispatched += 1
                continue
            if completions:
                if not waiting and self.cursor >= num_items:
                    # Nothing can become ready anymore: the remaining
                    # completion drains are bookkeeping no-ops.
                    completions.clear()
                    continue
                slot = heappop(completions)[2]
                if slot is not None:
                    complete(slot)
                continue
            if self.cursor >= num_items and not waiting:
                break
            raise RuntimeError(
                "scheduler stalled with blocked tasks outstanding"
            )
        self.num_tasks += dispatched
        self.num_partials += partials
        self.pe_busy += pe_busy
        if deferred:
            request_epoch(deferred)
            deferred.clear()
        a_bytes = self.a.nnz * ELEMENT_BYTES
        a_bytes += num_items * OFFSET_BYTES
        memory.account("A", a_bytes)
        bandwidth_floor = (
            memory.traffic.total_bytes / self.config.bytes_per_cycle
        )
        self.now = max(
            max(free_times, default=0.0),
            memory.busy_until,
            bandwidth_floor,
        )

    def _refill(self, allow_force: bool) -> None:
        """``Scheduler.refill``: expand items until enough are in flight."""
        ready = self.ready
        num_items = self.num_items
        while (len(ready) < self.target
               and self.outstanding < self.max_partials
               and self.cursor < num_items):
            self._expand()
        while allow_force and not ready and self.cursor < num_items:
            self._expand()

    def _expand(self) -> None:
        """Register the next work item's tasks from the records.

        Task ids are drawn in the reference's expansion order; a task
        with children waits for those not yet completed (a tiled row's
        combine tree may find some of its parts already done).
        """
        index = self.cursor
        rec = self.records
        if index >= rec.item_end:
            rec = self._functional_pass(index)
        self.cursor = index + 1
        k = index - rec.item_start
        first = rec.item_first[k]
        stop = rec.item_first[k + 1]
        ready = self.ready
        waiting = self.waiting
        parent = self.parent
        orphans = self.orphans
        levels = rec.levels
        kids_of = rec.kids
        base = rec.base
        ids = itertools.islice(tasks._task_ids, stop - first)
        for t, task_id in zip(range(first, stop), ids):
            entry = (index, -levels[t], task_id, rec, t)
            kids = kids_of[t]
            if not kids:
                heapq.heappush(ready, entry)
                continue
            slot = base + t
            missing = 0
            for offset in kids:
                kid = slot - offset
                if kid in orphans:
                    orphans.discard(kid)
                else:
                    parent[kid] = slot
                    missing += 1
            if missing:
                waiting[slot] = [missing, entry]
            else:
                heapq.heappush(ready, entry)

    def _complete(self, slot: int) -> None:
        """``Scheduler.task_completed`` for a non-final task."""
        parent = self.parent.pop(slot, None)
        if parent is None:
            self.orphans.add(slot)
            return
        record = self.waiting[parent]
        record[0] -= 1
        if not record[0]:
            del self.waiting[parent]
            heapq.heappush(self.ready, record[1])

    def _stretch(self, completions, sequence: int) -> int:
        """Dispatch a cursor stretch of final leaves as one epoch.

        The stretch is exactly the run the reference loop dispatches
        back-to-back: every expanded final leaf at the ready head, then
        — once the heap is drained — simple items straight off the
        cursor up to the first other item or the records' end. With no
        tree in flight, its per-dispatch refills and completion drains
        are invisible (final leaves unblock nothing and free no partial
        budget, and simple-item expansion reads no completion state),
        so dispatch order is independent of task timing and the
        lookahead the reference interleaves converges at the next
        ``refill``. A stretch stays within one records run, whose tasks
        it covers contiguously.
        """
        ready = self.ready
        heappop = heapq.heappop
        rec = ready[0][3]
        finals = rec.finals
        first = stop = ready[0][4]
        task_ids = []
        while ready:
            _, neg_level, task_id, head_rec, t = ready[0]
            if neg_level or head_rec is not rec or not finals[t]:
                break
            assert t == stop, "stretch leaves must be contiguous"
            heappop(ready)
            task_ids.append(task_id)
            stop += 1
        if not ready and self.outstanding < self.max_partials:
            # The partial budget never moves during a stretch, so one
            # check stands in for the reference's per-refill gate.
            k = start = self.cursor - rec.item_start
            end = rec.item_end - rec.item_start
            simple = rec.simple
            while k < end and simple[k]:
                k += 1
            if k > start:
                assert rec.item_first[start] == stop
                self.cursor += k - start
                task_ids.extend(itertools.islice(tasks._task_ids, k - start))
                stop += k - start
        num_tasks = stop - first
        in_lo = rec.b_first[first]
        in_hi = rec.b_first[stop]
        cache = self.cache
        misses, dirties, occ_b, occ_p = cache.fetch_read_epoch(
            rec.lows[in_lo:in_hi], rec.highs[in_lo:in_hi],
            rec.counts[first:stop], "B")
        rows = rec.rows[first:stop]
        cycle_list = rec.cycles[first:stop]
        len_list = rec.out_lens[first:stop]
        self.num_tasks += num_tasks

        # Bulk time advancement: earliest-free assignment per task, B
        # requests issued at dispatch, result-less charges deferred.
        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        deferred = self.deferred
        trace = self.trace
        heappush = heapq.heappush
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        for i in range(num_tasks):
            row = rows[i]
            if multi:
                start, pe = heappop(pe_free)
                threshold = start
            else:
                while pe_free[0][0] != free_times[pe_free[0][1]]:
                    heappop(pe_free)
                threshold = pe_free[0][0]
                pe = row_pe.get(row)
                if pe is None:
                    pe = pe_free[0][1]
                    row_pe[row] = pe
                start = free_times[pe]
            miss = misses[i]
            cycles = cycle_list[i]
            finish = start + cycles
            if miss:
                if deferred:
                    memory.request_epoch(deferred)
                    deferred.clear()
                data_ready = memory.request("B", miss * LINE_BYTES, start)
                if data_ready > finish:
                    finish = data_ready
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cycles
            pe_busy += cycles
            deferred.append(
                ("C", len_list[i] * ELEMENT_BYTES + OFFSET_BYTES, finish))
            dirty = dirties[i]
            if dirty:
                deferred.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            if trace is not None:
                trace.record(TaskEvent(
                    task_id=task_ids[i],
                    row=row,
                    level=0,
                    is_final=True,
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cycles,
                    b_miss_lines=miss,
                    partial_miss_lines=0,
                ))
        self.pe_busy += pe_busy
        cache.sample_utilization_epoch(occ_b, occ_p, cycle_list)
        # Catch up the completion drains the reference loop performed
        # during the stretch: everything finishing by the PE-availability
        # horizon it saw before the last dispatch is already completed.
        # Final leaves' completions are pure bookkeeping, so drained ones
        # vanish and only the still-in-flight tail enters the heap.
        while completions and completions[0][0] <= threshold:
            slot = heappop(completions)[2]
            if slot is not None:
                self._complete(slot)
        for i in range(num_tasks):
            finish = finishes[i]
            if finish > threshold:
                heappush(completions, (finish, sequence + i, None))
        return sequence + num_tasks

    # -- functional pass --------------------------------------------------
    def _functional_pass(self, start: int) -> _TaskRecords:
        """Merge the task graphs of the next chunk of work items.

        A simple item (untiled, within the radix: one final leaf) opens
        a chunk that runs to the next other item, taken as slices of the
        program's arrays. Any other item opens a chunk cut at the last
        item boundary within ``_LOOKAHEAD_ELEMENTS`` merged B elements
        (:meth:`_general_chunk`).
        """
        program = self.program
        base = self.records.base + len(self.records.rows)
        at = np.searchsorted(self.not_simple, start)
        stop = (int(self.not_simple[at]) if at < len(self.not_simple)
                else self.num_items)
        if stop > start:
            rec = _TaskRecords(base, start, stop)
            size = stop - start
            rec.rows = program.rows[start:stop].tolist()
            rec.levels = [0] * size
            rec.finals = [True] * size
            rec.kids = [()] * size
            rec.counts = self.item_lens[start:stop]
            rec.item_first = list(range(size + 1))
            rec.simple = [True] * size
            gather = spans(program.starts[start:stop], rec.counts)
            combine_stages: Dict[int, int] = {}
            new_parts: List = []
        else:
            rec, gather, combine_stages, new_parts = self._general_chunk(
                start, base)
        rows = rec.rows
        keep = self.keep_output
        b_first = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(rec.counts, out=b_first[1:])
        rec.b_first = b_first.tolist()
        stages = np.asarray(rec.levels, dtype=np.int64)
        for t, stage in combine_stages.items():
            stages[t] = stage
        pool = self._merge_stages(
            rec, stages, b_first, program.a.coords[gather],
            program.a.values[gather] if keep else None, bool(new_parts))
        final_mask = np.asarray(rec.finals, dtype=bool)
        self.c_nnz += int(pool[2][:len(rows)][final_mask].sum())
        if keep:
            output_rows = self.output_rows
            for t in np.flatnonzero(final_mask).tolist():
                output_rows[rows[t]] = _make_fiber(*_pool_output(pool, t))
        # Parts whose combine tree lies in a later chunk keep their
        # outputs (the reference holds them as live partial fibers).
        for row, root in new_parts:
            if row in self.row_parts:
                self.retained[root] = _pool_output(pool, root - base)
        self.records = rec
        return rec

    def _general_chunk(self, start: int, base: int):
        """Records of a chunk opened by an item that is not simple.

        Each item contributes its :func:`~repro.core.tasks.tree_layout`
        tasks (a simple one, its final leaf); the last part of a tiled
        row adds the row's combine tree. Returns the records, the
        positions in A of the tasks' direct B inputs, the combine tasks'
        stages and the new part roots.
        """
        program = self.program
        radix = self.config.radix
        item_cum = self.item_cum
        # Items up to the first whose inputs reach the lookahead budget,
        # then back to the last boundary within it in merged elements.
        stop = min(self.num_items, int(np.searchsorted(
            item_cum, item_cum[start] + _LOOKAHEAD_ELEMENTS)))
        coords = program.a.coords[spans(program.starts[start:stop],
                                        self.item_lens[start:stop])]
        offsets = self.b.offsets
        merged = np.zeros(len(coords) + 1, dtype=np.int64)
        np.cumsum(offsets[coords + 1] - offsets[coords], out=merged[1:])
        stop = start + max(1, int(np.searchsorted(
            merged[item_cum[start + 1:stop + 1] - item_cum[start]],
            _LOOKAHEAD_ELEMENTS, side="right")))

        rec = _TaskRecords(base, start, stop)
        rows: List[int] = []
        levels: List[int] = []
        finals: List[bool] = []
        kids: List[tuple] = []
        combine_stages: Dict[int, int] = {}
        counts: List[int] = []
        gathers: List = []
        item_first: List[int] = []
        simple: List[bool] = []
        new_parts: List = []
        row_parts = self.row_parts
        for row, lo, count, num_parts in zip(
                program.rows[start:stop].tolist(),
                program.starts[start:stop].tolist(),
                self.item_lens[start:stop].tolist(),
                program.num_parts[start:stop].tolist()):
            item_first.append(len(rows))
            if num_parts == 1 and count <= radix:
                simple.append(True)
                rows.append(row)
                levels.append(0)
                finals.append(True)
                kids.append(())
                counts.append(count)
                gathers.append(np.arange(lo, lo + count))
                continue
            simple.append(False)
            tree = tasks.tree_layout(count, radix)
            size = len(tree.levels)
            rows += [row] * size
            levels += tree.levels
            finals += [False] * size
            kids += tree.kids
            counts += tree.counts
            gathers.append(lo + tree.positions)
            if num_parts == 1:
                finals[-1] = True
                continue
            root = base + len(rows) - 1
            parts = row_parts.setdefault(row, [])
            parts.append(root)
            new_parts.append((row, root))
            if len(parts) < num_parts:
                continue
            # The row's last part: its combine tree follows the part's
            # tree in task-id order (Scheduler._emit_combine_tasks).
            del row_parts[row]
            inputs = parts
            level = 1
            while True:
                groups = ([inputs[lo:lo + radix]
                           for lo in range(0, len(inputs), radix)]
                          if len(inputs) > radix else [inputs])
                outputs = []
                for group in groups:
                    slot = base + len(rows)
                    outputs.append(slot)
                    combine_stages[slot - base] = 1 + max(
                        [combine_stages.get(g - base, levels[g - base])
                         for g in group if g >= base], default=-1)
                    rows.append(row)
                    levels.append(level)
                    finals.append(len(groups) == 1 and len(inputs) <= radix)
                    kids.append(tuple([slot - g for g in group]))
                    counts.append(0)
                if len(inputs) <= radix:
                    break
                inputs = outputs
                level += 1
        item_first.append(len(rows))
        rec.rows = rows
        rec.levels = levels
        rec.finals = finals
        rec.kids = kids
        rec.counts = np.asarray(counts, dtype=np.int64)
        rec.item_first = item_first
        rec.simple = simple
        return rec, np.concatenate(gathers), combine_stages, new_parts

    def _merge_stages(self, rec, stages, b_first, in_rows, in_scales,
                      keep_coords):
        """Run the chunk's merge kernels, one composite-key call per stage.

        A task's stage is one past its deepest in-chunk child's (leaves
        and combines over earlier chunks' parts: 0), so every stage's
        inputs are merged before it runs. A task's element stream is its
        partial inputs' outputs, children in order, then its direct B
        rows — ``linear_combine``'s input order — so one stable argsort
        on ``task * num_cols + coord`` orders every task's elements by
        coordinate with ties in input order, and the group reduction
        reproduces the scalar fold exactly: zero-started ``np.bincount``
        for arithmetic, first-element ``add_ufunc.reduceat`` for
        semirings. Tasks with a single nonempty input mirror
        ``linear_combine``'s ``fiber.scale`` shortcut (a direct product,
        no zero start) so IEEE signed zeros survive. Values are computed
        only under ``keep_output``: lengths alone drive the timing.

        Fills the records' cycles and output lengths, and returns the
        chunk's output pool for :func:`_pool_output` (the last stage's
        outputs only under ``keep_output`` or ``keep_coords``: nothing
        else reads them).
        """
        b = self.b
        offsets = b.offsets
        num_cols = b.num_cols
        num_tasks = len(rec.rows)
        semiring = self.semiring
        arithmetic = semiring is None or semiring.is_arithmetic
        one = 1.0 if semiring is None else semiring.one
        keep = in_scales is not None
        base = rec.base
        row_start = offsets[in_rows]
        nnzs = offsets[in_rows + 1] - row_start
        rec.lows = (row_start * ELEMENT_BYTES) // LINE_BYTES
        rec.highs = -(-((row_start + nnzs) * ELEMENT_BYTES) // LINE_BYTES)

        # Children as pool indices: in-chunk tasks first, then the
        # retained outputs of earlier chunks' parts.
        kid_counts = np.fromiter(map(len, rec.kids), dtype=np.int64,
                                 count=num_tasks)
        offsets_back = np.fromiter(itertools.chain.from_iterable(rec.kids),
                                   dtype=np.int64,
                                   count=int(kid_counts.sum()))
        kid_index = np.repeat(np.arange(num_tasks, dtype=np.int64),
                              kid_counts) - offsets_back
        external = (kid_index[kid_index < 0] + base).tolist()
        if external:
            kid_index[kid_index < 0] = np.arange(
                num_tasks, num_tasks + len(external), dtype=np.int64)
        kid_first = np.zeros(num_tasks + 1, dtype=np.int64)
        np.cumsum(kid_counts, out=kid_first[1:])
        out_start = np.zeros(num_tasks + len(external), dtype=np.int64)
        out_len = np.zeros(num_tasks + len(external), dtype=np.int64)
        pool_coords = [np.empty(0, dtype=np.int64)]
        pool_values = [np.empty(0, dtype=np.float64)]
        pool_size = 0
        for i, slot in enumerate(external):
            coords, values = self.retained.pop(slot)
            out_start[num_tasks + i] = pool_size
            out_len[num_tasks + i] = len(coords)
            pool_size += len(coords)
            pool_coords.append(coords)
            pool_values.append(values)
        cycles = np.ones(num_tasks, dtype=np.int64)
        elements = 0
        last = int(stages.max())
        for stage in range(last + 1):
            pool_coords = [np.concatenate(pool_coords)]
            if keep:
                pool_values = [np.concatenate(pool_values)]
            members = np.flatnonzero(stages == stage)
            n = len(members)
            local = np.arange(n, dtype=np.int64)
            # Partial block: children's outputs, in input order.
            kc = kid_counts[members]
            if kc.any():
                kids = kid_index[spans(kid_first[members], kc)]
                k_len = out_len[kids]
                k_task = np.repeat(local, kc)
                p_gather = spans(out_start[kids], k_len)
            else:
                k_len = k_task = p_gather = np.empty(0, dtype=np.int64)
            # B block: direct B rows, in input order.
            bc = b_first[members + 1] - b_first[members]
            inputs = spans(b_first[members], bc)
            b_nnz = nnzs[inputs]
            b_task = np.repeat(local, bc)
            b_gather = spans(row_start[inputs], b_nnz)
            el_task = np.concatenate((np.repeat(k_task, k_len),
                                      np.repeat(b_task, b_nnz)))
            el_coords = np.concatenate((pool_coords[0][p_gather],
                                        b.coords[b_gather]))
            totals = (np.bincount(k_task, weights=k_len, minlength=n)
                      + np.bincount(b_task, weights=b_nnz, minlength=n)
                      ).astype(np.int64)
            cycles[members] = epoch_cycles(totals)
            elements += len(el_task)
            order, flags, lens = epoch_merge_groups(el_task, el_coords,
                                                    num_cols, n)
            out_len[members] = lens
            if stage == last and not (keep or keep_coords):
                break
            bounds = np.cumsum(lens)
            out_start[members] = pool_size + bounds - lens
            pool_size += int(bounds[-1]) if n else 0
            pool_coords.append(el_coords[order][flags])
            if not keep:
                continue
            el_values = np.concatenate((pool_values[0][p_gather],
                                        b.values[b_gather]))
            el_scales = np.concatenate((
                np.full(len(p_gather), one, dtype=np.float64),
                np.repeat(in_scales[inputs], b_nnz)))
            if arithmetic:
                products = (el_values * el_scales)[order]
            else:
                products = np.asarray(
                    semiring.mul_array(el_scales, el_values),
                    dtype=np.float64)[order]
            values = accumulate_groups(products, flags, semiring)
            if arithmetic:
                # linear_combine's single-nonempty shortcut scales the
                # fiber directly, with no zero-started fold; replay it so
                # -0.0 products survive bit-for-bit.
                nonempty = (np.bincount(k_task[k_len > 0], minlength=n)
                            + np.bincount(b_task[b_nnz > 0], minlength=n))
                single = (nonempty == 1)[el_task[order]]
                if single.any():
                    group = np.cumsum(flags) - 1
                    values[group[single]] = products[single]
            pool_values.append(values)
        rec.elements = elements
        self.flops += elements
        rec.cycles = cycles.tolist()
        rec.out_lens = out_len[:num_tasks].tolist()
        return (np.concatenate(pool_coords), out_start, out_len,
                np.concatenate(pool_values) if keep else None)

    # -- results ----------------------------------------------------------
    def result(self) -> SimulationResult:
        from repro.analysis.traffic import compulsory_traffic

        output = None
        if self.keep_output:
            rows = [
                self.output_rows.get(r, Fiber.empty())
                for r in range(self.a.num_rows)
            ]
            output = CsrMatrix.from_rows(rows, self.b.num_cols)
        return SimulationResult(
            output=output,
            cycles=self.now,
            traffic_bytes=self.memory.traffic.breakdown(),
            compulsory_bytes=compulsory_traffic(self.a, self.b, self.c_nnz),
            flops=self.flops,
            pe_busy_cycles=self.pe_busy,
            num_tasks=self.num_tasks,
            num_partial_fibers=self.num_partials,
            cache_utilization=self.cache.average_utilization(),
            config=self.config,
            c_nnz=self.c_nnz,
            dispatch={"scalar": 0, "epoch": self.num_tasks},
        )


def _pool_output(pool, t: int):
    """A copy of task ``t``'s output (coords, values or None) in a pool."""
    coords, out_start, out_len, values = pool
    lo = out_start[t]
    hi = lo + out_len[t]
    return (coords[lo:hi].copy(),
            values[lo:hi].copy() if values is not None else None)


def multiply(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    program: Optional[WorkProgram] = None,
) -> SimulationResult:
    """Convenience one-shot simulation of C = A x B on Gamma."""
    return GammaSimulator(config).run(a, b, program=program)
