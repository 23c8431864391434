"""The Gamma accelerator simulator: data-oriented, epoch-batched core.

Functionally this is the same machine as
:mod:`repro.core.simulator_ref` — Gustavson spMspM with scheduler-driven
task trees, FiberCache line touches, a bandwidth-limited memory channel,
and the paper's PE timing law — and it is lockstep-tested to produce
bit-identical outputs, cycle counts, and traffic breakdowns. What
changed is the execution engine: leaves are split into a *functional*
pass and a *timing* pass, and the timing pass advances in *epochs*
instead of one ``_execute_task`` call per task.

The functional pass. Everything a level-0 leaf computes without
consulting time — its B line ranges, PE cycles, output length, and
output fiber — is a function of its work item alone, and leaves
dispatch in program order (every leaf enters the ready heap at its
item's expansion and nothing outranks an earlier item's leaf). So the
core merges leaves *ahead of dispatch*, in bounded program-order chunks
of struct-of-arrays records (:class:`_LeafRecords`): one composite-key
merge kernel (stable argsort + group reduction, bit-matched to
``linear_combine``) covers thousands of leaves, and each leaf is merged
exactly once however many epochs it waits through.

The timing pass. An epoch is a maximal run of leaf dispatches whose
order the reference event loop would fix independently of task timing.
With no task tree that could unblock mid-run, the scheduler's cursor
*stretch* of final leaves (:meth:`EpochScheduler.drain_stretch`)
executes in one go, its cache touches batched through one
``FiberCache.fetch_read_epoch`` call. With trees in flight, the ready
run of leaves executes as a *fenced* epoch: the fence is the earliest
instant a completion drain could make a waiting parent ready
(:meth:`EpochScheduler.fence_plan`), dispatching stops when the
PE-availability horizon reaches it, and each non-final dispatch arms
its parent and lowers the fence in place so the stop condition stays
exact. Either way an epoch only does bookkeeping: pick a PE, touch the
FiberCache, charge DRAM (result-less C writes and partial writebacks
deferred through ``MemoryInterface.request_epoch``), and fold the
fence. Non-final leaves keep the reference's side effects exactly: the
partial-output budget rises per dispatch (with the reference's
between-dispatch refill expansions replayed at the same budget values),
partial lines are allocated and written in dispatch order, and
completions enter the drain heap carrying the real task so parents
unblock identically.

Interior merges and root emits dispatch one at a time through the
reference's scalar ``_execute_task``, exactly as the event loop does.
Runs that collect a MetricsRegistry take the scalar path wholesale (and
skip the functional pass) so every per-dispatch metric sample stays
bit-identical; traces are supported in epoch mode (events are emitted
from the epoch loops with the same fields).

See docs/architecture.md §13 for the layout and the epoch advancement
rule, and ``tests/test_simulator_lockstep.py`` for the differential
suite against the reference engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, LINE_BYTES, OFFSET_BYTES
from repro.core.accumulator import accumulate_groups
from repro.core.pe import epoch_cycles, epoch_merge_groups
from repro.core.result import SimulationResult
from repro.core.scheduler import EpochScheduler, WorkProgram
from repro.core.simulator_ref import (ReferenceGammaSimulator,
                                      _ReferenceRunState)
from repro.core.tasks import leaf_ranges
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import _make_fiber

_INF = float("inf")

#: Merged-element budget of one functional-pass chunk computed ahead of
#: dispatch: large enough to amortize the merge kernel over thousands of
#: leaves, small enough to bound the records held ahead of the timing
#: pass (the chunk is cut at a work-item boundary, at least one item).
_LOOKAHEAD_ELEMENTS = 1 << 13


class _FastDetailedPE:
    """Serves ``combine_detailed`` from the fast functional model.

    The two PE models are observably identical: ``combine_detailed``
    reports ``cycles = max(1, len(merged))`` with every merged element
    consuming exactly one input element and ``multiplies = total_in`` —
    the same closed forms ``combine`` uses — and its accumulator fold
    (scaled left-to-right over the (coordinate, way)-sorted element
    stream) is the fold ``linear_combine`` evaluates array-wise. The
    batched core therefore runs detailed-PE configurations through the
    vectorized path; the reference engine keeps walking the per-cycle
    pipeline, and the lockstep suite holds the two bit-identical.
    """

    __slots__ = ("_pe",)

    def __init__(self, pe) -> None:
        self._pe = pe

    def __getattr__(self, name):
        return getattr(self._pe, name)

    def combine_detailed(self, fibers, scales, semiring=None):
        return self._pe.combine(fibers, scales, semiring=semiring)


class _LeafRecords:
    """Functional-pass results for a contiguous run of the leaf stream.

    Record ``r`` describes leaf ``base + r`` in dispatch order, and the
    run covers the work items before ``next_item``. Struct-of-arrays
    throughout: per-input B line ranges (``lows``/``highs``, grouped by
    ``first``/``counts``), per-leaf PE cycles and output lengths, and
    the output fibers of leaves that need values as slices of one
    coordinate/value pair. Final leaves' outputs are stored when the
    records are built; non-final leaves' fibers are handed out at
    dispatch (:meth:`fiber`).
    """

    __slots__ = ("base", "end", "next_item", "elements", "first", "counts",
                 "lows", "highs", "cycles", "out_lens", "out_coords",
                 "out_values", "fiber_start", "fiber_end", "_range_lists")

    def __init__(self, base: int, next_item: int) -> None:
        self.base = self.end = base
        self.next_item = next_item
        #: Input elements the kernel merged for this run (its flops).
        self.elements = 0
        self._range_lists = None

    def range_lists(self):
        """``(lows, highs)`` as lists, for per-task cache touches."""
        if self._range_lists is None:
            self._range_lists = (self.lows.tolist(), self.highs.tolist())
        return self._range_lists

    def fiber(self, r: int):
        lo = self.fiber_start[r]
        hi = self.fiber_end[r]
        return _make_fiber(self.out_coords[lo:hi], self.out_values[lo:hi])


class GammaSimulator:
    """Simulates one spMspM on a Gamma system (batched engine).

    Drop-in replacement for :class:`ReferenceGammaSimulator` — same
    constructor, same results bit-for-bit — advancing execution in
    epochs instead of per-task events. Custom semirings without a
    declared ``add_ufunc`` have no vectorizable accumulation, so those
    runs delegate to the reference engine wholesale.

    Args:
        config: Hardware parameters.
        multi_pe_scheduling: Scheduler mode (Fig. 20 ablation); the default
            True lets tasks of one row run on any PE.
        keep_output: Retain the computed C matrix in the result (disable to
            save memory on large sweeps; also skips computing final
            rows' values, since structure alone determines traffic and
            timing).
        semiring: Scalar algebra for the PEs' multiply/accumulate units;
            None selects ordinary (+, x).
        trace: Optional :class:`~repro.core.trace.ExecutionTrace` that
            records one event per executed task.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when set,
            the run executes on the scalar path so per-dispatch samples
            match the reference engine exactly.
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
        if (self.semiring is not None and not self.semiring.is_arithmetic
                and self.semiring.add_ufunc is None):
            return ReferenceGammaSimulator(
                self.config, self.multi_pe_scheduling, self.keep_output,
                self.semiring, self.trace, self.metrics,
            ).run(a, b, program=program)
        if a.num_cols != b.num_rows:
            raise ValueError(
                f"inner dimensions differ: {a.shape} x {b.shape}"
            )
        if program is None:
            program = WorkProgram.from_matrix(a)
        state = _BatchedRunState(self.config, a, b, program,
                                 self.multi_pe_scheduling, self.semiring,
                                 self.trace, self.metrics,
                                 keep_output=self.keep_output)
        state.execute()
        return state.result(self.keep_output)


class _BatchedRunState(_ReferenceRunState):
    """Run state with a functional leaf pass and epoch timing.

    Inherits all scalar machinery — ``_execute_task``, PE picking,
    metrics publishing, result assembly — from the reference run state
    and overrides the main loop to run level-0 leaves as batched epochs
    over precomputed :class:`_LeafRecords`.
    """

    def __init__(self, config, a, b, program, multi_pe, semiring=None,
                 trace=None, metrics=None, keep_output=True) -> None:
        super().__init__(config, a, b, program, multi_pe, semiring,
                         trace, metrics)
        # Same construction arguments as the base Scheduler: the epoch
        # variant is bit-neutral and only adds run extraction.
        self.scheduler = EpochScheduler(
            program,
            radix=config.radix,
            multi_pe=multi_pe,
            max_outstanding_partials=2 * config.num_pes,
            metrics=metrics,
        )
        self.keep_output = keep_output
        if config.detailed_pe_model:
            self.pe_model = _FastDetailedPE(self.pe_model)
        # Per-dispatch metric samples can't be replayed from batch
        # aggregates, so metric runs stay on the scalar path throughout.
        self.use_epochs = metrics is None
        #: Output-row lengths (c_nnz and C-write sizing) — maintained even
        #: when output values are skipped.
        self.output_len: Dict[int, int] = {}
        #: Leaves dispatched so far: the next leaf's position in the
        #: program-order leaf stream.
        self._leaf_pos = 0
        #: The functional-pass records covering ``_leaf_pos`` (empty
        #: until the first epoch builds some).
        self._records = _LeafRecords(0, 0)

    # -- main loop --------------------------------------------------------
    def execute(self) -> None:
        """Epoch-batched list scheduling.

        Identical decision sequence to the reference event loop. Whenever
        the ready head is a level-0 leaf, the run of leaves whose
        dispatch order is provably timing-independent executes as one
        epoch; interior merges and root emits take the scalar path.
        """
        target_pending = 2 * self.config.num_pes
        completions: List = []
        sequence = 0
        scheduler = self.scheduler
        items = self.program.items
        use_epochs = self.use_epochs
        while True:
            scheduler.refill(target_pending, allow_force=not completions)
            next_pe_time = self._next_pe_time()
            while completions and completions[0][0] <= next_pe_time:
                _, _, done = heapq.heappop(completions)
                if done is not None:
                    scheduler.task_completed(done)
                scheduler.refill(target_pending,
                                 allow_force=not completions)
            if use_epochs:
                head = scheduler.peek_ready()
                if head is not None and head.level == 0:
                    sequence = self._execute_leaves(
                        head, completions, sequence, target_pending)
                    continue
            task = scheduler.next_task()
            if task is not None:
                sequence = self._dispatch_scalar(task, completions, sequence)
                continue
            if completions:
                if (not scheduler.has_blocked_tasks()
                        and scheduler._item_cursor >= len(items)):
                    # Nothing can become ready anymore: the remaining
                    # completion drains are bookkeeping no-ops, so skip
                    # the one-pop-per-iteration tail wholesale.
                    completions.clear()
                    continue
                _, _, done = heapq.heappop(completions)
                if done is not None:
                    scheduler.task_completed(done)
                continue
            if scheduler.exhausted:
                break
            raise RuntimeError(
                "scheduler stalled with blocked tasks outstanding"
            )
        self._account_a_traffic()
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

    def _dispatch_scalar(self, task, completions, sequence: int) -> int:
        """One reference-path dispatch: execute, then queue completion."""
        finish = self._execute_task(task)
        heapq.heappush(completions, (finish, sequence, task))
        return sequence + 1

    def _execute_task(self, task):
        finish = super()._execute_task(task)
        if task.is_final:
            self.output_len[task.row] = len(self.output_rows[task.row])
        return finish

    def _execute_leaves(self, head, completions, sequence: int,
                        target_pending: int) -> int:
        """Dispatch the ready run of level-0 leaves as one epoch.

        A final-leaf head with nothing that could become ready mid-run
        opens a cursor stretch. Otherwise the drained run executes under
        its fence plan — with an infinite fence when nothing can arm,
        e.g. a tiled row's part whose combine parent is not registered
        yet — so every leaf dispatches inside an epoch.
        """
        scheduler = self.scheduler
        if head.is_final and not scheduler.has_blocked_tasks():
            return self._execute_stretch(completions, sequence)
        entries = scheduler.drain_ready_leaves()
        ids = [entry[1].task_id for entry in entries]
        fence, waiters = scheduler.fence_plan(self.finish_time, ids)
        if fence == _INF and not waiters and head.is_final:
            # No waiting task can arm during the run (a non-final leaf
            # would put its armable parent in ``waiters``), so the
            # cursor fast path applies.
            scheduler.push_back(entries)
            return self._execute_stretch(completions, sequence)
        new_sequence = self._execute_epoch_fenced(
            entries, ids, fence, waiters, completions, sequence,
            target_pending)
        # The main loop drained every completion up to the PE horizon,
        # so an armed parent's fence lies beyond it: the head dispatches.
        assert new_sequence > sequence, "fenced epoch dispatched nothing"
        return new_sequence

    # -- functional pass --------------------------------------------------
    def _lookahead_records(self) -> _LeafRecords:
        """Merge the next chunk of the leaf stream ahead of dispatch.

        Walks work items in program order from the end of the current
        records, listing each item's leaves — the item itself for a
        simple item (untiled, within the radix: one final leaf), else
        its task tree's :func:`~repro.core.tasks.leaf_ranges` slices
        (non-final) — and hands them to :meth:`_leaf_records`, which
        cuts the chunk at ``_LOOKAHEAD_ELEMENTS`` merged elements.
        """
        items = self.program.items
        num_items = len(items)
        radix = self.config.radix
        rows: List[int] = []
        coord_parts: List = []
        scale_parts: List = []
        finals: List[bool] = []
        item_ends: List[int] = []
        index = self._records.next_item
        inputs = 0
        while index < num_items and inputs < _LOOKAHEAD_ELEMENTS:
            item = items[index]
            coords = item.coords
            values = item.values
            count = len(coords)
            if item.num_parts == 1 and count <= radix:
                rows.append(item.row)
                coord_parts.append(coords)
                scale_parts.append(values)
                finals.append(True)
            else:
                for lo, hi in leaf_ranges(count, radix):
                    rows.append(item.row)
                    coord_parts.append(coords[lo:hi])
                    scale_parts.append(values[lo:hi])
                    finals.append(False)
            item_ends.append(len(rows))
            inputs += count
            index += 1
        return self._leaf_records(rows, coord_parts, scale_parts, finals,
                                  item_ends)

    def _leaf_records(self, rows, coord_parts, scale_parts, finals=None,
                      item_ends=None) -> _LeafRecords:
        """The functional pass over the next run of leaves.

        ``rows``/``coord_parts``/``scale_parts`` list the leaves from
        ``_leaf_pos`` on in dispatch order; ``finals`` marks final
        leaves (all final when None: a cursor stretch, one leaf per
        item). With ``item_ends`` — the leaf count at the end of each
        listed work item — the run is cut at the last item boundary
        within ``_LOOKAHEAD_ELEMENTS`` merged elements.

        One composite-key kernel yields every leaf's output length and,
        where needed, values: the key ``leaf * num_cols + coord`` makes
        one stable argsort order all elements by (leaf, coordinate) with
        ties in input order, so per-group reduction reproduces the
        scalar fold exactly — zero-started ``np.bincount`` for
        arithmetic, first-element ``add_ufunc.reduceat`` for semirings.
        Single-nonempty-input leaves mirror ``linear_combine``'s
        ``fiber.scale`` shortcut (a direct product, no zero start) to
        preserve IEEE signed zeros. Values are computed for non-final
        leaves always (parents merge them) and for final leaves under
        ``keep_output``, whose rows are stored right away.
        """
        b = self.b
        offsets = b.offsets
        num = len(rows)
        counts = np.fromiter(map(len, coord_parts), dtype=np.int64,
                             count=num)
        in_rows = (np.concatenate(coord_parts) if num > 1
                   else np.asarray(coord_parts[0], dtype=np.int64))
        row_start = offsets[in_rows]
        nnzs = offsets[in_rows + 1] - row_start
        first = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(counts, out=first[1:])
        totals = np.add.reduceat(nnzs, first[:-1])
        covered = num  # work items the run covers
        if item_ends is not None:
            ends = np.cumsum(totals)[np.asarray(item_ends) - 1]
            covered = max(1, int(np.searchsorted(
                ends, _LOOKAHEAD_ELEMENTS, side="right")))
            if covered < len(item_ends):
                num = item_ends[covered - 1]
                used = int(first[num])
                rows, finals = rows[:num], finals[:num]
                scale_parts = scale_parts[:num]
                counts, totals = counts[:num], totals[:num]
                first = first[:num + 1]
                row_start, nnzs = row_start[:used], nnzs[:used]
        prev = self._records
        rec = _LeafRecords(prev.end, prev.next_item + covered)
        rec.end = rec.base + num
        rec.counts = counts
        rec.first = first.tolist()
        rec.lows = (row_start * ELEMENT_BYTES) // LINE_BYTES
        rec.highs = -(-((row_start + nnzs) * ELEMENT_BYTES) // LINE_BYTES)
        rec.cycles = epoch_cycles(totals).tolist()
        elements = rec.elements = int(totals.sum())
        self.flops += elements

        keep = self.keep_output
        need = None
        if not keep and finals is not None and not all(finals):
            need = ~np.fromiter(finals, dtype=bool, count=num)
        out_lens = np.zeros(num, dtype=np.int64)
        if elements:
            input_task = np.repeat(np.arange(num, dtype=np.int64), counts)
            block_start = np.cumsum(nnzs) - nnzs
            gather = np.arange(elements, dtype=np.int64)
            gather += np.repeat(row_start - block_start, nnzs)
            el_coords = b.coords[gather]
            el_task = np.repeat(input_task, nnzs)
            order, flags, out_lens = epoch_merge_groups(
                el_task, el_coords, b.num_cols, num)
        rec.out_lens = len_list = out_lens.tolist()
        if keep or need is not None:
            if need is None:
                sel_lens = out_lens
            else:
                sel_lens = np.where(need, out_lens, 0)
            bounds = np.cumsum(sel_lens)
            starts = bounds - sel_lens
            if elements:
                if need is not None:
                    mask = need[el_task[order]]
                    order, flags = order[mask], flags[mask]
                all_scales = (np.concatenate(scale_parts) if num > 1
                              else np.asarray(scale_parts[0],
                                              dtype=np.float64))
                el_scales = np.repeat(all_scales, nnzs)[order]
                el_values = b.values[gather[order]]
                semiring = self.semiring
                arithmetic = semiring is None or semiring.is_arithmetic
                if arithmetic:
                    sorted_values = el_values * el_scales
                else:
                    sorted_values = np.asarray(
                        semiring.mul_array(el_scales, el_values),
                        dtype=np.float64)
                out_values = accumulate_groups(sorted_values, flags,
                                               semiring)
                out_coords = el_coords[order][flags]
                if arithmetic:
                    # linear_combine's single-nonempty shortcut scales
                    # the fiber directly, with no zero-started fold;
                    # replay it so -0.0 products survive bit-for-bit.
                    single = np.bincount(input_task[nnzs > 0],
                                         minlength=num) == 1
                    if need is not None:
                        single &= need
                    b_values = b.values
                    for t in np.flatnonzero(single).tolist():
                        lo = first[t]
                        j = lo + np.flatnonzero(nnzs[lo:first[t + 1]])[0]
                        start = row_start[j]
                        out_values[starts[t]:bounds[t]] = (
                            b_values[start:start + nnzs[j]]
                            * all_scales[j])
            else:
                out_coords = np.empty(0, dtype=np.int64)
                out_values = np.empty(0, dtype=np.float64)
            rec.out_coords = out_coords
            rec.out_values = out_values
            rec.fiber_start = starts.tolist()
            rec.fiber_end = bounds.tolist()
        output_len = self.output_len
        output_rows = self.output_rows
        for t in (range(num) if finals is None
                  else itertools.compress(range(num), finals)):
            row = rows[t]
            output_len[row] = len_list[t]
            if keep:
                output_rows[row] = rec.fiber(t)
        self._records = rec
        return rec

    # -- timing pass ------------------------------------------------------
    def _execute_stretch(self, completions, sequence: int) -> int:
        """Drain and execute a cursor stretch of final leaves as one epoch.

        A stretch that starts inside the current records stops at their
        end (records are consumed in order and each leaf is merged once);
        past them, the stretch is its own functional-pass run.
        """
        rec = self._records
        pos = self._leaf_pos
        if pos < rec.end:
            rows, task_ids, _, _ = self.scheduler.drain_stretch(
                rec.end - pos)
        else:
            rows, task_ids, coords, scales = self.scheduler.drain_stretch()
            rec = self._leaf_records(rows, coords, scales)
        num_tasks = len(rows)
        offset = pos - rec.base
        stop = offset + num_tasks
        in_lo = rec.first[offset]
        in_hi = rec.first[stop]
        misses, dirties, occ_b, occ_p = self.cache.fetch_read_epoch(
            rec.lows[in_lo:in_hi], rec.highs[in_lo:in_hi],
            rec.counts[offset:stop], "B")
        cycle_list = rec.cycles[offset:stop]
        len_list = rec.out_lens[offset:stop]
        self.num_tasks += num_tasks
        self.dispatch_epoch += num_tasks
        self._leaf_pos += num_tasks

        # Bulk time advancement: earliest-free assignment per task, B
        # requests issued at dispatch, result-less charges deferred.
        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        trace = self.trace
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending: List = []
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        if trace is not None:
            from repro.core.trace import TaskEvent
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
            cyc = cycle_list[i]
            if miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                data_ready = memory.request(
                    "B", miss * LINE_BYTES, start)
                finish = start + cyc
                if data_ready > finish:
                    finish = data_ready
            else:
                finish = start + cyc
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cyc
            pe_busy += cyc
            pending.append(
                ("C", len_list[i] * ELEMENT_BYTES + OFFSET_BYTES, finish))
            dirty = dirties[i]
            if dirty:
                pending.append(
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
                    busy_cycles=cyc,
                    b_miss_lines=miss,
                    partial_miss_lines=0,
                ))
        if pending:
            memory.request_epoch(pending)
        self.pe_busy += pe_busy
        self.cache.sample_utilization_epoch(occ_b, occ_p, cycle_list)
        # Catch up the completion drains the reference loop performed
        # during the stretch: everything finishing by the PE-availability
        # horizon it saw before the last dispatch is already completed.
        # Epoch tasks are final leaves — completing one is pure
        # bookkeeping (final ids are never consulted by a dependency
        # scan) — so drained epoch completions vanish outright and only
        # the still-in-flight tail enters the completions heap.
        scheduler = self.scheduler
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        for i in range(num_tasks):
            finish = finishes[i]
            if finish > threshold:
                heappush(completions, (finish, sequence + i, None))
        return sequence + num_tasks

    def _execute_epoch_fenced(self, entries, ids, fence: float, waiters,
                              completions, sequence: int,
                              target_pending: int) -> int:
        """Execute a leaf run bounded by a ready-fence.

        With task trees in flight, the reference loop keeps dispatching
        level-0 leaves back-to-back until its PE-availability horizon
        reaches the *fence* — the earliest time a completion drain can
        make a waiting parent ready (``EpochScheduler.fence_plan``), at
        which point the parent preempts every later-ordered leaf. This
        path replays exactly that run from the functional records (built
        ahead when the run starts past them, and stopping where they
        end): cache touches stay per-task, so stopping at the fence
        leaves no phantom state, and the undispatched suffix returns to
        the ready heap verbatim.

        Both final leaves and non-final tree leaves dispatch here.
        A non-final leaf allocates and writes its partial-fiber lines in
        dispatch order (bit-identical cache evolution), publishes its
        output fiber and finish for dependants, and folds that finish
        into the ``waiters`` records of parents it helps arm — lowering
        the fence on the spot, so the stop condition stays exact while
        the run itself changes which parents are armed. Its completion
        enters the heap carrying the real task so the drain unblocks
        the parent exactly like the reference loop's.

        ``entries`` are the raw heap entries from
        ``drain_ready_leaves``; ``ids`` their task ids in order.
        """
        rec = self._records
        pos = self._leaf_pos
        if pos == rec.end:
            rec = self._lookahead_records()
        base = pos - rec.base
        num_entries = len(entries)
        num_batch = min(num_entries, rec.end - pos)
        tasks = [entry[1] for entry in entries]
        finals = [task.is_final for task in tasks]
        lows, highs = rec.range_lists()
        first = rec.first
        cycle_list = rec.cycles
        len_list = rec.out_lens
        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        cache = self.cache
        fetch = cache.fetch_read_range
        write = cache.write_range
        sample = cache.sample_utilization
        allocate = self._allocate_partial_lines
        partial_fibers = self.partial_fibers
        partial_lines = self.partial_lines
        finish_time = self.finish_time
        trace = self.trace
        scheduler = self.scheduler
        refill_epoch = scheduler.refill_epoch
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending: List = []
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        dispatched = num_batch
        # Runs that dispatch non-final leaves move the partial-output
        # budget, which gates the reference loop's between-dispatch
        # refills; replay those refills in-loop so an expansion the
        # reference performed (or skipped) right at the budget edge
        # lands identically. All-final runs leave the budget static, so
        # their refills defer to the main loop unchanged.
        needs_refill = not all(finals)
        if trace is not None:
            from repro.core.trace import TaskEvent
        for i in range(num_batch):
            row = tasks[i].row
            if multi:
                thr = pe_free[0][0]
            else:
                while pe_free[0][0] != free_times[pe_free[0][1]]:
                    heappop(pe_free)
                thr = pe_free[0][0]
            if thr >= fence:
                dispatched = i
                break
            threshold = thr
            if multi:
                start, pe = heappop(pe_free)
            else:
                pe = row_pe.get(row)
                if pe is None:
                    pe = pe_free[0][1]
                    row_pe[row] = pe
                start = free_times[pe]
            r = base + i
            miss = 0
            dirty = 0
            for j in range(first[r], first[r + 1]):
                got_miss, got_dirty = fetch(lows[j], highs[j], "B")
                miss += got_miss
                dirty += got_dirty
            cyc = cycle_list[r]
            if miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                data_ready = memory.request("B", miss * LINE_BYTES, start)
                finish = start + cyc
                if data_ready > finish:
                    finish = data_ready
            else:
                finish = start + cyc
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cyc
            pe_busy += cyc
            out_len = len_list[r]
            if finals[i]:
                pending.append(
                    ("C", out_len * ELEMENT_BYTES + OFFSET_BYTES, finish))
            else:
                tid = ids[i]
                self.num_partials += 1
                # Mirror ``Scheduler.next_task``: dispatching a
                # non-final task brings one more partial output fiber
                # into existence (Sec. 3.4 budget).
                scheduler.outstanding_partials += 1
                lines = allocate(out_len)
                partial_lines[tid] = lines
                partial_fibers[tid] = rec.fiber(r)
                _, write_dirty = write(lines[0], lines[1], "partial")
                dirty += write_dirty
                finish_time[tid] = finish
                records = waiters.get(tid)
                if records is not None:
                    for record in records:
                        if finish > record[1]:
                            record[1] = finish
                        record[0] -= 1
                        if record[0] == 0 and record[1] < fence:
                            fence = record[1]
            if dirty:
                pending.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            sample(weight=cyc)
            if trace is not None:
                trace.record(TaskEvent(
                    task_id=ids[i],
                    row=row,
                    level=0,
                    is_final=finals[i],
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cyc,
                    b_miss_lines=miss,
                    partial_miss_lines=0,
                ))
            if needs_refill:
                refill_epoch(target_pending, num_entries - i - 1)
        if pending:
            memory.request_epoch(pending)
        if dispatched < num_entries:
            scheduler.push_back(entries[dispatched:])
        self.num_tasks += dispatched
        self.dispatch_epoch += dispatched
        self.pe_busy += pe_busy
        self._leaf_pos += dispatched
        # Catch up the completion drains the reference loop performed
        # during the run, in its exact (finish, sequence) order: merge
        # the run's own completions into the heap first, then drain
        # everything up to the horizon it saw before the last dispatch.
        # Drained finals vanish (their ids are never consulted by a
        # dependency scan); drained tree leaves unblock their parents —
        # by the fence invariant none of those parents can have become
        # ready at or below ``threshold``, so deferring the drains to
        # the epoch boundary is order-equivalent.
        for i in range(dispatched):
            heappush(completions, (finishes[i], sequence + i,
                                   None if finals[i] else tasks[i]))
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        return sequence + dispatched

    # -- results ----------------------------------------------------------
    def c_nnz(self) -> int:
        return sum(self.output_len.values())


def multiply(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    program: Optional[WorkProgram] = None,
) -> SimulationResult:
    """Convenience one-shot simulation of C = A x B on Gamma."""
    return GammaSimulator(config).run(a, b, program=program)
