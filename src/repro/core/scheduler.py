"""Work programs and the dynamic scheduler (paper Sec. 3.3).

A :class:`WorkProgram` is the processing-order sequence of :class:`WorkItem`
fragments of A — one item per row in the default case; reordered and/or
split into subrows by the Sec. 4 preprocessing. The :class:`Scheduler`
expands items into task trees, tracks dependencies, bounds the partial-output
footprint, and hands dispatchable tasks to the simulator in priority order
(row order first, then higher tree levels).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tasks import (Task, TaskInput, build_leaf_tree,
                              build_task_tree, _task_ids)
from repro.matrices.csr import CsrMatrix


@dataclass(frozen=True)
class WorkItem:
    """One schedulable fragment of A: a full row or a coordinate-space subrow.

    Attributes:
        row: Output row of C this fragment contributes to.
        part: Subrow index within the row (0 when the row is untiled).
        num_parts: Total subrows of the row (1 when untiled).
        coords: Column coordinates of the fragment (B row ids).
        values: Matching values of A.
    """

    row: int
    part: int
    num_parts: int
    coords: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.coords)


@dataclass
class WorkProgram:
    """The processing-order sequence of work items for one spMspM.

    Attributes:
        items: Fragments of A in the order the scheduler consumes them.
        num_rows: Rows of A (= rows of C).
        num_cols: Columns of A (= rows of B).
    """

    items: List[WorkItem]
    num_rows: int
    num_cols: int

    @staticmethod
    def from_matrix(a: CsrMatrix) -> "WorkProgram":
        """The identity program: one item per nonempty row, in row order."""
        items = []
        for row in range(a.num_rows):
            start, end = a.offsets[row], a.offsets[row + 1]
            if start == end:
                continue
            items.append(WorkItem(
                row=row, part=0, num_parts=1,
                coords=a.coords[start:end], values=a.values[start:end],
            ))
        return WorkProgram(items, a.num_rows, a.num_cols)

    def validate_against(self, a: CsrMatrix) -> None:
        """Check the program covers exactly A's nonzeros (test helper)."""
        seen: Dict[int, int] = {}
        for item in self.items:
            seen[item.row] = seen.get(item.row, 0) + item.nnz
        for row in range(a.num_rows):
            expected = a.row_nnz(row)
            if seen.get(row, 0) != expected:
                raise ValueError(
                    f"program covers {seen.get(row, 0)} nonzeros of row "
                    f"{row}, matrix has {expected}"
                )


class Scheduler:
    """Expands work items into tasks and dispatches them dynamically.

    Args:
        program: The work program (possibly preprocessed).
        radix: PE merger radix.
        multi_pe: When True (default), tasks from one row may run on any PE;
            when False, each row is bound to a single PE (the Fig. 20
            ablation).
        max_outstanding_partials: Bound on live partial output fibers
            (the paper limits this to twice the PE count, Sec. 3.4).
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when set,
            every dispatch samples the ready-queue depth and the live
            partial-fiber count (``sched/*`` histograms).
    """

    def __init__(
        self,
        program: WorkProgram,
        radix: int,
        multi_pe: bool = True,
        max_outstanding_partials: int = 64,
        metrics=None,
    ) -> None:
        self.program = program
        self.radix = radix
        self.multi_pe = multi_pe
        self.max_outstanding_partials = max_outstanding_partials
        self.metrics = metrics
        self._item_cursor = 0
        self._order_counter = itertools.count()
        self._ready: List[Tuple[Tuple[int, int, int], Task]] = []
        self._waiting: Dict[int, Task] = {}
        self._dep_count: Dict[int, int] = {}
        self._dependents: Dict[int, List[int]] = {}
        self.outstanding_partials = 0
        self._completed: set = set()
        # Multi-part rows: row -> (root task ids seen, items seen).
        self._row_parts: Dict[int, List[int]] = {}
        self._row_parts_seen: Dict[int, int] = {}
        self.tasks_created = 0
        self.items_consumed = 0

    # ------------------------------------------------------------------
    # Item expansion
    # ------------------------------------------------------------------
    def _expand_next_item(self) -> bool:
        """Expand one more work item into tasks. Returns False when done."""
        if self._item_cursor >= len(self.program.items):
            return False
        item = self.program.items[self._item_cursor]
        self._item_cursor += 1
        self.items_consumed += 1
        order = next(self._order_counter)
        tree = self._build_tree(item, order, emit_final=item.num_parts == 1)
        self._register_tasks(tree)
        if item.num_parts > 1:
            root = tree[-1]
            parts = self._row_parts.setdefault(item.row, [])
            parts.append(root.task_id)
            seen = self._row_parts_seen.get(item.row, 0) + 1
            self._row_parts_seen[item.row] = seen
            if seen == item.num_parts:
                self._emit_combine_tasks(item.row, parts, order)
        return True

    def _build_tree(self, item: WorkItem, order: int,
                    emit_final: bool) -> List[Task]:
        """The task tree of one work item (children before parents)."""
        return build_task_tree(
            row=item.row,
            b_rows=item.coords,
            scales=item.values,
            radix=self.radix,
            row_order=order,
            emit_final=emit_final,
        )

    def _emit_combine_tasks(
        self, row: int, part_task_ids: List[int], order: int
    ) -> None:
        """Create the tree combining a tiled row's subrow partials."""
        ids = list(part_task_ids)
        level = 1
        while len(ids) > self.radix:
            next_ids: List[int] = []
            for lo in range(0, len(ids), self.radix):
                group = ids[lo:lo + self.radix]
                task = Task(
                    task_id=next(_task_ids),
                    row=row,
                    level=level,
                    inputs=[TaskInput("partial", i, 1.0) for i in group],
                    is_final=False,
                    row_order=order,
                )
                self._register_tasks([task])
                next_ids.append(task.task_id)
            ids = next_ids
            level += 1
        final = Task(
            task_id=next(_task_ids),
            row=row,
            level=level,
            inputs=[TaskInput("partial", i, 1.0) for i in ids],
            is_final=True,
            row_order=order,
        )
        self._register_tasks([final])
        del self._row_parts[row]
        del self._row_parts_seen[row]

    def _register_tasks(self, tree: Sequence[Task]) -> None:
        push = heapq.heappush
        ready = self._ready
        for task in tree:
            self.tasks_created += 1
            if task.level == 0:
                # Leaves consume only B rows (build_task_tree invariant),
                # so they are dispatchable immediately; skip the dep scan.
                push(ready, ((task.row_order, 0, task.task_id), task))
                continue
            deps = [
                inp.index for inp in task.inputs
                if inp.kind == "partial" and inp.index not in self._completed
            ]
            if deps:
                self._dep_count[task.task_id] = len(deps)
                self._waiting[task.task_id] = task
                for dep in deps:
                    self._dependents.setdefault(dep, []).append(task.task_id)
            else:
                heapq.heappush(self._ready, (task.priority_key(), task))

    # ------------------------------------------------------------------
    # Dispatch interface
    # ------------------------------------------------------------------
    def refill(self, pending_target: int, allow_force: bool = True) -> None:
        """Expand items until enough tasks are in flight or limits bind.

        The partial-output budget (Sec. 3.4) throttles expansion. With
        ``allow_force`` (no other way to make progress), one more item is
        always expanded so forward progress is guaranteed even when the
        budget is exhausted by blocked tree tasks.
        """
        while (
            len(self._ready) < pending_target
            and self.outstanding_partials < self.max_outstanding_partials
        ):
            if not self._expand_next_item():
                break
        while (allow_force and not self._ready
               and self._item_cursor < len(self.program.items)):
            self._expand_next_item()

    def next_task(self) -> Optional[Task]:
        """Pop the highest-priority dispatchable task, if any.

        Dispatching a non-final task brings one more partial output fiber
        into existence, which is what the Sec. 3.4 budget counts.
        """
        if self._ready:
            task = heapq.heappop(self._ready)[1]
            if not task.is_final:
                self.outstanding_partials += 1
            if self.metrics is not None:
                self.metrics.histogram("sched/ready_depth").observe(
                    len(self._ready))
                self.metrics.histogram(
                    "sched/outstanding_partials").observe(
                    self.outstanding_partials)
            return task
        return None

    def task_completed(self, task: Task) -> None:
        """Notify completion: unblocks dependents, frees partial budget."""
        self._completed.add(task.task_id)
        for dependent_id in self._dependents.pop(task.task_id, ()):
            remaining = self._dep_count[dependent_id] - 1
            if remaining:
                self._dep_count[dependent_id] = remaining
            else:
                del self._dep_count[dependent_id]
                dependent = self._waiting.pop(dependent_id)
                heapq.heappush(
                    self._ready, (dependent.priority_key(), dependent)
                )

    def partial_consumed(self, count: int = 1) -> None:
        """A partial output fiber was consumed; release its budget slot."""
        self.outstanding_partials -= count
        if self.outstanding_partials < 0:
            raise RuntimeError("partial-output accounting went negative")

    @property
    def exhausted(self) -> bool:
        """True when every item was expanded and every task dispatched."""
        return (
            self._item_cursor >= len(self.program.items)
            and not self._ready
            and not self._waiting
        )

    def has_blocked_tasks(self) -> bool:
        return bool(self._waiting)


class EpochScheduler(Scheduler):
    """Scheduler with epoch extraction for the batched simulator core.

    Two additions over the base dynamic scheduler, both bit-neutral:

    * Task-tree leaves are array-backed :class:`~repro.core.tasks.LeafTask`
      slices of their work item (:func:`~repro.core.tasks.build_leaf_tree`)
      instead of lists of ``TaskInput`` objects. Task-id consumption,
      ready keys, and every counter match the base expansion exactly.
    * :meth:`drain_stretch`, :meth:`drain_ready_leaves` and
      :meth:`fence_plan` hand the batched core whole runs of level-0
      dispatches whose order the reference event loop fixes
      independently of task timing.

    Leaves dispatch in *program order*: every leaf enters the ready heap
    at its item's expansion with key ``(row_order, 0, task_id)`` and
    nothing else outranks an earlier item's leaf, so the batched core
    can merge leaves ahead of dispatch in the same order.
    """

    def _build_tree(self, item: WorkItem, order: int,
                    emit_final: bool) -> List:
        return build_leaf_tree(item.row, item.coords, item.values,
                               self.radix, order, emit_final)

    def peek_ready(self) -> Optional[Task]:
        """The task ``next_task`` would dispatch, without popping it."""
        return self._ready[0][1] if self._ready else None

    def fence_plan(self, finish_time, leaf_ids):
        """Fence and arming plan for a drained run of level-0 leaves.

        While the ready head is a level-0 leaf, every waiting task's
        remaining dependencies are already dispatched (finish times in
        ``finish_time``), among the drained leaves (``leaf_ids``, about
        to dispatch), or stuck behind an undispatched task that is not
        part of the run — in which case the waiting task cannot unblock
        during it. A waiting task whose remaining dependencies are all
        in flight ("armed") becomes ready exactly when the event loop's
        completion drains reach the latest of those finish times; the
        *fence* — the minimum over armed tasks — is where the reference
        loop's dispatch order stops being timing-independent, because
        the newly ready task preempts every later-ordered leaf.

        Returns ``(fence, dependents)``. ``fence`` covers tasks armed
        before the run starts (``inf`` when there are none).
        ``dependents`` maps each drained leaf id to the mutable records
        ``[missing_deps, worst_finish]`` of waiting tasks that arm only
        once that leaf dispatches; the epoch loop folds each dispatch's
        finish into its records and lowers the fence when a record's
        missing count reaches zero, keeping the stop condition exact
        while non-final leaves dispatch mid-run.
        """
        fence = float("inf")
        dependents: Dict[int, List] = {}
        leaf_set = set(leaf_ids)
        completed = self._completed
        for task in self._waiting.values():
            worst = 0.0
            pending_deps = None
            armable = True
            for inp in task.inputs:
                if inp.kind != "partial" or inp.index in completed:
                    continue
                finish = finish_time.get(inp.index)
                if finish is not None:
                    if finish > worst:
                        worst = finish
                elif inp.index in leaf_set:
                    if pending_deps is None:
                        pending_deps = [inp.index]
                    else:
                        pending_deps.append(inp.index)
                else:
                    armable = False
                    break
            if not armable:
                continue
            if pending_deps is None:
                if worst < fence:
                    fence = worst
            else:
                record = [len(pending_deps), worst]
                for dep in pending_deps:
                    dependents.setdefault(dep, []).append(record)
        return fence, dependents

    def refill_epoch(self, pending_target: int, extra_pending: int) -> None:
        """Mid-epoch :meth:`refill` with drained entries counted as pending.

        The fenced epoch loop holds the undispatched remainder of its
        drained run outside the ready heap; the reference loop would
        still have those entries *in* the heap when it refills between
        dispatches, so its expansion gate compares ``len(ready) +
        extra_pending`` against the target. Replaying that gate after
        every epoch dispatch matters once non-final leaves dispatch:
        each one raises ``outstanding_partials``, and an expansion the
        reference performed just before the budget filled up must not
        be skipped (nor a skipped one performed) by deferring refills
        to the epoch boundary. No force branch: with entries still
        undispatched the reference's ready heap is nonempty, so its
        forced-expansion clause never fires mid-run.
        """
        while (
            len(self._ready) + extra_pending < pending_target
            and self.outstanding_partials < self.max_outstanding_partials
        ):
            if not self._expand_next_item():
                break

    def drain_ready_leaves(self) -> List:
        """Pop the run of already-expanded level-0 leaves at the ready head.

        Unlike :meth:`drain_stretch` this never consumes work items off
        the program cursor: fenced epochs (stretches bounded by
        :meth:`fence_plan`) may stop mid-batch, and item expansion must
        then stay aligned with the reference loop's per-dispatch refill
        gate — which the caller reproduces exactly by refilling between
        chunks. Both final leaves (simple items' whole trees) and
        non-final tree leaves drain; the run stops at the first
        interior task, whose dispatch depends on completion timing.
        Returns the popped heap entries verbatim so an undispatched
        suffix can be pushed back untouched.
        """
        ready = self._ready
        pop = heapq.heappop
        entries: List = []
        while ready:
            if ready[0][1].level != 0:
                break
            entries.append(pop(ready))
        return entries

    def push_back(self, entries) -> None:
        """Return undispatched :meth:`drain_ready_leaves` entries unchanged."""
        ready = self._ready
        push = heapq.heappush
        for entry in entries:
            push(ready, entry)

    def drain_stretch(self, limit: Optional[int] = None):
        """Extract a maximal run of timing-independent final-leaf dispatches.

        Returns the run as parallel arrays ``(rows, task_ids, coords,
        scales)`` — struct-of-arrays form, one entry per dispatch — so
        the batched core never materializes per-task objects for epoch
        work. ``limit`` caps the run length (the batched core stops a
        stretch where its precomputed leaf records end).

        The run is exactly the stretch the reference event loop would
        dispatch back-to-back: every already-expanded final leaf in the
        ready heap (keys sort below anything expanded later), then
        *simple* items consumed straight off the program cursor until
        the first tiled or over-radix item. During such a stretch the
        reference's per-dispatch refills and completion drains are
        invisible — dispatched tasks are all final leaves (their
        completions unblock nothing and free no partial budget, and
        final task ids are never consulted by a dependency scan), and
        simple-item expansion reads no completion state — so dispatch
        order is independent of task timing and the lookahead the
        reference interleaves converges at the caller's next ``refill``.
        Task ids and row orders are drawn from the same counters in the
        same cursor order as per-item expansion, keeping ids aligned
        with the reference engine. The fence stops the run *before* a
        complex item is expanded, whose tree/combine registration is
        timing-sensitive; the caller must guarantee that no waiting task
        can become ready during the run and that the ready head is a
        final leaf.
        """
        ready = self._ready
        pop = heapq.heappop
        rows: List[int] = []
        ids: List[int] = []
        coords: List = []
        scales: List = []
        if limit is None:
            limit = len(self.program.items)
        while ready:
            task = ready[0][1]
            if (task.level != 0 or not task.is_final
                    or len(rows) == limit):
                return rows, ids, coords, scales
            pop(ready)
            rows.append(task.row)
            ids.append(task.task_id)
            coords.append(task.b_coords)
            scales.append(task.b_scales)
        # Ready drained: consume simple items straight off the cursor
        # (the partial budget never moves during a stretch, so one check
        # stands in for the reference's per-refill gate).
        if self.outstanding_partials < self.max_outstanding_partials:
            items = self.program.items
            radix = self.radix
            cursor = start = self._item_cursor
            stop = min(len(items), start + limit - len(rows))
            while cursor < stop:
                item = items[cursor]
                if item.num_parts != 1 or item.nnz > radix:
                    break
                rows.append(item.row)
                coords.append(item.coords)
                scales.append(item.values)
                cursor += 1
            consumed = cursor - start
            if consumed:
                self._item_cursor = cursor
                self.items_consumed += consumed
                self.tasks_created += consumed
                ids.extend(itertools.islice(_task_ids, consumed))
                for _ in range(consumed):
                    next(self._order_counter)
        return rows, ids, coords, scales
