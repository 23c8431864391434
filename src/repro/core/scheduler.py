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

from repro.core.tasks import Task, TaskInput, build_task_tree, _task_ids
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
        tree = build_task_tree(
            row=item.row,
            b_rows=item.coords,
            scales=item.values,
            radix=self.radix,
            row_order=order,
            emit_final=item.num_parts == 1,
        )
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
