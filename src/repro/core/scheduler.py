"""Work programs and the dynamic scheduler (paper Sec. 3.3).

A :class:`WorkProgram` is the processing order of A's fragments: one
per row in the default case; reordered and/or split into subrows by
the Sec. 4 preprocessing. Every fragment is a contiguous run of one A
row's nonzeros, so a program is two arrays of nonzero offsets into A
(the paper's "auxiliary data for indirections"). The
:class:`Scheduler` expands items into task trees, tracks dependencies,
bounds the partial-output footprint, and hands dispatchable tasks to
the simulator in priority order (row order first, then higher tree
levels).
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


@dataclass(frozen=True, eq=False)
class WorkProgram:
    """The processing-order sequence of work items for one spMspM.

    Item ``i`` is A's nonzeros ``starts[i]:ends[i]``; ``rows``, ``parts``
    and ``num_parts`` follow from those offsets: the row of C the item
    contributes to, its subrow index (numbered in processing order) and
    its row's subrow count. Build programs with :meth:`from_matrix` or
    :meth:`from_slices`.
    """

    a: CsrMatrix
    starts: np.ndarray
    ends: np.ndarray
    rows: np.ndarray
    parts: np.ndarray
    num_parts: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.a.num_rows

    @property
    def num_cols(self) -> int:
        return self.a.num_cols

    def __len__(self) -> int:
        return len(self.starts)

    @staticmethod
    def from_matrix(a: CsrMatrix) -> "WorkProgram":
        """The identity program: one item per nonempty row, in row order."""
        rows = np.flatnonzero(np.diff(a.offsets))
        ones = np.ones_like(rows)
        return WorkProgram(a, a.offsets[rows], a.offsets[rows + 1], rows,
                           ones - 1, ones)

    @staticmethod
    def from_slices(a: CsrMatrix, starts, ends) -> "WorkProgram":
        """The program processing A's nonzeros ``starts[i]:ends[i]`` in
        order; raises ValueError unless the slices partition A's rows."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        layout = _slice_layout(a, starts, ends)
        if layout is None:
            raise ValueError("work program does not partition A's rows")
        return WorkProgram(a, starts, ends, *layout)

    @property
    def items(self) -> List[WorkItem]:
        """A fresh per-item view of the program, as views of A."""
        coords, values = self.a.coords, self.a.values
        return [
            WorkItem(row, part, total, coords[lo:hi], values[lo:hi])
            for row, part, total, lo, hi in zip(
                self.rows.tolist(), self.parts.tolist(),
                self.num_parts.tolist(), self.starts.tolist(),
                self.ends.tolist())
        ]

    def validate_against(self, a: CsrMatrix) -> None:
        """Check the items partition A's rows as laid out (test helper)."""
        layout = _slice_layout(a, self.starts, self.ends)
        if layout is None or not all(map(
                np.array_equal, layout,
                (self.rows, self.parts, self.num_parts))):
            raise ValueError(
                f"program covers {int((self.ends - self.starts).sum())} "
                f"nonzeros, not one partition of A's {a.nnz} into rows")


def _slice_layout(a: CsrMatrix, starts: np.ndarray, ends: np.ndarray):
    """``(rows, parts, num_parts)`` of valid program slices, else None.

    Valid slices are nonempty, together cover every nonzero of A exactly
    once, and each lies within one row of A. Subrows of a row are
    numbered in processing order.
    """
    if starts.ndim != 1 or starts.shape != ends.shape:
        return None
    by_start = np.argsort(starts, kind="stable")
    if np.any(starts >= ends) or not np.array_equal(
            np.append(0, ends[by_start]), np.append(starts[by_start], a.nnz)):
        return None  # empty, a gap or an overlap
    rows = np.searchsorted(a.offsets, starts, side="right") - 1
    if np.any(ends > a.offsets[rows + 1]):
        return None  # crosses a row boundary
    by_row = np.argsort(rows, kind="stable")
    grouped = rows[by_row]
    parts = np.empty_like(rows)
    parts[by_row] = (np.arange(len(rows))
                     - np.searchsorted(grouped, grouped, side="left"))
    num_parts = np.bincount(rows, minlength=a.num_rows)[rows]
    return rows, parts, num_parts


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
        self._items = program.items
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
        # Multi-part rows: row -> root task ids of the parts seen.
        self._row_parts: Dict[int, List[int]] = {}
        self.tasks_created = 0
        self.items_consumed = 0

    # ------------------------------------------------------------------
    # Item expansion
    # ------------------------------------------------------------------
    def _expand_next_item(self) -> bool:
        """Expand one more work item into tasks. Returns False when done."""
        if self._item_cursor >= len(self._items):
            return False
        item = self._items[self._item_cursor]
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
            if len(parts) == item.num_parts:
                del self._row_parts[item.row]
                self._emit_combine_tasks(item.row, parts, order)
        return True

    def _emit_combine_tasks(
        self, row: int, part_task_ids: List[int], order: int
    ) -> None:
        """Create the tree combining a tiled row's subrow partials:
        radix-wide groups per level, up to one final task."""
        ids = part_task_ids
        level = 1
        while True:
            final = len(ids) <= self.radix
            tree = [Task(
                task_id=next(_task_ids),
                row=row,
                level=level,
                inputs=[TaskInput("partial", i, 1.0)
                        for i in ids[lo:lo + self.radix]],
                is_final=final,
                row_order=order,
            ) for lo in range(0, len(ids), self.radix)]
            self._register_tasks(tree)
            if final:
                return
            ids = [task.task_id for task in tree]
            level += 1

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
               and self._item_cursor < len(self._items)):
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
            self._item_cursor >= len(self._items)
            and not self._ready
            and not self._waiting
        )
