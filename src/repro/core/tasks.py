"""Scheduler work units: tasks and balanced top-full task trees (Sec. 3.3).

A *task* is one PE invocation: a linear combination of up to ``radix`` input
fibers into one output fiber. Rows of A with more nonzeros than the radix
become a *task tree* (paper Fig. 9): leaves combine B rows, interior nodes
combine the partial output fibers of their children, and the root emits the
final output row.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

_task_ids = itertools.count()


class TaskInput:
    """One input fiber of a task.

    A plain ``__slots__`` class rather than a dataclass: simulations
    create one per consumed fiber (millions per sweep point), so
    construction and attribute reads sit on the hot path.

    Attributes:
        kind: 'B' for a row of B, 'partial' for a child task's output.
        index: B row id for kind 'B'; child task id for kind 'partial'.
        scale: Scaling factor — a_mk for B rows, 1.0 for partials (Sec. 3.1).
    """

    __slots__ = ("kind", "index", "scale")

    def __init__(self, kind: str, index: int, scale: float) -> None:
        if kind != "B" and kind != "partial":
            raise ValueError(f"unknown input kind {kind!r}")
        self.kind = kind
        self.index = index
        self.scale = scale

    def __repr__(self) -> str:
        return (f"TaskInput(kind={self.kind!r}, index={self.index!r}, "
                f"scale={self.scale!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskInput):
            return NotImplemented
        return (self.kind == other.kind and self.index == other.index
                and self.scale == other.scale)


@dataclass
class Task:
    """One PE invocation.

    Attributes:
        task_id: Globally unique id.
        row: Output row of C this task contributes to.
        level: Height in the task tree (0 = leaf).
        inputs: The fibers to combine (at most the PE radix).
        is_final: True when this task's output is the final fiber for a
            C row (written to memory); False for partial output fibers
            (written to the FiberCache).
        row_order: Position of the owning work item in the processing
            sequence (used for dispatch priority).
        children: Child tasks whose outputs feed this task.
    """

    task_id: int
    row: int
    level: int
    inputs: List[TaskInput]
    is_final: bool
    row_order: int = 0
    children: List["Task"] = field(default_factory=list)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def priority_key(self) -> Tuple[int, int, int]:
        """Dispatch priority: row order first, then higher levels first.

        The scheduler drains rows in order (ordered output) and, within a
        row, prefers higher-level tasks to shrink the partial-fiber
        footprint (Sec. 3.3).
        """
        return (self.row_order, -self.level, self.task_id)


def build_task_tree(
    row: int,
    b_rows: Sequence[int],
    scales: Sequence[float],
    radix: int,
    row_order: int = 0,
    emit_final: bool = True,
) -> List[Task]:
    """Build the balanced, top-full task tree for one linear combination.

    Splits ``len(b_rows)`` input fibers into a tree of radix-``radix``
    merges, full at the top levels with any slack pushed to the lowest
    level (paper Fig. 9). Returns tasks in dependency order (children
    before parents); the last task is the root.

    Args:
        row: Output row id.
        b_rows: B row ids the combination consumes.
        scales: Matching scaling factors (values of A's row).
        radix: PE merger radix.
        row_order: Processing-sequence position for priority.
        emit_final: Whether the root writes a final C row (False when this
            tree computes a subrow partial under coordinate-space tiling).

    Raises:
        ValueError: On empty input or mismatched lengths.
    """
    if len(b_rows) != len(scales):
        raise ValueError(
            f"{len(b_rows)} input rows but {len(scales)} scales"
        )
    if len(b_rows) == 0:
        raise ValueError(f"row {row}: cannot build a task tree with no inputs")
    if radix < 2:
        raise ValueError(f"radix must be >= 2, got {radix}")

    # One bulk conversion instead of per-element int()/float() calls in
    # the leaf loops (ndarray.tolist yields native Python scalars).
    if hasattr(b_rows, "tolist"):
        b_rows = b_rows.tolist()
    else:
        b_rows = [int(r) for r in b_rows]
    if hasattr(scales, "tolist"):
        scales = scales.tolist()
    else:
        scales = [float(s) for s in scales]

    tasks: List[Task] = []

    def build(lo: int, hi: int) -> Task:
        """Build the subtree combining inputs [lo, hi); returns its root."""
        count = hi - lo
        if count <= radix:
            task = Task(
                task_id=next(_task_ids),
                row=row,
                level=0,
                inputs=[
                    TaskInput("B", b_rows[i], scales[i])
                    for i in range(lo, hi)
                ],
                is_final=False,
                row_order=row_order,
            )
            tasks.append(task)
            return task
        # Top-full: the top level always uses the full radix; each child
        # covers an even share, so only the bottom level can be slack.
        children: List[Task] = []
        direct_inputs: List[TaskInput] = []
        base = count // radix
        remainder = count % radix
        cursor = lo
        for slot in range(radix):
            size = base + (1 if slot < remainder else 0)
            if size == 0:
                continue
            if size == 1:
                # A single fiber feeds the parent's merger way directly.
                direct_inputs.append(
                    TaskInput("B", b_rows[cursor], scales[cursor])
                )
            else:
                children.append(build(cursor, cursor + size))
            cursor += size
        parent = Task(
            task_id=next(_task_ids),
            row=row,
            level=max(c.level for c in children) + 1,
            inputs=(
                [TaskInput("partial", c.task_id, 1.0) for c in children]
                + direct_inputs
            ),
            is_final=False,
            row_order=row_order,
            children=children,
        )
        tasks.append(parent)
        return parent

    root = build(0, len(b_rows))
    root.is_final = emit_final
    return tasks


@functools.lru_cache(maxsize=1024)
def tree_plan(count: int, radix: int) -> Tuple[Tuple, ...]:
    """The shape of :func:`build_task_tree`'s tree over ``count`` inputs.

    One entry per task in creation (task-id) order: ``(lo, hi)`` for a
    leaf over inputs ``[lo, hi)``, ``(level, children, direct)`` for an
    interior merge, where ``children`` indexes earlier entries and
    ``direct`` lists the input positions fed straight to its merger.
    The shape depends only on ``(count, radix)``, so recent shapes are
    memoized (real matrices repeat row lengths heavily).
    """
    plan: List[Tuple] = []

    def build(lo: int, hi: int) -> Tuple[int, int]:
        count = hi - lo
        if count <= radix:
            plan.append((lo, hi))
            return len(plan) - 1, 0
        children: List[int] = []
        direct: List[int] = []
        level = 0
        base, remainder = divmod(count, radix)
        cursor = lo
        for slot in range(radix):
            size = base + (1 if slot < remainder else 0)
            if size == 1:
                direct.append(cursor)
            else:
                index, child_level = build(cursor, cursor + size)
                children.append(index)
                level = max(level, child_level)
            cursor += size
        plan.append((level + 1, tuple(children), tuple(direct)))
        return len(plan) - 1, level + 1

    build(0, count)
    return tuple(plan)


class TreeLayout(NamedTuple):
    """:func:`tree_plan` as flat per-task fields, in task-id order.

    Attributes:
        levels: Each task's tree level (0 = leaf).
        kids: Each task's children — its partial inputs, in input order —
            as offsets back from the task (task index minus child index;
            empty for a leaf), so one tuple serves every tree of the
            shape.
        positions: The input positions tasks read straight from B,
            grouped by task: a leaf's whole range, an interior merge's
            direct inputs.
        counts: How many of ``positions`` each task reads.
    """

    levels: Tuple[int, ...]
    kids: Tuple[Tuple[int, ...], ...]
    positions: np.ndarray
    counts: Tuple[int, ...]


@functools.lru_cache(maxsize=1024)
def tree_layout(count: int, radix: int) -> TreeLayout:
    """The flat :class:`TreeLayout` of ``tree_plan(count, radix)``."""
    levels: List[int] = []
    kids: List[Tuple[int, ...]] = []
    positions: List[int] = []
    counts: List[int] = []
    for entry in tree_plan(count, radix):
        if len(entry) == 2:
            lo, hi = entry
            levels.append(0)
            kids.append(())
            positions.extend(range(lo, hi))
            counts.append(hi - lo)
        else:
            level, children, direct = entry
            levels.append(level)
            kids.append(tuple(len(kids) - child for child in children))
            positions.extend(direct)
            counts.append(len(direct))
    return TreeLayout(tuple(levels), tuple(kids),
                      np.asarray(positions, dtype=np.int64), tuple(counts))


def tree_stats(tasks: Sequence[Task]) -> Tuple[int, int]:
    """(number of tasks, tree depth); 4096 fibers @ radix 64 -> (65, 2)."""
    if not tasks:
        return (0, 0)
    return (len(tasks), max(t.level for t in tasks) + 1)
