"""Processing element: linearly combines sparse fibers (Sec. 3.1, Fig. 6).

A PE takes up to ``radix`` input fiber descriptors (location, size, scaling
factor), streams them through the high-radix merger, multiplies each merged
element by its way's scaling factor, and accumulates same-coordinate values
into the output fiber.

Two models are provided:

* :meth:`ProcessingElement.combine` — fast functional path (vectorized), with
  the closed-form cycle count (1 input element per cycle + pipeline fill).
* :meth:`ProcessingElement.combine_detailed` — element-by-element path through
  the merger / multiplier / accumulator pipeline, counting cycles explicitly.
  The tests assert both models agree on output and timing.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.accumulator import Accumulator
from repro.core.merger import HighRadixMerger
from repro.matrices.fiber import Fiber, linear_combine

#: Pipeline fill charged when a pass runs in isolation (depth of a
#: radix-64 comparator tree).
_STANDALONE_FILL = 6


class PEResult:
    """Outcome of one PE pass.

    A ``__slots__`` class rather than a dataclass: one is built per task
    (millions per sweep point), so construction is on the hot path.

    Attributes:
        output: The produced (partial or final) output fiber.
        cycles: PE busy cycles for the pass: one consumed input element per
            cycle. Pipeline fill is excluded — PEs stage the next task while
            processing the current one and switch in a single cycle
            (Sec. 3.3), so fill only shows at the very start of a run.
        multiplies: Scaling multiplications performed (= input elements).
    """

    __slots__ = ("output", "cycles", "multiplies")

    def __init__(self, output: Fiber, cycles: int, multiplies: int) -> None:
        self.output = output
        self.cycles = cycles
        self.multiplies = multiplies

    def __repr__(self) -> str:
        return (f"PEResult(output={self.output!r}, cycles={self.cycles}, "
                f"multiplies={self.multiplies})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PEResult):
            return NotImplemented
        return (self.output == other.output
                and self.cycles == other.cycles
                and self.multiplies == other.multiplies)

    @property
    def unpipelined_cycles(self) -> int:
        """Latency of this pass in isolation (adds the merger tree fill)."""
        return self.cycles + _STANDALONE_FILL


class ProcessingElement:
    """One Gamma PE: a radix-R merger, a multiplier, and an accumulator.

    Args:
        radix: Maximum input fibers per pass (64 in the paper).
    """

    def __init__(self, radix: int = 64) -> None:
        self.merger = HighRadixMerger(radix)
        self.radix = radix

    def combine(
        self, fibers: Sequence[Fiber], scales: Sequence[float],
        semiring=None,
    ) -> PEResult:
        """Linearly combine fibers in one pass (fast functional model).

        Args:
            semiring: Scalar algebra for the multiply and accumulate units;
                None selects ordinary (+, x).
        """
        self._check_radix(fibers)
        output = linear_combine(fibers, scales, semiring=semiring)
        total_in = 0
        for f in fibers:
            total_in += len(f.coords)
        return PEResult(output, max(1, total_in), total_in)

    def combine_detailed(
        self, fibers: Sequence[Fiber], scales: Sequence[float],
        semiring=None,
    ) -> PEResult:
        """Element-accurate pipeline model (merger -> multiply -> accumulate).

        Walks the exact per-cycle behaviour: each cycle the merger emits one
        (coordinate, way) pair, the way index selects the value-buffer head
        and the scaling-factor register, the multiplier produces the scaled
        value, and the accumulator folds same-coordinate runs.
        """
        self._check_radix(fibers)
        if len(fibers) != len(scales):
            raise ValueError(
                f"{len(fibers)} fibers but {len(scales)} scaling factors"
            )
        merged = self.merger.merge([f.coords for f in fibers])
        heads = [0] * len(fibers)
        accumulator = Accumulator(
            add=semiring.add if semiring is not None else None)
        mul = semiring.mul if semiring is not None else (
            lambda x, y: x * y)
        multiplies = 0
        for coord, way in merged:
            value = float(fibers[way].values[heads[way]])
            heads[way] += 1
            accumulator.push(coord, mul(scales[way], value))
            multiplies += 1
        output = accumulator.flush()
        return PEResult(
            output=output,
            cycles=max(1, len(merged)),
            multiplies=multiplies,
        )

    def _check_radix(self, fibers: Sequence[Fiber]) -> None:
        if len(fibers) > self.radix:
            raise ValueError(
                f"{len(fibers)} input fibers exceed PE radix {self.radix}; "
                "the scheduler must split this combination into a task tree"
            )


def task_cycles(input_lengths: Sequence[int]) -> int:
    """Closed-form PE busy time for a merge pass over these input sizes."""
    return max(1, sum(input_lengths))


def epoch_merge_groups(el_task, el_coords, num_cols, num_tasks):
    """Merge-order plan for a whole epoch of PE passes.

    Combines :func:`repro.core.merger.composite_key_order` (the batched
    comparator-tree emission order) with the per-pass output sizing the
    batched simulator needs before values are computed: ``out_lens[t]``
    is the number of distinct coordinates pass ``t`` emits, i.e. the
    length of its output fiber.

    Returns ``(order, flags, out_lens)``; feed ``order``/``flags`` plus
    the scaled value stream to
    :func:`repro.core.accumulator.accumulate_groups` for the values.
    """
    import numpy as np

    from repro.core.merger import composite_key_order

    order, flags = composite_key_order(el_task, el_coords, num_cols)
    if len(order) == 0:
        return order, flags, np.zeros(num_tasks, dtype=np.int64)
    out_lens = np.bincount(el_task[order][flags], minlength=num_tasks)
    return order, flags, out_lens


def epoch_cycles(total_input_elements):
    """Vectorized :func:`task_cycles` for a whole epoch of merge passes.

    Takes the per-task total input element counts as an integer array
    and returns each task's busy cycles under the paper's PE timing law
    (one merged input element per cycle, minimum one cycle per pass) —
    the same value ``combine`` and ``combine_detailed`` report, so the
    batched core's timing is bit-identical to per-task execution.
    """
    import numpy as np

    return np.maximum(total_input_elements, 1)
