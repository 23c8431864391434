"""The PE's tail-end accumulator (paper Sec. 3.1, Fig. 6).

Consumes the scaled (coordinate, value) stream coming out of the merger and
multiplier — sorted by coordinate, with repeats — and sums runs of equal
coordinates. When the incoming coordinate changes, the buffered element is
emitted as part of the output fiber.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.matrices.fiber import Fiber


class Accumulator:
    """Streaming same-coordinate adder.

    Feed elements with :meth:`push` in nondecreasing coordinate order;
    completed output elements appear via the internal list and
    :meth:`flush` drains the final buffered element.

    Args:
        add: Reduction operator for same-coordinate runs; defaults to
            ordinary addition (pass a semiring's ``add`` to generalize).
    """

    def __init__(self, add=None) -> None:
        self._add = add if add is not None else (lambda x, y: x + y)
        self._coord: Optional[int] = None
        self._value: float = 0.0
        self._out_coords: List[int] = []
        self._out_values: List[float] = []

    def push(self, coord: int, value: float) -> None:
        """Consume one element of the merged, scaled stream."""
        if self._coord is not None and coord < self._coord:
            raise ValueError(
                f"coordinate {coord} arrived after {self._coord}; the "
                "accumulator requires nondecreasing coordinates"
            )
        if coord == self._coord:
            self._value = self._add(self._value, value)
        else:
            self._emit()
            self._coord = coord
            self._value = value

    def _emit(self) -> None:
        if self._coord is not None:
            self._out_coords.append(self._coord)
            self._out_values.append(self._value)

    def flush(self) -> Fiber:
        """Emit the trailing element; return the accumulated output fiber."""
        self._emit()
        self._coord = None
        self._value = 0.0
        fiber = Fiber(
            np.asarray(self._out_coords, dtype=np.int64),
            np.asarray(self._out_values, dtype=np.float64),
            check=False,
        )
        self._out_coords = []
        self._out_values = []
        return fiber


def accumulate_groups(sorted_values, flags, semiring=None):
    """Batched accumulator: reduce each coordinate group of a sorted stream.

    The array analogue of streaming ``sorted_values`` through
    :class:`Accumulator` group by group: ``flags`` marks the first
    element of each same-coordinate run (as produced by
    :func:`repro.core.merger.composite_key_order`) and every run is
    folded left-to-right in stream order. Arithmetic runs use the
    zero-started ``np.bincount`` fold — bit-identical to the dict and
    array paths of ``linear_combine`` — while semirings with a declared
    ``add_ufunc`` reduce with first-element-seeded ``reduceat``, the
    fold ``_combine_semiring`` performs scalar-wise.

    Returns one accumulated value per flagged group, in stream order.
    """
    if semiring is None or semiring.is_arithmetic:
        inverse = np.cumsum(flags)
        inverse -= 1
        return np.bincount(inverse, weights=sorted_values)
    return np.asarray(
        semiring.add_ufunc.reduceat(sorted_values, np.flatnonzero(flags)),
        dtype=np.float64)


def accumulate(stream: Iterable[Tuple[int, float]]) -> Fiber:
    """One-shot accumulation of a sorted (coord, value) stream."""
    acc = Accumulator()
    for coord, value in stream:
        acc.push(coord, value)
    return acc.flush()
