"""High-radix merger: the heart of a Gamma PE (paper Sec. 3.1, Fig. 7).

The hardware is a balanced binary tree of comparator units that consumes one
input element and produces one output element per cycle in steady state.
``HighRadixMerger`` models it at per-element granularity: it emits the
(coordinate, way) stream exactly as the hardware would, and reports the cycle
count from the 1-element/cycle law plus pipeline fill.

``merge_cycles`` is the closed-form timing used by the fast simulator; the
tests assert it matches the detailed model.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: Total element count from which one np.lexsort beats the Python heap
#: (measured crossover: 16-20 elements at 2-8 ways, ~28 at 16 ways);
#: tests/test_kernel_speed.py checks it at a quarter and at 4x.
_LEXSORT_MIN = 24


class MergerRadixError(ValueError):
    """Raised when more input streams are supplied than the merger's radix."""


class HighRadixMerger:
    """A radix-R, 1-element/cycle coordinate merger.

    Args:
        radix: Maximum number of input streams (64 in the paper's design).
    """

    def __init__(self, radix: int = 64) -> None:
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        self.radix = radix

    @property
    def pipeline_depth(self) -> int:
        """Stages in the balanced binary comparator tree: ceil(log2(radix))."""
        return max(1, math.ceil(math.log2(self.radix)))

    def merge(
        self, streams: Sequence[Sequence[int] | np.ndarray]
    ) -> List[Tuple[int, int]]:
        """Merge sorted coordinate streams into one sorted stream with repeats.

        Mirrors the hardware element by element: each cycle the tree selects
        the minimum head coordinate and emits it with its way index. Ties
        resolve to the lowest way, as a left-biased comparator tree does.

        Args:
            streams: Up to ``radix`` strictly-increasing coordinate lists.

        Returns:
            List of (coordinate, way_index) in nondecreasing coordinate order.

        Raises:
            MergerRadixError: If more than ``radix`` streams are given.
        """
        if len(streams) > self.radix:
            raise MergerRadixError(
                f"{len(streams)} streams exceed radix {self.radix}"
            )
        # Streams are strictly increasing, so no (coord, way) pair repeats
        # and ordering by (coord, way) reproduces the left-biased tree's
        # emission order exactly: lowest coordinate first, ties to the
        # lowest way. Large merges sort all elements at once; small ones
        # use a heap over stream heads — both O(n log r) or better versus
        # the O(n * r) head-scan they replace.
        total = sum(len(s) for s in streams)
        if total >= _LEXSORT_MIN:
            all_coords = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in streams])
            all_ways = np.repeat(
                np.arange(len(streams)),
                [len(s) for s in streams])
            order = np.lexsort((all_ways, all_coords))
            return list(zip(all_coords[order].tolist(),
                            all_ways[order].tolist()))
        heap = [
            (int(stream[0]), way, 0)
            for way, stream in enumerate(streams) if len(stream)
        ]
        heapq.heapify(heap)
        output: List[Tuple[int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            coord, way, pos = pop(heap)
            output.append((coord, way))
            stream = streams[way]
            pos += 1
            if pos < len(stream):
                push(heap, (int(stream[pos]), way, pos))
        return output

    def cycles(self, streams: Sequence[Sequence[int] | np.ndarray]) -> int:
        """Cycle count for merging these streams on this hardware."""
        return merge_cycles(
            sum(len(s) for s in streams), self.pipeline_depth
        )


def composite_key_order(el_task, el_coords, num_cols):
    """Batched merge-network analogue over a whole epoch of passes.

    ``el_task[i]`` names the merge pass element *i* belongs to and
    ``el_coords[i]`` its coordinate; elements of one pass appear in way
    (input) order, exactly as the hardware's left-biased comparator tree
    consumes them. The composite key ``task * num_cols + coord`` lets a
    single stable argsort order every pass's elements by (pass,
    coordinate) with ties kept in way order — the same emission order
    :meth:`HighRadixMerger.merge` produces per pass, for all passes at
    once.

    Returns:
        ``(order, flags)``: the permutation sorting the element stream,
        and a boolean array marking the first element of each (pass,
        coordinate) group in the sorted stream.
    """
    total = len(el_task)
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    key = el_task * np.int64(num_cols) + el_coords
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    flags = np.empty(total, dtype=bool)
    flags[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=flags[1:])
    return order, flags


def merge_cycles(total_input_elements: int, pipeline_depth: int = 6) -> int:
    """Closed-form merge timing: 1 element per cycle plus pipeline fill.

    The merger consumes one input element per cycle in steady state
    (Sec. 3.1); the comparator tree adds ``pipeline_depth`` cycles of fill
    before the first output emerges. An empty merge still costs the fill.
    """
    if total_input_elements < 0:
        raise ValueError("negative element count")
    return total_input_elements + pipeline_depth


def is_sorted_with_repeats(coords: Iterable[int]) -> bool:
    """True when a merged coordinate stream is nondecreasing (test helper)."""
    coords = list(coords)
    return all(a <= b for a, b in zip(coords, coords[1:]))
