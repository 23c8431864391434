"""Row-granular reuse models shared by baselines and preprocessing.

An LRU stack over B row ids, bounded by byte footprint, approximates how
much B-read traffic a row-traversal order incurs under a given on-chip
capacity. Much cheaper than the line-level FiberCache simulation; used
where only an estimate is needed (CPU cache model, SpArch prefetch buffer,
ordering comparisons).

:class:`LruRowCache` is the model one access at a time: an
``OrderedDict`` in recency order that, on a miss, appends the row and
evicts from the cold end while the resident bytes exceed the capacity.
:func:`lru_miss_bytes` computes the same misses with two pointers over
the access stream. It is exact because the dict's resident set is
always the longest run of most-recently-used distinct rows whose bytes
fit in the capacity:

* a hit only reorders that run, so it stays the longest fitting one;
* a miss puts its row in front, and evicting from the cold end until
  the bytes fit leaves the longest fitting run of the new order (all of
  it goes when the row alone exceeds the capacity).

Rows are in that run exactly when their latest access lies at or after
some position of the stream, the *eviction frontier*. So an access hits
iff its row's previous access lies at or after the frontier. On a miss
the frontier advances along the stream until the bytes fit, evicting
each position it passes that is still its row's latest access.
:class:`LruRowCache` stays as the kernel's test oracle.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.config import ELEMENT_BYTES
from repro.matrices.csr import CsrMatrix


class LruRowCache:
    """Footprint-bounded LRU over B row ids."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._rows: OrderedDict = OrderedDict()
        self._resident_bytes = 0
        self.miss_bytes = 0
        self.hits = 0
        self.misses = 0

    def access(self, row_id: int, row_bytes: int) -> bool:
        """Touch one row; returns True on miss (traffic incurred)."""
        if row_id in self._rows:
            self._rows.move_to_end(row_id)
            self.hits += 1
            return False
        self.misses += 1
        self.miss_bytes += row_bytes
        self._rows[row_id] = row_bytes
        self._resident_bytes += row_bytes
        while self._resident_bytes > self.capacity_bytes and self._rows:
            _, evicted = self._rows.popitem(last=False)
            self._resident_bytes -= evicted
        return True

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes


def lru_miss_bytes(rows, row_bytes: np.ndarray, capacity_bytes: int) -> int:
    """Bytes an LRU of ``capacity_bytes`` misses on the access stream
    ``rows`` (row ids; ``row_bytes[r]`` is row r's size).

    Equal to feeding the stream through :class:`LruRowCache`; see the
    module docstring for the two-pointer kernel and why it is exact.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity must be non-negative")
    rows = np.asarray(rows, dtype=np.int64)
    count = len(rows)
    # Previous and next access of the same row (-1 / count when none).
    order = np.argsort(rows, kind="stable")
    same = rows[order[1:]] == rows[order[:-1]]
    earlier, later = order[:-1][same], order[1:][same]
    previous = np.full(count, -1, dtype=np.int64)
    previous[later] = earlier
    following = np.full(count, count, dtype=np.int64)
    following[earlier] = later
    sizes = np.asarray(row_bytes, dtype=np.int64)[rows].tolist()
    following = following.tolist()
    frontier = resident = missed = 0
    for t, prior in enumerate(previous.tolist()):
        if prior >= frontier:
            continue
        size = sizes[t]
        missed += size
        resident += size
        while resident > capacity_bytes:
            if following[frontier] > t:
                resident -= sizes[frontier]
            frontier += 1
    return missed


def b_read_traffic(
    b_row_stream,
    b: CsrMatrix,
    capacity_bytes: int,
) -> int:
    """B-read bytes for a stream of B row accesses under LRU capacity."""
    return lru_miss_bytes(b_row_stream, b.row_lengths() * ELEMENT_BYTES,
                          capacity_bytes)


def gustavson_row_stream(a: CsrMatrix) -> np.ndarray:
    """The B rows touched by Gustavson's dataflow, in traversal order:
    A's coordinates."""
    return a.coords
