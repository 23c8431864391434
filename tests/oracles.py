"""Slow reference implementations of the preprocessing kernels.

Each is the straightforward loop the array code in ``repro.preprocessing``
replaced, kept as the oracle the tests compare it with:

* :func:`split_row` / :func:`tile_rows` — selective coordinate-space
  tiling, one mask pass per bucket and one recursive call per subrow;
* :class:`BucketQueue` / :func:`affinity_reorder_queue` — Algorithm 1
  driven through a priority-queue object;
* :func:`estimate_b_traffic_loop` — the reorder guard's LRU estimate,
  one ``OrderedDict`` touch per B row reference;
* :func:`preprocess_items` — the pipeline built from the three, with
  Algorithm 1 run on every reorder request, emitting each work item as
  ``(row, part, num_parts, coords bytes, values bytes)``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber
from repro.matrices.stats import window_size
from repro.preprocessing.pipeline import PreprocessReport
from repro.preprocessing.tiling import estimate_row_footprint


# ----------------------------------------------------------------------
# Tiling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowFragment:
    """A contiguous coordinate-space slice of one A row."""

    row: int
    coords: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.coords)


def row_fragments(a: CsrMatrix) -> List[RowFragment]:
    """Every nonempty row of A as one whole-row fragment."""
    return [RowFragment(row, a.coords[a.offsets[row]:a.offsets[row + 1]],
                        a.values[a.offsets[row]:a.offsets[row + 1]])
            for row in range(a.num_rows) if a.row_nnz(row)]


def split_row(
    coords: np.ndarray,
    values: np.ndarray,
    coord_lo: int,
    coord_hi: int,
    radix: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One round of coordinate-space splitting into up to ``radix`` subrows.

    Splits the coordinate range [coord_lo, coord_hi) into ``radix`` even
    subranges and buckets the nonzeros; empty subranges produce no subrow.
    """
    if coord_hi <= coord_lo:
        raise ValueError(f"empty coordinate range [{coord_lo}, {coord_hi})")
    span = coord_hi - coord_lo
    # Bucket of each nonzero: floor((c - lo) * radix / span).
    buckets = ((coords - coord_lo) * radix) // span
    buckets = np.clip(buckets, 0, radix - 1)
    fragments = []
    for bucket in range(radix):
        mask = buckets == bucket
        if mask.any():
            fragments.append((coords[mask], values[mask]))
    return fragments


def tile_rows(
    a: CsrMatrix,
    avg_b_row_nnz: float,
    config: Optional[GammaConfig] = None,
    threshold_fraction: float = 0.25,
    threshold_bytes: Optional[float] = None,
    selective: bool = True,
) -> List[RowFragment]:
    """``tile_matrix`` row by row, returning fragments in row order."""
    config = config or GammaConfig()
    if threshold_bytes is None:
        threshold_bytes = threshold_fraction * config.fibercache_bytes
    fragments: List[RowFragment] = []
    for row in range(a.num_rows):
        start, end = a.offsets[row], a.offsets[row + 1]
        if start == end:
            continue
        coords = a.coords[start:end]
        values = a.values[start:end]
        if selective:
            needs_split = (
                estimate_row_footprint(len(coords), avg_b_row_nnz)
                > threshold_bytes
            )
        else:
            needs_split = len(coords) > 1
        if not needs_split:
            fragments.append(RowFragment(row, coords, values))
            continue
        fragments.extend(
            _split_recursive(
                row, coords, values, 0, a.num_cols, config.radix,
                avg_b_row_nnz, threshold_bytes, selective,
            )
        )
    return fragments


def _split_recursive(
    row: int,
    coords: np.ndarray,
    values: np.ndarray,
    coord_lo: int,
    coord_hi: int,
    radix: int,
    avg_b_row_nnz: float,
    threshold_bytes: float,
    selective: bool,
) -> List[RowFragment]:
    """Split a row slice; re-split subrows that still exceed the threshold
    (selective mode only: the +T ablation does a single round)."""
    pieces = split_row(coords, values, coord_lo, coord_hi, radix)
    fragments: List[RowFragment] = []
    span = coord_hi - coord_lo
    for piece_coords, piece_values in pieces:
        oversized = (
            selective
            and estimate_row_footprint(len(piece_coords), avg_b_row_nnz)
            > threshold_bytes
        )
        if oversized and span > radix and len(piece_coords) > 1:
            bucket = int(
                (int(piece_coords[0]) - coord_lo) * radix // span
            )
            sub_lo = coord_lo + bucket * span // radix
            sub_hi = coord_lo + (bucket + 1) * span // radix
            sub_hi = max(sub_hi, sub_lo + 1)
            fragments.extend(
                _split_recursive(
                    row, piece_coords, piece_values, sub_lo, sub_hi,
                    radix, avg_b_row_nnz, threshold_bytes, selective,
                )
            )
        else:
            fragments.append(RowFragment(row, piece_coords, piece_values))
    return fragments


def fragment_offsets(a: CsrMatrix, fragments) -> Tuple[np.ndarray, ...]:
    """``(starts, ends)``: the nonzero offsets into A of fragments that
    are each a nonempty contiguous run of one A row."""
    rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), a.row_lengths())
    firsts = np.array([f.row * a.num_cols + int(f.coords[0])
                       for f in fragments], dtype=np.int64)
    starts = np.searchsorted(rows * a.num_cols + a.coords, firsts)
    ends = starts + np.array([f.nnz for f in fragments], dtype=np.int64)
    return starts, ends


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------
class BucketQueue:
    """Max-priority queue over small non-negative integer keys.

    incKey/decKey move items between adjacent buckets in O(1); pop-max
    scans down from the current maximum. Iteration order within a
    bucket is insertion order, so results are deterministic.
    """

    def __init__(self) -> None:
        self._buckets: List[Dict[Hashable, None]] = [dict()]
        self._keys: Dict[Hashable, int] = {}
        self._max_key = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._keys

    def insert(self, item: Hashable, key: int = 0) -> None:
        if item in self._keys:
            raise KeyError(f"{item!r} already in queue")
        if key < 0:
            raise ValueError("keys must be non-negative")
        self._ensure_bucket(key)
        self._buckets[key][item] = None
        self._keys[item] = key
        if key > self._max_key:
            self._max_key = key

    def key_of(self, item: Hashable) -> int:
        return self._keys[item]

    def _ensure_bucket(self, key: int) -> None:
        while len(self._buckets) <= key:
            self._buckets.append(dict())

    def inc_key(self, item: Hashable, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("inc_key requires a non-negative delta")
        key = self._keys[item]
        new_key = key + delta
        del self._buckets[key][item]
        self._ensure_bucket(new_key)
        self._buckets[new_key][item] = None
        self._keys[item] = new_key
        if new_key > self._max_key:
            self._max_key = new_key

    def dec_key(self, item: Hashable, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("dec_key requires a non-negative delta")
        key = self._keys[item]
        new_key = key - delta
        if new_key < 0:
            raise ValueError(f"key of {item!r} would become negative")
        del self._buckets[key][item]
        self._buckets[new_key][item] = None
        self._keys[item] = new_key

    def remove(self, item: Hashable) -> None:
        key = self._keys.pop(item)
        del self._buckets[key][item]

    def pop(self) -> Hashable:
        """Remove and return the earliest-inserted item of maximum key."""
        if not self._keys:
            raise IndexError("pop from an empty queue")
        while not self._buckets[self._max_key]:
            self._max_key -= 1
        bucket = self._buckets[self._max_key]
        item = next(iter(bucket))
        del bucket[item]
        del self._keys[item]
        return item

    def peek(self) -> Tuple[Hashable, int]:
        if not self._keys:
            raise IndexError("peek into an empty queue")
        max_key = self._max_key
        while not self._buckets[max_key]:
            max_key -= 1
        return next(iter(self._buckets[max_key])), max_key


def affinity_reorder_queue(
    a: CsrMatrix,
    window: int,
    start_row: int = 0,
    max_column_degree: Optional[int] = None,
) -> List[int]:
    """Algorithm 1 with every key update a :class:`BucketQueue` call."""
    num_rows = a.num_rows
    if num_rows == 0:
        return []
    if not (0 <= start_row < num_rows):
        raise ValueError(f"start_row {start_row} out of range")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    transpose = a.transpose()
    if max_column_degree is None:
        avg_col_degree = a.nnz / max(1, a.num_cols)
        max_column_degree = int(max(64, 8 * avg_col_degree))
    row_cols = [
        a.coords[a.offsets[r]:a.offsets[r + 1]].tolist()
        for r in range(num_rows)
    ]
    col_rows = []
    for c in range(a.num_cols):
        rows = transpose.coords[
            transpose.offsets[c]:transpose.offsets[c + 1]]
        col_rows.append([] if len(rows) > max_column_degree
                        else rows.tolist())

    queue = BucketQueue()
    for row in range(num_rows):
        queue.insert(row, 0)

    permutation = [start_row]
    queue.remove(start_row)

    def bump(row: int, change) -> None:
        for coord in row_cols[row]:
            for other in col_rows[coord]:
                if other in queue:
                    change(other)

    bump(start_row, queue.inc_key)
    for position in range(1, num_rows):
        if position > window:
            bump(permutation[position - window - 1], queue.dec_key)
        chosen = queue.pop()
        permutation.append(chosen)
        bump(chosen, queue.inc_key)
    return permutation


# ----------------------------------------------------------------------
# Reorder guard and emission
# ----------------------------------------------------------------------
def estimate_b_traffic_loop(fragments, order, b, capacity_bytes):
    """The LRU estimate of processing ``fragments`` in ``order``."""
    lru: OrderedDict = OrderedDict()
    resident_bytes = 0
    traffic = 0
    lengths = b.row_lengths()
    for index in order:
        for coord in fragments[index].coords.tolist():
            row_bytes = int(lengths[coord]) * ELEMENT_BYTES
            if coord in lru:
                lru.move_to_end(coord)
                continue
            traffic += row_bytes
            lru[coord] = row_bytes
            resident_bytes += row_bytes
            while resident_bytes > capacity_bytes and lru:
                _, evicted = lru.popitem(last=False)
                resident_bytes -= evicted
    return traffic


def preprocess_items(a, b, config, options):
    """The pipeline from the loops above, with no compulsory-floor
    short-circuit: every reorder request builds the fragment matrix,
    runs Algorithm 1 and keeps the greedy order only when its estimate
    beats the natural one. Returns ``(items, report)``."""
    if options.tile:
        fragments = tile_rows(
            a, b.nnz / max(1, b.num_rows), config,
            threshold_fraction=options.tile_threshold_fraction,
            threshold_bytes=options.tile_threshold_bytes,
            selective=options.selective)
    else:
        fragments = row_fragments(a)
    parts_per_row = Counter(frag.row for frag in fragments)
    window = min(window_size(b, config.fibercache_bytes),
                 max(1, len(fragments) - 1))
    order = list(range(len(fragments)))
    reordered = False
    if options.reorder and len(fragments) > 2:
        fragment_matrix = CsrMatrix.from_rows(
            [Fiber(f.coords, f.values, check=False) for f in fragments],
            a.num_cols)
        greedy = affinity_reorder_queue(fragment_matrix, window=window)
        capacity = config.fibercache_bytes
        if (estimate_b_traffic_loop(fragments, greedy, b, capacity)
                < estimate_b_traffic_loop(fragments, order, b, capacity)):
            order, reordered = greedy, True
    seen: Counter = Counter()
    items = []
    for index in order:
        frag = fragments[index]
        items.append((frag.row, seen[frag.row], parts_per_row[frag.row],
                      frag.coords.tobytes(), frag.values.tobytes()))
        seen[frag.row] += 1
    report = PreprocessReport(
        num_rows=a.num_rows, num_fragments=len(fragments),
        num_tiled_rows=sum(1 for n in parts_per_row.values() if n > 1),
        reorder_window=window, reordered=reordered)
    return items, report


def program_items(program):
    """A program's items in :func:`preprocess_items`' tuple form."""
    return [(item.row, item.part, item.num_parts, item.coords.tobytes(),
             item.values.tobytes()) for item in program.items]
