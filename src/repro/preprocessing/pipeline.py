"""The full preprocessing pipeline: tiling, then reordering (paper Sec. 4).

Selective coordinate-space tiling runs first, breaking dense A rows into
subrows; affinity-based reordering then permutes the resulting fragments
(whole rows and subrows alike) so fragments with shared column coordinates
are processed consecutively. The output is a :class:`WorkProgram` the
scheduler consumes directly — implementing the "auxiliary data for
indirections" realization the paper describes, with no change to A's layout.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, PreprocessConfig
from repro.core.scheduler import WorkItem, WorkProgram
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber
from repro.matrices.stats import window_size
from repro.preprocessing.reorder import affinity_reorder
from repro.preprocessing.tiling import RowFragment, tile_matrix


@dataclass
class PreprocessReport:
    """What preprocessing did (for logging and the Fig. 19 ablations)."""

    num_rows: int
    num_fragments: int
    num_tiled_rows: int
    reorder_window: int
    reordered: bool


def preprocess(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    options: Optional[PreprocessConfig] = None,
) -> WorkProgram:
    """Build the work program for C = A x B under the given options."""
    program, _ = preprocess_with_report(a, b, config, options)
    return program


def preprocess_with_report(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    options: Optional[PreprocessConfig] = None,
) -> tuple:
    """Like :func:`preprocess`, also returning a :class:`PreprocessReport`."""
    config = config or GammaConfig()
    options = options or PreprocessConfig.full()
    avg_b_row = b.nnz / max(1, b.num_rows)

    # --- Stage 1: selective coordinate-space tiling (Sec. 4.2) ---------
    if options.tile:
        fragments = tile_matrix(
            a, avg_b_row, config,
            threshold_fraction=options.tile_threshold_fraction,
            threshold_bytes=options.tile_threshold_bytes,
            selective=options.selective,
        )
    else:
        fragments = [
            RowFragment(row, a.coords[start:end], a.values[start:end])
            for row in range(a.num_rows)
            for start, end in (
                (a.offsets[row], a.offsets[row + 1]),
            )
            if end > start
        ]
    parts_per_row = Counter(frag.row for frag in fragments)
    num_tiled = sum(1 for row, n in parts_per_row.items() if n > 1)

    # --- Stage 2: affinity-based reordering of fragments (Sec. 4.1) ----
    window = min(
        window_size(b, config.fibercache_bytes),
        max(1, len(fragments) - 1),
    )
    reordered = False
    order = list(range(len(fragments)))
    if options.reorder and len(fragments) > 2:
        # Greedy affinity can regress on hub-dominated graphs whose natural
        # order already has locality; keep whichever order a reuse-distance
        # model predicts fetches less of B. (The paper notes preprocessing
        # is worth applying only when it pays, Sec. 6.3.) No order can
        # beat the compulsory floor, so a natural order already at it
        # needs no Algorithm 1 run.
        cost_natural = estimate_b_traffic(
            fragments, order, b, config.fibercache_bytes)
        if cost_natural > compulsory_b_traffic(a, b):
            fragment_matrix = CsrMatrix.from_rows(
                [Fiber(f.coords, f.values, check=False)
                 for f in fragments],
                a.num_cols,
            )
            greedy = affinity_reorder(fragment_matrix, window=window)
            cost_reordered = estimate_b_traffic(
                fragments, greedy, b, config.fibercache_bytes)
            if cost_reordered < cost_natural:
                reordered = True
                order = greedy

    # --- Emit the program ----------------------------------------------
    part_counter: Counter = Counter()
    items: List[WorkItem] = []
    for index in order:
        frag = fragments[index]
        part = part_counter[frag.row]
        part_counter[frag.row] += 1
        items.append(WorkItem(
            row=frag.row,
            part=part,
            num_parts=parts_per_row[frag.row],
            coords=frag.coords,
            values=frag.values,
        ))
    program = WorkProgram(items, a.num_rows, a.num_cols)
    report = PreprocessReport(
        num_rows=a.num_rows,
        num_fragments=len(fragments),
        num_tiled_rows=num_tiled,
        reorder_window=window,
        reordered=reordered,
    )
    return program, report


def estimate_b_traffic(
    fragments: Sequence[RowFragment],
    order: Sequence[int],
    b: CsrMatrix,
    capacity_bytes: int,
) -> int:
    """Predicted B-read bytes for one fragment order, via an LRU stack model.

    A footprint-bounded LRU over B row ids approximates the FiberCache's
    reuse capture: processing a fragment touches its B rows; rows found in
    the stack are free, missing rows cost their bytes and evict from the
    cold end. O(nnz) — cheap enough to compare candidate orderings.
    """
    lru: OrderedDict = OrderedDict()
    resident_bytes = 0
    traffic = 0
    bytes_of_row = (b.row_lengths() * ELEMENT_BYTES).tolist()
    for index in order:
        for coord in fragments[index].coords.tolist():
            if coord in lru:
                lru.move_to_end(coord)
                continue
            row_bytes = bytes_of_row[coord]
            traffic += row_bytes
            lru[coord] = row_bytes
            resident_bytes += row_bytes
            while resident_bytes > capacity_bytes and lru:
                _, evicted = lru.popitem(last=False)
                resident_bytes -= evicted
    return traffic


def compulsory_b_traffic(a: CsrMatrix, b: CsrMatrix) -> int:
    """Bytes of the distinct B rows A references: a floor on
    :func:`estimate_b_traffic` for every order of A's fragments.

    Fragments partition A's nonzeros, so they reference exactly A's
    distinct column coordinates, and the LRU model misses on each of
    those rows the first time any order touches it.
    """
    referenced = np.unique(a.coords)
    return int(b.row_lengths()[referenced].sum()) * ELEMENT_BYTES


def preprocessing_cost_estimate(a: CsrMatrix, window: int) -> float:
    """Rough operation count of preprocessing (the paper reports ~4600x the
    accelerated spMspM runtime, Sec. 6.3): heap updates per placed row."""
    avg_row = a.nnz / max(1, a.num_rows)
    return a.num_rows * (avg_row ** 2)
