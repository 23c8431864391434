"""The full preprocessing pipeline: tiling, then reordering (paper Sec. 4).

Selective coordinate-space tiling runs first, breaking dense A rows into
subrows; affinity-based reordering then permutes the resulting fragments
(whole rows and subrows alike) so fragments with shared column coordinates
are processed consecutively. The output is a :class:`WorkProgram` the
scheduler consumes directly — implementing the "auxiliary data for
indirections" realization the paper describes, with no change to A's layout.

Every fragment is a contiguous run of one A row's nonzeros, so the
pipeline works on fragment boundaries (nonzero offsets into A): tiling
returns them in A's order, and both Algorithm 1's fragment matrix and the
reorder guard's B access stream are built straight from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, PreprocessConfig
from repro.core.scheduler import WorkProgram
from repro.matrices.csr import CsrMatrix, spans
from repro.matrices.stats import window_size
from repro.preprocessing.reorder import affinity_reorder
from repro.preprocessing.tiling import tile_matrix


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
        starts, ends = tile_matrix(
            a, avg_b_row, config,
            threshold_fraction=options.tile_threshold_fraction,
            threshold_bytes=options.tile_threshold_bytes,
            selective=options.selective,
        )
    else:
        rows = np.flatnonzero(a.row_lengths())
        starts, ends = a.offsets[rows], a.offsets[rows + 1]
    num_fragments = len(starts)

    # --- Stage 2: affinity-based reordering of fragments (Sec. 4.1) ----
    window = min(
        window_size(b, config.fibercache_bytes),
        max(1, num_fragments - 1),
    )
    reordered = False
    if options.reorder and num_fragments > 2:
        # Greedy affinity can regress on hub-dominated graphs whose natural
        # order already has locality; keep whichever order a reuse-distance
        # model predicts fetches less of B. (The paper notes preprocessing
        # is worth applying only when it pays, Sec. 6.3.) No order can
        # beat the compulsory floor, so a natural order already at it
        # needs no Algorithm 1 run. The fragments partition A's nonzeros
        # in order, so the natural order's B stream is A's coordinates
        # and its fragment matrix shares A's arrays.
        cost_natural = estimate_b_traffic(
            a.coords, b, config.fibercache_bytes)
        if cost_natural > compulsory_b_traffic(a, b):
            fragment_matrix = CsrMatrix(
                (num_fragments, a.num_cols), np.append(starts, a.nnz),
                a.coords, a.values, check=False)
            greedy = affinity_reorder(fragment_matrix, window=window)
            greedy_starts, greedy_ends = starts[greedy], ends[greedy]
            cost_reordered = estimate_b_traffic(
                a.coords[spans(greedy_starts, greedy_ends - greedy_starts)],
                b, config.fibercache_bytes)
            if cost_reordered < cost_natural:
                reordered = True
                starts, ends = greedy_starts, greedy_ends

    program = WorkProgram.from_slices(a, starts, ends)
    report = PreprocessReport(
        num_rows=a.num_rows,
        num_fragments=num_fragments,
        # Each tiled row has exactly one subrow numbered 1.
        num_tiled_rows=int(np.count_nonzero(program.parts == 1)),
        reorder_window=window,
        reordered=reordered,
    )
    return program, report


def estimate_b_traffic(
    b_rows: np.ndarray,
    b: CsrMatrix,
    capacity_bytes: int,
) -> int:
    """Predicted B-read bytes for one fragment order, via an LRU stack model.

    ``b_rows`` is the order's B access stream: its fragments'
    coordinates, fragment after fragment. A footprint-bounded LRU over B
    row ids approximates the FiberCache's reuse capture: rows found in
    the stack are free, missing rows cost their bytes and evict from the
    cold end (:func:`repro.analysis.reuse.lru_miss_bytes`). O(nnz) —
    cheap enough to compare candidate orderings.
    """
    from repro.analysis.reuse import b_read_traffic

    return b_read_traffic(b_rows, b, capacity_bytes)


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
