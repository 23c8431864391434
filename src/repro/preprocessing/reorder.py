"""Affinity-based row reordering (paper Sec. 4.1, Algorithm 1).

Greedily permutes the rows of A so that rows sharing many column
coordinates are processed consecutively — which is exactly what makes the
FiberCache's B-row reuse work. The score of a candidate row is its summed
affinity with the previous W rows already placed, where the window W
(Eq. 2) approximates how many B rows fit in the FiberCache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence

import numpy as np

from repro.config import GammaConfig
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import window_size


def affinity_reorder(
    a: CsrMatrix,
    window: int,
    start_row: int = 0,
    max_column_degree: Optional[int] = None,
) -> List[int]:
    """Compute the greedy affinity-maximizing row permutation.

    Implements Algorithm 1: every unplaced row is keyed by its affinity
    with the last ``window`` placed rows. Placing a row increments the
    keys of all rows sharing a column with it; the row leaving the
    window decrements them. Each step places the row of maximum key,
    the earliest to reach that key on ties.

    The keys are small counts moved by +-1, so the queue is inlined as a
    bucket queue: ``keys[row]`` and one ``OrderedDict`` of rows per key,
    trimmed from the top when empty, so the last bucket holds the
    maximum key. Its linked order finds a bucket's earliest row in O(1)
    however many rows left it before (a plain dict scans past every
    deleted entry). A placed row leaves the column lists, so the key
    updates only ever meet unplaced rows.

    Args:
        a: The matrix whose rows to reorder.
        window: Sliding window size W (Eq. 2).
        start_row: Row to place first.
        max_column_degree: Columns shared by more rows than this are left
            out of the affinity (default: 8x the mean column degree, at
            least 64).

    Returns:
        Permutation ``pi``: position i holds the original index of the row
        processed i-th.

    Complexity: O(nnz * nnz/row) key updates — near-linear for sparse A.
    """
    num_rows = a.num_rows
    if num_rows == 0:
        return []
    if not (0 <= start_row < num_rows):
        raise ValueError(f"start_row {start_row} out of range")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    # Column -> rows mapping (A^T structure) to find affine rows quickly.
    transpose = a.transpose()
    # Hub columns shared by a large share of all rows bump nearly every
    # candidate identically: they cost the bulk of the work (degree^2)
    # while providing no discrimination, so they are excluded from the
    # affinity score.
    if max_column_degree is None:
        avg_col_degree = a.nnz / max(1, a.num_cols)
        max_column_degree = int(max(64, 8 * avg_col_degree))
    # Adjacency as Python lists, hub columns left out of the rows': the
    # key-update loops are the hot path.
    degrees = np.diff(transpose.offsets)
    scored = degrees[a.coords] <= max_column_degree
    scored_offsets = np.concatenate(([0], np.cumsum(scored)))[a.offsets]
    coords = a.coords[scored].tolist()
    offsets = scored_offsets.tolist()
    row_cols = [coords[offsets[r]:offsets[r + 1]] for r in range(num_rows)]
    members = transpose.coords.tolist()
    bounds = transpose.offsets.tolist()
    col_rows = [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    keys = [0] * num_rows
    buckets = [OrderedDict.fromkeys(range(num_rows))]
    permutation = [start_row]
    del buckets[0][start_row]
    for coord in row_cols[start_row]:
        col_rows[coord].remove(start_row)
    placed = start_row
    for position in range(1, num_rows):
        # The last placed row enters the window: incKey its unplaced
        # affines.
        for coord in row_cols[placed]:
            for other in col_rows[coord]:
                key = keys[other]
                del buckets[key][other]
                key += 1
                if key == len(buckets):
                    buckets.append(OrderedDict())
                buckets[key][other] = None
                keys[other] = key
        if position > window:
            # The oldest row leaves the window: decKey its affines.
            for coord in row_cols[permutation[position - window - 1]]:
                for other in col_rows[coord]:
                    key = keys[other]
                    del buckets[key][other]
                    buckets[key - 1][other] = None
                    keys[other] = key - 1
        while not buckets[-1]:
            buckets.pop()
        top = buckets[-1]
        placed = next(iter(top))
        del top[placed]
        permutation.append(placed)
        for coord in row_cols[placed]:
            col_rows[coord].remove(placed)
    return permutation


def reorder_for_gamma(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
) -> List[int]:
    """Affinity reordering with the window sized for this system (Eq. 2)."""
    config = config or GammaConfig()
    window = window_size(b, config.fibercache_bytes)
    # Cap the window at the row count; a larger window changes nothing.
    window = min(window, max(1, a.num_rows - 1))
    return affinity_reorder(a, window=window)


def is_permutation(perm: Sequence[int], n: int) -> bool:
    """True when ``perm`` is a permutation of range(n) (test helper)."""
    return len(perm) == n and sorted(perm) == list(range(n))
