"""Affinity-based row reordering (paper Sec. 4.1, Algorithm 1).

Greedily permutes the rows of A so that rows sharing many column
coordinates are processed consecutively — which is exactly what makes the
FiberCache's B-row reuse work. The score of a candidate row is its summed
affinity with the previous W rows already placed, where the window W
(Eq. 2) approximates how many B rows fit in the FiberCache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import GammaConfig
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import window_size
from repro.preprocessing.pqueue import BucketQueue


def affinity_reorder(
    a: CsrMatrix,
    window: int,
    start_row: int = 0,
    max_column_degree: Optional[int] = None,
) -> List[int]:
    """Compute the greedy affinity-maximizing row permutation.

    Implements Algorithm 1: every unplaced row sits in an indexed max-heap
    keyed by its affinity with the last ``window`` placed rows. Placing a
    row increments the keys of all rows sharing a column with it; the row
    leaving the window decrements them.

    Args:
        a: The matrix whose rows to reorder.
        window: Sliding window size W (Eq. 2).
        start_row: Row to place first.

    Returns:
        Permutation ``pi``: position i holds the original index of the row
        processed i-th.

    Complexity: O(nnz * nnz/row * log rows) — near-linear for sparse A.
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
    # Pre-extract adjacency as Python lists: the bump loop is the hot path.
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
    contains = queue.__contains__
    inc = queue.inc_key
    dec = queue.dec_key

    def bump_up(placed_row: int) -> None:
        """incKey every unplaced row sharing a column (entering window)."""
        for coord in row_cols[placed_row]:
            for other in col_rows[coord]:
                if contains(other):
                    inc(other)

    def bump_down(leaving_row: int) -> None:
        """decKey every unplaced row sharing a column (leaving window)."""
        for coord in row_cols[leaving_row]:
            for other in col_rows[coord]:
                if contains(other):
                    dec(other)

    bump_up(start_row)
    for position in range(1, num_rows):
        if position > window:
            bump_down(permutation[position - window - 1])
        chosen = queue.pop()
        permutation.append(chosen)
        bump_up(chosen)
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
