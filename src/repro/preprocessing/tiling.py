"""Selective coordinate-space tiling of dense A rows (paper Sec. 4.2).

Rows of A whose estimated B footprint exceeds a fraction of the FiberCache
are split into up to ``radix`` subrows by *even splits of the column
coordinate space* — not even nonzero counts — because coordinate-space
subrows retain more affinity. Oversized subrows are split again recursively.
Sparse rows are left alone: tiling them would create partial output fibers
whose spill traffic exceeds the B-reuse gain (the "+T" pathology of
Fig. 19).

Coordinates within a row are sorted and a split's buckets rise with the
coordinate, so every subrow is a contiguous run of its row's nonzeros.
:func:`tile_matrix` therefore returns fragment boundaries (nonzero
offsets into A) and works one recursion level at a time over all
nonzeros still being split.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig
from repro.matrices.csr import CsrMatrix, spans


def estimate_row_footprint(row_nnz, avg_b_row_nnz: float):
    """Estimated bytes of B rows one A row pulls into the FiberCache.

    The paper estimates footprint as the A row's length times the average
    nonzeros per row of B (Sec. 4.2). Works elementwise on arrays.
    """
    return row_nnz * avg_b_row_nnz * ELEMENT_BYTES


def tile_matrix(
    a: CsrMatrix,
    avg_b_row_nnz: float,
    config: Optional[GammaConfig] = None,
    threshold_fraction: float = 0.25,
    threshold_bytes: Optional[float] = None,
    selective: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tile A's rows, returning fragment boundaries in row order.

    A row to split covers the coordinate range ``[0, num_cols)``. Each
    round buckets a range's nonzeros into ``radix`` even subranges,
    ``floor((c - lo) * radix / span)`` clipped to the last bucket, and
    each nonempty bucket is a subrow. In selective mode a subrow that is
    still over the threshold, holds more than one nonzero and comes from
    a range wider than the radix is split again, over the subrange of its
    first nonzero's bucket (at least one coordinate wide).

    Args:
        a: The A matrix.
        avg_b_row_nnz: Mean nonzeros per row of B (footprint estimate).
        config: System parameters (FiberCache size, PE radix).
        threshold_fraction: Split rows whose estimated footprint exceeds
            this fraction of the FiberCache (0.25 in the paper).
        threshold_bytes: Absolute footprint threshold overriding the
            fraction (used by scaled-suite experiments).
        selective: When False, every multi-nonzero row is split once —
            the "+T" ablation.

    Returns:
        ``(starts, ends)``: each fragment's nonzero offsets into A,
        sorted by start. Untouched rows are single whole-row fragments;
        empty rows produce no fragment.
    """
    config = config or GammaConfig()
    if threshold_bytes is None:
        threshold_bytes = threshold_fraction * config.fibercache_bytes
    radix = config.radix
    rows = np.flatnonzero(np.diff(a.offsets))
    starts, ends = a.offsets[rows], a.offsets[rows + 1]
    lengths = ends - starts
    if selective:
        split = estimate_row_footprint(lengths, avg_b_row_nnz) \
            > threshold_bytes
    else:
        split = lengths > 1
    done = [(starts[~split], ends[~split])]
    # Ranges still being split: nonzeros [starts, ends), coords [lo, hi).
    starts, ends = starts[split], ends[split]
    lo = np.zeros(len(starts), dtype=np.int64)
    hi = np.full(len(starts), a.num_cols, dtype=np.int64)
    while len(starts):
        span = hi - lo
        owner = np.repeat(np.arange(len(starts)), ends - starts)
        positions = spans(starts, ends - starts)
        coords = a.coords[positions]
        buckets = np.minimum(
            (coords - lo[owner]) * radix // span[owner], radix - 1)
        first = np.flatnonzero(np.concatenate((
            [True], (owner[1:] != owner[:-1])
            | (buckets[1:] != buckets[:-1]))))
        lengths = np.diff(np.append(first, len(positions)))
        owner = owner[first]
        starts = positions[first]
        ends = starts + lengths
        again = (selective
                 & (estimate_row_footprint(lengths, avg_b_row_nnz)
                    > threshold_bytes)
                 & (span[owner] > radix) & (lengths > 1))
        done.append((starts[~again], ends[~again]))
        owner, first = owner[again], first[again]
        starts, ends = starts[again], ends[again]
        span, lo = span[owner], lo[owner]
        bucket = (coords[first] - lo) * radix // span
        sub_lo = lo + bucket * span // radix
        hi = np.maximum(lo + (bucket + 1) * span // radix, sub_lo + 1)
        lo = sub_lo
    starts = np.concatenate([pair[0] for pair in done])
    ends = np.concatenate([pair[1] for pair in done])
    order = np.argsort(starts)
    return starts[order], ends[order]
