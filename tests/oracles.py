"""Slow reference implementations of the preprocessing kernels and the
matrix generators.

Each is the straightforward loop the array code in ``repro.preprocessing``
or ``repro.matrices.generators`` replaced, kept as the oracle the tests
compare it with:

* :func:`split_row` / :func:`tile_rows` — selective coordinate-space
  tiling, one mask pass per bucket and one recursive call per subrow;
* :class:`BucketQueue` / :func:`affinity_reorder_queue` — Algorithm 1
  driven through a priority-queue object;
* :func:`estimate_b_traffic_loop` — the reorder guard's LRU estimate,
  one ``OrderedDict`` touch per B row reference;
* :func:`preprocess_items` — the pipeline built from the three, with
  Algorithm 1 run on every reorder request, emitting each work item as
  ``(row, part, num_parts, coords bytes, values bytes)``;
* :func:`uniform_random` ... :func:`diagonal_band` — the suite
  generators with per-row numpy dedup and one builder call per row
  (per edge in :func:`road_network`, one ``Fiber`` per row in
  :func:`symmetric_permute`).
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig
from repro.matrices.builder import CooBuilder, random_values
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


# ----------------------------------------------------------------------
# Matrix generators
# ----------------------------------------------------------------------
# The suite generators as they were before generation moved to list and
# set work: one ``add_many`` (or two ``add`` calls) per row or edge and
# per-row numpy dedup. The RNG calls are the same, in the same order, so
# each must build the same bytes as its ``repro.matrices.generators``
# namesake.
def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_random(
    num_rows: int,
    num_cols: int,
    nnz_per_row: float,
    seed: int = 0,
) -> CsrMatrix:
    """Erdos-Renyi style matrix: nonzeros uniformly distributed.

    Row lengths are Poisson around ``nnz_per_row``; coordinates are uniform.
    The least structured family — minimal row affinity.
    """
    rng = _rng(seed)
    builder = CooBuilder(num_rows, num_cols)
    lengths = rng.poisson(nnz_per_row, size=num_rows)
    lengths = np.clip(lengths, 0, num_cols)
    for row in range(num_rows):
        k = int(lengths[row])
        if k == 0:
            continue
        cols = rng.choice(num_cols, size=k, replace=False)
        builder.add_many(np.full(k, row), cols, random_values(rng, k))
    return builder.build()


def power_law(
    num_rows: int,
    num_cols: int,
    nnz_per_row: float,
    seed: int = 0,
    row_skew: float = 1.8,
    col_skew: float = 1.0,
    max_degree: Optional[int] = None,
    locality: float = 0.4,
) -> CsrMatrix:
    """Scale-free graph adjacency: skewed row lengths, hub columns.

    Models web/citation/social-network matrices (web-Google, cit-Patents,
    wiki-Vote, email-Enron...). Row degrees follow a truncated power law
    with exponent ``row_skew``; column targets mix Zipf-like popularity
    (exponent ``col_skew`` — hub columns shared by many rows, the reuse
    Gamma's FiberCache captures) with neighborhood locality: real web and
    citation graphs are crawled/numbered so nearby rows link to nearby
    columns.

    Args:
        max_degree: Cap on row degree (hubs); defaults to
            ``max(4 * nnz_per_row, num_rows ** 0.5)``.
        locality: Fraction of each row's nonzeros drawn from a window
            around the row's own index instead of the popularity
            distribution.
    """
    rng = _rng(seed)
    if max_degree is None:
        max_degree = int(max(4 * nnz_per_row, num_rows ** 0.5))
    max_degree = min(max_degree, num_cols)
    ranks = np.arange(1, num_rows + 1, dtype=np.float64)
    degree_weights = ranks ** (-row_skew)
    target_nnz = nnz_per_row * num_rows
    degrees = degree_weights * (target_nnz / degree_weights.sum())
    degrees = np.maximum(1, np.round(degrees)).astype(np.int64)
    degrees = np.minimum(degrees, max_degree)
    # Compensate dedup losses and hub truncation so the realized mean
    # tracks the requested nnz_per_row.
    shortfall = target_nnz / max(1.0, degrees.sum())
    if shortfall > 1.0:
        degrees = np.minimum(
            max_degree, np.maximum(1, np.round(degrees * shortfall))
        ).astype(np.int64)
    rng.shuffle(degrees)

    col_ranks = np.arange(1, num_cols + 1, dtype=np.float64)
    col_weights = col_ranks ** (-col_skew)
    col_cdf = np.cumsum(col_weights / col_weights.sum())
    col_permutation = rng.permutation(num_cols)

    def popular(n: int) -> np.ndarray:
        """n column ids drawn from the Zipf popularity distribution."""
        return col_permutation[np.searchsorted(col_cdf, rng.random(n))]

    # Locality comes from per-cluster column palettes: consecutive rows
    # belong to the same cluster (a web domain / citation community) and
    # draw their local links from the cluster's small shared column set, so
    # sibling rows genuinely overlap — as crawled graphs do.
    rows_per_cluster = 8
    num_clusters = max(1, num_rows // rows_per_cluster)
    palette_size = max(3, int(round(2.5 * nnz_per_row * locality)))
    palettes = [
        np.sort(rng.choice(
            num_cols,
            size=min(palette_size, num_cols),
            replace=False,
        ))
        for _ in range(num_clusters)
    ]

    builder = CooBuilder(num_rows, num_cols)
    for row in range(num_rows):
        k = int(degrees[row])
        num_local = min(int(round(k * locality)), palette_size)
        palette = palettes[min(row // rows_per_cluster, num_clusters - 1)]
        local = rng.choice(palette, size=num_local,
                           replace=False) if num_local else np.empty(
                               0, dtype=np.int64)
        cols = np.unique(np.concatenate([popular(k - num_local), local]))
        # Top up dedup losses with uniform draws (models the long tail).
        attempts = 0
        while len(cols) < k and attempts < 4:
            extra = rng.integers(0, num_cols, size=k - len(cols))
            cols = np.unique(np.concatenate([cols, extra]))
            attempts += 1
        if len(cols) > k:
            chosen = rng.permutation(len(cols))[:k]
            cols = np.sort(cols[chosen])
        builder.add_many(
            np.full(len(cols), row), cols, random_values(rng, len(cols))
        )
    return builder.build()


def symmetric_permute(matrix: CsrMatrix, seed: int = 0) -> CsrMatrix:
    """Renumber a square matrix: P A P^T with a random permutation P.

    Models a mesh whose node numbering scrambles locality (the paper's
    sme3Db case, Fig. 19) — the structure is intact, so affinity-based
    reordering can recover it, but the raw row order has no reuse.
    """
    if matrix.num_rows != matrix.num_cols:
        raise ValueError("symmetric_permute requires a square matrix")
    rng = _rng(seed)
    n = matrix.num_rows
    perm = rng.permutation(n)
    inverse = np.argsort(perm)
    rows = []
    from repro.matrices.fiber import Fiber

    for new_row in range(n):
        fiber = matrix.row(int(perm[new_row]))
        new_coords = inverse[fiber.coords]
        order = np.argsort(new_coords)
        rows.append(
            Fiber(new_coords[order], fiber.values[order], check=False)
        )
    return CsrMatrix.from_rows(rows, n)


def mesh(
    num_rows: int,
    nnz_per_row: float,
    seed: int = 0,
    block: int = 4,
    renumber: bool = False,
    band_factor: float = 2.0,
) -> CsrMatrix:
    """FEM/mesh discretization: square, banded, with dense local blocks.

    Models PDE matrices (poisson3Da, filter3D, offshore, raefsky3,
    ship_001...). Each row's nonzeros sit inside a narrow band around the
    diagonal, grouped into ``block``-wide clusters — adjacent rows share
    most of their column sets, giving high affinity (B rows are reused by
    neighbouring A rows).
    """
    rng = _rng(seed)
    builder = CooBuilder(num_rows, num_rows)
    # The band width controls coupling density: low-order discretizations
    # spread a row's nonzeros over a wide band (band_factor ~2), while
    # high-order 3D elements couple nodes within barely more than the row
    # length itself (band_factor <1), so adjacent rows overlap almost
    # entirely and their products collide — which is what makes the
    # paper's dense FEM matrices compute-bound.
    half_band = max(block, int(round(nnz_per_row * band_factor)))
    clusters = max(1, int(round(1.5 * nnz_per_row / block)))
    for row in range(num_rows):
        centers = rng.integers(
            max(0, row - half_band), min(num_rows, row + half_band + 1),
            size=clusters,
        )
        cols = []
        for center in centers:
            lo = max(0, int(center) - block // 2)
            hi = min(num_rows, lo + block)
            cols.extend(range(lo, hi))
        cols = np.unique(cols)
        keep = min(len(cols), max(1, int(round(rng.normal(nnz_per_row, 1.0)))))
        cols = rng.choice(cols, size=keep, replace=False)
        cols = np.unique(np.append(cols, row))  # keep the diagonal
        builder.add_many(
            np.full(len(cols), row), cols, random_values(rng, len(cols))
        )
    matrix = builder.build()
    if renumber:
        matrix = symmetric_permute(matrix, seed=seed + 1)
    return matrix


def road_network(num_rows: int, seed: int = 0,
                 keep_edge_prob: float = 0.62,
                 extra_edge_prob: float = 0.1) -> CsrMatrix:
    """Planar road-network adjacency (roadNet-CA, patents_main).

    A thinned 2-D grid graph with sporadic extra local edges: ~2-3 nnz/row,
    symmetric, strongly diagonal locality.
    """
    rng = _rng(seed)
    side = int(math.sqrt(num_rows))
    side = max(side, 2)
    total = side * side
    builder = CooBuilder(total, total)
    for node in range(total):
        r, c = divmod(node, side)
        neighbors = []
        if c + 1 < side and rng.random() < keep_edge_prob:
            neighbors.append(node + 1)
        if r + 1 < side and rng.random() < keep_edge_prob:
            neighbors.append(node + side)
        if rng.random() < extra_edge_prob:
            jump = int(rng.integers(2, side))
            if node + jump < total:
                neighbors.append(node + jump)
        for nbr in neighbors:
            v = float(random_values(rng, 1)[0])
            builder.add(node, nbr, v)
            builder.add(nbr, node, v)
    return builder.build()


def mixed_density(
    num_rows: int,
    num_cols: int,
    sparse_nnz_per_row: float,
    dense_row_fraction: float,
    dense_row_nnz: int,
    seed: int = 0,
    locality_window_fraction: float = 0.08,
) -> CsrMatrix:
    """LP/optimization matrix: mostly sparse rows plus a few very dense ones.

    Models gupta2, nemsemm1, degme — matrices where a small fraction of rows
    is orders of magnitude denser than the rest. Dense rows span the whole
    coordinate range and thrash the FiberCache (the target of selective
    coordinate-space tiling); sparse rows cluster their nonzeros in a window
    around a *shuffled* anchor — structure that affinity-based reordering
    can recover, as it can for the real matrices' block patterns.
    """
    rng = _rng(seed)
    builder = CooBuilder(num_rows, num_cols)
    num_dense = max(1, int(round(num_rows * dense_row_fraction)))
    dense_rows = set(
        rng.choice(num_rows, size=num_dense, replace=False).tolist()
    )
    window = max(4, int(num_cols * locality_window_fraction))
    # Sparse rows with nearby anchors share columns, but anchors are
    # shuffled so the raw row order carries no locality.
    anchors = rng.integers(0, max(1, num_cols - window), size=num_rows)
    for row in range(num_rows):
        if row in dense_rows:
            k = min(num_cols, max(1, int(rng.normal(dense_row_nnz,
                                                    dense_row_nnz * 0.1))))
            cols = rng.choice(num_cols, size=k, replace=False)
        else:
            k = min(window, max(1, rng.poisson(sparse_nnz_per_row)))
            lo = int(anchors[row])
            cols = lo + rng.choice(window, size=k, replace=False)
        builder.add_many(np.full(k, row), cols, random_values(rng, k))
    return builder.build()


def block_random(
    num_rows: int,
    num_cols: int,
    nnz_per_row: float,
    seed: int = 0,
    num_blocks: int = 16,
    in_block_fraction: float = 0.85,
) -> CsrMatrix:
    """Community-structured matrix: most nonzeros inside diagonal blocks.

    Models clustered matrices (ca-CondMat, amazon0312, scircuit): rows in
    the same block share column sets — high affinity that row reordering
    can recover after a shuffle.
    """
    rng = _rng(seed)
    builder = CooBuilder(num_rows, num_cols)
    rows_per_block = max(1, num_rows // num_blocks)
    cols_per_block = max(1, num_cols // num_blocks)
    for row in range(num_rows):
        block_id = min(row // rows_per_block, num_blocks - 1)
        k = min(num_cols, max(1, rng.poisson(nnz_per_row)))
        in_block = rng.random(k) < in_block_fraction
        lo = block_id * cols_per_block
        hi = min(num_cols, lo + cols_per_block)
        cols = np.where(
            in_block,
            rng.integers(lo, hi, size=k),
            rng.integers(0, num_cols, size=k),
        )
        cols = np.unique(cols)
        builder.add_many(
            np.full(len(cols), row), cols, random_values(rng, len(cols))
        )
    return builder.build()


def diagonal_band(
    num_rows: int,
    num_cols: int,
    nnz_per_row: float,
    seed: int = 0,
    bandwidth: Optional[int] = None,
) -> CsrMatrix:
    """Simple banded matrix (m133-b3, mario002 style structured meshes)."""
    rng = _rng(seed)
    if bandwidth is None:
        bandwidth = max(4, int(nnz_per_row * 3))
    builder = CooBuilder(num_rows, num_cols)
    for row in range(num_rows):
        center = int(row * num_cols / max(1, num_rows))
        lo = max(0, center - bandwidth)
        hi = min(num_cols, center + bandwidth + 1)
        k = min(hi - lo, max(1, rng.poisson(nnz_per_row)))
        cols = rng.choice(np.arange(lo, hi), size=k, replace=False)
        builder.add_many(np.full(k, row), cols, random_values(rng, k))
    return builder.build()
