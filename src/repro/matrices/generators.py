"""Synthetic sparse matrix generators.

These stand in for the SuiteSparse matrices of the paper's Tables 3 and 4
(no network access to download the originals). Each generator targets one
structural *family* — what actually differentiates the accelerators'
behaviour: density, row-length skew, nonzero locality, and row affinity.

All generators are deterministic given a seed and return `CsrMatrix`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.matrices.builder import CooBuilder, random_values
from repro.matrices.csr import CsrMatrix, spans


#: Bump when generator behaviour changes; invalidates cached simulations.
GENERATOR_VERSION = 3


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _assemble(num_rows: int, num_cols: int, rows: list, cols: list,
              values: list) -> CsrMatrix:
    """One :class:`CooBuilder` pass over the triples a generator drew.

    Generators draw row by row from one RNG stream (the draws fix the
    bytes of every suite matrix) but gather the triples in plain lists,
    so a row costs its draws and list work, not a builder call.
    """
    builder = CooBuilder(num_rows, num_cols)
    builder.add_many(rows, cols, values)
    return builder.build()


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
    lengths = rng.poisson(nnz_per_row, size=num_rows)
    lengths = np.clip(lengths, 0, num_cols)
    rows: list = []
    cols: list = []
    values: list = []
    for row, k in enumerate(lengths.tolist()):
        if k == 0:
            continue
        rows += [row] * k
        cols += rng.choice(num_cols, size=k, replace=False).tolist()
        values += random_values(rng, k).tolist()
    return _assemble(num_rows, num_cols, rows, cols, values)


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

    rows: list = []
    cols: list = []
    values: list = []
    for row, k in enumerate(degrees.tolist()):
        num_local = min(int(round(k * locality)), palette_size)
        palette = palettes[min(row // rows_per_cluster, num_clusters - 1)]
        picked = set(rng.choice(palette, size=num_local,
                                replace=False).tolist() if num_local else ())
        # The rest come from the Zipf popularity distribution.
        picked.update(col_permutation[np.searchsorted(
            col_cdf, rng.random(k - num_local))].tolist())
        # Top up dedup losses with uniform draws (models the long tail).
        attempts = 0
        while len(picked) < k and attempts < 4:
            picked.update(rng.integers(0, num_cols,
                                       size=k - len(picked)).tolist())
            attempts += 1
        row_cols = sorted(picked)
        if len(row_cols) > k:
            chosen = rng.permutation(len(row_cols))[:k].tolist()
            row_cols = sorted([row_cols[i] for i in chosen])
        rows += [row] * len(row_cols)
        cols += row_cols
        values += random_values(rng, len(row_cols)).tolist()
    return _assemble(num_rows, num_cols, rows, cols, values)


def symmetric_permute(matrix: CsrMatrix, seed: int = 0) -> CsrMatrix:
    """Renumber a square matrix: P A P^T with a random permutation P.

    Models a mesh whose node numbering scrambles locality (the paper's
    sme3Db case, Fig. 19) — the structure is intact, so affinity-based
    reordering can recover it, but the raw row order has no reuse.
    Entries move, never merge, so the result is built directly (a
    builder would drop explicit zeros).
    """
    if matrix.num_rows != matrix.num_cols:
        raise ValueError("symmetric_permute requires a square matrix")
    rng = _rng(seed)
    n = matrix.num_rows
    perm = rng.permutation(n)
    inverse = np.argsort(perm)
    # New row r is old row perm[r], its coordinates renumbered and sorted.
    lengths = np.diff(matrix.offsets)[perm]
    gather = spans(matrix.offsets[perm], lengths)
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    coords = inverse[matrix.coords[gather]]
    order = np.lexsort((coords, rows))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CsrMatrix((n, n), offsets, coords[order],
                     matrix.values[gather][order], check=False)


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
    # The band width controls coupling density: low-order discretizations
    # spread a row's nonzeros over a wide band (band_factor ~2), while
    # high-order 3D elements couple nodes within barely more than the row
    # length itself (band_factor <1), so adjacent rows overlap almost
    # entirely and their products collide — which is what makes the
    # paper's dense FEM matrices compute-bound.
    half_band = max(block, int(round(nnz_per_row * band_factor)))
    clusters = max(1, int(round(1.5 * nnz_per_row / block)))
    rows: list = []
    cols: list = []
    values: list = []
    for row in range(num_rows):
        centers = rng.integers(
            max(0, row - half_band), min(num_rows, row + half_band + 1),
            size=clusters,
        )
        candidates: set = set()
        for center in centers.tolist():
            lo = max(0, center - block // 2)
            candidates.update(range(lo, min(num_rows, lo + block)))
        candidates = sorted(candidates)
        keep = min(len(candidates),
                   max(1, int(round(rng.normal(nnz_per_row, 1.0)))))
        picked = set(rng.choice(candidates, size=keep,
                                replace=False).tolist())
        picked.add(row)  # keep the diagonal
        row_cols = sorted(picked)
        rows += [row] * len(row_cols)
        cols += row_cols
        values += random_values(rng, len(row_cols)).tolist()
    matrix = _assemble(num_rows, num_rows, rows, cols, values)
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
    rows: list = []
    cols: list = []
    values: list = []
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
            value = random_values(rng, 1).tolist()
            rows += (node, nbr)
            cols += (nbr, node)
            values += value * 2
    return _assemble(total, total, rows, cols, values)


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
    num_dense = max(1, int(round(num_rows * dense_row_fraction)))
    dense_rows = set(
        rng.choice(num_rows, size=num_dense, replace=False).tolist()
    )
    window = max(4, int(num_cols * locality_window_fraction))
    # Sparse rows with nearby anchors share columns, but anchors are
    # shuffled so the raw row order carries no locality.
    anchors = rng.integers(0, max(1, num_cols - window), size=num_rows)
    rows: list = []
    cols: list = []
    values: list = []
    for row, lo in enumerate(anchors.tolist()):
        if row in dense_rows:
            k = min(num_cols, max(1, int(rng.normal(dense_row_nnz,
                                                    dense_row_nnz * 0.1))))
            cols += rng.choice(num_cols, size=k, replace=False).tolist()
        else:
            k = min(window, max(1, rng.poisson(sparse_nnz_per_row)))
            cols += [lo + offset for offset in rng.choice(
                window, size=k, replace=False).tolist()]
        rows += [row] * k
        values += random_values(rng, k).tolist()
    return _assemble(num_rows, num_cols, rows, cols, values)


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
    rows_per_block = max(1, num_rows // num_blocks)
    cols_per_block = max(1, num_cols // num_blocks)
    rows: list = []
    cols: list = []
    values: list = []
    for row in range(num_rows):
        block_id = min(row // rows_per_block, num_blocks - 1)
        k = min(num_cols, max(1, rng.poisson(nnz_per_row)))
        draws = rng.random(k).tolist()
        lo = block_id * cols_per_block
        hi = min(num_cols, lo + cols_per_block)
        near = rng.integers(lo, hi, size=k).tolist()
        far = rng.integers(0, num_cols, size=k).tolist()
        row_cols = sorted({
            n if draw < in_block_fraction else f
            for draw, n, f in zip(draws, near, far)
        })
        rows += [row] * len(row_cols)
        cols += row_cols
        values += random_values(rng, len(row_cols)).tolist()
    return _assemble(num_rows, num_cols, rows, cols, values)


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
    rows: list = []
    cols: list = []
    values: list = []
    for row in range(num_rows):
        center = int(row * num_cols / max(1, num_rows))
        lo = max(0, center - bandwidth)
        hi = min(num_cols, center + bandwidth + 1)
        k = min(hi - lo, max(1, rng.poisson(nnz_per_row)))
        rows += [row] * k
        cols += rng.choice(np.arange(lo, hi), size=k,
                           replace=False).tolist()
        values += random_values(rng, k).tolist()
    return _assemble(num_rows, num_cols, rows, cols, values)


def shuffled(matrix: CsrMatrix, seed: int = 0) -> CsrMatrix:
    """Randomly permute rows — destroys affinity, for reordering studies."""
    rng = _rng(seed)
    return matrix.permute_rows(rng.permutation(matrix.num_rows))


def rmat(
    scale: int,
    edge_factor: float = 8.0,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CsrMatrix:
    """R-MAT / Kronecker graph generator [Chakrabarti et al., SDM'04].

    The standard scale-free graph benchmark family (Graph500 uses
    a=0.57, b=c=0.19): each edge picks its endpoints by recursively
    descending a 2x2 probability grid, producing power-law degrees,
    strong community structure, and the self-similar sparsity patterns
    spMspM accelerators are evaluated on.

    Args:
        scale: log2 of the number of vertices (n = 2**scale).
        edge_factor: Average edges per vertex.
        a, b, c: Quadrant probabilities (d = 1 - a - b - c).

    Returns:
        The n x n adjacency matrix with uniform random weights;
        duplicate edges are merged.
    """
    if scale < 1 or scale > 24:
        raise ValueError("scale must be in [1, 24]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must sum to <= 1")
    rng = _rng(seed)
    n = 1 << scale
    num_edges = int(edge_factor * n)
    rows = np.zeros(num_edges, dtype=np.int64)
    cols = np.zeros(num_edges, dtype=np.int64)
    # Vectorized recursive descent: one quadrant draw per bit level.
    thresholds = np.array([a, a + b, a + b + c])
    for level in range(scale):
        draws = rng.random(num_edges)
        quadrant = np.searchsorted(thresholds, draws)
        rows = (rows << 1) | (quadrant >> 1)
        cols = (cols << 1) | (quadrant & 1)
    builder = CooBuilder(n, n)
    builder.add_many(rows, cols, random_values(rng, num_edges))
    return builder.build()
