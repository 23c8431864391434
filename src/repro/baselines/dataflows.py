"""Functional implementations of all three spMspM dataflows (Sec. 2.2).

The paper's motivation rests on *algorithmic* properties of the dataflows:

* **inner product** co-iterates a row of A with a column of B per output
  element — on sparse inputs most coordinate comparisons are *ineffectual*
  (no matching nonzeros), yet every element of both fibers must be
  traversed;
* **outer product** multiplies column k of A by row k of B — every
  multiply is effectual, but the partial matrices it emits must all be
  merged afterwards;
* **Gustavson** linearly combines rows of B per row of A — effectual
  multiplies *and* small row-sized intermediates.

The engines in ``DATAFLOWS`` execute each dataflow faithfully: they
compute C and count the work done — effectual multiplies, ineffectual
comparisons, and merge volume — and every engine cross-checks against
scipy in the tests. ``compare_dataflows`` derives the same counts in
closed form from the operands' structure, without executing anything;
the engines are its test oracles. The counts back the paper's Fig. 2/
Sec. 2 arguments quantitatively (the ``dataflows`` figure and the
``ext_dataflows`` experiment).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.matrices.csr import CscMatrix, CsrMatrix
from repro.matrices.fiber import Fiber


@dataclass(frozen=True)
class DataflowCounts:
    """Work performed by one dataflow execution.

    Attributes:
        effectual_multiplies: Products of two nonzeros (identical across
            dataflows — the useful work).
        ineffectual_comparisons: Coordinate comparisons that produced no
            product (inner product's intersection overhead).
        merge_elements: Elements flowing through merge/accumulation of
            intermediate results (outer product's partial matrices,
            Gustavson's partial fibers).
        intermediate_elements: Peak count of buffered intermediate
            elements (outer product's partial-matrix footprint vs
            Gustavson's single-row accumulator).
    """

    effectual_multiplies: int
    ineffectual_comparisons: int
    merge_elements: int
    intermediate_elements: int


def spgemm_inner_product(a: CsrMatrix, b: CsrMatrix) -> Tuple[CsrMatrix,
                                                              DataflowCounts]:
    """Inner-product dataflow: C[m, n] = A[m, :] . B[:, n].

    Traverses a CSR row of A against a CSC column of B for every output
    candidate, counting the coordinate comparisons the two-pointer
    intersection performs — including the ineffectual ones the paper
    blames for inner product's collapse on sparse inputs.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    b_csc = CscMatrix.from_csr(b)
    rows: List[Fiber] = []
    effectual = 0
    comparisons = 0
    for m in range(a.num_rows):
        row = a.row(m)
        out_coords: List[int] = []
        out_values: List[float] = []
        if len(row):
            for n in range(b.num_cols):
                column = b_csc.column(n)
                if not len(column):
                    continue
                total = 0.0
                hit = False
                i = j = 0
                row_coords, row_values = row.coords, row.values
                col_coords, col_values = column.coords, column.values
                while i < len(row_coords) and j < len(col_coords):
                    comparisons += 1
                    ca, cb = row_coords[i], col_coords[j]
                    if ca == cb:
                        total += row_values[i] * col_values[j]
                        effectual += 1
                        hit = True
                        i += 1
                        j += 1
                    elif ca < cb:
                        i += 1
                    else:
                        j += 1
                if hit:
                    out_coords.append(n)
                    out_values.append(total)
        rows.append(Fiber(np.asarray(out_coords, dtype=np.int64),
                          np.asarray(out_values), check=False))
    c = CsrMatrix.from_rows(rows, b.num_cols)
    ineffectual = comparisons - effectual
    return c, DataflowCounts(
        effectual_multiplies=effectual,
        ineffectual_comparisons=ineffectual,
        merge_elements=0,
        intermediate_elements=0,
    )


def spgemm_outer_product(a: CsrMatrix, b: CsrMatrix) -> Tuple[CsrMatrix,
                                                              DataflowCounts]:
    """Outer-product dataflow: C = sum_k A[:, k] (x) B[k, :].

    Produces one partial matrix per shared coordinate k (kept as
    per-output-row partial fibers, the OuterSPACE organization), then
    merges all partials with a K-way coordinate merge — the expensive
    phase the paper highlights.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    a_csc = CscMatrix.from_csr(a)
    # Partial fibers per output row: list of (coords, values) fragments.
    partials: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
    effectual = 0
    total_partial_elements = 0
    for k in range(a.num_cols):
        column = a_csc.column(k)
        b_row = b.row(k)
        if not len(column) or not len(b_row):
            continue
        for m, a_value in column:
            values = a_value * b_row.values
            partials.setdefault(int(m), []).append((b_row.coords, values))
            effectual += len(b_row)
            total_partial_elements += len(b_row)

    # Merge phase: per output row, a K-way merge of its partial fibers.
    rows: List[Fiber] = []
    merge_elements = 0
    for m in range(a.num_rows):
        fragments = partials.get(m, [])
        if not fragments:
            rows.append(Fiber.empty())
            continue
        heap: List[Tuple[int, int, int]] = []
        for index, (coords, _) in enumerate(fragments):
            heap.append((int(coords[0]), index, 0))
        heapq.heapify(heap)
        out_coords: List[int] = []
        out_values: List[float] = []
        while heap:
            coord, index, position = heapq.heappop(heap)
            value = fragments[index][1][position]
            merge_elements += 1
            if out_coords and out_coords[-1] == coord:
                out_values[-1] += value
            else:
                out_coords.append(coord)
                out_values.append(value)
            if position + 1 < len(fragments[index][0]):
                heapq.heappush(heap, (
                    int(fragments[index][0][position + 1]), index,
                    position + 1,
                ))
        rows.append(Fiber(np.asarray(out_coords, dtype=np.int64),
                          np.asarray(out_values), check=False))
    c = CsrMatrix.from_rows(rows, b.num_cols)
    return c, DataflowCounts(
        effectual_multiplies=effectual,
        ineffectual_comparisons=0,
        merge_elements=merge_elements,
        intermediate_elements=total_partial_elements,
    )


def spgemm_gustavson(a: CsrMatrix, b: CsrMatrix) -> Tuple[CsrMatrix,
                                                          DataflowCounts]:
    """Gustavson's dataflow: C[m, :] = sum_k a_mk * B[k, :].

    Row-sized intermediates only: the peak buffered state is one output
    row's accumulator.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    rows: List[Fiber] = []
    effectual = 0
    merge_elements = 0
    peak_intermediate = 0
    for m in range(a.num_rows):
        accumulator: Dict[int, float] = {}
        for k, a_value in a.row(m):
            b_row = b.row(int(k))
            effectual += len(b_row)
            merge_elements += len(b_row)
            for coord, b_value in zip(b_row.coords.tolist(),
                                      b_row.values.tolist()):
                accumulator[coord] = (
                    accumulator.get(coord, 0.0) + a_value * b_value)
        peak_intermediate = max(peak_intermediate, len(accumulator))
        coords = np.asarray(sorted(accumulator), dtype=np.int64)
        rows.append(Fiber(
            coords,
            np.asarray([accumulator[int(c)] for c in coords]),
            check=False,
        ))
    c = CsrMatrix.from_rows(rows, b.num_cols)
    return c, DataflowCounts(
        effectual_multiplies=effectual,
        ineffectual_comparisons=0,
        merge_elements=merge_elements,
        intermediate_elements=peak_intermediate,
    )


DATAFLOWS = {
    "inner_product": spgemm_inner_product,
    "outer_product": spgemm_outer_product,
    "gustavson": spgemm_gustavson,
}


def compare_dataflows(a: CsrMatrix, b: CsrMatrix) -> Dict[str,
                                                          DataflowCounts]:
    """Work counts of all three dataflows, in closed form.

    Returns exactly the counts the ``DATAFLOWS`` engines report, derived
    from the operands' structure in O(nnz log n) time and O(effectual)
    memory instead of by executing each dataflow.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    b_lengths = b.row_lengths()
    a_rows = np.repeat(np.arange(a.num_rows), a.row_lengths())
    b_rows = np.repeat(np.arange(b.num_rows), b_lengths)
    # A nonzero (m, k) multiplies every nonzero of B row k.
    products = b_lengths[a.coords]
    effectual = int(products.sum())

    # The inner-product pair (m, n) co-iterates A row m and B column n
    # until either ends, i.e. over coords <= min(last of row m, last of
    # column n). So an A nonzero at coord k is compared once per nonempty
    # B column ending at or after k, a B nonzero at row k once per
    # nonempty A row ending at or after k, and each match (one per
    # effectual multiply) was counted on both sides but is one comparison.
    row_last = _sorted_last_coords(a_rows, a.coords, a.num_rows)
    col_last = _sorted_last_coords(b.coords, b_rows, b.num_cols)
    row_side = (len(col_last) * a.nnz
                - int(np.searchsorted(col_last, a.coords).sum()))
    col_side = (len(row_last) * b.nnz
                - int(np.searchsorted(row_last, b_rows).sum()))
    comparisons = row_side + col_side - effectual

    return {
        "inner_product": DataflowCounts(
            effectual_multiplies=effectual,
            ineffectual_comparisons=comparisons - effectual,
            merge_elements=0,
            intermediate_elements=0,
        ),
        # Every product is emitted into a partial matrix, then merged.
        "outer_product": DataflowCounts(
            effectual_multiplies=effectual,
            ineffectual_comparisons=0,
            merge_elements=effectual,
            intermediate_elements=effectual,
        ),
        "gustavson": DataflowCounts(
            effectual_multiplies=effectual,
            ineffectual_comparisons=0,
            merge_elements=effectual,
            intermediate_elements=_peak_row_nnz(a, b, a_rows, products),
        ),
    }


def _sorted_last_coords(lines: np.ndarray, coords: np.ndarray,
                        num_lines: int) -> np.ndarray:
    """Sorted largest coord of every nonempty line (a row or a column)."""
    last = np.full(num_lines, -1, dtype=np.int64)
    np.maximum.at(last, lines, coords)
    return np.sort(last[last >= 0])


def _peak_row_nnz(a: CsrMatrix, b: CsrMatrix, a_rows: np.ndarray,
                  products: np.ndarray) -> int:
    """Largest structural row nnz of C = A x B: Gustavson's accumulator.

    Structural, like the accumulator's key set: products that cancel
    numerically still occupy their slot.
    """
    total = int(products.sum())
    if not total:
        return 0
    # Position in b.coords of every product's B element, row by row of A.
    starts = b.offsets[a.coords] - (np.cumsum(products) - products)
    positions = np.arange(total) + np.repeat(starts, products)
    keys = np.repeat(a_rows, products) * b.num_cols + b.coords[positions]
    return int(np.bincount(np.unique(keys) // b.num_cols).max())
