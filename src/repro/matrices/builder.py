"""Incremental COO builder that assembles CsrMatrix instances.

Generators and the Matrix Market reader accumulate (row, col, value) triples
here; ``build()`` sorts, deduplicates (summing), and emits CSR.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.matrices.csr import CsrMatrix


class CooBuilder:
    """Accumulates coordinate triples and builds a CsrMatrix.

    Args:
        num_rows: Matrix row count.
        num_cols: Matrix column count.
    """

    def __init__(self, num_rows: int, num_cols: int) -> None:
        if num_rows < 0 or num_cols < 0:
            raise ValueError(f"negative shape ({num_rows}, {num_cols})")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self._rows: list = []
        self._cols: list = []
        self._vals: list = []

    def add(self, row: int, col: int, value: float) -> None:
        """Add one entry; duplicates are summed at build time."""
        if not (0 <= row < self.num_rows):
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
        if not (0 <= col < self.num_cols):
            raise IndexError(f"col {col} out of range [0, {self.num_cols})")
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(value)

    def add_many(
        self,
        rows: Iterable[int] | np.ndarray,
        cols: Iterable[int] | np.ndarray,
        values: Iterable[float] | np.ndarray,
    ) -> None:
        """Vectorized bulk insertion.

        Entries of a list are kept as given, so a generator's whole
        matrix of triples is not copied into new Python objects; arrays
        are stored as Python scalars.
        """
        row_array = np.asarray(rows, dtype=np.int64)
        col_array = np.asarray(cols, dtype=np.int64)
        value_array = np.asarray(values, dtype=np.float64)
        if not (len(row_array) == len(col_array) == len(value_array)):
            raise ValueError("rows/cols/values length mismatch")
        if len(row_array):
            if row_array.min() < 0 or row_array.max() >= self.num_rows:
                raise IndexError("row index out of range")
            if col_array.min() < 0 or col_array.max() >= self.num_cols:
                raise IndexError("col index out of range")
        for stored, given, array in ((self._rows, rows, row_array),
                                     (self._cols, cols, col_array),
                                     (self._vals, values, value_array)):
            stored.extend(given if isinstance(given, list)
                          else array.tolist())

    @property
    def num_entries(self) -> int:
        """Entries added so far (before deduplication)."""
        return len(self._rows)

    def build(self, drop_zeros: bool = True) -> CsrMatrix:
        """Sort, merge duplicates, and emit a CsrMatrix.

        Args:
            drop_zeros: Remove entries whose merged value is exactly zero.
        """
        rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        vals = np.asarray(self._vals, dtype=np.float64)
        if len(rows) == 0:
            offsets = np.zeros(self.num_rows + 1, dtype=np.int64)
            return CsrMatrix((self.num_rows, self.num_cols), offsets,
                             rows, vals, check=False)
        keys = rows * self.num_cols + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(len(unique_keys), dtype=np.float64)
        np.add.at(merged, inverse, vals)
        out_rows = unique_keys // self.num_cols
        out_cols = unique_keys % self.num_cols
        if drop_zeros:
            keep = merged != 0.0
            out_rows, out_cols, merged = (
                out_rows[keep], out_cols[keep], merged[keep]
            )
        counts = np.bincount(out_rows, minlength=self.num_rows)
        offsets = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return CsrMatrix((self.num_rows, self.num_cols), offsets,
                         out_cols, merged, check=False)


def random_values(
    rng: np.random.Generator, count: int, low: float = 0.1, high: float = 1.0
) -> np.ndarray:
    """Uniform nonzero values in [low, high); avoids accidental zeros."""
    if low <= 0:
        raise ValueError("low must be positive to guarantee nonzeros")
    return rng.uniform(low, high, size=count)


def matrix_from_coo(
    num_rows: int,
    num_cols: int,
    triples: Iterable[Tuple[int, int, float]],
) -> CsrMatrix:
    """One-shot assembly from an iterable of (row, col, value)."""
    builder = CooBuilder(num_rows, num_cols)
    for row, col, value in triples:
        builder.add(row, col, value)
    return builder.build()
