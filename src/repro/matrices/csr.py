"""Compressed sparse matrix containers built from scratch (paper Fig. 1).

``CsrMatrix`` stores a matrix as compressed rows: an offsets array plus
contiguous coordinate/value arrays. ``CscMatrix`` is its by-column twin, used
by the outer-product baselines. Both interoperate with ``scipy.sparse`` for
cross-checking only; all kernels in this repo run on these containers.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.config import ELEMENT_BYTES, OFFSET_BYTES
from repro.matrices.fiber import Fiber


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` over the pairs: the
    positions of a list of index ranges, in order."""
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    bounds = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - bounds + lengths, lengths)


class CsrMatrix:
    """A compressed-sparse-row matrix.

    Args:
        shape: (rows, cols).
        offsets: Row pointer array of length rows + 1.
        coords: Column coordinates, sorted within each row.
        values: Nonzero values aligned with ``coords``.
        check: Validate the structure (disable in hot paths).
    """

    __slots__ = ("shape", "offsets", "coords", "values")

    def __init__(
        self,
        shape: Tuple[int, int],
        offsets: Sequence[int] | np.ndarray,
        coords: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.coords = np.asarray(coords, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if check:
            self._validate()

    def _validate(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {self.shape}")
        if len(self.offsets) != rows + 1:
            raise ValueError(
                f"offsets length {len(self.offsets)} != rows + 1 ({rows + 1})"
            )
        if len(self.coords) != len(self.values):
            raise ValueError("coords/values length mismatch")
        if rows and (self.offsets[0] != 0
                     or self.offsets[-1] != len(self.coords)):
            raise ValueError("offsets must span [0, nnz]")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        for row in range(rows):
            start, end = self.offsets[row], self.offsets[row + 1]
            row_coords = self.coords[start:end]
            if len(row_coords):
                if row_coords[0] < 0 or row_coords[-1] >= cols:
                    raise ValueError(f"row {row} has out-of-range coordinates")
                if len(row_coords) > 1 and np.any(np.diff(row_coords) <= 0):
                    raise ValueError(
                        f"row {row} coordinates not strictly increasing")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Fiber], num_cols: int) -> "CsrMatrix":
        """Assemble a matrix from per-row fibers."""
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if rows:
            coords = np.concatenate([r.coords for r in rows])
            values = np.concatenate([r.values for r in rows])
        else:
            coords = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
        return CsrMatrix((len(rows), num_cols), offsets, coords, values,
                         check=False)

    @staticmethod
    def from_dense(dense: np.ndarray) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be 2-D")
        rows = []
        for row in dense:
            nz = np.nonzero(row)[0]
            rows.append(Fiber(nz, row[nz], check=False))
        return CsrMatrix.from_rows(rows, dense.shape[1])

    @staticmethod
    def from_scipy(matrix) -> "CsrMatrix":
        """Convert from any scipy.sparse matrix (cross-check helper)."""
        csr = matrix.tocsr()
        csr.sort_indices()
        return CsrMatrix(
            csr.shape,
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
            check=False,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.coords)

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        """Footprint in the paper's format: elements plus offsets array."""
        return self.nnz * ELEMENT_BYTES + len(self.offsets) * OFFSET_BYTES

    def row_nnz(self, row: int) -> int:
        return int(self.offsets[row + 1] - self.offsets[row])

    def row_lengths(self) -> np.ndarray:
        """nnz of every row as an array."""
        return np.diff(self.offsets)

    def row(self, row: int) -> Fiber:
        """The compressed fiber for one row."""
        start, end = self.offsets[row], self.offsets[row + 1]
        return Fiber(self.coords[start:end], self.values[start:end],
                     check=False)

    def iter_rows(self) -> Iterator[Tuple[int, Fiber]]:
        for row in range(self.num_rows):
            yield row, self.row(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return bool(
            self.shape == other.shape
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for row in range(self.num_rows):
            start, end = self.offsets[row], self.offsets[row + 1]
            dense[row, self.coords[start:end]] = self.values[start:end]
        return dense

    def to_scipy(self):
        """Convert to scipy.sparse.csr_matrix (cross-check helper)."""
        from scipy import sparse

        return sparse.csr_matrix(
            (self.values.copy(), self.coords.copy(), self.offsets.copy()),
            shape=self.shape,
        )

    def transpose(self) -> "CsrMatrix":
        """Return the transpose, still in CSR (i.e., CSC of the original)."""
        rows, cols = self.shape
        counts = np.bincount(self.coords, minlength=cols)
        offsets = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # A stable sort by column keeps each column's entries in storage
        # (row-major) order, so rows stay ascending within every column.
        order = np.argsort(self.coords, kind="stable")
        row_ids = np.repeat(np.arange(rows, dtype=np.int64),
                            np.diff(self.offsets))
        return CsrMatrix((cols, rows), offsets, row_ids[order],
                         self.values[order], check=False)

    def permute_rows(self, permutation: Sequence[int]) -> "CsrMatrix":
        """Return a matrix whose row i is this matrix's row permutation[i]."""
        perm = np.asarray(permutation, dtype=np.int64)
        if len(perm) != self.num_rows:
            raise ValueError(
                f"permutation length {len(perm)} != rows {self.num_rows}"
            )
        if len(np.unique(perm)) != len(perm):
            raise ValueError("permutation contains duplicates")
        rows = [self.row(int(src)) for src in perm]
        return CsrMatrix.from_rows(rows, self.num_cols)

    def select_columns(self, lo: int, hi: int) -> "CsrMatrix":
        """Return the sub-matrix with columns in [lo, hi), same width."""
        rows: List[Fiber] = []
        for row in range(self.num_rows):
            start, end = self.offsets[row], self.offsets[row + 1]
            coords = self.coords[start:end]
            mask = (coords >= lo) & (coords < hi)
            rows.append(
                Fiber(coords[mask], self.values[start:end][mask], check=False)
            )
        return CsrMatrix.from_rows(rows, self.num_cols)


class CscMatrix:
    """A compressed-sparse-column matrix: a thin wrapper over a transposed CSR.

    Used by baselines whose dataflow traverses one operand by columns
    (inner-product's B, outer-product's A).
    """

    __slots__ = ("_transposed",)

    def __init__(self, transposed_csr: CsrMatrix) -> None:
        self._transposed = transposed_csr

    @staticmethod
    def from_csr(matrix: CsrMatrix) -> "CscMatrix":
        return CscMatrix(matrix.transpose())

    @property
    def shape(self) -> Tuple[int, int]:
        rows, cols = self._transposed.shape
        return (cols, rows)

    @property
    def nnz(self) -> int:
        return self._transposed.nnz

    @property
    def nbytes(self) -> int:
        return self._transposed.nbytes

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def column(self, col: int) -> Fiber:
        """The compressed fiber for one column."""
        return self._transposed.row(col)

    def column_nnz(self, col: int) -> int:
        return self._transposed.row_nnz(col)

    def to_csr(self) -> CsrMatrix:
        return self._transposed.transpose()

    def __repr__(self) -> str:
        return f"CscMatrix(shape={self.shape}, nnz={self.nnz})"
