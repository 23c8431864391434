"""Sparse matrix substrate: fibers, CSR/CSC containers, generators, suites."""

from repro.matrices.builder import CooBuilder, matrix_from_coo
from repro.matrices.csr import CscMatrix, CsrMatrix
from repro.matrices.fiber import Fiber, linear_combine
from repro.matrices.io import (
    MatrixMarketError,
    matrix_market_string,
    read_matrix_market,
    write_matrix_market,
)
from repro.matrices.stats import (MatrixStats, flops, matrix_affinity,
                                   window_size)

__all__ = [
    "CooBuilder",
    "CscMatrix",
    "CsrMatrix",
    "Fiber",
    "MatrixMarketError",
    "MatrixStats",
    "flops",
    "linear_combine",
    "matrix_affinity",
    "matrix_from_coo",
    "matrix_market_string",
    "read_matrix_market",
    "window_size",
    "write_matrix_market",
]
