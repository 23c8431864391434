"""The array kernels of preprocessing and the reuse models against the
loops they replaced (``tests/oracles.py`` and ``LruRowCache``).

* tiling boundaries vs the ``split_row`` recursion;
* the inlined Algorithm 1 vs the ``BucketQueue``-driven one;
* the two-pointer LRU kernel vs the ``OrderedDict`` model.

Hypothesis drives the edge cases; suite matrices check the kernels on
the inputs the figures and the sweep actually build.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import LruRowCache, b_read_traffic, lru_miss_bytes
from repro.baselines.sparch import condensed_column_stream
from repro.config import ELEMENT_BYTES, GammaConfig
from repro.engine.defaults import (
    preprocess_options,
    scaled_cpu_config,
    scaled_gamma_config,
)
from repro.figures.scopes import QUICK_MATRICES
from repro.matrices import suite
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber
from repro.matrices.stats import window_size
from repro.preprocessing import affinity_reorder, tile_matrix
from tests import oracles

#: Deterministic exploration so CI and local runs see identical cases.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

#: The sweep matrices whose ``full`` programs run Algorithm 1 at the
#: scaled config (the rest sit at the compulsory-traffic floor).
REORDERING_MATRICES = ("webbase-1M", "m133-b3", "web-Google", "scircuit",
                       "amazon0312", "email-Enron")


@st.composite
def sparse_matrix(draw, max_rows=24, max_cols=400, max_row_nnz=60):
    """Rows of any length from empty up, one-nonzero rows included."""
    num_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        coords = sorted(draw(st.lists(
            st.integers(0, num_cols - 1), unique=True,
            max_size=min(num_cols, draw(st.sampled_from(
                (0, 1, 2, max_row_nnz)))))))
        rows.append(Fiber(np.asarray(coords, dtype=np.int64),
                          np.arange(1.0, len(coords) + 1), check=False))
    return CsrMatrix.from_rows(rows, num_cols)


@st.composite
def wide_rows(draw):
    """A few long rows of random coordinates over a wide range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_cols = draw(st.integers(2, 20_000))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        nnz = draw(st.integers(0, min(num_cols, 2000)))
        coords = np.sort(rng.choice(num_cols, nnz, replace=False))
        rows.append(Fiber(coords, np.ones(nnz), check=False))
    return CsrMatrix.from_rows(rows, num_cols)


def fragment_slices(a, fragments):
    """The oracle's fragments as ``(row, start, end)``, checked to be
    contiguous runs of A's nonzeros."""
    starts, ends = oracles.fragment_offsets(a, fragments)
    for frag, lo, hi in zip(fragments, starts.tolist(), ends.tolist()):
        assert a.coords[lo:hi].tobytes() == frag.coords.tobytes()
        assert a.values[lo:hi].tobytes() == frag.values.tobytes()
    return starts, ends


def assert_tiling_matches(a, avg_b_row_nnz, config, **kwargs):
    starts, ends = tile_matrix(a, avg_b_row_nnz, config, **kwargs)
    fragments = oracles.tile_rows(a, avg_b_row_nnz, config, **kwargs)
    want_starts, want_ends = fragment_slices(a, fragments)
    np.testing.assert_array_equal(starts, want_starts)
    np.testing.assert_array_equal(ends, want_ends)
    return len(starts)


class TestTilingBoundaries:
    @PROPERTY
    @given(a=sparse_matrix(), radix=st.integers(2, 64),
           avg_b_row_nnz=st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.0)),
           threshold=st.one_of(st.none(), st.integers(0, 400).map(
               lambda n: n * float(ELEMENT_BYTES))),
           selective=st.booleans())
    def test_random_matrices(self, a, radix, avg_b_row_nnz, threshold,
                             selective):
        config = GammaConfig(radix=radix, fibercache_bytes=4 * 1024)
        assert_tiling_matches(a, avg_b_row_nnz, config,
                              threshold_bytes=threshold,
                              selective=selective)

    @PROPERTY
    @given(a=wide_rows(), radix=st.integers(2, 8),
           fraction=st.sampled_from((0.0, 0.01, 0.05, 0.25)))
    def test_deep_recursion_and_fraction_threshold(self, a, radix,
                                                   fraction):
        """Wide rows, small radices and thresholds: many levels."""
        config = GammaConfig(radix=radix, fibercache_bytes=16 * 1024)
        assert_tiling_matches(a, 3.0, config, threshold_fraction=fraction)

    @pytest.mark.parametrize("variant", ("full", "reorder_tile_all"))
    @pytest.mark.parametrize("name", QUICK_MATRICES)
    def test_quick_matrices(self, name, variant):
        a, b = suite.operands(name)
        options = preprocess_options(variant)
        count = assert_tiling_matches(
            a, b.nnz / b.num_rows, scaled_gamma_config(),
            threshold_bytes=options.tile_threshold_bytes,
            selective=options.selective)
        assert count >= np.count_nonzero(a.row_lengths())

    def test_empty_and_single_nonzero_rows(self):
        a = CsrMatrix.from_dense(np.array([
            [0.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0],
            [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))
        starts, ends = tile_matrix(a, 1.0, GammaConfig(radix=2),
                                   selective=False)
        assert starts.tolist() == [0, 1, 3]
        assert ends.tolist() == [1, 3, 5]


def fragment_matrix(name, variant):
    """The matrix Algorithm 1 orders for one scaled-config program, and
    the pipeline's window for it."""
    a, b = suite.operands(name)
    config = scaled_gamma_config()
    options = preprocess_options(variant)
    starts, _ = tile_matrix(a, b.nnz / b.num_rows, config,
                            threshold_bytes=options.tile_threshold_bytes,
                            selective=options.selective)
    matrix = CsrMatrix((len(starts), a.num_cols), np.append(starts, a.nnz),
                       a.coords, a.values, check=False)
    window = min(window_size(b, config.fibercache_bytes),
                 max(1, len(starts) - 1))
    return matrix, window


class TestAlgorithmOne:
    @PROPERTY
    @given(a=sparse_matrix(max_rows=40, max_cols=30, max_row_nnz=12),
           window=st.integers(1, 45), start=st.integers(0, 39),
           hub_cap=st.one_of(st.none(), st.integers(0, 6)))
    @example(a=CsrMatrix.from_dense(np.eye(3)), window=1, start=2,
             hub_cap=None)
    def test_random_matrices(self, a, window, start, hub_cap):
        """Windows of one up to past the row count, any start row, and
        hub-column caps that drop columns from the score."""
        start = start % a.num_rows
        assert affinity_reorder(
            a, window, start_row=start, max_column_degree=hub_cap) == \
            oracles.affinity_reorder_queue(
                a, window, start_row=start, max_column_degree=hub_cap)

    @pytest.mark.parametrize("name", QUICK_MATRICES)
    def test_quick_fragment_matrices(self, name):
        matrix, window = fragment_matrix(name, "reorder_tile_all")
        for start in (0, matrix.num_rows // 2, matrix.num_rows - 1):
            for size in (1, window, matrix.num_rows):
                assert affinity_reorder(matrix, size, start) == \
                    oracles.affinity_reorder_queue(matrix, size, start)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", REORDERING_MATRICES)
    def test_sweep_reordering_matrices(self, name):
        matrix, window = fragment_matrix(name, "full")
        assert affinity_reorder(matrix, window) == \
            oracles.affinity_reorder_queue(matrix, window)


def lru_oracle(rows, row_bytes, capacity):
    cache = LruRowCache(capacity)
    for row in rows:
        cache.access(int(row), int(row_bytes[row]))
    return cache.miss_bytes


class TestLruKernel:
    @PROPERTY
    @given(rows=st.lists(st.integers(0, 15), max_size=300),
           row_bytes=st.lists(st.sampled_from((0, 12, 36, 120, 600, 2400)),
                              min_size=16, max_size=16),
           capacity=st.one_of(st.just(0), st.integers(0, 3000)))
    def test_random_streams(self, rows, row_bytes, capacity):
        """Zero-byte rows, rows larger than the capacity, capacity 0."""
        sizes = np.asarray(row_bytes, dtype=np.int64)
        assert lru_miss_bytes(rows, sizes, capacity) == \
            lru_oracle(rows, sizes, capacity)

    def test_capacity_zero_misses_all_but_zero_byte_rows(self):
        sizes = np.array([0, 12])
        rows = [0, 1, 0, 1, 1]
        assert lru_miss_bytes(rows, sizes, 0) == 36
        assert lru_oracle(rows, sizes, 0) == 36

    def test_row_larger_than_capacity_clears_the_cache(self):
        sizes = np.array([40, 40, 500])
        rows = [0, 1, 2, 0, 1, 2, 2]
        # Row 2 never stays resident and flushes rows 0 and 1 each time:
        # every access misses.
        assert lru_miss_bytes(rows, sizes, 100) == 2 * 40 + 2 * 40 + 3 * 500
        assert lru_miss_bytes(rows, sizes, 100) == \
            lru_oracle(rows, sizes, 100)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            lru_miss_bytes([0], np.array([1]), -1)

    @pytest.mark.parametrize("name", QUICK_MATRICES)
    def test_sparch_and_mkl_streams(self, name):
        a, b = suite.operands(name)
        sizes = b.row_lengths() * ELEMENT_BYTES
        prefetch = scaled_gamma_config().fibercache_bytes // 6
        for stream, capacity in (
                (condensed_column_stream(a), prefetch),
                (a.coords, scaled_cpu_config().llc_bytes)):
            assert b_read_traffic(stream, b, capacity) == \
                lru_oracle(stream, sizes, capacity)

    def test_condensed_stream_is_column_major(self):
        a = CsrMatrix.from_dense(np.array([
            [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 5.0]]))
        # Condensed column 0: rows 0 and 2's first nonzeros, and so on.
        assert condensed_column_stream(a).tolist() == [0, 0, 1, 2, 2]
