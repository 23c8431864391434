"""Unit tests for CsrMatrix / CscMatrix containers."""

import numpy as np
import pytest

from repro.matrices.builder import CooBuilder
from repro.matrices.csr import CscMatrix, CsrMatrix
from repro.matrices.fiber import Fiber


@pytest.fixture
def small():
    # The matrix from paper Fig. 1.
    return CsrMatrix.from_dense(np.array([
        [1.2, 0.0, 0.3, 1.4],
        [0.0, 0.0, 0.7, 0.0],
        [0.0, 0.0, 0.0, 2.5],
    ]))


class TestCsrBasics:
    def test_shape_nnz(self, small):
        assert small.shape == (3, 4)
        assert small.nnz == 5

    def test_offsets_match_figure1(self, small):
        np.testing.assert_array_equal(small.offsets, [0, 3, 4, 5])

    def test_row_fibers(self, small):
        assert list(small.row(0)) == [(0, 1.2), (2, 0.3), (3, 1.4)]
        assert list(small.row(1)) == [(2, 0.7)]
        assert list(small.row(2)) == [(3, 2.5)]

    def test_row_nnz(self, small):
        assert [small.row_nnz(r) for r in range(3)] == [3, 1, 1]
        np.testing.assert_array_equal(small.row_lengths(), [3, 1, 1])

    def test_density(self, small):
        assert small.density == pytest.approx(5 / 12)

    def test_nbytes(self, small):
        assert small.nbytes == 5 * 12 + 4 * 4

    def test_round_trip_dense(self, small):
        np.testing.assert_array_equal(
            CsrMatrix.from_dense(small.to_dense()).to_dense(),
            small.to_dense(),
        )

    def test_iter_rows(self, small):
        rows = dict(small.iter_rows())
        assert len(rows) == 3
        assert len(rows[0]) == 3

    def test_equality(self, small):
        other = CsrMatrix.from_dense(small.to_dense())
        assert small == other
        assert small != CsrMatrix.from_rows([], 4)


class TestCsrValidation:
    def test_bad_offsets_length(self):
        with pytest.raises(ValueError, match="offsets length"):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])

    def test_offsets_do_not_span_nnz(self):
        with pytest.raises(ValueError, match="span"):
            CsrMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_decreasing_interior_offsets(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix((3, 2), [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_out_of_range_coord(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CsrMatrix((1, 2), [0, 1], [5], [1.0])

    def test_unsorted_row(self):
        with pytest.raises(ValueError, match="not strictly increasing"):
            CsrMatrix((1, 4), [0, 2], [2, 0], [1.0, 2.0])


class TestTranspose:
    def test_matches_figure1_csc(self, small):
        # Fig. 1's CSC: offsets [0, 1, 1, 3, 5].
        t = small.transpose()
        np.testing.assert_array_equal(t.offsets, [0, 1, 1, 3, 5])
        assert list(t.row(2)) == [(0, 0.3), (1, 0.7)]

    def test_involution(self, small):
        np.testing.assert_array_equal(
            small.transpose().transpose().to_dense(), small.to_dense()
        )

    def test_random_matches_numpy(self):
        rng = np.random.default_rng(3)
        dense = rng.random((20, 13)) * (rng.random((20, 13)) < 0.2)
        m = CsrMatrix.from_dense(dense)
        np.testing.assert_allclose(m.transpose().to_dense(), dense.T)


class TestPermuteSelect:
    def test_permute_rows(self, small):
        p = small.permute_rows([2, 0, 1])
        assert list(p.row(0)) == [(3, 2.5)]
        assert list(p.row(1)) == [(0, 1.2), (2, 0.3), (3, 1.4)]

    def test_permute_rejects_duplicates(self, small):
        with pytest.raises(ValueError, match="duplicates"):
            small.permute_rows([0, 0, 1])

    def test_permute_rejects_wrong_length(self, small):
        with pytest.raises(ValueError, match="length"):
            small.permute_rows([0, 1])

    def test_select_columns(self, small):
        sub = small.select_columns(2, 4)
        assert sub.shape == small.shape
        assert list(sub.row(0)) == [(2, 0.3), (3, 1.4)]
        assert sub.nnz == 4


class TestScipyInterop:
    def test_from_to_scipy(self, small):
        sp = small.to_scipy()
        back = CsrMatrix.from_scipy(sp)
        assert back == small

    def test_from_scipy_coo(self):
        from scipy import sparse

        coo = sparse.coo_matrix(
            ([1.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2)
        )
        m = CsrMatrix.from_scipy(coo)
        assert m.nnz == 2


class TestCsc:
    def test_columns(self, small):
        csc = CscMatrix.from_csr(small)
        assert csc.shape == (3, 4)
        assert list(csc.column(3)) == [(0, 1.4), (2, 2.5)]
        assert csc.column_nnz(1) == 0

    def test_round_trip(self, small):
        csc = CscMatrix.from_csr(small)
        np.testing.assert_array_equal(
            csc.to_csr().to_dense(), small.to_dense()
        )


class TestCooBuilder:
    def test_duplicates_summed(self):
        b = CooBuilder(2, 2)
        b.add(0, 1, 1.0)
        b.add(0, 1, 2.0)
        m = b.build()
        assert m.nnz == 1
        assert list(m.row(0)) == [(1, 3.0)]

    def test_zero_merge_dropped(self):
        b = CooBuilder(1, 2)
        b.add(0, 0, 1.0)
        b.add(0, 0, -1.0)
        assert b.build().nnz == 0
        b2 = CooBuilder(1, 2)
        b2.add(0, 0, 1.0)
        b2.add(0, 0, -1.0)
        assert b2.build(drop_zeros=False).nnz == 1

    def test_out_of_range(self):
        b = CooBuilder(2, 2)
        with pytest.raises(IndexError):
            b.add(2, 0, 1.0)
        with pytest.raises(IndexError):
            b.add(0, -1, 1.0)

    def test_empty_build(self):
        m = CooBuilder(3, 4).build()
        assert m.shape == (3, 4)
        assert m.nnz == 0

    def test_add_many_matches_add(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 10, 50)
        cols = rng.integers(0, 10, 50)
        vals = rng.random(50)
        b1, b2 = CooBuilder(10, 10), CooBuilder(10, 10)
        b1.add_many(rows, cols, vals)
        for r, c, v in zip(rows, cols, vals):
            b2.add(int(r), int(c), float(v))
        assert b1.build() == b2.build()

    def test_duplicates_sum_in_insertion_order(self):
        builder = CooBuilder(1, 1)
        builder.add(0, 0, 1.0)
        builder.add_many([0], [0], [1e16])
        builder.add(0, 0, -1e16)
        # (1 + 1e16) - 1e16 rounds to 0; any other order leaves 1.0.
        assert builder.build(drop_zeros=False).values.tolist() == [0.0]

    def test_from_rows(self):
        m = CsrMatrix.from_rows(
            [Fiber([1], [2.0]), Fiber.empty(), Fiber([0, 2], [1.0, 3.0])], 3
        )
        assert m.shape == (3, 3)
        assert m.nnz == 3
        assert m.row_nnz(1) == 0


# --- The loop transpose, as an oracle ----------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def transpose_oracle(matrix):
    """Scatter every nonzero to its column's next free slot, row by row."""
    rows, cols = matrix.shape
    counts = np.bincount(matrix.coords, minlength=cols)
    offsets = np.zeros(cols + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    new_coords = np.empty(matrix.nnz, dtype=np.int64)
    new_values = np.empty(matrix.nnz, dtype=np.float64)
    cursor = offsets[:-1].copy()
    for row in range(rows):
        for idx in range(matrix.offsets[row], matrix.offsets[row + 1]):
            col = matrix.coords[idx]
            new_coords[cursor[col]] = row
            new_values[cursor[col]] = matrix.values[idx]
            cursor[col] += 1
    return CsrMatrix((cols, rows), offsets, new_coords, new_values,
                     check=False)


def same_bits(got, want):
    """Equal shape, dtypes and array bytes (so -0.0 != 0.0)."""
    return got.shape == want.shape and all(
        getattr(got, name).dtype == getattr(want, name).dtype
        and getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("offsets", "coords", "values"))


@st.composite
def sparse_matrix(draw):
    """Rectangular, often with empty rows and columns."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    dense = np.zeros((rows, cols))
    if rows and cols:
        cells = draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, cols - 1),
            st.floats(-5, 5, allow_nan=False).filter(bool)), max_size=40))
        for row, col, value in cells:
            dense[row, col] = value
    return CsrMatrix((rows, cols), *_csr_arrays(dense))


def _csr_arrays(dense):
    rows, cols = np.nonzero(dense)
    offsets = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=offsets[1:])
    return offsets, cols, dense[rows, cols]


class TestTransposeOracle:
    def test_figure1_matches_oracle(self, small):
        assert same_bits(small.transpose(), transpose_oracle(small))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(sparse_matrix())
    def test_matches_oracle(self, matrix):
        assert same_bits(matrix.transpose(), transpose_oracle(matrix))
