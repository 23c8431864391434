"""Tests for the functional dataflow engines (paper Sec. 2.2 / Fig. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import dataflows
from repro.baselines.dataflows import (
    DATAFLOWS,
    DataflowCounts,
    compare_dataflows,
    spgemm_gustavson,
    spgemm_inner_product,
    spgemm_outer_product,
)
from repro.matrices import generators, suite
from repro.matrices.csr import CsrMatrix


def scipy_product(a, b):
    return (a.to_scipy() @ b.to_scipy()).toarray()


def loop_counts(a, b):
    """The oracle: counts reported by executing every dataflow."""
    return {name: engine(a, b)[1] for name, engine in DATAFLOWS.items()}


def empty_matrix(rows, cols):
    return CsrMatrix((rows, cols), np.zeros(rows + 1), [], [])


def with_empty_lines(matrix):
    """Zero every third row and every fourth column (from the second)."""
    dense = matrix.to_dense()
    dense[::3, :] = 0.0
    dense[:, 1::4] = 0.0
    return CsrMatrix.from_dense(dense)


#: Seeded (A, B) builders covering the shapes the closed form must handle.
ORACLE_CASES = {
    "uniform-square": lambda s: (
        generators.uniform_random(40, 40, 4.0, seed=s),
        generators.uniform_random(40, 40, 3.0, seed=s + 100)),
    "power-law-square": lambda s: (
        generators.power_law(60, 60, 5.0, seed=s),
        generators.power_law(60, 60, 5.0, seed=s + 100)),
    "uniform-dense": lambda s: (
        generators.uniform_random(30, 30, 15.0, seed=s),
        generators.uniform_random(30, 30, 15.0, seed=s + 100)),
    "rectangular": lambda s: (
        generators.uniform_random(25, 40, 3.0, seed=s),
        generators.power_law(40, 30, 4.0, seed=s + 100)),
    "empty-rows-and-columns": lambda s: (
        with_empty_lines(generators.uniform_random(36, 48, 4.0, seed=s)),
        with_empty_lines(generators.power_law(48, 44, 4.0, seed=s + 100))),
    "very-sparse": lambda s: (
        generators.uniform_random(50, 50, 0.5, seed=s),
        generators.uniform_random(50, 50, 0.5, seed=s + 100)),
    "zero-row-a": lambda s: (
        empty_matrix(0, 12),
        generators.uniform_random(12, 9, 3.0, seed=s)),
    "inner-dimension-one": lambda s: (
        generators.uniform_random(20, 1, 0.6, seed=s),
        generators.uniform_random(1, 15, 8.0, seed=s + 100)),
}


class TestCorrectness:
    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_matches_scipy_square(self, name):
        a = generators.uniform_random(40, 40, 4.0, seed=1)
        b = generators.uniform_random(40, 40, 3.0, seed=2)
        c, _ = DATAFLOWS[name](a, b)
        np.testing.assert_allclose(c.to_dense(), scipy_product(a, b),
                                   atol=1e-9)

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_matches_scipy_rectangular(self, name):
        a = generators.uniform_random(25, 40, 3.0, seed=3)
        b = generators.uniform_random(40, 30, 4.0, seed=4)
        c, _ = DATAFLOWS[name](a, b)
        assert c.shape == (25, 30)
        np.testing.assert_allclose(c.to_dense(), scipy_product(a, b),
                                   atol=1e-9)

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_empty_inputs(self, name):
        a = CsrMatrix.from_rows([], 10)
        b = generators.uniform_random(10, 10, 2.0, seed=5)
        c, counts = DATAFLOWS[name](a, b)
        assert c.nnz == 0
        assert counts.effectual_multiplies == 0

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_dimension_check(self, name):
        a = generators.uniform_random(5, 6, 2.0, seed=6)
        b = generators.uniform_random(7, 5, 2.0, seed=7)
        with pytest.raises(ValueError, match="inner dimensions"):
            DATAFLOWS[name](a, b)


class TestWorkCounts:
    def test_effectual_work_identical_across_dataflows(self):
        """The useful multiplies are a property of the inputs, not the
        dataflow (Sec. 2.2)."""
        a = generators.power_law(60, 60, 5.0, seed=8)
        counts = compare_dataflows(a, a)
        effectual = {c.effectual_multiplies for c in counts.values()}
        assert len(effectual) == 1

    def test_inner_product_ineffectual_dominates_on_sparse(self):
        """The paper's core claim: on highly sparse inputs, inner product
        is dominated by ineffectual intersection work."""
        sparse = generators.uniform_random(150, 150, 2.0, seed=9)
        _, counts = spgemm_inner_product(sparse, sparse)
        assert (counts.ineffectual_comparisons
                > 5 * counts.effectual_multiplies)

    def test_inner_product_fine_when_dense(self):
        dense = generators.uniform_random(40, 40, 20.0, seed=10)
        _, counts = spgemm_inner_product(dense, dense)
        assert (counts.ineffectual_comparisons
                < 2.5 * counts.effectual_multiplies)

    def test_outer_product_intermediates_exceed_gustavson(self):
        """Outer product buffers whole partial matrices; Gustavson one
        row's accumulator."""
        a = generators.uniform_random(100, 100, 5.0, seed=11)
        _, outer = spgemm_outer_product(a, a)
        _, gustavson = spgemm_gustavson(a, a)
        assert (outer.intermediate_elements
                > 10 * gustavson.intermediate_elements)

    def test_outer_merge_volume_equals_products(self):
        a = generators.uniform_random(80, 80, 4.0, seed=12)
        _, counts = spgemm_outer_product(a, a)
        assert counts.merge_elements == counts.effectual_multiplies

    def test_gustavson_no_ineffectual_work(self):
        a = generators.uniform_random(80, 80, 4.0, seed=13)
        _, counts = spgemm_gustavson(a, a)
        assert counts.ineffectual_comparisons == 0

    def test_gustavson_intermediate_is_one_row(self):
        a = generators.uniform_random(80, 80, 4.0, seed=14)
        c, counts = spgemm_gustavson(a, a)
        assert counts.intermediate_elements <= int(
            c.row_lengths().max())

    def test_agrees_with_gamma_simulator_flops(self):
        from repro.matrices.stats import flops

        a = generators.uniform_random(60, 60, 4.0, seed=15)
        _, counts = spgemm_gustavson(a, a)
        assert counts.effectual_multiplies == flops(a, a)


class TestClosedForm:
    """``compare_dataflows`` counts without executing; the loop engines
    in ``DATAFLOWS`` are its oracles."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_equals_loop_engines(self, case, seed):
        a, b = ORACLE_CASES[case](seed)
        assert compare_dataflows(a, b) == loop_counts(a, b)

    def test_cases_cover_empty_lines(self):
        a, b = ORACLE_CASES["empty-rows-and-columns"](1)
        for matrix in (a, b):
            assert np.any(matrix.row_lengths() == 0)
            assert np.any(np.bincount(matrix.coords,
                                      minlength=matrix.num_cols) == 0)

    def test_cancelling_products_keep_their_slot(self):
        """Gustavson's peak is structural: an accumulator entry that sums
        to zero still occupied the accumulator."""
        a = CsrMatrix.from_dense(np.array([[1.0, 1.0]]))
        b = CsrMatrix.from_dense(np.array([[1.0], [-1.0]]))
        c, _ = spgemm_gustavson(a, b)
        assert c.to_dense().tolist() == [[0.0]]
        assert compare_dataflows(a, b) == loop_counts(a, b)
        assert compare_dataflows(a, b)["gustavson"].intermediate_elements == 1

    def test_dimension_check(self):
        a = generators.uniform_random(5, 6, 2.0, seed=6)
        b = generators.uniform_random(7, 5, 2.0, seed=7)
        with pytest.raises(ValueError, match="inner dimensions"):
            compare_dataflows(a, b)

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_loop_engines_property(self, rows, inner, cols, data):
        cell = st.sampled_from([0.0, 0.0, 1.0, -2.0])
        a = np.asarray(data.draw(st.lists(
            cell, min_size=rows * inner, max_size=rows * inner)))
        b = np.asarray(data.draw(st.lists(
            cell, min_size=inner * cols, max_size=inner * cols)))
        a = CsrMatrix.from_dense(a.reshape(rows, inner))
        b = CsrMatrix.from_dense(b.reshape(inner, cols))
        assert compare_dataflows(a, b) == loop_counts(a, b)

    def test_never_executes_the_dataflows(self, monkeypatch):
        """The figure path counts in closed form: with every engine
        broken, the pinned wiki-Vote counts still come out."""
        def broken(a, b):
            raise AssertionError("compare_dataflows executed a dataflow")

        for name in list(DATAFLOWS):
            monkeypatch.setitem(DATAFLOWS, name, broken)
        for attr in ("spgemm_inner_product", "spgemm_outer_product",
                     "spgemm_gustavson"):
            monkeypatch.setattr(dataflows, attr, broken)
        a, b = suite.operands("wiki-Vote")
        assert compare_dataflows(a, b) == {
            "inner_product": DataflowCounts(21549, 988558, 0, 0),
            "outer_product": DataflowCounts(21549, 0, 21549, 21549),
            "gustavson": DataflowCounts(21549, 0, 21549, 256),
        }
