"""Unit tests for the preprocessing pipeline's ordering estimator."""

import numpy as np
import pytest

from repro.matrices import generators
from repro.preprocessing.pipeline import estimate_b_traffic


def row_stream(matrix, order):
    """The B access stream of processing ``matrix``'s nonempty rows in
    ``order`` (indices into the nonempty rows)."""
    rows = np.flatnonzero(matrix.row_lengths())[order]
    return np.concatenate(
        [matrix.coords[matrix.offsets[r]:matrix.offsets[r + 1]]
         for r in rows] or [np.empty(0, dtype=np.int64)])


class TestEstimateBTraffic:
    def test_infinite_capacity_touches_each_row_once(self):
        m = generators.uniform_random(80, 80, 4.0, seed=1)
        traffic = estimate_b_traffic(m.coords, m, 1 << 40)
        touched = np.unique(m.coords)
        expected = sum(m.row_nnz(int(k)) for k in touched) * 12
        assert traffic == expected

    def test_zero_capacity_touches_every_reference(self):
        m = generators.uniform_random(50, 50, 3.0, seed=2)
        traffic = estimate_b_traffic(m.coords, m, 0)
        expected = sum(m.row_nnz(int(k)) for k in m.coords) * 12
        assert traffic == expected

    def test_good_order_beats_bad_order(self):
        mesh = generators.mesh(300, 10.0, seed=3)
        scrambled = generators.symmetric_permute(mesh, seed=4)
        rows = np.flatnonzero(scrambled.row_lengths())
        natural = np.arange(len(rows))
        # Order rows by their first coordinate ~ recovers the band.
        by_anchor = np.argsort(scrambled.coords[scrambled.offsets[rows]],
                               kind="stable")
        capacity = 8 * 1024
        assert (estimate_b_traffic(row_stream(scrambled, by_anchor),
                                   scrambled, capacity)
                < estimate_b_traffic(row_stream(scrambled, natural),
                                     scrambled, capacity))

    def test_empty_fragments(self):
        m = generators.uniform_random(10, 10, 2.0, seed=5)
        assert estimate_b_traffic(np.empty(0, dtype=np.int64), m,
                                  1024) == 0

    def test_monotone_in_capacity(self):
        m = generators.power_law(200, 200, 5.0, seed=6, max_degree=30)
        traffics = [
            estimate_b_traffic(m.coords, m, cap)
            for cap in (0, 512, 8 * 1024, 1 << 30)
        ]
        assert traffics == sorted(traffics, reverse=True)


class TestSpecDispatch:
    def test_unknown_family_rejected(self):
        from repro.matrices.suite import MatrixSpec

        spec = MatrixSpec(
            name="x", family="hologram", paper_rows=10, paper_cols=10,
            paper_npr=1.0, rows=10, cols=10, npr=1.0)
        with pytest.raises(ValueError, match="unknown matrix family"):
            spec.generate()
