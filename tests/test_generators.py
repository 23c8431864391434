"""Unit tests for synthetic matrix generators and the named suite."""

import numpy as np
import pytest

from repro.matrices import generators, stats
from repro.matrices.suite import (
    COMMON_SET,
    EXTENDED_SET,
    common_set_names,
    extended_set_names,
    load,
    operands,
    spec_by_name,
)
from tests import oracles


class TestGeneratorFamilies:
    def test_uniform_mean_nnz(self):
        m = generators.uniform_random(2000, 2000, 6.0, seed=1)
        assert m.nnz / m.num_rows == pytest.approx(6.0, rel=0.15)

    def test_uniform_deterministic(self):
        a = generators.uniform_random(100, 100, 4.0, seed=9)
        b = generators.uniform_random(100, 100, 4.0, seed=9)
        assert a == b

    def test_uniform_different_seeds_differ(self):
        a = generators.uniform_random(100, 100, 4.0, seed=1)
        b = generators.uniform_random(100, 100, 4.0, seed=2)
        assert a != b

    def test_power_law_skewed_rows(self):
        m = generators.power_law(2000, 2000, 8.0, seed=2, max_degree=200)
        lengths = m.row_lengths()
        assert lengths.max() > 6 * lengths.mean()  # hubs exist
        assert m.nnz / m.num_rows == pytest.approx(8.0, rel=0.35)

    def test_power_law_hub_cap(self):
        m = generators.power_law(2000, 2000, 8.0, seed=2, max_degree=40)
        assert m.row_lengths().max() <= 40

    def test_power_law_hub_columns(self):
        m = generators.power_law(1500, 1500, 6.0, seed=3)
        col_counts = np.bincount(m.coords, minlength=m.num_cols)
        assert col_counts.max() > 10 * max(1.0, col_counts.mean())

    def test_mesh_band_locality(self):
        m = generators.mesh(1000, 12.0, seed=4)
        # Nonzeros concentrate near the diagonal.
        for row in (100, 500, 900):
            coords = m.row(row).coords
            assert np.all(np.abs(coords - row) < 200)

    def test_mesh_has_diagonal(self):
        m = generators.mesh(300, 10.0, seed=5)
        for row in range(0, 300, 37):
            assert row in m.row(row).coords

    def test_road_network_sparse_symmetric(self):
        m = generators.road_network(2500, seed=6)
        npr = m.nnz / m.num_rows
        assert 1.5 < npr < 4.0
        dense = m.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_mixed_density_has_dense_rows(self):
        m = generators.mixed_density(
            500, 500, sparse_nnz_per_row=5.0, dense_row_fraction=0.02,
            dense_row_nnz=200, seed=7)
        lengths = m.row_lengths()
        assert lengths.max() > 150
        assert np.median(lengths) < 15

    def test_block_random_block_concentration(self):
        m = generators.block_random(800, 800, 8.0, seed=8, num_blocks=8)
        in_block = 0
        for row in range(m.num_rows):
            block = row // 100
            coords = m.row(row).coords
            in_block += int(((coords >= block * 100)
                             & (coords < (block + 1) * 100)).sum())
        assert in_block / m.nnz > 0.6

    def test_diagonal_band_respects_band(self):
        m = generators.diagonal_band(400, 400, 6.0, seed=9, bandwidth=20)
        for row in range(0, 400, 53):
            coords = m.row(row).coords
            assert np.all(np.abs(coords - row) <= 21)

    def test_shuffled_permutes(self):
        m = generators.mesh(200, 8.0, seed=10)
        s = generators.shuffled(m, seed=11)
        assert s.nnz == m.nnz
        assert sorted(s.row_lengths()) == sorted(m.row_lengths())


def csr_bytes(matrix):
    """Shape, dtypes and raw bytes of a matrix's three CSR arrays."""
    return (matrix.shape,) + tuple(
        (array.dtype.str, array.tobytes())
        for array in (matrix.offsets, matrix.coords, matrix.values))


#: (generator, positional args, keyword args): small shapes that reach
#: each family's rare branches, square and rectangular.
ORACLE_CASES = [
    ("uniform_random", (40, 30, 0.7), {}),  # many empty rows
    ("uniform_random", (20, 50, 3.0), {}),
    ("uniform_random", (30, 4, 6.0), {}),  # rows clipped to num_cols
    ("power_law", (60, 40, 3.0), {}),
    ("power_law", (40, 90, 5.0), {}),
    ("power_law", (80, 12, 4.0), {"col_skew": 2.0}),  # top-up draws
    ("power_law", (50, 70, 2.0), {"locality": 0.0}),  # num_local == 0
    ("mesh", (50, 6.0), {}),
    ("mesh", (50, 6.0), {"renumber": True}),
    ("mesh", (40, 9.0), {"block": 3, "band_factor": 0.8,
                         "renumber": True}),
    ("road_network", (30,), {}),
    ("road_network", (100,), {"extra_edge_prob": 0.6}),  # jump edges
    ("mixed_density", (60, 80, 3.0, 0.1, 40), {}),
    ("mixed_density", (50, 50, 2.0, 0.2, 60), {}),  # dense rows clipped
    ("block_random", (60, 90, 5.0), {"num_blocks": 4}),
    ("block_random", (80, 40, 6.0), {}),
    ("diagonal_band", (50, 70, 3.0), {}),
    ("diagonal_band", (70, 50, 4.0), {"bandwidth": 5}),
]


class TestMatchesOracle:
    """Each generator builds the same bytes as the per-row loop it
    replaced (``tests/oracles.py``): same RNG calls, same matrix. The
    suite digests pin only the suite's own parameters."""

    @pytest.mark.parametrize("seed", (0, 1, 7))
    @pytest.mark.parametrize(
        "family,args,kwargs", ORACLE_CASES,
        ids=[f"{family}-{i}" for i, (family, _, _) in
             enumerate(ORACLE_CASES)])
    def test_family(self, family, args, kwargs, seed):
        built = getattr(generators, family)(*args, seed=seed, **kwargs)
        expected = getattr(oracles, family)(*args, seed=seed, **kwargs)
        assert csr_bytes(built) == csr_bytes(expected)

    def test_symmetric_permute_keeps_explicit_zeros(self):
        from repro.matrices.csr import CsrMatrix

        matrix = CsrMatrix((4, 4), [0, 2, 2, 5, 6], [0, 3, 0, 1, 2, 3],
                           [1.0, 0.0, 2.0, 3.0, 0.0, 4.0])
        for seed in range(4):
            assert csr_bytes(generators.symmetric_permute(matrix, seed)) \
                == csr_bytes(oracles.symmetric_permute(matrix, seed))


class TestSuite:
    def test_set_sizes_match_paper(self):
        assert len(COMMON_SET) == 19  # Table 3
        assert len(EXTENDED_SET) == 18  # Table 4

    def test_names_unique(self):
        names = common_set_names() + extended_set_names()
        assert len(names) == len(set(names))

    def test_lookup(self):
        spec = spec_by_name("web-Google")
        assert spec.paper_rows == 916_428
        with pytest.raises(KeyError, match="unknown suite matrix"):
            spec_by_name("no-such-matrix")

    def test_load_memoizes(self):
        assert load("wiki-Vote") is load("wiki-Vote")

    @pytest.mark.parametrize("name", ["wiki-Vote", "poisson3Da", "gupta2"])
    def test_square_operands(self, name):
        a, b = operands(name)
        assert a is b
        assert a.shape[0] == a.shape[1]

    @pytest.mark.parametrize("name", ["relat8", "nemsemm1"])
    def test_rect_operands_transposed(self, name):
        a, b = operands(name)
        assert a.shape[0] != a.shape[1]
        assert b.shape == (a.shape[1], a.shape[0])

    @pytest.mark.parametrize(
        "spec", COMMON_SET, ids=[s.name for s in COMMON_SET])
    def test_common_set_npr_tracks_paper(self, spec):
        m = load(spec.name)
        realized = m.nnz / m.num_rows
        assert realized == pytest.approx(spec.paper_npr, rel=0.45), (
            f"{spec.name}: realized {realized:.2f} vs paper {spec.paper_npr}"
        )

    @pytest.mark.parametrize(
        "spec", EXTENDED_SET, ids=[s.name for s in EXTENDED_SET])
    def test_extended_set_npr_tracks_spec(self, spec):
        m = load(spec.name)
        realized = m.nnz / m.num_rows
        assert realized == pytest.approx(spec.npr, rel=0.45)


class TestStats:
    def test_flops_matches_bruteforce(self):
        a = generators.uniform_random(50, 40, 3.0, seed=12)
        b = generators.uniform_random(40, 60, 4.0, seed=13)
        expected = sum(
            b.row_nnz(int(k)) for k in a.coords
        )
        assert stats.flops(a, b) == expected

    def test_flops_dimension_check(self):
        a = generators.uniform_random(5, 6, 2.0, seed=1)
        b = generators.uniform_random(7, 5, 2.0, seed=1)
        with pytest.raises(ValueError, match="inner dimensions"):
            stats.flops(a, b)

    def test_matrix_stats(self):
        m = generators.uniform_random(100, 100, 5.0, seed=14)
        s = stats.MatrixStats.of(m)
        assert s.rows == 100
        assert s.nnz == m.nnz
        assert s.footprint_bytes == m.nbytes

    def test_window_size(self):
        m = generators.uniform_random(100, 100, 8.0, seed=15)
        w = stats.window_size(m, fibercache_bytes=8 * 12 * 10)
        assert w == pytest.approx(10, rel=0.3)

    def test_row_affinity(self):
        m = generators.mesh(100, 10.0, seed=16)
        assert stats.row_affinity(m, 10, 11) > 0

    def test_matrix_affinity_mesh_beats_shuffled(self):
        m = generators.mesh(400, 10.0, seed=17)
        s = generators.shuffled(m, seed=18)
        assert (stats.matrix_affinity(m, window=16)
                > 2 * stats.matrix_affinity(s, window=16))

    def test_matrix_affinity_window_validation(self):
        m = generators.mesh(10, 3.0, seed=19)
        with pytest.raises(ValueError, match="window"):
            stats.matrix_affinity(m, window=0)

    def test_reuse_factor(self):
        a = generators.uniform_random(200, 50, 4.0, seed=20)
        r = stats.reuse_factor(a, a)
        assert r >= 1.0


class TestRmat:
    def test_dimensions(self):
        m = generators.rmat(8, edge_factor=4.0, seed=1)
        assert m.shape == (256, 256)
        # Duplicates merge, so nnz <= requested edges.
        assert 0 < m.nnz <= 4 * 256

    def test_power_law_degrees(self):
        m = generators.rmat(10, edge_factor=8.0, seed=2)
        lengths = m.row_lengths()
        assert lengths.max() > 8 * max(1.0, float(np.median(lengths)))

    def test_quadrant_concentration(self):
        """With Graph500 parameters most edges land in the top-left
        recursive quadrant (vertex ids skew low)."""
        m = generators.rmat(10, edge_factor=8.0, seed=3)
        n = m.num_rows
        top_left = sum(
            m.row_nnz(r) for r in range(n // 2)
        )
        assert top_left > 0.55 * m.nnz

    def test_deterministic(self):
        assert generators.rmat(6, seed=4) == generators.rmat(6, seed=4)

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            generators.rmat(0)
        with pytest.raises(ValueError, match="probabilities"):
            generators.rmat(4, a=0.6, b=0.3, c=0.3)

    def test_multiplies_on_gamma(self):
        from repro.core import multiply

        m = generators.rmat(7, edge_factor=4.0, seed=5)
        result = multiply(m, m)
        expected = (m.to_scipy() @ m.to_scipy()).toarray()
        np.testing.assert_allclose(result.output.to_dense(), expected,
                                   atol=1e-9)
