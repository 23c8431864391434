"""Suite-wide integration checks: every matrix loads and behaves sanely.

These are the guardrails for the scaled evaluation: if a generator change
breaks a matrix's structure, these fail before the figures mislead.
"""

import numpy as np
import pytest

from repro.matrices import stats, suite


ALL_SPECS = suite.COMMON_SET + suite.EXTENDED_SET


class TestEveryMatrix:
    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=[s.name for s in ALL_SPECS])
    def test_loads_and_has_content(self, spec):
        matrix = suite.load(spec.name)
        assert matrix.nnz > 0
        assert matrix.num_rows == spec.rows or spec.family == "road"
        assert matrix.num_cols == spec.cols or spec.family == "road"

    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=[s.name for s in ALL_SPECS])
    def test_operands_multiply_cleanly(self, spec):
        a, b = suite.operands(spec.name)
        assert a.num_cols == b.num_rows
        assert stats.flops(a, b) > 0

    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=[s.name for s in ALL_SPECS])
    def test_rows_scaled_down(self, spec):
        assert spec.rows < spec.paper_rows

    def test_workload_sizes_tractable(self):
        """The whole suite must stay simulable in pure Python."""
        total_flops = 0
        for spec in ALL_SPECS:
            a, b = suite.operands(spec.name)
            total_flops += stats.flops(a, b)
        assert total_flops < 60_000_000

    def test_extended_denser_than_common(self):
        common_npr = [
            suite.load(s.name).nnz / suite.load(s.name).num_rows
            for s in suite.COMMON_SET
        ]
        extended_npr = [
            suite.load(s.name).nnz / suite.load(s.name).num_rows
            for s in suite.EXTENDED_SET
        ]
        assert np.median(extended_npr) > 3 * np.median(common_npr)

    def test_common_set_all_square(self):
        for spec in suite.COMMON_SET:
            assert spec.square

    def test_extended_has_nonsquare(self):
        assert sum(not s.square for s in suite.EXTENDED_SET) >= 4

    def test_deterministic_regeneration(self):
        spec = suite.spec_by_name("wiki-Vote")
        first = spec.generate()
        second = spec.generate()
        assert first == second


class TestStructuralSignatures:
    def test_gupta2_has_dense_rows(self):
        lengths = suite.load("gupta2").row_lengths()
        assert lengths.max() > 1.5 * np.median(lengths)

    def test_maragal7_mixed_density(self):
        lengths = suite.load("Maragal_7").row_lengths()
        assert lengths.max() > 5 * np.median(lengths)

    def test_sme3db_scrambled(self):
        """sme3Db must have structure but no natural-order locality."""
        matrix = suite.load("sme3Db")
        window = 32
        natural = stats.matrix_affinity(matrix, window)
        # Its affinity is recoverable: total pairwise structure exists.
        assert natural >= 0
        distances = []
        for row in range(0, matrix.num_rows, 7):
            coords = matrix.row(row).coords
            if len(coords):
                distances.append(np.abs(coords - row).mean())
        assert np.mean(distances) > matrix.num_rows / 8  # scattered

    def test_mesh_matrices_have_band_locality(self):
        matrix = suite.load("cop20k_A")
        for row in range(0, matrix.num_rows, 101):
            coords = matrix.row(row).coords
            if len(coords):
                assert np.abs(coords - row).max() < matrix.num_rows / 4

    def test_power_law_matrices_have_hubs(self):
        for name in ("web-Google", "cit-Patents", "wiki-Vote"):
            lengths = suite.load(name).row_lengths()
            assert lengths.max() > 5 * lengths.mean(), name

    def test_road_network_degree(self):
        matrix = suite.load("roadNet-CA")
        npr = matrix.nnz / matrix.num_rows
        assert 1.5 < npr < 4.5
