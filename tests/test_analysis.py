"""Tests for the analysis package: metrics, traffic, roofline, area, report."""

import pytest

from repro.analysis.area import (
    gamma_area,
    merger_area,
    pe_component_fractions,
    sparch_merger_area_ratio,
)
from repro.analysis.metrics import amean, gmean, speedup
from repro.analysis.report import render_breakdown_table, render_table
from repro.analysis.roofline import (
    ridge_intensity,
    roof_at,
    roofline_point,
)
from repro.analysis.traffic import (
    compulsory_traffic,
    noncompulsory_bytes,
    normalize_breakdown,
)
from repro.config import GammaConfig
from repro.core import multiply
from repro.matrices import generators


class TestMetrics:
    def test_gmean(self):
        assert gmean([2.0, 8.0]) == pytest.approx(4.0)
        assert gmean([5.0]) == pytest.approx(5.0)

    def test_gmean_validation(self):
        with pytest.raises(ValueError):
            gmean([])
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    def test_amean(self):
        assert amean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            amean([])

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestTraffic:
    def test_compulsory_empty_a(self):
        from repro.matrices.csr import CsrMatrix

        a = CsrMatrix.from_rows([], 5)
        b = generators.uniform_random(5, 5, 2.0, seed=1)
        compulsory = compulsory_traffic(a, b, 0)
        assert compulsory["B"] == 0

    def test_normalize(self):
        breakdown = normalize_breakdown(
            {"A": 50, "B": 100}, {"A": 50, "B": 50, "C": 50})
        assert breakdown["A"] == pytest.approx(1 / 3)
        assert breakdown["B"] == pytest.approx(2 / 3)

    def test_noncompulsory(self):
        assert noncompulsory_bytes({"A": 120}, {"A": 100}) == 20
        assert noncompulsory_bytes({"A": 80}, {"A": 100}) == 0


class TestRoofline:
    def test_roof_segments(self):
        config = GammaConfig()
        ridge = ridge_intensity(config)
        assert roof_at(ridge / 10, config) == pytest.approx(
            config.memory_bandwidth_bytes_per_s * ridge / 10 / 1e9)
        assert roof_at(ridge * 10, config) == pytest.approx(
            config.peak_flops / 1e9)

    def test_ridge_paper_value(self):
        # 32 GFLOP/s over 128 GB/s -> ridge at 0.25 FLOP/byte.
        assert ridge_intensity(GammaConfig()) == pytest.approx(0.25)

    def test_point_below_roof(self):
        a = generators.uniform_random(200, 200, 5.0, seed=2)
        result = multiply(a, a)
        point = roofline_point("test", result)
        assert point.gflops <= point.roof_gflops * 1.01
        assert 0 < point.efficiency <= 1.01


class TestArea:
    def test_table2_reproduced(self):
        area = gamma_area()
        assert area.total == pytest.approx(30.6, abs=0.1)
        assert area.pes == pytest.approx(4.8, abs=0.05)
        assert area.fibercache == pytest.approx(22.6, abs=0.01)

    def test_pe_fractions_match_table2(self):
        fractions = pe_component_fractions()
        assert fractions["Merger"] == pytest.approx(0.30, abs=0.02)
        assert fractions["FP Mul"] == pytest.approx(0.55, abs=0.02)

    def test_merger_scaling_laws(self):
        # Linear in radix.
        assert merger_area(128) == pytest.approx(2 * merger_area(64))
        # Quadratic in throughput.
        assert merger_area(64, throughput=4) == pytest.approx(
            16 * merger_area(64))

    def test_node_scaling_sec66(self):
        # Paper: 30.6 mm^2 at 45 nm -> 24.2 mm^2 at 40 nm.
        at40 = gamma_area(node_nm=40)
        assert at40.total == pytest.approx(24.2, abs=0.2)
        with pytest.raises(ValueError, match="node"):
            gamma_area(node_nm=28)

    def test_sparch_merger_ratio_order_of_magnitude(self):
        ratio = sparch_merger_area_ratio()
        assert 20 < ratio < 60  # paper: ~38x

    def test_bigger_configs_bigger_area(self):
        small = gamma_area(GammaConfig(num_pes=8))
        big = gamma_area(GammaConfig(num_pes=128))
        assert big.total > small.total

    def test_validation(self):
        with pytest.raises(ValueError):
            merger_area(1)
        with pytest.raises(ValueError):
            merger_area(64, throughput=0)


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 2.345], [10, 0.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bb" in lines[1]
        assert "2.35" in text  # default 2-digit precision

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a"], [[1, 2]])

    def test_breakdown_table(self):
        text = render_breakdown_table(
            {"m1": {"A": 0.5, "B": 1.0}},
            categories=["A", "B"],
        )
        assert "m1" in text
        assert "1.50" in text  # total column
