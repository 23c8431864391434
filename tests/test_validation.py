"""Tests for the cross-engine validation harness."""

from repro.config import GammaConfig
from repro.matrices import generators
from repro.validation import cross_validate


class TestCrossValidate:
    def test_all_engines_agree_random(self):
        a = generators.uniform_random(40, 40, 4.0, seed=1)
        report = cross_validate(a, a)
        assert report.all_agree, report.summary()
        assert set(report.engines) == {
            "gamma", "gamma-detailed", "gamma-preprocessed",
            "spgemm-spa", "spgemm-hash",
        }

    def test_agreement_with_dense_rows(self):
        a = generators.mixed_density(
            50, 50, 4.0, dense_row_fraction=0.1, dense_row_nnz=40, seed=2)
        report = cross_validate(a, a, GammaConfig(radix=4))
        assert report.all_agree, report.summary()

    def test_rectangular(self):
        a = generators.uniform_random(30, 50, 3.0, seed=3)
        b = generators.uniform_random(50, 20, 4.0, seed=4)
        report = cross_validate(a, b)
        assert report.all_agree
        assert report.shape == (30, 20)

    def test_optional_engines_skippable(self):
        a = generators.uniform_random(20, 20, 2.0, seed=5)
        report = cross_validate(a, a, include_detailed=False,
                                include_preprocessed=False)
        assert "gamma-detailed" not in report.engines
        assert "gamma-preprocessed" not in report.engines
        assert report.all_agree

    def test_summary_format(self):
        a = generators.uniform_random(15, 15, 2.0, seed=6)
        report = cross_validate(a, a, include_detailed=False)
        text = report.summary()
        assert "cross-validation" in text
        assert "OK" in text
        assert "MISMATCH" not in text

    def test_mismatch_detected(self):
        a = generators.uniform_random(15, 15, 2.0, seed=7)
        report = cross_validate(a, a, include_detailed=False,
                                include_preprocessed=False)
        # Corrupt one engine's deviation to prove the gate works.
        report.engines["gamma"] = 1.0
        assert not report.all_agree
        assert "MISMATCH" in report.summary()
