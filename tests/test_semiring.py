"""Tests for semiring-generalized spMspM."""

import numpy as np
import pytest

from repro.config import GammaConfig
from repro.core import GammaSimulator
from repro.matrices import generators
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber, linear_combine
from repro.semiring import (
    ARITHMETIC,
    BOOLEAN,
    MAX_TIMES,
    STANDARD_SEMIRINGS,
    TROPICAL_MIN,
    by_name,
)


class TestSemiringDefinitions:
    _DOMAIN = {
        "arithmetic": (0.5, 1.0, 3.0),
        "boolean": (0.0, 1.0),  # boolean operates on {0, 1} only
        "tropical_min": (0.5, 1.0, 3.0),
        "max_min": (0.5, 1.0, 3.0),
        "max_times": (0.5, 0.9, 1.0),
    }

    @pytest.mark.parametrize("semiring", STANDARD_SEMIRINGS.values(),
                             ids=list(STANDARD_SEMIRINGS))
    def test_identities(self, semiring):
        for x in self._DOMAIN[semiring.name]:
            assert semiring.add(x, semiring.zero) == x
            assert semiring.mul(x, semiring.one) == x

    @pytest.mark.parametrize("semiring", STANDARD_SEMIRINGS.values(),
                             ids=list(STANDARD_SEMIRINGS))
    def test_commutativity(self, semiring):
        domain = self._DOMAIN[semiring.name]
        for x in domain:
            for y in domain:
                assert semiring.add(x, y) == semiring.add(y, x)
                assert semiring.mul(x, y) == semiring.mul(y, x)

    def test_lookup(self):
        assert by_name("tropical_min") is TROPICAL_MIN
        with pytest.raises(KeyError, match="unknown semiring"):
            by_name("quantum")

    def test_only_arithmetic_flagged(self):
        assert ARITHMETIC.is_arithmetic
        assert not BOOLEAN.is_arithmetic


class TestSemiringCombine:
    def test_boolean_or(self):
        a = Fiber([0, 2], [1.0, 1.0])
        b = Fiber([2, 3], [1.0, 1.0])
        out = linear_combine([a, b], [1.0, 1.0], semiring=BOOLEAN)
        assert list(out) == [(0, 1.0), (2, 1.0), (3, 1.0)]

    def test_tropical_min_plus(self):
        a = Fiber([1, 2], [5.0, 7.0])
        b = Fiber([2], [1.0])
        # scales act through mul = +: scale 2 means path extension by 2.
        out = linear_combine([a, b], [2.0, 3.0], semiring=TROPICAL_MIN)
        assert dict(out) == {1: 7.0, 2: min(9.0, 4.0)}

    def test_arithmetic_semiring_matches_default(self):
        rng = np.random.default_rng(1)
        fibers = [
            Fiber(np.sort(rng.choice(30, 8, replace=False)),
                  rng.random(8))
            for _ in range(4)
        ]
        scales = rng.random(4).tolist()
        default = linear_combine(fibers, scales)
        explicit = linear_combine(fibers, scales, semiring=ARITHMETIC)
        np.testing.assert_allclose(default.values, explicit.values)


class TestSemiringSimulation:
    def _graph(self, seed=3):
        base = generators.uniform_random(40, 40, 3.0, seed=seed)
        dense = (base.to_dense() > 0).astype(float)
        return CsrMatrix.from_dense(dense)

    def test_boolean_square_matches_reachability(self):
        adj = self._graph()
        sim = GammaSimulator(GammaConfig(), semiring=BOOLEAN)
        result = sim.run(adj, adj)
        expected = ((adj.to_dense() @ adj.to_dense()) > 0).astype(float)
        np.testing.assert_array_equal(result.output.to_dense(), expected)

    def test_tropical_square_matches_minplus(self):
        rng = np.random.default_rng(5)
        dense = rng.random((25, 25)) * (rng.random((25, 25)) < 0.25)
        weights = CsrMatrix.from_dense(dense)
        sim = GammaSimulator(GammaConfig(radix=4), semiring=TROPICAL_MIN)
        result = sim.run(weights, weights)
        # Dense min-plus reference over present entries only.
        inf = np.full((25, 25), np.inf)
        d = np.where(dense > 0, dense, inf)
        expected = np.min(d[:, :, None] + d[None, :, :], axis=1)
        got = np.full((25, 25), np.inf)
        for row in range(25):
            fiber = result.output.row(row)
            got[row, fiber.coords] = fiber.values
        np.testing.assert_allclose(got, expected)

    def test_max_times_reliability(self):
        rng = np.random.default_rng(7)
        dense = rng.uniform(0.1, 0.99, (20, 20)) * (
            rng.random((20, 20)) < 0.3)
        probs = CsrMatrix.from_dense(dense)
        sim = GammaSimulator(GammaConfig(), semiring=MAX_TIMES)
        result = sim.run(probs, probs)
        d = dense
        expected = np.max(d[:, :, None] * d[None, :, :], axis=1)
        got = np.zeros((20, 20))
        for row in range(20):
            fiber = result.output.row(row)
            got[row, fiber.coords] = fiber.values
        np.testing.assert_allclose(got, expected)

    def test_detailed_model_agrees_under_semiring(self):
        adj = self._graph(seed=9)
        fast = GammaSimulator(GammaConfig(radix=4),
                              semiring=BOOLEAN).run(adj, adj)
        detailed = GammaSimulator(
            GammaConfig(radix=4, detailed_pe_model=True),
            semiring=BOOLEAN).run(adj, adj)
        np.testing.assert_array_equal(
            fast.output.to_dense(), detailed.output.to_dense())

    def test_task_trees_respect_semiring_identity(self):
        """Partial fibers pass through with the semiring's `one`."""
        rng = np.random.default_rng(11)
        dense = rng.random((30, 30)) * (rng.random((30, 30)) < 0.6)
        weights = CsrMatrix.from_dense(dense)
        # Radix 2 forces deep task trees on every row.
        sim = GammaSimulator(GammaConfig(radix=2), semiring=TROPICAL_MIN)
        result = sim.run(weights, weights)
        inf = np.full((30, 30), np.inf)
        d = np.where(dense > 0, dense, inf)
        expected = np.min(d[:, :, None] + d[None, :, :], axis=1)
        got = np.full((30, 30), np.inf)
        for row in range(30):
            fiber = result.output.row(row)
            got[row, fiber.coords] = fiber.values
        np.testing.assert_allclose(got, expected)
