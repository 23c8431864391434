"""Integration tests: the Gamma simulator end to end."""

import numpy as np
import pytest

from repro.config import GammaConfig, PreprocessConfig
from repro.core import GammaSimulator, multiply
from repro.core.dram import MemoryInterface, TrafficCounter
from repro.matrices import generators
from repro.matrices.csr import CsrMatrix
from repro.preprocessing import preprocess


def scipy_product(a, b):
    return (a.to_scipy() @ b.to_scipy()).toarray()


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_square(self, seed):
        a = generators.uniform_random(60, 60, 4.0, seed=seed)
        b = generators.uniform_random(60, 60, 5.0, seed=seed + 100)
        res = multiply(a, b)
        np.testing.assert_allclose(
            res.output.to_dense(), scipy_product(a, b), atol=1e-9)

    def test_rectangular(self):
        a = generators.uniform_random(40, 70, 3.0, seed=1)
        b = generators.uniform_random(70, 25, 4.0, seed=2)
        res = multiply(a, b)
        assert res.output.shape == (40, 25)
        np.testing.assert_allclose(
            res.output.to_dense(), scipy_product(a, b), atol=1e-9)

    def test_long_rows_use_task_trees(self):
        a = generators.mixed_density(
            120, 120, 5.0, dense_row_fraction=0.1, dense_row_nnz=100,
            seed=3)
        config = GammaConfig(radix=8)
        res = GammaSimulator(config).run(a, a)
        assert res.num_partial_fibers > 0
        np.testing.assert_allclose(
            res.output.to_dense(), scipy_product(a, a), atol=1e-9)

    def test_empty_rows(self):
        a = CsrMatrix.from_dense(np.array([
            [0.0, 0.0], [1.0, 2.0],
        ]))
        res = multiply(a, a)
        np.testing.assert_allclose(
            res.output.to_dense(), scipy_product(a, a))

    def test_empty_matrix(self):
        a = CsrMatrix.from_rows([], 10)
        b = generators.uniform_random(10, 10, 2.0, seed=4)
        res = multiply(a, b)
        assert res.output.nnz == 0
        assert res.cycles >= 0

    def test_identity(self):
        eye = CsrMatrix.from_dense(np.eye(30))
        b = generators.uniform_random(30, 30, 3.0, seed=5)
        res = multiply(eye, b)
        np.testing.assert_allclose(res.output.to_dense(), b.to_dense())

    def test_detailed_pe_model_agrees(self):
        a = generators.uniform_random(30, 30, 3.0, seed=6)
        fast = GammaSimulator(GammaConfig()).run(a, a)
        detailed = GammaSimulator(
            GammaConfig(detailed_pe_model=True)).run(a, a)
        np.testing.assert_allclose(
            fast.output.to_dense(), detailed.output.to_dense(), atol=1e-12)
        assert fast.cycles == detailed.cycles
        assert fast.flops == detailed.flops

    def test_preprocessed_program_same_result(self):
        a = generators.mixed_density(
            100, 100, 8.0, dense_row_fraction=0.05, dense_row_nnz=80,
            seed=7)
        config = GammaConfig(radix=8, fibercache_bytes=16 * 1024)
        program = preprocess(a, a, config, PreprocessConfig.full())
        res = GammaSimulator(config).run(a, a, program=program)
        np.testing.assert_allclose(
            res.output.to_dense(), scipy_product(a, a), atol=1e-9)

    def test_dimension_mismatch(self):
        a = generators.uniform_random(5, 6, 2.0, seed=8)
        b = generators.uniform_random(7, 5, 2.0, seed=9)
        with pytest.raises(ValueError, match="inner dimensions"):
            multiply(a, b)


class TestTrafficAccounting:
    def test_small_matrix_is_compulsory(self):
        """Everything fits on chip: traffic must equal the compulsory floor
        (up to line-granularity rounding on B)."""
        a = generators.uniform_random(100, 100, 5.0, seed=10)
        res = multiply(a, a)
        assert res.normalized_traffic == pytest.approx(1.0, abs=0.1)
        assert res.traffic_bytes["partial_read"] == 0
        assert res.traffic_bytes["partial_write"] == 0

    def test_a_traffic_matches_footprint(self):
        a = generators.uniform_random(80, 80, 4.0, seed=11)
        res = multiply(a, a)
        assert res.traffic_bytes["A"] >= a.nnz * 12
        assert res.traffic_bytes["A"] <= a.nnz * 12 + 4 * a.num_rows + 64

    def test_c_traffic_matches_output(self):
        a = generators.uniform_random(80, 80, 4.0, seed=12)
        res = multiply(a, a)
        assert res.traffic_bytes["C"] >= res.output.nnz * 12

    def test_small_cache_increases_b_traffic(self):
        a = generators.uniform_random(400, 400, 8.0, seed=13)
        big = GammaSimulator(
            GammaConfig(fibercache_bytes=1024 * 1024),
            keep_output=False).run(a, a)
        small = GammaSimulator(
            GammaConfig(fibercache_bytes=16 * 1024),
            keep_output=False).run(a, a)
        assert small.traffic_bytes["B"] > big.traffic_bytes["B"]
        # Compulsory floors are identical.
        assert small.compulsory_bytes == big.compulsory_bytes

    def test_compulsory_counts_touched_b_only(self):
        # A only references B rows 0 and 1.
        a = CsrMatrix.from_dense(
            np.array([[1.0, 2.0, 0.0, 0.0]] * 4))
        b = generators.uniform_random(4, 10, 3.0, seed=14)
        res = multiply(a, b)
        touched_bytes = sum(b.row_nnz(k) for k in (0, 1)) * 12
        assert res.compulsory_bytes["B"] == touched_bytes + 2 * 4

    def test_traffic_conservation(self):
        """Partial writes and reads must balance (spilled = read back)."""
        a = generators.mixed_density(
            200, 200, 6.0, dense_row_fraction=0.1, dense_row_nnz=150,
            seed=15)
        res = GammaSimulator(
            GammaConfig(radix=8, fibercache_bytes=8 * 1024),
            keep_output=False).run(a, a)
        assert (res.traffic_bytes["partial_read"]
                <= res.traffic_bytes["partial_write"] * 1.5 + 4096)


class TestTiming:
    def test_cycles_at_least_bandwidth_bound(self):
        a = generators.uniform_random(300, 300, 6.0, seed=16)
        res = GammaSimulator(GammaConfig(), keep_output=False).run(a, a)
        floor = res.total_traffic / res.config.bytes_per_cycle
        assert res.cycles >= floor * 0.999

    def test_cycles_at_least_compute_bound(self):
        a = generators.uniform_random(300, 300, 6.0, seed=17)
        config = GammaConfig(num_pes=2)
        res = GammaSimulator(config, keep_output=False).run(a, a)
        assert res.cycles >= res.flops / config.num_pes

    def test_more_pes_never_slower(self):
        a = generators.uniform_random(400, 400, 10.0, seed=18)
        cycles = []
        for pes in (2, 8, 32):
            res = GammaSimulator(
                GammaConfig(num_pes=pes), keep_output=False).run(a, a)
            cycles.append(res.cycles)
        assert cycles[0] >= cycles[1] >= cycles[2] * 0.95

    def test_bandwidth_utilization_bounded(self):
        a = generators.uniform_random(200, 200, 5.0, seed=19)
        res = GammaSimulator(GammaConfig(), keep_output=False).run(a, a)
        assert 0.0 < res.bandwidth_utilization <= 1.0
        assert 0.0 < res.pe_utilization <= 1.0

    def test_flops_match_analytic(self):
        from repro.matrices.stats import flops

        a = generators.uniform_random(150, 150, 4.0, seed=20)
        res = multiply(a, a)
        assert res.flops == flops(a, a)

    def test_result_derived_metrics(self):
        a = generators.uniform_random(100, 100, 4.0, seed=21)
        res = multiply(a, a)
        assert res.gflops > 0
        assert res.operational_intensity > 0
        assert res.runtime_seconds == pytest.approx(
            res.cycles / res.config.frequency_hz)
        assert res.noncompulsory_bytes >= 0


class TestSchedulingModes:
    def test_single_pe_mode_correct(self):
        a = generators.mixed_density(
            150, 150, 6.0, dense_row_fraction=0.08, dense_row_nnz=100,
            seed=22)
        config = GammaConfig(radix=8)
        multi = GammaSimulator(config, multi_pe_scheduling=True).run(a, a)
        single = GammaSimulator(config, multi_pe_scheduling=False).run(a, a)
        np.testing.assert_allclose(
            multi.output.to_dense(), single.output.to_dense(), atol=1e-9)

    def test_multi_pe_not_slower_with_long_rows(self):
        a = generators.mixed_density(
            150, 150, 6.0, dense_row_fraction=0.2, dense_row_nnz=120,
            seed=23)
        config = GammaConfig(radix=8, num_pes=8,
                             fibercache_bytes=16 * 1024)
        multi = GammaSimulator(config, multi_pe_scheduling=True,
                               keep_output=False).run(a, a)
        single = GammaSimulator(config, multi_pe_scheduling=False,
                                keep_output=False).run(a, a)
        assert multi.cycles <= single.cycles * 1.05


class TestMemoryInterface:
    def test_traffic_counter(self):
        counter = TrafficCounter()
        counter.add("A", 100)
        counter.add("B", 50)
        assert counter.total_bytes == 150
        assert counter.normalized(300) == pytest.approx(
            {"A": 1 / 3, "B": 1 / 6, "C": 0, "partial_read": 0,
             "partial_write": 0})

    def test_traffic_counter_validation(self):
        counter = TrafficCounter()
        with pytest.raises(ValueError, match="category"):
            counter.add("bogus", 1)
        with pytest.raises(ValueError, match="negative"):
            counter.add("A", -1)
        with pytest.raises(ValueError, match="positive"):
            counter.normalized(0)

    def test_serial_server_saturates_at_bandwidth(self):
        mem = MemoryInterface(bytes_per_cycle=64, latency_cycles=0)
        finish = 0.0
        for _ in range(10):
            finish = mem.request("B", 640, now=0.0)
        assert mem.busy_until == pytest.approx(100.0)
        assert mem.bandwidth_utilization(100.0) == pytest.approx(1.0)

    def test_latency_hidden_by_decoupling(self):
        """Decoupled fetch hides access latency; only bandwidth gates."""
        mem = MemoryInterface(bytes_per_cycle=64, latency_cycles=80)
        finish = mem.request("B", 64, now=0.0)
        assert finish == pytest.approx(1.0)

    def test_zero_byte_request(self):
        mem = MemoryInterface(bytes_per_cycle=64)
        assert mem.request("B", 0, now=5.0) == 5.0
        assert mem.traffic.total_bytes == 0

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            MemoryInterface(bytes_per_cycle=0)
