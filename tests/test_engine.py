"""Tests for the model registry + parallel sweep engine.

Parity: for every registered model, the registry-dispatched run must
return exactly the cycles/traffic a direct ``run_*_model`` /
``GammaSimulator`` call produces. Determinism: a parallel sweep must
equal a serial sweep result-for-result. Small suite matrices keep the
battery fast.
"""

import json

import pytest

from repro.baselines import (
    run_inner_product_model,
    run_mkl_model,
    run_outerspace_model,
    run_sparch_model,
)
from repro.baselines.matraptor import run_matraptor_model
from repro.config import GammaConfig
from repro.core import GammaSimulator
from repro.engine import (
    RunRecord,
    SweepPoint,
    available_models,
    derive_c_nnz,
    execute_point,
    get_model,
    pending_points,
    plan_sweep,
    record_key,
    run_sweep,
    scaled_cpu_config,
    scaled_gamma_config,
)
from repro.engine import diskcache
from repro.matrices import suite

SMALL_MATRICES = ("wiki-Vote", "poisson3Da")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets its own disk cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    yield


class TestRegistry:
    def test_expected_models_registered(self):
        assert set(available_models()) >= {
            "gamma", "ip", "outerspace", "sparch", "mkl", "matraptor"}

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            get_model("tpu")

    @pytest.mark.parametrize("name", SMALL_MATRICES)
    @pytest.mark.parametrize("model,run_fn", [
        ("ip", run_inner_product_model),
        ("outerspace", run_outerspace_model),
        ("sparch", run_sparch_model),
        ("matraptor", run_matraptor_model),
    ])
    def test_baseline_parity(self, model, run_fn, name):
        a, b = suite.operands(name)
        config = scaled_gamma_config()
        direct = run_fn(a, b, config, c_nnz=1234)
        record = get_model(model).run(a, b, config, matrix=name,
                                      c_nnz=1234)
        assert record.cycles == direct.cycles
        assert record.traffic_bytes == direct.traffic_bytes
        assert record.flops == direct.flops
        assert record.c_nnz == 1234

    @pytest.mark.parametrize("name", SMALL_MATRICES)
    def test_mkl_parity(self, name):
        a, b = suite.operands(name)
        config = scaled_cpu_config()
        direct = run_mkl_model(a, b, config, c_nnz=1234)
        record = get_model("mkl").run(a, b, config, c_nnz=1234)
        assert record.cycles == direct.cycles
        assert record.traffic_bytes == direct.traffic_bytes

    @pytest.mark.parametrize("name", SMALL_MATRICES)
    def test_gamma_parity(self, name):
        a, b = suite.operands(name)
        config = scaled_gamma_config()
        direct = GammaSimulator(config, keep_output=False).run(a, b)
        record = get_model("gamma").run(a, b, config, matrix=name)
        assert record.cycles == direct.cycles
        assert record.traffic_bytes == direct.traffic_bytes
        assert record.compulsory_bytes == direct.compulsory_bytes
        assert record.c_nnz == direct.c_nnz


class TestRunRecord:
    def _record(self):
        return execute_point(SweepPoint("gamma", "wiki-Vote"))

    def test_payload_round_trip(self):
        record = self._record()
        payload = json.loads(json.dumps(record.to_payload()))
        assert RunRecord.from_payload(payload) == record

    def test_legacy_payload_without_c_nnz(self):
        record = self._record()
        payload = record.to_payload()
        payload["c_nnz"] = None
        payload["num_rows"] = suite.load("wiki-Vote").num_rows
        revived = RunRecord.from_payload(payload)
        assert revived.c_nnz == record.c_nnz

    def test_derive_c_nnz_inverts_compulsory(self):
        record = self._record()
        num_rows = suite.load("wiki-Vote").num_rows
        assert derive_c_nnz(
            record.compulsory_bytes["C"], num_rows) == record.c_nnz

    def test_derived_metrics_match_simulation(self):
        a, b = suite.operands("wiki-Vote")
        config = scaled_gamma_config()
        direct = GammaSimulator(config, keep_output=False).run(a, b)
        record = RunRecord.from_simulation(direct, matrix="wiki-Vote")
        assert record.normalized_traffic == direct.normalized_traffic
        assert record.bandwidth_utilization == pytest.approx(
            direct.bandwidth_utilization)
        assert record.pe_utilization == pytest.approx(direct.pe_utilization)
        assert record.gflops == pytest.approx(direct.gflops)
        assert record.runtime_seconds == direct.runtime_seconds


class TestDiskCache:
    def test_atomic_store_and_load(self):
        diskcache.store("somekey", {"x": 1})
        assert diskcache.load("somekey") == {"x": 1}
        assert not list(diskcache.cache_dir().glob("*.tmp"))

    def test_schema_version_in_key(self, monkeypatch):
        from repro.engine import record as record_mod

        key_v = diskcache.cache_key("record", matrix="m")
        monkeypatch.setattr(record_mod, "SCHEMA_VERSION", 99_999)
        monkeypatch.setattr(diskcache, "SCHEMA_VERSION", 99_999)
        assert diskcache.cache_key("record", matrix="m") != key_v

    def test_torn_entry_recomputed(self):
        point = SweepPoint("gamma", "wiki-Vote")
        key = record_key(point)
        diskcache.store(key, {"garbage": True})
        record = execute_point(point)
        assert record.cycles > 0
        # The torn entry was overwritten with a valid record.
        assert RunRecord.from_payload(diskcache.load(key)) == record


class TestSweep:
    def test_plan_cross_product(self):
        points = plan_sweep(["wiki-Vote"], models=("gamma", "mkl"),
                            variants=("none", "full"))
        assert SweepPoint("gamma", "wiki-Vote", "none") in points
        assert SweepPoint("gamma", "wiki-Vote", "full") in points
        assert SweepPoint("mkl", "wiki-Vote", "") in points
        assert len(points) == 3

    def test_plan_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            plan_sweep(["wiki-Vote"], models=("warp",))
        with pytest.raises(ValueError, match="variant"):
            plan_sweep(["wiki-Vote"], variants=("sometimes",))

    def test_pending_skips_cached_and_dedupes(self):
        point = SweepPoint("gamma", "wiki-Vote")
        assert pending_points([point, point]) == [point]
        execute_point(point)
        assert pending_points([point, point]) == []

    def test_cached_point_not_recomputed(self):
        point = SweepPoint("gamma", "wiki-Vote")
        first = execute_point(point)
        assert execute_point(point) == first

    def test_record_key_distinguishes_config(self):
        base = SweepPoint("gamma", "wiki-Vote")
        other = SweepPoint("gamma", "wiki-Vote",
                           config=scaled_gamma_config(num_pes=8))
        assert record_key(base) != record_key(other)
        # None resolves to the scaled default: same key either way.
        explicit = SweepPoint("gamma", "wiki-Vote",
                              config=scaled_gamma_config())
        assert record_key(base) == record_key(explicit)

    def test_program_shared_across_pe_sweep(self):
        """PE count doesn't affect preprocessing → one program key."""
        from repro.engine import preprocess_config_key

        a = preprocess_config_key(scaled_gamma_config(num_pes=8))
        b = preprocess_config_key(scaled_gamma_config(num_pes=64))
        assert a == b
        c = preprocess_config_key(scaled_gamma_config(
            fibercache_bytes=GammaConfig().fibercache_bytes))
        assert a != c

    def test_serial_sweep_covers_plan(self):
        points = plan_sweep(SMALL_MATRICES, models=("gamma", "sparch"),
                            variants=("none",))
        results = run_sweep(points, serial=True)
        assert set(results) == set(points)
        for record in results.values():
            assert record.cycles > 0

    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        """The headline determinism guarantee, payload-for-payload."""
        points = plan_sweep(SMALL_MATRICES)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        parallel = run_sweep(points, workers=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ser"))
        serial = run_sweep(points, serial=True)
        assert set(parallel) == set(serial)
        for point in points:
            assert (parallel[point].to_payload()
                    == serial[point].to_payload()), point


class TestFacadeParity:
    """The ExperimentRunner facade returns engine records unchanged."""

    def test_gamma_matches_execute_point(self):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner()
        record = runner.gamma("wiki-Vote")
        assert record == execute_point(SweepPoint("gamma", "wiki-Vote"))
        assert runner.c_nnz("wiki-Vote") == record.c_nnz

    def test_baseline_uses_true_c_nnz(self):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner()
        a, b = suite.operands("wiki-Vote")
        c_nnz = runner.c_nnz("wiki-Vote")
        direct = run_sparch_model(a, b, scaled_gamma_config(), c_nnz)
        record = runner.baseline("sparch", "wiki-Vote")
        assert record.cycles == direct.cycles
        assert record.traffic_bytes == direct.traffic_bytes

    def test_sweep_warms_facade_memo(self):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner()
        points = plan_sweep(["wiki-Vote"], models=("gamma",),
                            variants=("none",))
        (record,) = runner.sweep(points, serial=True)
        assert runner.gamma("wiki-Vote") is runner.gamma("wiki-Vote")
        assert runner.gamma("wiki-Vote") == record


class TestProgramCache:
    """Programs are stored as slices of A; bad entries are rebuilt."""

    CONFIG = scaled_gamma_config()

    @pytest.fixture
    def memo(self, monkeypatch):
        from repro.engine import sweep

        monkeypatch.setattr(sweep, "_PROGRAM_MEMO", {})
        return sweep._PROGRAM_MEMO

    @staticmethod
    def layout(program):
        return program.num_rows, program.num_cols, [
            (item.row, item.part, item.num_parts, item.coords.dtype.str,
             item.values.dtype.str, item.coords.tobytes(),
             item.values.tobytes())
            for item in program.items]

    def built(self, matrix, variant):
        from repro.engine.defaults import preprocess_options
        from repro.preprocessing import preprocess

        a, b = suite.operands(matrix)
        return preprocess(a, b, self.CONFIG, preprocess_options(variant))

    @pytest.mark.parametrize("variant", (
        "full", "reorder", "reorder_tile_all"))
    @pytest.mark.parametrize("matrix", ("email-Enron", "poisson3Da"))
    def test_warm_load_equals_cold_build(self, matrix, variant, memo,
                                         monkeypatch):
        from repro import preprocessing
        from repro.engine.sweep import cached_program, program_key

        expected = self.layout(self.built(matrix, variant))
        cold = cached_program(matrix, variant, self.CONFIG)
        assert diskcache.contains(program_key(matrix, variant, self.CONFIG))
        memo.clear()

        def no_rebuild(*args, **kwargs):
            raise AssertionError("warm load rebuilt the program")

        monkeypatch.setattr(preprocessing, "preprocess", no_rebuild)
        warm = cached_program(matrix, variant, self.CONFIG)
        assert warm is not cold
        assert self.layout(cold) == expected
        assert self.layout(warm) == expected

    def test_key_differs_from_the_coordinate_list_format(self):
        from repro.engine import preprocess_config_key
        from repro.engine.sweep import program_key

        legacy = diskcache.cache_key(
            "program", matrix="wiki-Vote", variant="full",
            **preprocess_config_key(self.CONFIG))
        assert program_key("wiki-Vote", "full", self.CONFIG) != legacy

    @staticmethod
    def out_of_range(payload, a):
        payload["starts"][-1] += a.nnz
        payload["ends"][-1] += a.nnz

    @staticmethod
    def empty(payload, a):
        payload["starts"].insert(0, payload["starts"][0])
        payload["ends"].insert(0, payload["starts"][0])

    @staticmethod
    def overlapping(payload, a):
        payload["starts"].append(payload["starts"][0])
        payload["ends"].append(payload["ends"][0])

    @staticmethod
    def crossing_a_row(payload, a):
        """Merge a slice with the next row's first slice: the slices
        still cover every nonzero exactly once."""
        starts, ends = payload["starts"], payload["ends"]
        boundaries = set(a.offsets[1:-1].tolist()) - {a.nnz}
        first = next(i for i, end in enumerate(ends) if end in boundaries)
        second = starts.index(ends[first])
        ends[first] = ends[second]
        del starts[second], ends[second]

    @staticmethod
    def with_gap(payload, a):
        del payload["starts"][0], payload["ends"][0]

    @staticmethod
    def legacy_items(payload, a):
        from repro.engine.sweep import program_from_slices

        program = program_from_slices(payload, a)
        payload.clear()
        payload.update({
            "items": [[item.row, item.part, item.num_parts,
                       item.coords.tolist(), item.values.tolist()]
                      for item in program.items],
            "num_rows": program.num_rows, "num_cols": program.num_cols})

    @pytest.mark.parametrize("corrupt", (
        "out_of_range", "empty", "overlapping", "crossing_a_row",
        "with_gap", "legacy_items"))
    def test_invalid_entry_is_rebuilt(self, corrupt, memo):
        import copy

        from repro.engine.sweep import (cached_program, program_from_slices,
                                        program_key)

        matrix, variant = "email-Enron", "reorder_tile_all"
        key = program_key(matrix, variant, self.CONFIG)
        built = cached_program(matrix, variant, self.CONFIG)
        good = diskcache.load(key)
        bad = copy.deepcopy(good)
        getattr(self, corrupt)(bad, suite.load(matrix))
        assert program_from_slices(bad, suite.load(matrix)) is None
        diskcache.store(key, bad)
        memo.clear()
        rebuilt = cached_program(matrix, variant, self.CONFIG)
        assert self.layout(rebuilt) == self.layout(built)
        assert diskcache.load(key) == good
