"""Tests for affinity reordering, selective tiling, and the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GammaConfig, PreprocessConfig
from repro.core import GammaSimulator
from repro.matrices import generators
from repro.matrices.csr import CsrMatrix
from repro.preprocessing import (
    affinity_reorder,
    estimate_row_footprint,
    preprocess,
    preprocess_with_report,
    tile_matrix,
)
from repro.preprocessing.reorder import is_permutation, reorder_for_gamma
from tests.oracles import (
    estimate_b_traffic_loop,
    preprocess_items,
    program_items,
    row_fragments,
    split_row,
)


class TestAffinityReorder:
    def test_returns_permutation(self):
        a = generators.uniform_random(60, 60, 4.0, seed=1)
        perm = affinity_reorder(a, window=8)
        assert is_permutation(perm, 60)

    def test_starts_at_start_row(self):
        a = generators.uniform_random(30, 30, 3.0, seed=2)
        perm = affinity_reorder(a, window=4, start_row=17)
        assert perm[0] == 17

    def test_groups_identical_rows(self):
        """Rows with identical column sets must end up adjacent."""
        rows = []
        rng = np.random.default_rng(3)
        patterns = [np.sort(rng.choice(100, 10, replace=False))
                    for _ in range(5)]
        assignment = []
        for i in range(40):
            p = i % 5
            assignment.append(p)
            rows.append((patterns[p], rng.random(10)))
        from repro.matrices.fiber import Fiber

        a = CsrMatrix.from_rows(
            [Fiber(c, v, check=False) for c, v in rows], 100)
        perm = affinity_reorder(a, window=4)
        # After the first few placements, consecutive rows share patterns.
        runs = [assignment[perm[i]] == assignment[perm[i + 1]]
                for i in range(len(perm) - 1)]
        assert sum(runs) >= 30  # 35 possible same-pattern adjacencies

    def test_recovers_renumbered_band(self):
        """The Sec. 4.1 core claim: reordering restores locality."""
        mesh = generators.mesh(400, 12.0, seed=4)
        scrambled = generators.symmetric_permute(mesh, seed=5)
        config = GammaConfig(fibercache_bytes=16 * 1024)
        sim = GammaSimulator(config, keep_output=False)
        base = sim.run(scrambled, scrambled)
        perm = reorder_for_gamma(scrambled, scrambled, config)
        from repro.core.scheduler import WorkProgram

        rows = np.array([r for r in perm if scrambled.row_nnz(r)])
        program_rows = WorkProgram.from_slices(
            scrambled, scrambled.offsets[rows], scrambled.offsets[rows + 1])
        improved = sim.run(scrambled, scrambled, program=program_rows)
        assert (improved.traffic_bytes["B"]
                < 0.6 * base.traffic_bytes["B"])

    def test_window_validation(self):
        a = generators.uniform_random(10, 10, 2.0, seed=6)
        with pytest.raises(ValueError, match="window"):
            affinity_reorder(a, window=0)
        with pytest.raises(ValueError, match="start_row"):
            affinity_reorder(a, window=2, start_row=10)

    def test_empty_matrix(self):
        a = CsrMatrix.from_rows([], 5)
        assert affinity_reorder(a, window=1) == []


class TestSplitRow:
    def test_coordinate_space_split(self):
        coords = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        values = np.arange(8.0)
        pieces = split_row(coords, values, 0, 80, radix=4)
        assert len(pieces) == 4
        for piece_coords, _ in pieces:
            # Each piece spans one even coordinate subrange.
            assert piece_coords.max() - piece_coords.min() < 20

    def test_empty_buckets_skipped(self):
        coords = np.array([0, 1, 79])
        values = np.ones(3)
        pieces = split_row(coords, values, 0, 80, radix=8)
        assert len(pieces) == 2  # bucket 0 and bucket 7

    def test_preserves_all_nonzeros(self):
        rng = np.random.default_rng(7)
        coords = np.sort(rng.choice(1000, 100, replace=False))
        values = rng.random(100)
        pieces = split_row(coords, values, 0, 1000, radix=16)
        recombined = np.concatenate([c for c, _ in pieces])
        np.testing.assert_array_equal(np.sort(recombined), coords)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_row(np.array([1]), np.array([1.0]), 5, 5, radix=4)


class TestTileMatrix:
    def _dense_sparse_matrix(self):
        return generators.mixed_density(
            100, 1000, sparse_nnz_per_row=4.0, dense_row_fraction=0.05,
            dense_row_nnz=400, seed=8)

    @staticmethod
    def fragment_rows(a, starts):
        return np.searchsorted(a.offsets, starts, side="right") - 1

    def test_selective_tiles_only_dense_rows(self):
        a = self._dense_sparse_matrix()
        starts, _ = tile_matrix(
            a, avg_b_row_nnz=10.0, config=GammaConfig(radix=8),
            threshold_bytes=10_000)
        frags_per_row = np.bincount(self.fragment_rows(a, starts),
                                    minlength=a.num_rows)
        for row, count in enumerate(frags_per_row.tolist()):
            if a.row_nnz(row) > 10_000 / (10.0 * 12):
                assert count > 1, f"dense row {row} not tiled"
            elif a.row_nnz(row):
                assert count == 1, f"sparse row {row} tiled"

    def test_nonselective_tiles_everything(self):
        a = self._dense_sparse_matrix()
        starts, ends = tile_matrix(
            a, avg_b_row_nnz=10.0, config=GammaConfig(radix=8),
            selective=False)
        rows = self.fragment_rows(a, starts)
        multi = np.count_nonzero(ends - starts < a.row_lengths()[rows])
        assert multi > 0
        rows_with_multiple = len(starts) - len(np.unique(rows))
        assert rows_with_multiple > 50

    def test_fragments_cover_matrix(self):
        a = self._dense_sparse_matrix()
        starts, ends = tile_matrix(a, avg_b_row_nnz=10.0,
                                   threshold_bytes=10_000)
        # Sorted, gap-free, within rows: together exactly A's nonzeros.
        assert starts[0] == 0 and ends[-1] == a.nnz
        np.testing.assert_array_equal(starts[1:], ends[:-1])
        rows = self.fragment_rows(a, starts)
        assert np.all(ends <= a.offsets[rows + 1])

    def test_footprint_estimate(self):
        assert estimate_row_footprint(100, 10.0) == 100 * 10 * 12

    def test_recursive_split_bounds_fragment_footprint(self):
        # One giant dense row in a wide matrix must split recursively.
        rng = np.random.default_rng(9)
        coords = np.sort(rng.choice(100_000, 5000, replace=False))
        from repro.matrices.fiber import Fiber

        a = CsrMatrix.from_rows(
            [Fiber(coords, rng.random(5000), check=False)], 100_000)
        threshold = 50 * 12 * 10.0  # 50 nnz per fragment budget
        starts, ends = tile_matrix(
            a, avg_b_row_nnz=10.0, config=GammaConfig(radix=4),
            threshold_bytes=threshold)
        assert len(starts) > 4  # recursion went deeper than one round
        assert max(ends - starts) <= 5000 / 4  # smaller than one round


class TestPipeline:
    def test_program_covers_matrix(self):
        a = generators.mixed_density(
            80, 80, 6.0, dense_row_fraction=0.1, dense_row_nnz=60, seed=10)
        config = GammaConfig(radix=8, fibercache_bytes=16 * 1024)
        program = preprocess(a, a, config, PreprocessConfig.full())
        program.validate_against(a)

    def test_report_fields(self):
        a = generators.mixed_density(
            80, 80, 6.0, dense_row_fraction=0.1, dense_row_nnz=60, seed=11)
        config = GammaConfig(radix=8, fibercache_bytes=16 * 1024)
        program, report = preprocess_with_report(
            a, a, config, PreprocessConfig.full())
        assert report.num_rows == 80
        assert report.num_fragments >= 80
        assert report.num_tiled_rows >= 0
        assert report.reorder_window >= 1

    def test_no_preprocessing_options(self):
        a = generators.uniform_random(40, 40, 3.0, seed=12)
        program = preprocess(a, a, options=PreprocessConfig.none())
        rows = [item.row for item in program.items]
        assert rows == sorted(rows)  # natural order retained

    def test_reorder_never_chosen_when_it_hurts(self):
        """The reuse-distance guard keeps the better ordering."""
        a = generators.mesh(300, 10.0, seed=13)  # already perfectly local
        config = GammaConfig(fibercache_bytes=8 * 1024)
        sim = GammaSimulator(config, keep_output=False)
        natural = sim.run(a, a)
        program = preprocess(a, a, config, PreprocessConfig.reorder_only())
        preprocessed = sim.run(a, a, program=program)
        assert (preprocessed.traffic_bytes["B"]
                <= natural.traffic_bytes["B"] * 1.1)

    def test_functional_equivalence_under_full_pipeline(self):
        a = generators.mixed_density(
            60, 60, 5.0, dense_row_fraction=0.1, dense_row_nnz=50, seed=14)
        config = GammaConfig(radix=4, fibercache_bytes=8 * 1024)
        program = preprocess(a, a, config, PreprocessConfig.full())
        result = GammaSimulator(config).run(a, a, program=program)
        expected = (a.to_scipy() @ a.to_scipy()).toarray()
        np.testing.assert_allclose(result.output.to_dense(), expected,
                                   atol=1e-9)

    def test_variant_constructors(self):
        assert PreprocessConfig.none().reorder is False
        assert PreprocessConfig.full().tile is True
        assert PreprocessConfig.reorder_only().tile is False
        assert PreprocessConfig.reorder_tile_all().selective is False

    def test_threshold_bytes_override(self):
        options = PreprocessConfig(tile_threshold_bytes=12345.0)
        assert options.threshold_bytes(10**9) == 12345.0
        default = PreprocessConfig()
        assert default.threshold_bytes(1000) == 250.0


# --- Property tests (Hypothesis) --------------------------------------

from repro.matrices.builder import CooBuilder  # noqa: E402
from repro.preprocessing.pipeline import estimate_b_traffic  # noqa: E402

#: Deterministic exploration so CI and local runs see identical cases.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def csr_matrix(draw, max_rows=24, max_cols=24, max_nnz=80):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    count = draw(st.integers(0, max_nnz))
    entries = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                  st.floats(0.1, 5.0)),
        min_size=count, max_size=count))
    builder = CooBuilder(rows, cols)
    for row, col, value in entries:
        builder.add(row, col, value)
    return builder.build()


@st.composite
def operand_pair(draw, max_dim=18, max_nnz=60):
    """A conformable (A, B) pair for C = A x B."""
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))

    def build(rows, cols):
        count = draw(st.integers(0, max_nnz))
        builder = CooBuilder(rows, cols)
        for _ in range(count):
            builder.add(draw(st.integers(0, rows - 1)),
                        draw(st.integers(0, cols - 1)),
                        draw(st.floats(0.1, 5.0)))
        return builder.build()

    return build(m, k), build(k, n)


def row_columns(a):
    return [set(a.coords[a.offsets[r]:a.offsets[r + 1]].tolist())
            for r in range(a.num_rows)]


def csr_entries(matrix):
    out = {}
    for row in range(matrix.num_rows):
        start, end = matrix.offsets[row], matrix.offsets[row + 1]
        for idx in range(start, end):
            out[(row, int(matrix.coords[idx]))] = float(matrix.values[idx])
    return out


class TestReorderProperties:
    @PROPERTY
    @given(a=csr_matrix(), window=st.integers(1, 8),
           start=st.integers(0, 23))
    def test_always_a_valid_permutation(self, a, window, start):
        """Algorithm 1 output is a permutation from any start row."""
        perm = affinity_reorder(a, window=window,
                                start_row=min(start, a.num_rows - 1))
        assert is_permutation(perm, a.num_rows)

    @PROPERTY
    @given(a=csr_matrix(), window=st.integers(1, 6))
    def test_greedy_choice_is_stepwise_optimal(self, a, window):
        """At every step the placed row maximizes affinity with the
        current window over all unplaced rows — the Algorithm 1 greedy
        invariant. (The *global* windowed-affinity sum carries no such
        guarantee: greedy can lose it to the identity order, which is
        why the pipeline keeps whichever order its reuse-distance model
        prefers — see ``test_pipeline_never_worsens_predicted_traffic``.)

        Column-degree capping never fires at this size (cap >= 64), so
        the heap keys equal the plain set-intersection affinity.
        """
        perm = affinity_reorder(a, window=window)
        cols = row_columns(a)

        def affinity(row, position):
            return sum(len(cols[row] & cols[perm[j]])
                       for j in range(max(0, position - window), position))

        unplaced = set(range(a.num_rows)) - {perm[0]}
        for position in range(1, a.num_rows):
            chosen = perm[position]
            best = max(affinity(row, position) for row in unplaced)
            assert affinity(chosen, position) == best
            unplaced.discard(chosen)

    @PROPERTY
    @given(pair=operand_pair(), capacity_kb=st.integers(1, 8))
    def test_pipeline_never_worsens_predicted_traffic(self, pair,
                                                      capacity_kb):
        """The reuse-distance guard: the order the pipeline emits never
        predicts more B traffic than the natural (identity) order."""
        a, b = pair
        capacity = capacity_kb * 1024
        config = GammaConfig(fibercache_bytes=capacity)
        program = preprocess(a, b, config, PreprocessConfig.reorder_only())
        natural = np.flatnonzero(a.row_lengths())
        assert sorted(program.rows.tolist()) == natural.tolist()
        chosen = np.concatenate([item.coords for item in program.items]
                                or [np.empty(0, dtype=np.int64)])
        assert (estimate_b_traffic(chosen, b, capacity)
                <= estimate_b_traffic(a.coords, b, capacity))


class TestTilingProperties:
    @PROPERTY
    @given(pair=operand_pair())
    def test_tiled_then_merged_equals_untiled(self, pair):
        """Tiling every row and recombining the subrow partials is
        functionally invisible: same output as the untiled run."""
        a, b = pair
        config = GammaConfig(num_pes=4, radix=4,
                             fibercache_bytes=4 * 1024,
                             fibercache_ways=4, fibercache_banks=4)
        options = PreprocessConfig(reorder=False, selective=False)
        program = preprocess(a, b, config, options)
        program.validate_against(a)
        tiled = GammaSimulator(config).run(a, b, program=program).output
        untiled = GammaSimulator(config).run(a, b).output
        got, want = csr_entries(tiled), csr_entries(untiled)
        assert set(got) == set(want)
        for coord, value in want.items():
            # Subrow merge order changes float summation order.
            assert got[coord] == pytest.approx(value, rel=1e-9), coord


# --- Compulsory-floor short-circuit vs the always-reorder oracle -------

from repro.config import ELEMENT_BYTES  # noqa: E402
from repro.engine.defaults import (  # noqa: E402
    MODEL_SCALE,
    preprocess_options,
    scaled_gamma_config,
)
from repro.figures.scopes import QUICK_MATRICES  # noqa: E402
from repro.matrices import suite  # noqa: E402
from repro.preprocessing import pipeline  # noqa: E402
from repro.preprocessing.pipeline import compulsory_b_traffic  # noqa: E402

#: The Table 3 common set the cold-sweep benchmark runs (it leaves out
#: cit-Patents, the slowest).
SWEEP_MATRICES = [name for name in suite.common_set_names()
                  if name != "cit-Patents"]

#: The quick figure scope's FiberCache-size sweep (paper 0.75-12 MB at
#: the model scale).
CACHE_SIZES = tuple(int(mb * 1024 * 1024 / MODEL_SCALE)
                    for mb in (0.75, 1.5, 3.0, 6.0, 12.0))


def assert_matches_oracle(a, b, config, options):
    """The whole program and report equal the loop pipeline's, which
    tiles row by row, reorders through a queue object and always runs
    Algorithm 1 when asked to reorder."""
    program, report = preprocess_with_report(a, b, config, options)
    want_items, want_report = preprocess_items(a, b, config, options)
    assert report == want_report
    assert program_items(program) == want_items


class TestFloorShortCircuit:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", SWEEP_MATRICES)
    def test_sweep_matrices_match_oracle(self, name):
        a, b = suite.operands(name)
        assert_matches_oracle(a, b, scaled_gamma_config(),
                              preprocess_options("full"))

    @pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
    @pytest.mark.parametrize("name", QUICK_MATRICES)
    def test_quick_cache_sweep_matches_oracle(self, name, cache_bytes):
        a, b = suite.operands(name)
        config = scaled_gamma_config(fibercache_bytes=cache_bytes)
        for variant in ("full", "reorder", "reorder_tile_all"):
            assert_matches_oracle(a, b, config, preprocess_options(variant))

    @PROPERTY
    @given(pair=operand_pair(), capacity_kb=st.integers(1, 4),
           options=st.sampled_from([
               PreprocessConfig.full(), PreprocessConfig.reorder_only(),
               PreprocessConfig.reorder_tile_all(),
               PreprocessConfig(tile_threshold_bytes=16.0)]))
    def test_random_operands_match_oracle(self, pair, capacity_kb,
                                          options):
        a, b = pair
        config = GammaConfig(radix=4, fibercache_bytes=capacity_kb * 1024)
        assert_matches_oracle(a, b, config, options)

    @PROPERTY
    @given(pair=operand_pair(),
           capacity=st.integers(0, 300).map(lambda n: n * ELEMENT_BYTES),
           seed=st.integers(0, 2**16))
    def test_estimate_matches_oracle(self, pair, capacity, seed):
        a, b = pair
        fragments = row_fragments(a)
        order = np.random.default_rng(seed).permutation(
            len(fragments)).tolist()
        stream = np.concatenate([fragments[i].coords for i in order]
                                or [np.empty(0, dtype=np.int64)])
        got = estimate_b_traffic(stream, b, capacity)
        assert got == estimate_b_traffic_loop(
            fragments, order, b, capacity)
        assert got >= compulsory_b_traffic(a, b)

    @pytest.mark.parametrize("name, runs_reorder", [
        ("poisson3Da", False), ("email-Enron", True)])
    def test_reorder_runs_only_above_the_floor(self, name, runs_reorder,
                                               monkeypatch):
        calls = []
        real = pipeline.affinity_reorder

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "affinity_reorder", spy)
        a, b = suite.operands(name)
        config = scaled_gamma_config(fibercache_bytes=49152)
        options = preprocess_options("full")
        natural = estimate_b_traffic(a.coords, b, config.fibercache_bytes)
        at_floor = natural == compulsory_b_traffic(a, b)
        preprocess_with_report(a, b, config, options)
        assert at_floor is not runs_reorder
        assert len(calls) == int(runs_reorder)
