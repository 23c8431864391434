"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import GammaConfig, LINE_BYTES
from repro.core import multiply
from repro.core.fibercache import FiberCache
from repro.core.merger import HighRadixMerger
from repro.core.tasks import build_task_tree
from repro.matrices.builder import CooBuilder
from repro.matrices.fiber import Fiber, linear_combine
from repro.matrices.io import matrix_market_string, read_matrix_market
from repro.preprocessing import affinity_reorder
from repro.preprocessing.reorder import is_permutation
from tests.oracles import BucketQueue, split_row

import io
import itertools


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def fiber_strategy(max_coord=200, max_len=30):
    return st.lists(
        st.tuples(st.integers(0, max_coord - 1),
                  st.floats(-10, 10, allow_nan=False, width=32)),
        max_size=max_len,
    ).map(lambda pairs: Fiber.from_pairs(pairs))


def coo_matrix_strategy(max_dim=25, max_entries=80):
    @st.composite
    def build(draw):
        rows = draw(st.integers(1, max_dim))
        cols = draw(st.integers(1, max_dim))
        n = draw(st.integers(0, max_entries))
        builder = CooBuilder(rows, cols)
        for _ in range(n):
            builder.add(
                draw(st.integers(0, rows - 1)),
                draw(st.integers(0, cols - 1)),
                draw(st.floats(0.1, 5.0, allow_nan=False)),
            )
        return builder.build()

    return build()


class TestFiberProperties:
    @given(fiber_strategy(), st.floats(-5, 5, allow_nan=False))
    def test_scale_preserves_structure(self, fiber, factor):
        scaled = fiber.scale(factor)
        assert len(scaled) == len(fiber)
        np.testing.assert_array_equal(scaled.coords, fiber.coords)

    @given(st.lists(fiber_strategy(), max_size=8))
    def test_linear_combine_coords_sorted_unique(self, fibers):
        out = linear_combine(fibers, [1.0] * len(fibers))
        assert np.all(np.diff(out.coords) > 0)

    @given(st.lists(fiber_strategy(max_coord=50), min_size=1, max_size=6),
           st.data())
    def test_linear_combine_matches_dense(self, fibers, data):
        scales = [
            data.draw(st.floats(-3, 3, allow_nan=False))
            for _ in fibers
        ]
        out = linear_combine(fibers, scales)
        dense = np.zeros(50)
        for fiber, scale in zip(fibers, scales):
            for coord, value in fiber:
                dense[coord] += scale * value
        result = np.zeros(50)
        for coord, value in out:
            result[coord] = value
        np.testing.assert_allclose(result, dense, atol=1e-6)

    @given(st.lists(fiber_strategy(), max_size=6))
    def test_combination_order_invariant(self, fibers):
        """Linear combination is permutation-invariant in its inputs."""
        forward = linear_combine(fibers, [1.0] * len(fibers))
        backward = linear_combine(fibers[::-1], [1.0] * len(fibers))
        np.testing.assert_array_equal(forward.coords, backward.coords)
        np.testing.assert_allclose(forward.values, backward.values,
                                   atol=1e-9)


class TestMergerProperties:
    @given(st.lists(
        st.lists(st.integers(0, 500), max_size=20).map(
            lambda xs: np.unique(xs)),
        max_size=8,
    ))
    def test_merge_is_sorted_and_complete(self, streams):
        merger = HighRadixMerger(radix=8)
        out = merger.merge(streams)
        coords = [c for c, _ in out]
        assert coords == sorted(coords)
        assert len(out) == sum(len(s) for s in streams)
        for way, stream in enumerate(streams):
            from_way = [c for c, w in out if w == way]
            assert from_way == list(stream)


class TestTaskTreeProperties:
    @given(st.integers(1, 300), st.integers(2, 8))
    @settings(max_examples=40)
    def test_tree_covers_inputs_once(self, n, radix):
        tasks = build_task_tree(
            0, list(range(n)), [1.0] * n, radix=radix)
        b_inputs = sorted(
            inp.index for t in tasks for inp in t.inputs
            if inp.kind == "B")
        assert b_inputs == list(range(n))
        # Exactly one final task, all inputs within radix.
        assert sum(t.is_final for t in tasks) == 1
        assert all(t.num_inputs <= radix for t in tasks)

    @given(st.integers(1, 300), st.integers(2, 8))
    @settings(max_examples=40)
    def test_every_partial_consumed_once(self, n, radix):
        tasks = build_task_tree(0, list(range(n)), [1.0] * n, radix=radix)
        produced = {t.task_id for t in tasks if not t.is_final}
        consumed = [
            inp.index for t in tasks for inp in t.inputs
            if inp.kind == "partial"
        ]
        assert sorted(consumed) == sorted(produced)


class TestCacheProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["fetch", "read", "write", "consume"]),
                  st.integers(0, 100)),
        max_size=300,
    ))
    @settings(max_examples=50)
    def test_occupancy_invariants(self, ops):
        config = GammaConfig(fibercache_bytes=4 * 4 * LINE_BYTES,
                             fibercache_ways=4)
        cache = FiberCache(config)
        for op, addr in ops:
            if op == "fetch":
                cache.fetch(addr, "B")
            elif op == "read":
                cache.read(addr, "B")
            elif op == "write":
                cache.write(addr, "partial")
            else:
                cache.consume(addr)
            assert 0 <= cache.resident_lines <= cache.total_lines
            assert cache.occupancy["B"] >= 0
            assert cache.occupancy["partial"] >= 0
            util = cache.utilization()
            assert abs(sum(util.values()) - 1.0) < 1e-9


class TestQueueProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "inc", "dec", "pop"]),
                  st.integers(0, 20)),
        max_size=200,
    ))
    @settings(max_examples=50)
    def test_bucket_queue_matches_dict_model(self, ops):
        """A dict of keys, plus when each item entered its current key,
        decides every pop: the maximal key, earliest arrival first."""
        queue = BucketQueue()
        keys, arrival = {}, {}
        clock = itertools.count()
        for op, item in ops:
            if op == "insert" and item not in keys:
                queue.insert(item, 0)
                keys[item] = 0
            elif op == "inc" and item in keys:
                queue.inc_key(item)
                keys[item] += 1
            elif op == "dec" and item in keys and keys[item] > 0:
                queue.dec_key(item)
                keys[item] -= 1
            elif op == "pop" and keys:
                expected = max(keys, key=lambda k: (keys[k], -arrival[k]))
                assert queue.pop() == expected
                del keys[expected], arrival[expected]
                continue
            else:
                continue
            arrival[item] = next(clock)
        assert len(queue) == len(keys)
        for item, key in keys.items():
            assert queue.key_of(item) == key


class TestSpgemmProperties:
    @given(coo_matrix_strategy(), coo_matrix_strategy())
    @settings(max_examples=25, deadline=None)
    def test_gamma_matches_scipy(self, a, b):
        if a.num_cols != b.num_rows:
            return
        result = multiply(a, b, GammaConfig(radix=4))
        expected = (a.to_scipy() @ b.to_scipy()).toarray()
        np.testing.assert_allclose(result.output.to_dense(), expected,
                                   atol=1e-7)

    @given(coo_matrix_strategy())
    @settings(max_examples=25, deadline=None)
    def test_traffic_at_least_output_bytes(self, a):
        if a.num_rows != a.num_cols:
            a = a.transpose() if a.num_rows > a.num_cols else a
        result = multiply(a, a.transpose())
        assert result.traffic_bytes["C"] >= result.output.nnz * 12


class TestPreprocessingProperties:
    @given(coo_matrix_strategy(max_dim=20, max_entries=60),
           st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_reorder_always_a_permutation(self, a, window):
        perm = affinity_reorder(a, window=window)
        assert is_permutation(perm, a.num_rows)

    @given(st.lists(st.integers(0, 999), min_size=1, max_size=60).map(
        lambda xs: np.unique(xs)),
        st.integers(2, 16))
    def test_split_row_partitions(self, coords, radix):
        values = np.ones(len(coords))
        pieces = split_row(coords, values, 0, 1000, radix)
        recombined = np.sort(np.concatenate([c for c, _ in pieces]))
        np.testing.assert_array_equal(recombined, coords)
        assert len(pieces) <= radix


class TestIoProperties:
    @given(coo_matrix_strategy())
    @settings(max_examples=30, deadline=None)
    def test_matrix_market_roundtrip(self, matrix):
        text = matrix_market_string(matrix)
        back = read_matrix_market(io.StringIO(text))
        assert back.shape == matrix.shape
        np.testing.assert_array_equal(back.offsets, matrix.offsets)
        np.testing.assert_array_equal(back.coords, matrix.coords)
        np.testing.assert_allclose(back.values, matrix.values, rtol=1e-12)
