"""Lockstep differential tests: batched FiberCache vs the scalar oracle.

The batched range primitives (the tentpole of the array-kernel rewrite)
must be *bit-identical* to replaying the scalar primitives line by line.
:class:`~repro.core.fibercache_ref.ReferenceFiberCache` is that scalar
reference — the pre-rewrite dict-of-sets implementation, with its range
methods defined as per-line replay. Hypothesis drives both caches through
the same random interleavings of range operations and asserts, after
every single call:

* identical return values (miss lines, dirty-eviction deltas),
* identical aggregate stats and per-category occupancy / miss lines,
* identical per-bank access / hit / miss tables,
* identical last-eviction victims (address, category, dirtiness),
* identical residency and per-line replacement state for every address.

Run on a tiny multi-way cache so sets overflow constantly and the
SRRIP-aged eviction path dominates; a second config makes ranges span
more lines than there are sets, forcing ``fetch_read_range`` off its
fused single pass onto the two-pass fallback.
"""

from hypothesis import given, settings, strategies as st

from repro.config import GammaConfig
from repro.core.fibercache import FiberCache
from repro.core.fibercache_ref import ReferenceFiberCache

#: 4 sets x 4 ways: every long interleaving overflows sets repeatedly.
TINY = GammaConfig(
    num_pes=2, fibercache_bytes=1024, fibercache_ways=4,
    fibercache_banks=4,
)

#: 2 sets x 2 ways: ranges of >2 lines wrap sets, so the fused
#: fetch+read pass must fall back to explicit fetch-then-read passes.
WRAP = GammaConfig(
    num_pes=2, fibercache_bytes=256, fibercache_ways=2,
    fibercache_banks=2,
)

CATEGORIES = st.sampled_from(["B", "partial"])

RANGE_OPS = st.one_of(
    st.tuples(st.just("fetch_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("read_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("fetch_read_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("write_range"), st.integers(0, 40),
              st.integers(1, 20), st.just("partial")),
    st.tuples(st.just("consume_range"), st.integers(0, 40),
              st.integers(1, 20), st.just("partial")),
    st.tuples(st.just("invalidate"), st.integers(0, 60),
              st.just(1), st.just("partial")),
)

MAX_ADDR = 64


def _apply(cache, op):
    kind, lo, span, category = op
    if kind == "invalidate":
        return cache.invalidate(lo)
    hi = lo + span
    if kind == "consume_range":
        return cache.consume_range(lo, hi)
    return getattr(cache, kind)(lo, hi, category)


def _stats_dict(cache):
    stats = cache.stats
    return {
        "fetch_hits": stats.fetch_hits,
        "fetch_misses": stats.fetch_misses,
        "read_hits": stats.read_hits,
        "read_misses": stats.read_misses,
        "writes": stats.writes,
        "consume_hits": stats.consume_hits,
        "consume_misses": stats.consume_misses,
        "dirty_evictions": stats.dirty_evictions,
        "clean_evictions": stats.clean_evictions,
    }


def _line_states(cache):
    states = {}
    for addr in range(MAX_ADDR):
        view = cache.line_state(addr)
        if view is not None:
            states[addr] = (view.category, view.priority, view.rrpv,
                            view.dirty)
    return states


def assert_lockstep(batched, reference, context):
    assert _stats_dict(batched) == _stats_dict(reference), context
    assert batched.occupancy == reference.occupancy, context
    assert batched.miss_lines == reference.miss_lines, context
    assert list(batched.bank_accesses) == list(reference.bank_accesses), \
        context
    assert list(batched.bank_hits) == list(reference.bank_hits), context
    assert list(batched.bank_misses) == list(reference.bank_misses), context
    assert (batched.last_victim_addr
            == reference.last_victim_addr), context
    assert (batched.last_victim_category
            == reference.last_victim_category), context
    assert (batched.last_victim_was_dirty
            == reference.last_victim_was_dirty), context
    assert _line_states(batched) == _line_states(reference), context


class TestLockstep:
    @given(st.lists(RANGE_OPS, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_range_interleavings_tiny(self, operations):
        batched = FiberCache(TINY)
        reference = ReferenceFiberCache(TINY)
        for step, op in enumerate(operations):
            assert _apply(batched, op) == _apply(reference, op), (step, op)
            assert_lockstep(batched, reference, (step, op))

    @given(st.lists(RANGE_OPS, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_range_interleavings_force_fused_fallback(self, operations):
        batched = FiberCache(WRAP)
        reference = ReferenceFiberCache(WRAP)
        for step, op in enumerate(operations):
            assert _apply(batched, op) == _apply(reference, op), (step, op)
            assert_lockstep(batched, reference, (step, op))

    @given(st.lists(
        st.tuples(st.just("fetch_read_range"), st.integers(0, 40),
                  st.integers(1, 4), st.just("B")),
        min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fused_fetch_read_matches_two_passes(self, operations):
        """The fused single pass == explicit fetch pass then read pass."""
        fused = FiberCache(TINY)
        two_pass = FiberCache(TINY)
        for _, lo, span, category in operations:
            hi = lo + span
            got = fused.fetch_read_range(lo, hi, category)
            misses, dirty = two_pass.fetch_range(lo, hi, category)
            read_misses, read_dirty = two_pass.read_range(lo, hi, category)
            assert read_misses == 0  # the fetch pass made every read hit
            assert got == (misses, dirty + read_dirty)
        assert_lockstep(fused, two_pass, "fused vs two-pass")

    @given(st.lists(st.lists(st.tuples(st.integers(0, 40),
                                       st.integers(1, 6)),
                             max_size=6), min_size=1, max_size=30),
           st.sampled_from([TINY, WRAP]))
    @settings(max_examples=60, deadline=None)
    def test_multi_range_touch_matches_per_range(self, groups, config):
        """``fetch_read_ranges`` == one ``fetch_read_range`` per range,
        summed (on ``WRAP``, ranges past 4 lines overflow the cache on
        the two-pass fallback, so its read pass misses too)."""
        grouped = FiberCache(config)
        per_range = FiberCache(config)
        for group in groups:
            lows = [lo for lo, _ in group]
            highs = [lo + span for lo, span in group]
            got = grouped.fetch_read_ranges(lows, highs, "B")
            misses = dirty = 0
            for lo, hi in zip(lows, highs):
                m, d = per_range.fetch_read_range(lo, hi, "B")
                misses += m
                dirty += d
            assert got == (misses, dirty)
        assert_lockstep(grouped, per_range, "grouped vs per-range")

    @given(st.lists(RANGE_OPS, max_size=40), st.lists(RANGE_OPS, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_is_order_sensitive_but_deterministic(self, ops_a,
                                                           ops_b):
        """Same ops -> same state, for both implementations independently."""
        for ops in (ops_a, ops_b):
            first = FiberCache(TINY)
            second = FiberCache(TINY)
            for op in ops:
                assert _apply(first, op) == _apply(second, op)
            assert_lockstep(first, second, "replay determinism")
