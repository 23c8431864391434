"""The fast kernels stay faster than the kernels they replace.

Every fast kernel keeps its slow counterpart as the oracle: the lockstep
and differential suites hold them equal, value for value. These tests
hold the speed half of that bargain on the running interpreter, as
ratios of best-of-N timings, so they mean the same on any machine:

* the batched FiberCache replays a seeded task trace faster than
  ``ReferenceFiberCache``, the per-line dict-of-sets oracle;
* each size-routed kernel, at a quarter and at four times the threshold
  it was tuned to, is routed to whichever of its two paths is faster
  there. When the interpreter or NumPy moves a crossover, these tests
  name the constant to re-tune.
"""

import random
import time

import numpy as np
import pytest

from repro.config import GammaConfig
from repro.core import FiberCache, HighRadixMerger, ReferenceFiberCache
from repro.core import merger
from repro.matrices import fiber
from repro.matrices.fiber import Fiber, linear_combine
from repro.semiring import TROPICAL_MIN


def best_times(calls, repeat):
    """Best-of-``repeat`` wall seconds of each of ``calls``.

    The calls take turns within every repeat, so a slow phase of a
    shared machine hits all of them alike.
    """
    best = [float("inf")] * len(calls)
    for _ in range(repeat):
        for index, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# FiberCache range primitives against the scalar oracle
# ----------------------------------------------------------------------
#: The scaled design's cache shape: 48 KB, 16 ways, 48 banks.
CACHE_CONFIG = GammaConfig(num_pes=8, fibercache_bytes=48 * 1024,
                           fibercache_ways=16, fibercache_banks=48)

#: The batched cache must beat the oracle by at least this factor. It
#: measured 1.8-2.4x on a 2-vCPU VM; the oracle against itself reads
#: ~1.0.
MIN_CACHE_SPEEDUP = 1.3


def task_trace(num_tasks, seed=0xF1BE):
    """A seeded trace shaped like a PE task's cache touches.

    Per task: 2-4 B-row fetch+read ranges, sometimes a partial consume,
    then one partial write. The 640-line address space sits just under
    the 768-line capacity, so most touches hit, as B-row reuse does;
    misses would cost both caches the same eviction scan and hide the
    per-line call overhead the range kernels remove.
    """
    rng = random.Random(seed)
    trace = []
    for _ in range(num_tasks):
        for _ in range(rng.randint(2, 4)):
            lo = rng.randrange(640)
            trace.append(("fetch_read", lo, lo + rng.randint(1, 40)))
        if rng.random() < 0.3:
            lo = rng.randrange(640)
            trace.append(("consume", lo, lo + rng.randint(1, 8)))
        lo = rng.randrange(640)
        trace.append(("write", lo, lo + rng.randint(1, 12)))
    return trace


def replay(cache_class, trace):
    cache = cache_class(CACHE_CONFIG)
    for kind, lo, hi in trace:
        if kind == "fetch_read":
            cache.fetch_read_range(lo, hi, "B")
        elif kind == "consume":
            cache.consume_range(lo, hi)
        else:
            cache.write_range(lo, hi, "partial")


def test_fibercache_ranges_beat_reference():
    trace = task_trace(2000)
    fast, slow = best_times([lambda: replay(FiberCache, trace),
                             lambda: replay(ReferenceFiberCache, trace)],
                            repeat=3)
    assert slow / fast >= MIN_CACHE_SPEEDUP, (
        f"FiberCache range kernels: {fast * 1e3:.1f} ms against "
        f"ReferenceFiberCache's {slow * 1e3:.1f} ms on a 2,000-task "
        f"trace ({slow / fast:.2f}x, need {MIN_CACHE_SPEEDUP}x)")


# ----------------------------------------------------------------------
# Size-routed kernels at a quarter and at four times their threshold
# ----------------------------------------------------------------------
def make_fibers(total, count=4, seed=0xC0B1):
    """``count`` seeded fibers holding ``total`` elements between them,
    on overlapping coordinate ranges, so a combine adds duplicates."""
    rng = np.random.RandomState(seed)
    fibers = []
    for index in range(count):
        length = total // count + (index < total % count)
        coords = np.cumsum(rng.randint(1, 8, size=length))
        fibers.append(Fiber(coords.astype(np.int64),
                            rng.rand(length) + 0.5, check=False))
    return fibers


def combine_call(semiring):
    def build(total):
        fibers = make_fibers(total)
        scales = [1.0 + 0.25 * i for i in range(len(fibers))]
        return lambda: linear_combine(fibers, scales, semiring=semiring)
    return build


def merge_call(total):
    streams = [f.coords for f in make_fibers(total)]
    merge = HighRadixMerger(64).merge
    return lambda: merge(streams)


#: name -> (module, threshold constant, (small-input path, large-input
#: path), rule that sends ``total`` elements to the large-input path
#: under threshold ``limit``, call builder, sizes). The sizes are a
#: quarter and four times the threshold each kernel was tuned to, kept
#: fixed so a moved threshold is judged at the same two points.
ROUTED_KERNELS = {
    "linear_combine-arithmetic": (
        fiber, "_DICT_PATH_MAX", ("dict", "array"),
        lambda total, limit: total > limit, combine_call(None), (12, 192)),
    "linear_combine-tropical": (
        fiber, "_SEMIRING_VECTOR_MIN", ("scalar", "reduceat"),
        lambda total, limit: total >= limit, combine_call(TROPICAL_MIN),
        (12, 192)),
    "HighRadixMerger.merge": (
        merger, "_LEXSORT_MIN", ("heap", "lexsort"),
        lambda total, limit: total >= limit, merge_call, (6, 96)),
}

ROUTED_CASES = [(name, total) for name, spec in ROUTED_KERNELS.items()
                for total in spec[-1]]


@pytest.mark.parametrize("name,total", ROUTED_CASES,
                         ids=[f"{name}-{total}"
                              for name, total in ROUTED_CASES])
def test_routed_path_wins(monkeypatch, name, total):
    module, constant, (small, large), takes_large, build, _ = \
        ROUTED_KERNELS[name]
    limit = getattr(module, constant)
    routed = large if takes_large(total, limit) else small
    call = build(total)

    def batch(forced_limit):
        def run():
            monkeypatch.setattr(module, constant, forced_limit)
            for _ in range(200):
                call()
        return run

    # A huge threshold sends every input to the small-input path, -1
    # sends every input to the other.
    timings = dict(zip((small, large),
                       best_times([batch(10 ** 9), batch(-1)], repeat=7)))
    faster = min(timings, key=timings.get)
    assert routed == faster, (
        f"{name} at {total} elements: {constant} = {limit} routes to "
        f"the {routed} path, but the {faster} path is "
        f"{timings[routed] / timings[faster]:.2f}x faster")
