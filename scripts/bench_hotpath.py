#!/usr/bin/env python
"""Pinned hot-path benchmark: the perf trajectory of the simulator kernels.

Times the two rebuilt hot paths (batched FiberCache primitives, array
merge/combine kernels) plus end-to-end simulator runs on seeded suite
matrices, and writes a schema-versioned JSON so successive commits can
be compared number-for-number.

Every workload is pinned: matrices come from the seeded generator suite
(``repro.matrices.suite``), kernel traces from fixed-seed RNGs. The
script depends only on API that exists at the parent commit, so the
*same harness* can be pointed at an older tree to record a baseline::

    PYTHONPATH=old-tree/src python scripts/bench_hotpath.py \
        --label before --out /tmp/before.json
    PYTHONPATH=src python scripts/bench_hotpath.py \
        --label after --out /tmp/after.json
    python scripts/bench_hotpath.py --combine /tmp/before.json \
        /tmp/after.json --out BENCH_hotpath.json

On trees that predate the batched cache primitives, the cache-kernel
workload replays the identical address trace through the scalar
fetch/read/write/consume calls — exactly what ``_execute_task`` did
before the rewrite, which is the comparison the rewrite claims to win.

``--quick`` shrinks every workload for the CI smoke job (crash check
only; quick numbers are not comparable to full runs).
"""

import argparse
import json
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 3

REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # PYTHONPATH wins so a baseline tree can be benchmarked; fall back
    import repro  # noqa: F401  # to this repo's src for plain invocations.
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))


# ----------------------------------------------------------------------
# Kernel workloads
# ----------------------------------------------------------------------
def bench_cache_ranges(quick: bool) -> dict:
    """Replay a seeded task-shaped address trace through the FiberCache.

    The trace mirrors ``_execute_task``: a few B-row fetch+read ranges
    and partial consume ranges per task, then one partial write range.
    Batched trees process each range in one call; older trees replay it
    line by line through the scalar primitives (bit-identical state, per
    the lockstep suite — only the wall clock differs).
    """
    from repro.config import GammaConfig
    from repro.core import FiberCache

    config = GammaConfig(num_pes=8, fibercache_bytes=48 * 1024,
                         fibercache_ways=16, fibercache_banks=48)
    cache = FiberCache(config)
    rng = random.Random(0xF1BE)
    num_tasks = 400 if quick else 20000
    # Slightly under cache capacity (768 lines): real task traces mostly
    # hit (B-row reuse is the point of the FiberCache), and on misses
    # both eras pay the same eviction scan, which would mask the
    # per-line-call overhead this workload exists to measure.
    addr_space = 640
    trace = []
    for _ in range(num_tasks):
        for _ in range(rng.randint(2, 4)):
            lo = rng.randrange(addr_space)
            trace.append(("fr", lo, lo + rng.randint(1, 40)))
        if rng.random() < 0.3:
            lo = rng.randrange(addr_space)
            trace.append(("c", lo, lo + rng.randint(1, 8)))
        lo = rng.randrange(addr_space)
        trace.append(("w", lo, lo + rng.randint(1, 12)))

    batched = hasattr(cache, "fetch_read_range")
    lines = sum(hi - lo for _, lo, hi in trace)
    start = time.perf_counter()
    if batched:
        for kind, lo, hi in trace:
            if kind == "fr":
                cache.fetch_read_range(lo, hi, "B")
            elif kind == "c":
                cache.consume_range(lo, hi)
            else:
                cache.write_range(lo, hi, "partial")
    else:
        for kind, lo, hi in trace:
            if kind == "fr":
                for addr in range(lo, hi):
                    cache.fetch(addr, "B")
                for addr in range(lo, hi):
                    cache.read(addr, "B")
            elif kind == "c":
                for addr in range(lo, hi):
                    cache.consume(addr)
            else:
                for addr in range(lo, hi):
                    cache.write(addr, "partial")
    wall = time.perf_counter() - start
    return {
        "name": "kernel/cache_task_ranges",
        "kind": "kernel",
        "wall_s": wall,
        "items": lines,
        "items_per_s": lines / wall if wall else None,
        "detail": {"tasks": num_tasks, "batched_api": batched,
                   "misses": cache.stats.fetch_misses
                   + cache.stats.read_misses},
    }


def bench_merger(quick: bool) -> dict:
    """Radix-64 merges over seeded strictly-increasing streams."""
    import numpy as np

    from repro.core import HighRadixMerger

    rng = np.random.RandomState(0x3E6E)
    merger = HighRadixMerger(64)
    ways = 64
    per_stream = 100 if quick else 1500
    reps = 2 if quick else 20
    streams = [
        np.cumsum(rng.randint(1, 6, size=per_stream)).astype(np.int64)
        for _ in range(ways)
    ]
    total = ways * per_stream * reps
    start = time.perf_counter()
    merged = None
    for _ in range(reps):
        merged = merger.merge(streams)
    wall = time.perf_counter() - start
    return {
        "name": "kernel/merge_radix64",
        "kind": "kernel",
        "wall_s": wall,
        "items": total,
        "items_per_s": total / wall if wall else None,
        "detail": {"ways": ways, "per_stream": per_stream, "reps": reps,
                   "merged_len": len(merged)},
    }


def bench_combine(quick: bool) -> dict:
    """linear_combine over seeded fiber batches, all three semirings."""
    import numpy as np

    from repro.matrices.fiber import Fiber, linear_combine
    from repro.semiring import BOOLEAN, TROPICAL_MIN

    rng = np.random.RandomState(0xC0B1)

    def make_fibers(count, length):
        fibers = []
        for _ in range(count):
            coords = np.cumsum(rng.randint(1, 8, size=length))
            values = rng.rand(length) + 0.5
            fibers.append(Fiber(coords.astype(np.int64), values,
                                check=False))
        return fibers

    reps = 2 if quick else 60
    batches = [
        ("arith_large", make_fibers(64, 200), None),
        ("arith_small", make_fibers(8, 12), None),
        ("tropical_large", make_fibers(64, 200), TROPICAL_MIN),
        ("boolean_large", make_fibers(64, 200), BOOLEAN),
    ]
    total = 0
    start = time.perf_counter()
    for _, fibers, semiring in batches:
        scales = [1.0 + 0.25 * i for i in range(len(fibers))]
        for _ in range(reps):
            linear_combine(fibers, scales, semiring=semiring)
            total += sum(len(f) for f in fibers)
    wall = time.perf_counter() - start
    return {
        "name": "kernel/linear_combine",
        "kind": "kernel",
        "wall_s": wall,
        "items": total,
        "items_per_s": total / wall if wall else None,
        "detail": {"batches": [b[0] for b in batches], "reps": reps},
    }


# ----------------------------------------------------------------------
# End-to-end model points
# ----------------------------------------------------------------------
#: (matrix, semiring name or None, detailed PE model). Matrices come
#: from the seeded generator suite, so every run sees identical operands.
MODEL_POINTS = [
    ("wiki-Vote", None, False),
    ("p2p-Gnutella31", None, False),
    ("m133-b3", None, False),
    ("webbase-1M", None, False),
    ("wiki-Vote", "boolean", False),
    ("roadNet-CA", "tropical_min", False),
    ("wiki-Vote", None, True),
    ("web-Google", None, True),
]

QUICK_MODEL_POINTS = [
    ("wiki-Vote", None, False),
    ("wiki-Vote", "tropical_min", False),
    ("wiki-Vote", None, True),
]


#: Subset re-run through the preserved event-ordered engine
#: (``model-ref/*`` rows) so a single report shows the in-tree engine
#: gap next to the cross-commit trajectory. Trees that predate
#: ``gamma-ref`` simply skip these rows (combine matches by name).
REF_MODEL_POINTS = [
    ("wiki-Vote", None, False),
    ("m133-b3", None, False),
    ("webbase-1M", None, False),
]

#: Deep-tree points: (matrix, num_pes, radix). A small PE radix forces
#: multi-level task trees on large suite matrices, so fenced leaf runs
#: interleave with interior merges and root emits (the batched core's
#: scalar dispatches). Both engines run every point (``model-deep/*``
#: and ``model-ref-deep/*`` rows); the batched rows carry the engine's
#: dispatch split in their detail blob.
DEEP_MODEL_POINTS = [
    ("webbase-1M", 8, 4),
    ("roadNet-CA", 8, 2),
]

QUICK_DEEP_MODEL_POINTS = [
    ("wiki-Vote", 4, 2),
]


def bench_models(quick: bool) -> list:
    import dataclasses

    from repro.core import GammaSimulator
    from repro.engine.defaults import scaled_gamma_config
    from repro.matrices import suite
    from repro.semiring import BOOLEAN, TROPICAL_MIN

    try:
        from repro.core import ReferenceGammaSimulator
    except ImportError:  # baseline tree: single-engine simulator only
        ReferenceGammaSimulator = None

    semirings = {"boolean": BOOLEAN, "tropical_min": TROPICAL_MIN}
    config = scaled_gamma_config()
    points = [("model/gamma", GammaSimulator, p)
              for p in (QUICK_MODEL_POINTS if quick else MODEL_POINTS)]
    if ReferenceGammaSimulator is not None and not quick:
        points += [("model-ref/gamma", ReferenceGammaSimulator, p)
                   for p in REF_MODEL_POINTS]
    results = []
    for prefix, simulator_class, (matrix, semiring_name, detailed) in points:
        a, b = suite.operands(matrix)
        point_config = (dataclasses.replace(config, detailed_pe_model=True)
                        if detailed else config)
        semiring = semirings.get(semiring_name)
        start = time.perf_counter()
        result = simulator_class(point_config, semiring=semiring,
                                 keep_output=False).run(a, b)
        wall = time.perf_counter() - start
        tag = semiring_name or "arith"
        if detailed:
            tag += "+detailed"
        detail = {"matrix": matrix, "semiring": semiring_name,
                  "detailed_pe": detailed,
                  "cycles": result.cycles,
                  "tasks": result.num_tasks}
        dispatch = getattr(result, "dispatch", None)
        if dispatch is not None:
            detail["dispatch"] = dict(dispatch)
            detail["scalar_dispatch_fraction"] = getattr(
                result, "scalar_dispatch_fraction", None)
        results.append({
            "name": f"{prefix}/{matrix}/{tag}",
            "kind": "model",
            "wall_s": wall,
            "items": result.num_tasks,
            "items_per_s": result.num_tasks / wall if wall else None,
            "detail": detail,
        })
    return results


def bench_deep_models(quick: bool) -> list:
    """Deep-task-tree points: small radix, interior-dominated dispatch."""
    import dataclasses

    from repro.core import GammaSimulator
    from repro.engine.defaults import scaled_gamma_config
    from repro.matrices import suite

    try:
        from repro.core import ReferenceGammaSimulator
    except ImportError:  # baseline tree: single-engine simulator only
        ReferenceGammaSimulator = None

    base = scaled_gamma_config()
    deep_points = QUICK_DEEP_MODEL_POINTS if quick else DEEP_MODEL_POINTS
    points = [("model-deep/gamma", GammaSimulator, p) for p in deep_points]
    if ReferenceGammaSimulator is not None:
        points += [("model-ref-deep/gamma", ReferenceGammaSimulator, p)
                   for p in deep_points]
    results = []
    for prefix, simulator_class, (matrix, num_pes, radix) in points:
        a, b = suite.operands(matrix)
        config = dataclasses.replace(base, num_pes=num_pes, radix=radix)
        start = time.perf_counter()
        result = simulator_class(config, keep_output=False).run(a, b)
        wall = time.perf_counter() - start
        detail = {"matrix": matrix, "num_pes": num_pes, "radix": radix,
                  "cycles": result.cycles, "tasks": result.num_tasks}
        dispatch = getattr(result, "dispatch", None)
        if dispatch is not None:
            detail["dispatch"] = dict(dispatch)
            detail["scalar_dispatch_fraction"] = getattr(
                result, "scalar_dispatch_fraction", None)
        results.append({
            "name": f"{prefix}/{matrix}/pes{num_pes}-radix{radix}",
            "kind": "model",
            "wall_s": wall,
            "items": result.num_tasks,
            "items_per_s": result.num_tasks / wall if wall else None,
            "detail": detail,
        })
    return results


#: SpMV points: (matrix, operand shape). The ``gamma-spmv`` model runs
#: the same epoch core on a 1-column operand, so these rows track the
#: degenerate-workload path (tiny fibers, scheduler-dominated).
SPMV_MODEL_POINTS = [
    ("wiki-Vote", "sparse-vector"),
    ("p2p-Gnutella31", "dense-vector"),
]

QUICK_SPMV_MODEL_POINTS = [
    ("wiki-Vote", "sparse-vector"),
]


def bench_spmv_models(quick: bool) -> list:
    """SpMV rows (``model-spmv/*``); older trees without the model skip
    them (combine matches by name)."""
    from repro.engine.defaults import scaled_gamma_config
    from repro.matrices import suite

    try:
        from repro.baselines.spmv import run_gamma_spmv
    except ImportError:  # baseline tree: SpGEMM-only
        return []

    config = scaled_gamma_config()
    results = []
    points = QUICK_SPMV_MODEL_POINTS if quick else SPMV_MODEL_POINTS
    for matrix, operand in points:
        a, b = suite.operands(matrix)
        start = time.perf_counter()
        result = run_gamma_spmv(a, b, config, operand=operand)
        wall = time.perf_counter() - start
        results.append({
            "name": f"model-spmv/gamma-spmv/{matrix}/{operand}",
            "kind": "model",
            "wall_s": wall,
            "items": result.num_tasks,
            "items_per_s": result.num_tasks / wall if wall else None,
            "detail": {"matrix": matrix, "operand": operand,
                       "cycles": result.cycles,
                       "tasks": result.num_tasks},
        })
    return results


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_bench(label: str, quick: bool) -> dict:
    points = []
    points.append(bench_cache_ranges(quick))
    points.append(bench_merger(quick))
    points.append(bench_combine(quick))
    points.extend(bench_models(quick))
    points.extend(bench_deep_models(quick))
    points.extend(bench_spmv_models(quick))
    total = sum(p["wall_s"] for p in points)
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "commit": git_commit(),
        "python": platform.python_version(),
        "points": points,
        "aggregate": {"wall_s_total": total},
    }


def combine(before_path: str, after_path: str,
            previous_path: str = None) -> dict:
    """Merge two reports into a trajectory; archive any prior trajectory.

    Matched points (by name) are compared one-for-one, with per-kind
    subtotals — ``by_prefix['model']`` is the headline number for an
    engine rewrite, since the kernel rows amplify isolated primitives.
    When ``previous_path`` holds an older trajectory (the normal case:
    ``--out BENCH_hotpath.json`` over the committed file), its summary
    is appended to ``history`` so the file accumulates one entry per
    optimization PR instead of overwriting the record.
    """
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    after_by_name = {p["name"]: p for p in after["points"]}
    per_point = []
    by_prefix = {}
    for point in before["points"]:
        new = after_by_name.get(point["name"])
        if new is None:
            continue
        per_point.append({
            "name": point["name"],
            "kind": point["kind"],
            "before_wall_s": point["wall_s"],
            "after_wall_s": new["wall_s"],
            "speedup": (point["wall_s"] / new["wall_s"]
                        if new["wall_s"] else None),
        })
        prefix = point["name"].split("/", 1)[0]
        bucket = by_prefix.setdefault(
            prefix, {"before_wall_s": 0.0, "after_wall_s": 0.0})
        bucket["before_wall_s"] += point["wall_s"]
        bucket["after_wall_s"] += new["wall_s"]
    for bucket in by_prefix.values():
        bucket["speedup"] = (
            bucket["before_wall_s"] / bucket["after_wall_s"]
            if bucket["after_wall_s"] else None)
    before_total = before["aggregate"]["wall_s_total"]
    after_total = after["aggregate"]["wall_s_total"]
    history = []
    if previous_path:
        try:
            with open(previous_path) as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = None
        if previous and previous.get("kind") == "hotpath-trajectory":
            history = list(previous.get("history", ()))
            old = previous.get("comparison", {})
            history.append({
                "before_label": previous.get("before", {}).get("label"),
                "after_label": previous.get("after", {}).get("label"),
                "before_commit": previous.get("before", {}).get("commit"),
                "after_commit": previous.get("after", {}).get("commit"),
                "before_wall_s_total": old.get("before_wall_s_total"),
                "after_wall_s_total": old.get("after_wall_s_total"),
                "aggregate_speedup": old.get("aggregate_speedup"),
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "hotpath-trajectory",
        "before": before,
        "after": after,
        "history": history,
        "comparison": {
            "per_point": per_point,
            "by_prefix": by_prefix,
            "before_wall_s_total": before_total,
            "after_wall_s_total": after_total,
            "aggregate_speedup": (before_total / after_total
                                  if after_total else None),
        },
    }


def guard_deep(pinned_path: str, threshold: float = 0.9) -> int:
    """CI regression guard over the deep-tree model rows.

    Re-runs every ``DEEP_MODEL_POINTS`` entry through both engines on
    the current tree and compares each point's engine-speed ratio
    (reference wall / batched wall) against the same ratio in the
    pinned trajectory's ``after`` report. The ratio form makes the
    check machine-independent — CI runners and the pinning machine
    never share absolute wall clocks — while still failing when the
    batched engine's deep-tree rows regress more than ``1 - threshold``
    relative to the reference engine. Returns a process exit code.
    """
    with open(pinned_path) as handle:
        pinned = json.load(handle)
    if pinned.get("kind") == "hotpath-trajectory":
        pinned_points = pinned["after"]["points"]
    else:
        pinned_points = pinned["points"]
    pinned_by_name = {p["name"]: p for p in pinned_points}

    fresh = {p["name"]: p for p in bench_deep_models(quick=False)}
    failures = []
    checked = 0
    for matrix, num_pes, radix in DEEP_MODEL_POINTS:
        suffix = f"gamma/{matrix}/pes{num_pes}-radix{radix}"
        names = (f"model-deep/{suffix}", f"model-ref-deep/{suffix}")
        pinned_pair = [pinned_by_name.get(name) for name in names]
        fresh_pair = [fresh.get(name) for name in names]
        if None in pinned_pair:
            print(f"guard-deep: {suffix}: not in pinned entry, skipping",
                  file=sys.stderr)
            continue
        if None in fresh_pair:
            failures.append(f"{suffix}: missing from fresh run")
            continue
        pinned_ratio = (pinned_pair[1]["wall_s"]
                        / pinned_pair[0]["wall_s"])
        fresh_ratio = fresh_pair[1]["wall_s"] / fresh_pair[0]["wall_s"]
        checked += 1
        verdict = "ok"
        if fresh_ratio < threshold * pinned_ratio:
            verdict = "REGRESSION"
            failures.append(
                f"{suffix}: ref/batched ratio {fresh_ratio:.2f} < "
                f"{threshold:.2f} x pinned {pinned_ratio:.2f}")
        print(f"guard-deep: {suffix}: pinned ratio {pinned_ratio:.2f}, "
              f"fresh {fresh_ratio:.2f} ({verdict})", file=sys.stderr)
    if failures:
        print("guard-deep: FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    if not checked:
        print("guard-deep: FAIL: no deep-tree rows checked (pinned entry "
              "predates the deep points?)", file=sys.stderr)
        return 1
    print(f"guard-deep: OK ({checked} points)", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current",
                        help="label stored in the report (e.g. a commit)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads for the CI smoke job")
    parser.add_argument("--combine", nargs=2,
                        metavar=("BEFORE", "AFTER"),
                        help="merge two reports into a trajectory file")
    parser.add_argument("--guard-deep", metavar="PINNED",
                        help="regression-check the deep-tree rows against "
                             "a pinned trajectory; exits 1 on regression")
    args = parser.parse_args()

    if args.guard_deep:
        return guard_deep(args.guard_deep)

    if args.combine:
        report = combine(*args.combine, previous_path=args.out)
        comparison = report["comparison"]
        summary = (
            f"aggregate: {comparison['before_wall_s_total']:.3f}s -> "
            f"{comparison['after_wall_s_total']:.3f}s "
            f"({comparison['aggregate_speedup']:.2f}x)"
        )
        for prefix, bucket in sorted(comparison["by_prefix"].items()):
            summary += (
                f"; {prefix}: {bucket['before_wall_s']:.3f}s -> "
                f"{bucket['after_wall_s']:.3f}s "
                f"({bucket['speedup']:.2f}x)")
    else:
        report = run_bench(args.label, args.quick)
        for point in report["points"]:
            print(f"{point['name']:44s} {point['wall_s']:8.3f}s",
                  file=sys.stderr)
        summary = (
            f"total {report['aggregate']['wall_s_total']:.3f}s "
            f"({len(report['points'])} points, label={args.label})"
        )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: {summary}", file=sys.stderr)
    else:
        print(text)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
