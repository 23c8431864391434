"""Lockstep tests: the batched epoch simulator vs the reference engine.

The data-oriented core (:class:`repro.core.GammaSimulator`) promises
*bit-identical* behavior to the preserved event-ordered engine
(:class:`repro.core.ReferenceGammaSimulator`): same output matrix down
to the last float bit, same cycle count, same per-stream traffic
breakdown, same task/flop/utilization accounting. This suite replays
seeded random CSR pairs through both engines across every execution
mode — {arithmetic, boolean, tropical} x {multi-PE on/off} x {detailed
PE model on/off} — on the deliberately tiny ``SMALL_CONFIG`` system so
evictions, partial spills, and multi-level task trees (leaf stretches
interleaved with interior merges) all trigger, and asserts exact
equality of everything a :class:`~repro.core.result.SimulationResult`
reports. Two slow cases replay suite matrices at the benchmark's deep
and tiled points.

Trace and metrics artifacts are pinned too: the per-task event stream
must match field-for-field (after aligning the process-global task-id
counter), and metrics-collecting runs — which the batched engine
delegates to the reference engine precisely so per-dispatch samples
stay exact — must serialize identical blobs.

The golden behavioral fingerprint (``tests/test_golden_fingerprint.py``)
already runs through the batched core, so the pinned 16-point golden
file doubles as a lockstep regression anchor; ``test_golden_modes_run``
here re-checks a fingerprint mode pair explicitly for fast triage.
"""

import itertools

import numpy as np
import pytest

from repro.config import GammaConfig
from repro.core import GammaSimulator, ReferenceGammaSimulator, WorkProgram
from repro.core.trace import ExecutionTrace
from repro.matrices.builder import CooBuilder
from repro.semiring import BOOLEAN, MAX_TIMES, TROPICAL_MIN
from tests.test_differential import SMALL_CONFIG, random_pair

QUICK_SEEDS = list(range(10))
SEEDS = [
    pytest.param(seed, marks=pytest.mark.slow) if seed >= len(QUICK_SEEDS)
    else seed
    for seed in range(24)
]

SEMIRINGS = (
    ("arithmetic", None),
    ("boolean", BOOLEAN),
    ("tropical", TROPICAL_MIN),
)


def _reset_task_ids():
    """Start both engines' task ids from the same counter value.

    Task ids come from a process-global ``itertools.count``; two
    back-to-back runs draw disjoint ranges, so artifacts that embed ids
    (traces) need the counter aligned to compare exactly.
    """
    import repro.core.scheduler as scheduler_mod
    import repro.core.tasks as tasks_mod

    counter = itertools.count()
    tasks_mod._task_ids = counter
    scheduler_mod._task_ids = counter


def config_for(detailed):
    if not detailed:
        return SMALL_CONFIG
    import dataclasses
    return dataclasses.replace(SMALL_CONFIG, detailed_pe_model=True)


def assert_results_identical(reference, batched):
    assert batched.cycles == reference.cycles
    assert batched.traffic_bytes == reference.traffic_bytes
    assert batched.compulsory_bytes == reference.compulsory_bytes
    assert batched.flops == reference.flops
    assert batched.c_nnz == reference.c_nnz
    assert batched.num_tasks == reference.num_tasks
    assert batched.num_partial_fibers == reference.num_partial_fibers
    assert batched.pe_busy_cycles == reference.pe_busy_cycles
    assert batched.cache_utilization == reference.cache_utilization
    if reference.output is None:
        assert batched.output is None
    else:
        # CsrMatrix equality is exact: identical structure and
        # bit-identical float values (no tolerance).
        assert batched.output == reference.output


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,semiring", SEMIRINGS,
                         ids=[name for name, _ in SEMIRINGS])
@pytest.mark.parametrize("multi_pe", (True, False),
                         ids=("multipe", "singlepe"))
def test_lockstep(seed, name, semiring, multi_pe):
    a, b = random_pair(seed)
    reference = ReferenceGammaSimulator(
        SMALL_CONFIG, multi_pe_scheduling=multi_pe,
        semiring=semiring).run(a, b)
    batched = GammaSimulator(
        SMALL_CONFIG, multi_pe_scheduling=multi_pe,
        semiring=semiring).run(a, b)
    assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS)
@pytest.mark.parametrize("multi_pe", (True, False),
                         ids=("multipe", "singlepe"))
def test_lockstep_detailed_pe(seed, multi_pe):
    """The element-accurate PE pipeline model, both scheduler modes."""
    config = config_for(detailed=True)
    a, b = random_pair(seed)
    reference = ReferenceGammaSimulator(
        config, multi_pe_scheduling=multi_pe).run(a, b)
    batched = GammaSimulator(
        config, multi_pe_scheduling=multi_pe).run(a, b)
    assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_max_times_semiring(seed):
    """A non-arithmetic semiring with a nonstandard multiply."""
    a, b = random_pair(seed)
    reference = ReferenceGammaSimulator(
        SMALL_CONFIG, semiring=MAX_TIMES).run(a, b)
    batched = GammaSimulator(SMALL_CONFIG, semiring=MAX_TIMES).run(a, b)
    assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_keep_output_false(seed):
    """Structure-only sweeps skip output values but keep exact traffic."""
    a, b = random_pair(seed)
    reference = ReferenceGammaSimulator(
        SMALL_CONFIG, keep_output=False).run(a, b)
    batched = GammaSimulator(SMALL_CONFIG, keep_output=False).run(a, b)
    assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_trace(seed):
    """The per-task event stream matches field-for-field."""
    a, b = random_pair(seed)
    traces = []
    for cls in (ReferenceGammaSimulator, GammaSimulator):
        trace = ExecutionTrace()
        _reset_task_ids()
        cls(SMALL_CONFIG, trace=trace).run(a, b)
        traces.append([
            (e.task_id, e.row, e.level, e.is_final, e.pe, e.start,
             e.finish, e.busy_cycles, e.b_miss_lines,
             e.partial_miss_lines)
            for e in trace.events
        ])
    assert traces[0] == traces[1]
    assert traces[0], "trace must not be empty"


@pytest.mark.parametrize("seed", QUICK_SEEDS[:2])
def test_lockstep_metrics_blob(seed):
    """Metric runs serialize identical blobs (delegation guarantee)."""
    from repro.obs import MetricsRegistry

    a, b = random_pair(seed)
    blobs = []
    for cls in (ReferenceGammaSimulator, GammaSimulator):
        metrics = MetricsRegistry()
        _reset_task_ids()
        result = cls(SMALL_CONFIG, metrics=metrics).run(a, b)
        blobs.append(result.metrics)
    assert blobs[0] == blobs[1]


def test_golden_modes_run():
    """One fingerprint-space point per mode, both engines, exact match.

    The pinned golden file in ``test_golden_fingerprint.py`` runs the
    batched engine; this spot-check localizes a failure to the engine
    pair instead of the golden diff.
    """
    from tests.test_golden_fingerprint import MODES

    a, b = random_pair(7)
    for _, semiring, multi_pe in MODES:
        reference = ReferenceGammaSimulator(
            SMALL_CONFIG, multi_pe_scheduling=multi_pe,
            semiring=semiring).run(a, b)
        batched = GammaSimulator(
            SMALL_CONFIG, multi_pe_scheduling=multi_pe,
            semiring=semiring).run(a, b)
        assert_results_identical(reference, batched)


# ---------------------------------------------------------------------------
# Deep task trees: interior merges between leaf dispatches
# ---------------------------------------------------------------------------

#: Radix 2 with dense A rows forces task trees of level >= 2, so interior
#: tasks dominate the dispatch mix; the 1 KB FiberCache (16 lines) spills
#: partial fibers between a leaf's epoch and its parent's dispatch,
#: exercising the consume-miss / partial_read path.
DEEP_CONFIG = GammaConfig(
    num_pes=2, radix=2, fibercache_bytes=1024,
    fibercache_ways=2, fibercache_banks=2,
)


def deep_pair(seed):
    """A seeded (A, B) pair whose A rows all exceed ``radix**2`` nonzeros.

    Every A row gets 5-16 nonzeros, so at radix 2 each row's task tree
    has at least three levels (leaves, combines, root) and leaves of
    later rows interleave with interior merges that become ready
    mid-run — rather than the leaf-only stretches the shallow suite
    covers.
    """
    rng = np.random.default_rng(10_000 + seed)
    m = int(rng.integers(3, 10))
    k = int(rng.integers(18, 40))
    n = int(rng.integers(6, 25))

    a_builder = CooBuilder(m, k)
    for row in range(m):
        nnz = int(rng.integers(5, 17))
        cols = rng.choice(k, size=min(nnz, k), replace=False)
        for col in cols:
            a_builder.add(row, int(col), float(rng.uniform(0.1, 5.0)))

    b_builder = CooBuilder(k, n)
    for _ in range(int(np.ceil(0.3 * k * n))):
        b_builder.add(int(rng.integers(k)), int(rng.integers(n)),
                      float(rng.uniform(0.1, 5.0)))
    return a_builder.build(), b_builder.build()


def test_deep_pair_dispatch_split():
    """Batched runs dispatch everything on one path; metrics runs delegate.

    Guards test efficacy — traces must contain interior tasks two levels
    up, otherwise the deep lockstep assertions below would pass
    vacuously on leaf-only work — and pins the dispatch contract: a run
    without metrics counts every task as an epoch dispatch, and a
    metrics-collecting run reports the reference engine's split.
    """
    from repro.obs import MetricsRegistry

    a, b = deep_pair(0)
    trace = ExecutionTrace()
    _reset_task_ids()
    result = GammaSimulator(DEEP_CONFIG, trace=trace).run(a, b)
    levels = [e.level for e in trace.events]
    assert max(levels) >= 2, f"no deep trees (levels seen: {set(levels)})"
    assert result.num_tasks == len(levels)
    assert result.dispatch == {"scalar": 0, "epoch": result.num_tasks}
    metered = GammaSimulator(
        DEEP_CONFIG, metrics=MetricsRegistry()).run(a, b)
    reference = ReferenceGammaSimulator(
        DEEP_CONFIG, metrics=MetricsRegistry()).run(a, b)
    assert metered.dispatch == reference.dispatch


def tiled_case():
    """A preprocessed ``full``-variant program whose dense rows are tiled.

    Each tiled part expands to a non-final leaf or tree, and its row's
    combine tree registers only once the last part expands.
    """
    from repro.config import PreprocessConfig
    from repro.matrices import generators
    from repro.preprocessing import preprocess

    a = generators.mixed_density(
        100, 100, 8.0, dense_row_fraction=0.05, dense_row_nnz=80, seed=7)
    config = GammaConfig(radix=8, fibercache_bytes=16 * 1024)
    program = preprocess(a, a, config, PreprocessConfig.full())
    assert any(item.num_parts > 1 for item in program.items)
    return config, a, a, program


def split_case(seed):
    """A ``deep_pair`` program with every A row split into 1-nonzero parts.

    Each part is a single non-final leaf, and a row of more parts than
    the scheduler's lookahead registers its combine tree only after its
    first parts dispatch — so runs open on a non-final leaf with no task
    waiting at all.
    """
    a, b = deep_pair(seed)
    nonzeros = np.arange(a.nnz)
    return SMALL_CONFIG, a, b, WorkProgram.from_slices(a, nonzeros,
                                                       nonzeros + 1)


def functional_cases():
    """Deep trees, shallow mixes, split and tiled programs."""
    cases = [(DEEP_CONFIG, *deep_pair(seed), None) for seed in QUICK_SEEDS]
    cases += [(SMALL_CONFIG, *random_pair(seed), None)
              for seed in QUICK_SEEDS]
    cases += [split_case(seed) for seed in QUICK_SEEDS[:4]]
    return cases + [tiled_case()]


def task_input_elements(b, program, radix):
    """Input elements every task merges, from the oracle scheduler's trees.

    Expands ``program`` through the reference :class:`Scheduler` — task
    trees and tiled rows' combine trees alike — completing each task as
    it dispatches. A B input counts its row's nonzeros; a partial input
    counts its child's output length, the union of the child's input
    coordinates.
    """
    from repro.core.scheduler import Scheduler

    scheduler = Scheduler(program, radix)
    outputs = {}
    total = 0
    while True:
        scheduler.refill(8)
        task = scheduler.next_task()
        if task is None:
            assert scheduler.exhausted
            return total
        coords = set()
        for inp in task.inputs:
            if inp.kind == "B":
                lo, hi = b.offsets[inp.index], b.offsets[inp.index + 1]
                fiber = b.coords[lo:hi].tolist()
            else:
                fiber = outputs.pop(inp.index)
                scheduler.partial_consumed()
            total += len(fiber)
            coords.update(fiber)
        outputs[task.task_id] = coords
        scheduler.task_completed(task)


@pytest.mark.parametrize("lookahead", (None, 1, 24),
                         ids=("default", "one-item", "small"))
def test_functional_pass_merges_each_task_once(monkeypatch, lookahead):
    """The functional pass merges every task exactly once, ahead of dispatch.

    The elements its kernels merge must equal the oracle's sum of every
    task's input elements — B rows of leaves and direct inputs, and the
    partial inputs of interior merges and combine trees: a task merged
    twice, or skipped, breaks the equality. Small lookahead budgets cut
    the program into many chunks, so task trees of one chunk dispatch
    next to another chunk's and tiled rows' combine trees merge parts
    retained from earlier chunks; every run must still match the
    reference engine bit for bit.
    """
    from repro.core import simulator

    if lookahead is not None:
        monkeypatch.setattr(simulator, "_LOOKAHEAD_ELEMENTS", lookahead)
    merged = []
    build = simulator._BatchedRunState._functional_pass

    def spy(self, *args, **kwargs):
        records = build(self, *args, **kwargs)
        merged.append(records.elements)
        return records

    monkeypatch.setattr(simulator._BatchedRunState, "_functional_pass", spy)
    for config, a, b, program in functional_cases():
        if program is None:
            program = WorkProgram.from_matrix(a)
        merged.clear()
        batched = GammaSimulator(config).run(a, b, program=program)
        assert sum(merged) == task_input_elements(b, program, config.radix)
        reference = ReferenceGammaSimulator(config).run(
            a, b, program=program)
        assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS)
@pytest.mark.parametrize("name,semiring", SEMIRINGS,
                         ids=[name for name, _ in SEMIRINGS])
@pytest.mark.parametrize("multi_pe", (True, False),
                         ids=("multipe", "singlepe"))
def test_lockstep_deep_trees(seed, name, semiring, multi_pe):
    """Deep trees across semirings and scheduler modes."""
    a, b = deep_pair(seed)
    reference = ReferenceGammaSimulator(
        DEEP_CONFIG, multi_pe_scheduling=multi_pe,
        semiring=semiring).run(a, b)
    batched = GammaSimulator(
        DEEP_CONFIG, multi_pe_scheduling=multi_pe,
        semiring=semiring).run(a, b)
    assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_deep_partial_evictions(seed):
    """Spilled partial fibers re-read from DRAM identically."""
    a, b = deep_pair(seed)
    reference = ReferenceGammaSimulator(DEEP_CONFIG).run(a, b)
    batched = GammaSimulator(DEEP_CONFIG).run(a, b)
    assert_results_identical(reference, batched)
    # At 16 cache lines, deep trees must actually spill partials; a zero
    # here means the config stopped exercising the consume-miss path.
    assert reference.traffic_bytes["partial_read"] > 0


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_deep_single_pe(seed):
    """One PE serializes leaf runs and interior merges alike."""
    config = GammaConfig(
        num_pes=1, radix=2, fibercache_bytes=1024,
        fibercache_ways=2, fibercache_banks=2,
    )
    a, b = deep_pair(seed)
    for multi_pe in (True, False):
        reference = ReferenceGammaSimulator(
            config, multi_pe_scheduling=multi_pe).run(a, b)
        batched = GammaSimulator(
            config, multi_pe_scheduling=multi_pe).run(a, b)
        assert_results_identical(reference, batched)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:4])
def test_lockstep_deep_trace(seed):
    """Deep-tree trace events match the reference field-for-field."""
    a, b = deep_pair(seed)
    traces = []
    for cls in (ReferenceGammaSimulator, GammaSimulator):
        trace = ExecutionTrace()
        _reset_task_ids()
        cls(DEEP_CONFIG, trace=trace).run(a, b)
        traces.append([
            (e.task_id, e.row, e.level, e.is_final, e.pe, e.start,
             e.finish, e.busy_cycles, e.b_miss_lines,
             e.partial_miss_lines)
            for e in trace.events
        ])
    assert traces[0] == traces[1]
    assert any(event[2] >= 2 for event in traces[0]), \
        "trace must include level >= 2 interior tasks"


@pytest.mark.parametrize("seed", QUICK_SEEDS[:2])
def test_lockstep_deep_keep_output_false(seed):
    """Structure-only deep runs keep exact traffic and c_nnz."""
    a, b = deep_pair(seed)
    reference = ReferenceGammaSimulator(
        DEEP_CONFIG, keep_output=False).run(a, b)
    batched = GammaSimulator(DEEP_CONFIG, keep_output=False).run(a, b)
    assert_results_identical(reference, batched)


# ---------------------------------------------------------------------------
# Suite scale: the benchmark's deep and tiled points
# ---------------------------------------------------------------------------

def suite_cases():
    """roadNet-CA at 8 PEs / radix 2 (the benchmark's deep point), and
    poisson3Da's ``reorder_tile_all`` program at the scaled config
    (thousands of tiled parts, hundreds of combine roots)."""
    import dataclasses

    from repro.engine import scaled_gamma_config
    from repro.engine.defaults import preprocess_options
    from repro.matrices import suite
    from repro.preprocessing import preprocess

    base = scaled_gamma_config()
    a, b = suite.operands("roadNet-CA")
    yield dataclasses.replace(base, num_pes=8, radix=2), a, b, None
    a, b = suite.operands("poisson3Da")
    program = preprocess(a, b, base, preprocess_options("reorder_tile_all"))
    assert sum(item.num_parts > 1 for item in program.items) > 1000
    yield base, a, b, program


@pytest.mark.slow
def test_lockstep_suite_scale():
    """Suite matrices through both engines: bit-identical results,
    equal c_nnz, and every batched dispatch on the one timing path."""
    for config, a, b, program in suite_cases():
        reference = ReferenceGammaSimulator(config).run(
            a, b, program=program)
        batched = GammaSimulator(config).run(a, b, program=program)
        assert_results_identical(reference, batched)
        assert batched.c_nnz == reference.c_nnz
        assert batched.dispatch == {"scalar": 0,
                                    "epoch": batched.num_tasks}
