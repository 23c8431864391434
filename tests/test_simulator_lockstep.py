"""Lockstep tests: the batched epoch simulator vs the reference engine.

The data-oriented core (:class:`repro.core.GammaSimulator`) promises
*bit-identical* behavior to the preserved event-ordered engine
(:class:`repro.core.ReferenceGammaSimulator`): same output matrix down
to the last float bit, same cycle count, same per-stream traffic
breakdown, same task/flop/utilization accounting. This suite replays
seeded random CSR pairs through both engines across every execution
mode — {arithmetic, boolean, tropical} x {multi-PE on/off} x {detailed
PE model on/off} — on the deliberately tiny ``SMALL_CONFIG`` system so
evictions, partial spills, and multi-level task trees (leaf epochs
interleaved with scalar interior merges) all trigger, and asserts exact
equality of everything a :class:`~repro.core.result.SimulationResult`
reports.

Trace and metrics artifacts are pinned too: the per-task event stream
must match field-for-field (after aligning the process-global task-id
counter), and metrics-collecting runs — which the batched engine
executes on the scalar path precisely so per-dispatch samples stay
exact — must serialize identical blobs.

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
    """Metric runs serialize identical blobs (scalar-path guarantee)."""
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
# Deep task trees: leaf epochs between scalar interior merges
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
    has at least three levels (leaves, combines, root), fenced leaf runs
    interleave with interior merges, and parents arm mid-run — rather
    than the leaf-only stretches the shallow suite covers.
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
    """Leaves dispatch in epochs, interior merges and roots on the scalar path.

    Guards test efficacy — traces must contain interior tasks two levels
    up, otherwise the deep lockstep assertions below would pass
    vacuously on leaf-only work — and pins the batched core's dispatch
    contract: every level-0 task runs inside an epoch, every interior or
    root task through the reference's ``_execute_task``.
    """
    a, b = deep_pair(0)
    trace = ExecutionTrace()
    _reset_task_ids()
    result = GammaSimulator(DEEP_CONFIG, trace=trace).run(a, b)
    levels = [e.level for e in trace.events]
    assert max(levels) >= 2, f"no deep trees (levels seen: {set(levels)})"
    leaves = levels.count(0)
    assert result.dispatch == {"scalar": len(levels) - leaves,
                               "epoch": leaves}


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
    from repro.core.scheduler import WorkItem

    a, b = deep_pair(seed)
    items = []
    for row in range(a.num_rows):
        lo, hi = a.offsets[row], a.offsets[row + 1]
        for part, k in enumerate(range(lo, hi)):
            items.append(WorkItem(row, part, int(hi - lo),
                                  a.coords[k:k + 1], a.values[k:k + 1]))
    return SMALL_CONFIG, a, b, WorkProgram(items, a.num_rows, a.num_cols)


def functional_cases():
    """Deep trees, shallow mixes, split and tiled programs."""
    cases = [(DEEP_CONFIG, *deep_pair(seed), None) for seed in QUICK_SEEDS]
    cases += [(SMALL_CONFIG, *random_pair(seed), None)
              for seed in QUICK_SEEDS]
    cases += [split_case(seed) for seed in QUICK_SEEDS[:4]]
    return cases + [tiled_case()]


def leaf_input_elements(b, program, radix):
    """B elements every level-0 leaf consumes, from the oracle's trees."""
    from repro.core.tasks import build_task_tree

    b_nnz = np.diff(b.offsets)
    total = 0
    for item in program.items:
        for task in build_task_tree(item.row, item.coords, item.values,
                                    radix, emit_final=item.num_parts == 1):
            if task.level == 0:
                total += sum(int(b_nnz[inp.index]) for inp in task.inputs)
    return total


@pytest.mark.parametrize("lookahead", (None, 1, 24),
                         ids=("default", "one-item", "small"))
def test_functional_pass_merges_each_leaf_once(monkeypatch, lookahead):
    """The functional pass merges every leaf exactly once, ahead of dispatch.

    The elements its kernel merges must equal the sum of the leaves'
    input nnz: a leaf merged twice (re-merged after an undispatched
    suffix is pushed back, or again on the scalar path) or skipped
    (merged by the scalar path instead) breaks the equality. Small
    lookahead budgets cut the leaf stream into many chunks, so stretches
    and fenced runs also stop at chunk ends; every run must still match
    the reference engine bit for bit.
    """
    from repro.core import simulator

    if lookahead is not None:
        monkeypatch.setattr(simulator, "_LOOKAHEAD_ELEMENTS", lookahead)
    merged = []
    build = simulator._BatchedRunState._leaf_records

    def spy(self, *args, **kwargs):
        records = build(self, *args, **kwargs)
        merged.append(records.elements)
        return records

    monkeypatch.setattr(simulator._BatchedRunState, "_leaf_records", spy)
    for config, a, b, program in functional_cases():
        if program is None:
            program = WorkProgram.from_matrix(a)
        merged.clear()
        batched = GammaSimulator(config).run(a, b, program=program)
        assert sum(merged) == leaf_input_elements(b, program, config.radix)
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
