"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD --scratch DIR [--trace]
                            [--setup-only] [--specs FILE]

``bench/run.py`` starts it with ``PYTHONPATH`` pointing at the
checkout's ``src/`` and ``REPRO_CACHE_DIR`` at the cache the pass should
see. Protocol lines on stdout start with ``@bench``: ``ready`` once
imports and inputs are in place (set-up ends there), then ``done``
followed by a JSON object with the pass's wall time, peak RSS, the
correctness verdict and, with ``--trace``, the layer spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import layers

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FIGURES = ROOT / "tests" / "golden" / "figures"

#: The Table 3 common set minus cit-Patents, whose two Gamma points
#: alone take as long as the other 108 points together.
SWEEP_EXCLUDED = ("cit-Patents",)

#: (matrix, PEs, merger radix): a small radix forces multi-level task
#: trees, so interior cohorts and the DRAM gap list dominate.
DEEP_TREE_POINTS = (("webbase-1M", 8, 4), ("roadNet-CA", 8, 2))

#: The batched core and the in-tree oracle it must match bit for bit.
DEEP_TREE_MODELS = ("gamma", "gamma-ref")

Check = Callable[[Any], Tuple[int, List[str], Dict[str, str]]]


def emit(event: str, payload: Any = None) -> None:
    line = f"@bench {event}"
    if payload is not None:
        line += " " + json.dumps(payload)
    print(line, flush=True)


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def structural_nnz(a, b) -> int:
    """nnz of A x B from the sparsity patterns alone (scipy oracle)."""
    import numpy as np
    import scipy.sparse as sp

    def pattern(m):
        return sp.csr_matrix(
            (np.ones(len(m.coords)), m.coords, m.offsets),
            shape=(m.num_rows, m.num_cols))

    return (pattern(a) @ pattern(b)).nnz


def prepare_figures(args) -> Tuple[Callable[[], Any], Check]:
    from repro.figures import generate_figures

    out = Path(args.scratch) / "figures"

    def check(_manifest):
        golden = {p.name for p in GOLDEN_FIGURES.iterdir()}
        produced = {p.name for p in out.iterdir()}
        failures = [
            f"{name}: differs from tests/golden/figures"
            for name in sorted(golden | produced)
            if name not in golden or name not in produced
            or (out / name).read_bytes()
            != (GOLDEN_FIGURES / name).read_bytes()
        ]
        return len(golden | produced), failures, {}

    return lambda: generate_figures(out, scope="quick"), check


def prepare_sweep(args) -> Tuple[Callable[[], Any], Check]:
    from repro.engine import plan_sweep, run_sweep
    from repro.matrices import suite

    matrices = [m for m in suite.common_set_names()
                if m not in SWEEP_EXCLUDED]
    points = plan_sweep(matrices)

    def check(result):
        failures = [f"{p.label()}: quarantined ({f.reason})"
                    for p, f in result.quarantined.items()]
        failures += [f"{p.label()}: missing from the result"
                     for p in points
                     if p not in result and p not in result.quarantined]
        expected = {m: structural_nnz(*suite.operands(m)) for m in matrices}
        for point, record in result.items():
            if (point.model == "gamma"
                    and record.c_nnz != expected[point.matrix]):
                failures.append(f"{point.label()}: c_nnz {record.c_nnz} "
                                f"!= {expected[point.matrix]}")
        fingerprints = {p.label(): r.fingerprint()
                        for p, r in result.items()}
        return len(points), failures, fingerprints

    return lambda: run_sweep(points, serial=True), check


def prepare_deep_tree(args) -> Tuple[Callable[[], Any], Check]:
    from repro import engine
    from repro.engine import SweepPoint, scaled_gamma_config
    from repro.matrices import suite

    base = scaled_gamma_config()
    points = [
        SweepPoint(model, matrix, "none",
                   dataclasses.replace(base, num_pes=pes, radix=radix))
        for matrix, pes, radix in DEEP_TREE_POINTS
        for model in DEEP_TREE_MODELS
    ]

    def check(records):
        failures = []
        by_point = dict(zip(points, records))
        for matrix, _, _ in DEEP_TREE_POINTS:
            batched, ref = (by_point[p] for p in points
                            if p.matrix == matrix)
            ref = dataclasses.replace(ref, model=batched.model)
            for field in ("cycles", "traffic_bytes", "c_nnz"):
                if getattr(batched, field) != getattr(ref, field):
                    failures.append(f"{matrix}: gamma and gamma-ref "
                                    f"differ in {field}")
            if batched.fingerprint() != ref.fingerprint():
                failures.append(f"{matrix}: gamma and gamma-ref "
                                "fingerprints differ")
            expected = structural_nnz(*suite.operands(matrix))
            if batched.c_nnz != expected:
                failures.append(f"{matrix}: c_nnz {batched.c_nnz} != "
                                f"{expected}")
        fingerprints = {p.label(): r.fingerprint()
                        for p, r in by_point.items()}
        return len(points), failures, fingerprints

    # Resolved at call time, so a traced pass sees the wrapped callable.
    return lambda: [engine.execute_point(p) for p in points], check


def serve_reference(specs_file: str) -> Dict[str, str]:
    """Serial ``execute_point`` fingerprint of every distinct job spec,
    keyed by the spec's store key."""
    from repro.engine import execute_point
    from repro.serve import JobSpec

    fingerprints = {}
    for payload in json.loads(Path(specs_file).read_text()):
        spec = JobSpec.from_payload(payload)
        fingerprints[spec.key()] = execute_point(
            spec.to_point()).fingerprint()
    return fingerprints


PREPARE = {
    "figures-quick-cold": prepare_figures,
    "figures-quick-warm": prepare_figures,
    "sweep-common-cold": prepare_sweep,
    "sim-deep-tree": prepare_deep_tree,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload",
                        choices=sorted(PREPARE) + ["serve-reference"])
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--specs")
    args = parser.parse_args(argv)

    if args.workload == "serve-reference":
        emit("done", {"fingerprints": serve_reference(args.specs)})
        return 0
    run, check = PREPARE[args.workload](args)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    emit("ready")
    if args.setup_only:
        emit("done", {})
        return 0
    start = time.perf_counter()
    output = run()
    wall = time.perf_counter() - start
    rss_mb = peak_rss_mb()  # before the check's own allocations
    attempted, failures, fingerprints = check(output)
    done: Dict[str, Any] = {
        "wall_s": wall, "rss_mb": rss_mb, "attempted": attempted,
        "failures": failures, "fingerprints": fingerprints,
    }
    if tracer is not None:
        for span in tracer.spans:
            span["start"] -= start
            span["end"] -= start
        done["summary"] = layers.summarize(tracer.spans, wall)
        done["summary"]["layer_names"] = layers.layer_names()
        done["spans"] = tracer.spans
    emit("done", done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
