#!/usr/bin/env python
"""Compare Gamma against MKL, OuterSPACE, and SpArch on one matrix.

Reproduces the paper's core comparison methodology (Sec. 5-6) on a single
suite matrix: every design sees the same input and an iso-capacity memory
system; we report traffic normalized to compulsory and speedup over the
MKL software baseline.

Usage:
    python accelerator_comparison.py [matrix-name]

Run with no argument for the default (cop20k_A); any Table 3/4 name works
(e.g. web-Google, gupta2, sme3Db).
"""

import sys

from repro.analysis.report import render_table
from repro.experiments import ExperimentRunner, scaled_gamma_config
from repro.matrices import suite


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "cop20k_A"
    spec = suite.spec_by_name(name)
    matrix = suite.load(name)
    print(f"{name}: {matrix.num_rows} rows, {matrix.nnz} nonzeros "
          f"({matrix.nnz / matrix.num_rows:.1f} per row); "
          f"paper original: {spec.paper_rows} rows, "
          f"{spec.paper_npr:.1f} per row")
    print(f"system: 1/64-scale Gamma "
          f"({scaled_gamma_config().fibercache_bytes // 1024} KB "
          f"FiberCache)\n")

    runner = ExperimentRunner()
    compulsory = runner.compulsory_total(name)
    mkl = runner.baseline("mkl", name)

    rows = []
    for label, runtime, traffic in (
        ("MKL", mkl.runtime_seconds, mkl.total_traffic),
        ("IP", runner.baseline("ip", name).runtime_seconds,
         runner.baseline("ip", name).total_traffic),
        ("OuterSPACE", runner.baseline("outerspace", name).runtime_seconds,
         runner.baseline("outerspace", name).total_traffic),
        ("SpArch", runner.baseline("sparch", name).runtime_seconds,
         runner.baseline("sparch", name).total_traffic),
        ("Gamma", runner.gamma(name, "none").runtime_seconds,
         runner.gamma(name, "none").total_traffic),
        ("Gamma+pre", runner.gamma(name, "full").runtime_seconds,
         runner.gamma(name, "full").total_traffic),
    ):
        rows.append([
            label,
            traffic / compulsory,
            mkl.runtime_seconds / runtime,
        ])
    print(render_table(
        ["design", "traffic (x compulsory)", "speedup vs MKL"], rows,
        title=f"spMspM designs on {name}",
    ))


if __name__ == "__main__":
    main()
