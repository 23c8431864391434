#!/usr/bin/env python
"""Study of Gamma's preprocessing (paper Sec. 4) on a badly-numbered mesh.

Starts from a banded FEM-style matrix whose node numbering has been
randomly scrambled — a common real-world situation (the paper's sme3Db
case) — and shows how affinity-based row reordering recovers the lost
locality, how selective coordinate-space tiling treats dense rows, and
why tiling *everything* backfires.
"""

from repro import GammaConfig, GammaSimulator, PreprocessConfig
from repro.analysis.report import render_table
from repro.matrices import generators
from repro.matrices.stats import matrix_affinity, window_size
from repro.preprocessing import preprocess_with_report


def main() -> None:
    # A mesh matrix with scrambled node numbering.
    matrix = generators.mesh(900, 24.0, seed=3, renumber=True)
    config = GammaConfig(fibercache_bytes=64 * 1024)
    simulator = GammaSimulator(config, keep_output=False)

    window = window_size(matrix, config.fibercache_bytes)
    print(f"matrix: {matrix}")
    print(f"affinity window W (Eq. 2): {window} rows")
    print(f"affinity score F (Eq. 3), natural order: "
          f"{matrix_affinity(matrix, min(window, 100))}\n")

    variants = [
        ("no preprocessing (G)", None),
        ("+ reordering (R)", PreprocessConfig.reorder_only()),
        ("+ R + tile all rows (T)", PreprocessConfig.reorder_tile_all()),
        ("+ R + selective tiling (ST)", PreprocessConfig.full()),
    ]
    rows = []
    for label, options in variants:
        if options is None:
            program, report = None, None
        else:
            program, report = preprocess_with_report(
                matrix, matrix, config, options)
        result = simulator.run(matrix, matrix, program=program)
        rows.append([
            label,
            result.normalized_traffic,
            result.traffic_bytes["B"] / 1024,
            (result.traffic_bytes["partial_read"]
             + result.traffic_bytes["partial_write"]) / 1024,
            report.num_fragments if report else matrix.num_rows,
        ])
    print(render_table(
        ["variant", "traffic (x compulsory)", "B reads (KB)",
         "partial traffic (KB)", "work items"],
        rows,
        title="Preprocessing ablation on a scrambled mesh",
    ))
    print("\nTakeaways (matching the paper's Fig. 19):")
    print(" * reordering recovers the lost band locality;")
    print(" * tiling every row floods the cache with partial fibers;")
    print(" * selective tiling leaves these uniform rows alone.")


if __name__ == "__main__":
    main()
