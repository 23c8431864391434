"""GUST-style SpMV execution model: Gustavson degenerated to a vector.

GUST (PAPERS.md) observes that Gustavson's dataflow serves SpMV
unchanged: ``y = A x`` is row-wise gathering where every referenced "B
row" is a single scalar ``x_k``. The ``gamma-spmv`` registry model
reuses the batched Gamma core verbatim — same PE timing law, same
FiberCache touch accounting — on a ``k x 1`` operand, so SpMV results
drop into sweeps, reports, and the job service exactly like SpGEMM
records.

Two operand shapes, the sweep/serve ``operand`` axis:

* ``sparse-vector`` — x is the sparse column 0 of the point's B operand
  (spMspV; absent entries are the semiring zero and cost nothing);
* ``dense-vector`` — every coordinate of x is materialized (classic
  SpMV; absent entries become explicit semiring zeros, so they are
  fetched, merged, and accounted like any element).

``operand="matrix"`` (the axis default shared with the SpGEMM models)
resolves to ``sparse-vector``, the model's natural shape. When B is
already a single column the sparse operand is B itself — which is what
makes ``gamma-spmv`` on a 1-column pair bit-identical to ``gamma`` (the
lockstep check in the parity suite).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import GammaConfig
from repro.core import GammaSimulator, SimulationResult
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber

#: Vector operand shapes ``gamma-spmv`` accepts; ``matrix`` is the
#: cross-model axis default and resolves to ``sparse-vector`` here.
OPERAND_SHAPES = ("matrix", "sparse-vector", "dense-vector")

DEFAULT_OPERAND = "matrix"


def vector_operand(b: CsrMatrix, operand: str = DEFAULT_OPERAND,
                   semiring=None) -> CsrMatrix:
    """Collapse an operand matrix to the ``k x 1`` vector x.

    Column 0 of ``b`` supplies the vector's entries (for a 1-column B
    the sparse shape is B itself, unchanged). ``dense-vector``
    materializes every coordinate, filling gaps with the semiring zero
    (0.0 for arithmetic).
    """
    if operand not in OPERAND_SHAPES:
        raise ValueError(
            f"unknown operand shape {operand!r}; known: {OPERAND_SHAPES}")
    if operand in ("matrix", "sparse-vector") and b.num_cols == 1:
        return b
    zero = 0.0 if semiring is None else semiring.zero
    rows = []
    for k in range(b.num_rows):
        fiber = b.row(k)
        present = len(fiber.coords) and fiber.coords[0] == 0
        if present:
            rows.append(Fiber(np.array([0]), fiber.values[:1], check=False))
        elif operand == "dense-vector":
            rows.append(Fiber(np.array([0]), np.array([zero]), check=False))
        else:
            rows.append(Fiber.empty())
    return CsrMatrix.from_rows(rows, 1)


def run_gamma_spmv(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    operand: str = DEFAULT_OPERAND,
    semiring=None,
    multi_pe: bool = True,
    keep_output: bool = False,
    trace=None,
    metrics=None,
    simulator_cls=None,
) -> SimulationResult:
    """Simulate ``y = A x`` on the batched Gamma core."""
    simulator_cls = simulator_cls or GammaSimulator
    config = config or GammaConfig()
    x = vector_operand(b, operand, semiring)
    simulator = simulator_cls(
        config, multi_pe_scheduling=multi_pe, keep_output=keep_output,
        semiring=semiring, trace=trace, metrics=metrics)
    return simulator.run(a, x)
