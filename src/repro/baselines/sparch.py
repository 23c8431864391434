"""SpArch traffic/timing model [Zhang et al., HPCA'20] — the 'S' bars.

SpArch improves on OuterSPACE with two techniques (paper Sec. 2.3):

* *Matrix condensing*: A's nonzeros are shifted left so the number of
  partial matrices equals A's maximum row length, not K. A pipelined
  radix-64 merge tree combines up to 64 partial matrices on the fly, so
  inputs with <= 64 condensed columns incur almost no partial-output
  traffic. Wider inputs must spill merged intermediates and read them back
  round by round.
* The cost: condensing destroys the row correspondence between A and B —
  a condensed column touches B rows in A's (arbitrary) k order — and only
  a ~0.5 MB prefetch buffer is left to capture B reuse, so B traffic grows
  (paper: "SpArch's matrix condensing technique also sacrifices reuse of
  the B matrix").

We model condensing exactly, simulate B reuse through the prefetch buffer
with an LRU over the condensed access stream, and model merge rounds for
wide inputs. A single high-throughput merger bounds compute.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, OFFSET_BYTES
from repro.analysis.reuse import b_read_traffic
from repro.baselines.common import BaselineResult
from repro.baselines.spgemm_ref import output_nnz_upper_bound
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import flops as count_flops

#: SpArch's merge-tree radix (same as Gamma's PE radix).
_MERGE_RADIX = 64

#: DRAM prefetch-buffer capacity left for B reuse, as a fraction of the
#: Gamma FiberCache at equal scale ("around half a megabyte" of 3 MB).
_PREFETCH_FRACTION = 1.0 / 6.0

#: Peak merged elements per cycle of the single high-throughput merger.
#: SpArch's comparator array peaks higher but is sensitive to coordinate
#: distribution; this sustained value reproduces its reported ~69%
#: bandwidth utilization and 2.1x gap to Gamma.
_MERGER_ELEMENTS_PER_CYCLE = 8.0


def condensed_column_stream(a: CsrMatrix) -> np.ndarray:
    """B rows in SpArch's traversal order: condensed column-major.

    Condensed column j holds the j-th nonzero of every row of A; the
    multiply unit walks columns left to right, touching B row k for each
    nonzero (i, k) it meets. A's nonzeros are in row order, so a stable
    sort by position within the row is the (column, row) order.
    """
    rows = np.repeat(np.arange(a.num_rows), a.row_lengths())
    within = np.arange(a.nnz) - a.offsets[rows]
    return a.coords[np.argsort(within, kind="stable")]


def condensed_width(a: CsrMatrix) -> int:
    """Number of partial matrices after condensing = max row length."""
    lengths = a.row_lengths()
    return int(lengths.max()) if len(lengths) else 0


def merge_round_spill_bytes(a: CsrMatrix, b: CsrMatrix,
                            c_nnz: int) -> int:
    """Partial-output bytes spilled when condensed width exceeds the radix.

    With W condensed columns and a radix-R tree, ceil(W / R) first-round
    merges run; all but one of their outputs spill and are re-read by the
    next round, recursively. Each merged intermediate is bounded by the
    final output size (merging only shrinks fibers).
    """
    width = condensed_width(a)
    spilled = 0
    c_bytes = c_nnz * ELEMENT_BYTES
    while width > _MERGE_RADIX:
        groups = math.ceil(width / _MERGE_RADIX)
        # One group's output streams straight into the next round; the
        # rest spill. Each intermediate is at most the final output size.
        spilled += (groups - 1) * c_bytes
        width = groups
    return spilled


def run_sparch_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    c_nnz: Optional[int] = None,
) -> BaselineResult:
    """Estimate SpArch's traffic and runtime for C = A x B."""
    config = config or GammaConfig()
    flops = count_flops(a, b)
    if c_nnz is None:
        c_nnz = output_nnz_upper_bound(a, b)

    a_bytes = a.nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES
    prefetch_bytes = int(config.fibercache_bytes * _PREFETCH_FRACTION)
    b_bytes = b_read_traffic(
        condensed_column_stream(a), b, prefetch_bytes)
    b_bytes += b.num_rows * OFFSET_BYTES
    spill = merge_round_spill_bytes(a, b, c_nnz)
    c_bytes = c_nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES

    traffic = {
        "A": a_bytes,
        "B": int(b_bytes),
        "C": c_bytes,
        "partial_write": spill,
        "partial_read": spill,
    }
    memory_cycles = sum(traffic.values()) / config.bytes_per_cycle
    # All partial-matrix elements flow through the single merge tree.
    merge_cycles = flops / _MERGER_ELEMENTS_PER_CYCLE
    cycles = max(memory_cycles, merge_cycles)
    return BaselineResult(
        name="SpArch",
        cycles=cycles,
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
