"""Order statistics shared by the harness and the agreement tool."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a latency sample is reported at, lowest first.
PERCENTILES = (0.5, 0.9, 0.99, 0.999)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample.

    The value at rank ``ceil(q * n)``: for 1,200 samples, p99 is the
    1,188th smallest, so twelve samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ten of ``n``
    samples beyond it (None when even the median has fewer)."""
    best = None
    for q in PERCENTILES:
        if n - math.ceil(q * n) >= 10:
            best = q
    return best


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them; a
    single value has no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def agree(runs_a: Dict[str, Dict[str, List[float]]],
          runs_b: Dict[str, Dict[str, List[float]]],
          metrics: Sequence[Dict]) -> List[Dict]:
    """Compare two run sets metric by metric, workload by workload.

    ``runs_x[workload][metric]`` holds one value per run. A pair is
    ``unresolved`` when either set's spread exceeds the metric's bound
    (the runs cannot tell a change of that size from noise), else
    ``agree`` when set B's median is no worse than set A's by more than
    the bound, else ``disagree``.
    """
    rows = []
    for workload in sorted(set(runs_a) | set(runs_b)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = runs_a.get(workload, {}).get(name, [])
            b = runs_b.get(workload, {}).get(name, [])
            if not a or not b:
                rows.append({"workload": workload, "metric": name,
                             "status": "missing"})
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            worse = worsening(med_a, med_b, metric["better"])
            if max(spread_a, spread_b) > bound:
                status = "unresolved"
            elif worse <= bound:
                status = "agree"
            else:
                status = "disagree"
            rows.append({
                "workload": workload, "metric": name, "status": status,
                "median_a": med_a, "median_b": med_b,
                "spread_a": spread_a, "spread_b": spread_b,
                "worse": worse, "bound": bound,
            })
    return rows
