"""Experiment harness: the runner and builders behind the figure catalog."""

from repro.engine import RunRecord, SweepPoint, plan_sweep, run_sweep
from repro.experiments.runner import (
    MODEL_SCALE,
    ExperimentRunner,
    scaled_cpu_config,
    scaled_gamma_config,
)

__all__ = [
    "ExperimentRunner",
    "MODEL_SCALE",
    "RunRecord",
    "SweepPoint",
    "plan_sweep",
    "run_sweep",
    "scaled_cpu_config",
    "scaled_gamma_config",
]
