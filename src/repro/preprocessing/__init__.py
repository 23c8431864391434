"""Preprocessing for Gamma: affinity reordering and selective tiling."""

from repro.preprocessing.pipeline import (
    PreprocessReport,
    preprocess,
    preprocess_with_report,
)
from repro.preprocessing.reorder import affinity_reorder, reorder_for_gamma
from repro.preprocessing.tiling import estimate_row_footprint, tile_matrix

__all__ = [
    "PreprocessReport",
    "affinity_reorder",
    "estimate_row_footprint",
    "preprocess",
    "preprocess_with_report",
    "reorder_for_gamma",
    "tile_matrix",
]
