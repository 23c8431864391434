"""Matrix scopes the figure pipeline can run at.

Every generator is parameterized by a :class:`FigureScope` — the matrix
set plus the single-matrix choices some figures need. ``quick`` is the
CI/test scope (the four smallest suite matrices, all models cold in a
couple of seconds — the committed goldens are generated at this scope);
``common``/``extended``/``paper`` reproduce the paper's evaluation sets
and are meant to run against a pre-warmed sweep cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.matrices import suite


@dataclass(frozen=True)
class FigureScope:
    """One named matrix-set configuration for the pipeline.

    Attributes:
        name: Scope id ('quick', 'common', 'extended', 'paper').
        matrices: The matrix set the cross-model figures iterate over.
        scheduling_matrix: Input for the scheduling-ablation figure
            (the paper uses email-Enron).
        dataflow_matrices: Inputs for the dataflow work-count figure
            (its own set: the counts are closed form and cheap, but the
            figure compares a few contrasting inputs, not the suite).
    """

    name: str
    matrices: Tuple[str, ...]
    scheduling_matrix: str
    dataflow_matrices: Tuple[str, ...]

    def suite_specs(self) -> List:
        """The suite's :class:`MatrixSpec` entries for this scope."""
        wanted = set(self.matrices)
        return [spec for spec in
                list(suite.COMMON_SET) + list(suite.EXTENDED_SET)
                if spec.name in wanted]


#: The four smallest suite matrices — every model on all of them is a
#: ~1 s cold run, which is what makes the goldens and CI cheap.
QUICK_MATRICES = ("wiki-Vote", "p2p-Gnutella31", "poisson3Da",
                  "email-Enron")

SCOPES: Dict[str, FigureScope] = {
    "quick": FigureScope(
        name="quick",
        matrices=QUICK_MATRICES,
        scheduling_matrix="email-Enron",
        dataflow_matrices=("wiki-Vote", "p2p-Gnutella31"),
    ),
    "common": FigureScope(
        name="common",
        matrices=tuple(suite.common_set_names()),
        scheduling_matrix="email-Enron",
        dataflow_matrices=("p2p-Gnutella31", "wiki-Vote", "poisson3Da"),
    ),
    "extended": FigureScope(
        name="extended",
        matrices=tuple(suite.extended_set_names()),
        scheduling_matrix="email-Enron",
        dataflow_matrices=("p2p-Gnutella31", "wiki-Vote", "poisson3Da"),
    ),
    "paper": FigureScope(
        name="paper",
        matrices=tuple(suite.common_set_names()
                       + suite.extended_set_names()),
        scheduling_matrix="email-Enron",
        dataflow_matrices=("p2p-Gnutella31", "wiki-Vote", "poisson3Da"),
    ),
}

#: The scope the committed goldens (tests/golden/figures) are pinned at.
GOLDEN_SCOPE = "quick"


def get_scope(name: str) -> FigureScope:
    try:
        return SCOPES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure scope {name!r}; known: {sorted(SCOPES)}"
        ) from None
