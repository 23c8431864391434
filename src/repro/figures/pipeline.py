"""Generate, write, and drift-check the versioned figure artifacts.

:func:`generate_figures` runs the catalog at a scope and writes, per
figure, a ``<id>.vl.json`` Vega-Lite spec and the ``<id>.csv`` it
references, plus the checksummed ``figures_manifest.json`` — all in
canonical byte form (sorted-key JSON, ``\\n`` line endings, numbers
through :mod:`repro.obs.numfmt`), so the directory is diffable and
byte-reproducible anywhere.

:func:`check_claims` evaluates the paper claims each generator carries
(:class:`~repro.figures.generators.Claim`) at one scope. It runs beside
:func:`generate_figures`, never inside it, and writes no file.

:func:`check_figures` is the drift guard: it regenerates the set into a
scratch directory, compares it byte-for-byte against a committed golden
directory and checks the claims declared at the golden scope, returning
human-readable messages that name the figure id — the CI hook that
turns any perf/model change into a reviewable artifact diff.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.charts import (
    chart_csv_rows,
    validate_vega_lite_spec,
    vega_lite_spec,
)
from repro.experiments.runner import ExperimentRunner
from repro.figures.generators import (
    FIGURE_GENERATORS,
    figure_ids,
    get_generator,
)
from repro.figures.manifest import (
    MANIFEST_FILENAME,
    build_manifest,
    dumps_manifest,
    inputs_fingerprint,
    load_manifest,
    write_manifest,
)
from repro.figures.scopes import get_scope
from repro.obs.numfmt import format_cell

#: Default golden directory (committed, scope 'quick').
GOLDEN_FIGURES_DIR = Path("tests") / "golden" / "figures"


def csv_bytes(rows: Sequence[Dict[str, Any]]) -> bytes:
    """Canonical CSV bytes of tidy rows (stable order, ``\\n``, repr
    floats via :func:`repro.obs.numfmt.format_cell`)."""
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([format_cell(row.get(key)) for key in fieldnames])
    return buffer.getvalue().encode("utf-8")


def spec_bytes(spec: Dict[str, Any]) -> bytes:
    """Canonical bytes of a Vega-Lite spec dict."""
    return (json.dumps(spec, sort_keys=True, indent=1) + "\n").encode(
        "utf-8")


def _select(only: Optional[Sequence[str]]):
    if only is None:
        return list(FIGURE_GENERATORS)
    return [get_generator(figure_id) for figure_id in only]


def generate_figures(
    out_dir: Union[str, Path],
    scope: str = "quick",
    only: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Any]:
    """Write the figure set (specs, CSVs, manifest) and return the
    manifest.

    Uses a *fresh* :class:`ExperimentRunner` by default so the
    manifest's ``inputs_fingerprint`` covers exactly the records these
    figures consumed. Records come from the engine's disk cache when
    warm; cold points are computed (deterministically) on demand.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scope_obj = get_scope(scope)
    runner = runner if runner is not None else ExperimentRunner()
    entries: List[Dict[str, Any]] = []
    artifacts: Dict[str, bytes] = {}
    for generator in _select(only):
        figure = generator.build(scope_obj, runner)
        chart = figure["chart_data"]
        rows = chart_csv_rows(chart)
        data_name = f"{generator.figure_id}.csv"
        spec = vega_lite_spec(
            chart, data_url=data_name,
            description=f"{generator.title} ({generator.paper_ref})")
        validate_vega_lite_spec(spec)
        spec_name = f"{generator.figure_id}.vl.json"
        artifacts[data_name] = csv_bytes(rows)
        artifacts[spec_name] = spec_bytes(spec)
        entries.append({
            "id": generator.figure_id,
            "title": generator.title,
            "paper_ref": generator.paper_ref,
            "kind": chart["kind"],
            "spec": spec_name,
            "data": data_name,
            "rows": len(rows),
        })
    manifest = build_manifest(
        scope_obj.name, inputs_fingerprint(runner.records()), entries,
        artifacts)
    write_manifest(out_dir, manifest, artifacts)
    return manifest


def check_claims(
    scope: str,
    runner: ExperimentRunner,
    only: Optional[Sequence[str]] = None,
) -> List[str]:
    """Evaluate every claim declared at ``scope`` on its figure.

    Returns failure messages (empty = every claim holds), each naming
    the figure id and the claim. Figures are built again from
    ``runner``; pass the one :func:`generate_figures` used and they come
    from its memo.
    """
    scope_obj = get_scope(scope)
    failures: List[str] = []
    for generator in _select(only):
        claims = [c for c in generator.claims if scope in c.scopes]
        if not claims:
            continue
        figure = generator.build(scope_obj, runner)
        failures.extend(
            f"{generator.figure_id}: claim fails at {scope} scope: "
            f"{claim.text}"
            for claim in claims if not claim.holds(figure))
    return failures


def check_figures(
    golden_dir: Union[str, Path] = GOLDEN_FIGURES_DIR,
    scope: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> List[str]:
    """Regenerate the figure set, diff it against committed goldens and
    check the claims declared at its scope.

    Returns drift and claim-failure messages (empty = clean), each
    naming the figure id. ``scope`` defaults to whatever scope the
    golden manifest records; ``workdir`` (a scratch directory for the
    regenerated set) defaults to a fresh temp directory.
    """
    golden_dir = Path(golden_dir)
    if not (golden_dir / MANIFEST_FILENAME).is_file():
        return [f"no golden manifest at {golden_dir / MANIFEST_FILENAME} "
                "(generate goldens first: repro figures --out "
                f"{golden_dir})"]
    golden_manifest = load_manifest(golden_dir)
    if scope is None:
        scope = golden_manifest["scope"]
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-figures-check-")
    runner = ExperimentRunner()
    manifest = generate_figures(workdir, scope=scope, only=only,
                                runner=runner)
    workdir = Path(workdir)

    drifts: List[str] = []
    golden_by_id = {e["id"]: e for e in golden_manifest["figures"]}
    for entry in manifest["figures"]:
        golden_entry = golden_by_id.get(entry["id"])
        if golden_entry is None:
            drifts.append(
                f"{entry['id']}: not in the golden set (new figure? "
                "regenerate goldens)")
            continue
        for kind, name_key in (("spec", "spec"), ("data", "data")):
            fresh = (workdir / entry[name_key]).read_bytes()
            golden_path = golden_dir / golden_entry[name_key]
            if not golden_path.is_file():
                drifts.append(
                    f"{entry['id']}: golden {kind} file "
                    f"{golden_entry[name_key]} is missing")
                continue
            if fresh != golden_path.read_bytes():
                drifts.append(
                    f"{entry['id']}: {kind} drifted from golden "
                    f"{golden_entry[name_key]}")
    if only is None:
        generated_ids = {e["id"] for e in manifest["figures"]}
        for figure_id in sorted(set(golden_by_id) - generated_ids):
            drifts.append(
                f"{figure_id}: in the golden set but no longer "
                "generated")
        if not drifts and dumps_manifest(manifest) != (
                golden_dir / MANIFEST_FILENAME).read_text(
                    encoding="utf-8"):
            drifts.append(
                f"{MANIFEST_FILENAME}: manifest drifted (inputs "
                f"fingerprint {manifest['inputs_fingerprint'][:12]} vs "
                f"golden "
                f"{golden_manifest['inputs_fingerprint'][:12]})")
    return drifts + check_claims(scope, runner, only)


__all__ = [
    "GOLDEN_FIGURES_DIR",
    "check_claims",
    "check_figures",
    "csv_bytes",
    "figure_ids",
    "generate_figures",
    "spec_bytes",
]
