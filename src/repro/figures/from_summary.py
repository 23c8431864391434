"""Report-path figures: derived purely from a sweep's ``sweep.json``.

The run report (``repro report``) embeds a small figure set built from
the *deterministic roll-up* inside the sweep summary — not from reruns
— so the report's figures inherit the roll-up's guarantee: serial and
parallel executions of the same plan produce byte-identical artifacts.
Artifacts use the same writer as the main pipeline (spec + CSV +
manifest) and land in a ``figures/`` subdirectory next to
``report.md``/``report.html``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.analysis.charts import (
    bar_data,
    chart_csv_rows,
    multi_bar_data,
    render_chart,
    validate_vega_lite_spec,
    vega_lite_spec,
)
from repro.figures.manifest import (
    build_manifest,
    sha256_bytes,
    write_manifest,
)
from repro.figures.pipeline import csv_bytes, spec_bytes

#: Subdirectory of the report output holding the embedded figure set.
REPORT_FIGURES_SUBDIR = "figures"


def summary_charts(summary_payload: Dict[str, Any],
                   ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``(figure_id, title, chart_data)`` for one sweep summary.

    A pure function of the summary's deterministic ``summary`` key;
    sections with no data (e.g. a sweep with no non-reference models)
    are simply omitted.
    """
    summary = summary_payload["summary"]
    charts: List[Tuple[str, str, Dict[str, Any]]] = []

    speedup = summary.get("speedup", [])
    if speedup:
        charts.append((
            "sweep_speedup",
            "Gmean speedup over MKL per model",
            bar_data(
                [row["model"] for row in speedup],
                [row["gmean_speedup"] for row in speedup],
                title="Gmean speedup over MKL per model",
                label_field="model", value_field="gmean_speedup",
                value_format="{:.1f}x",
            ),
        ))

    traffic = summary.get("traffic", [])
    if traffic:
        charts.append((
            "sweep_traffic",
            "Gmean normalized DRAM traffic per model",
            bar_data(
                [row["model"] for row in traffic],
                [row["gmean_normalized_traffic"] for row in traffic],
                title="Gmean normalized traffic per model "
                      "(1.0 = compulsory)",
                label_field="model",
                value_field="gmean_normalized_traffic",
            ),
        ))

    records = summary.get("records", [])
    if records:
        matrices = sorted({row["matrix"] for row in records})
        labels = sorted({
            (f"gamma[{row['variant']}]" if row["model"] == "gamma"
             else row["model"])
            for row in records
        })
        runtimes: Dict[str, Dict[str, float]] = {}
        for row in records:
            label = (f"gamma[{row['variant']}]"
                     if row["model"] == "gamma" else row["model"])
            runtimes.setdefault(label, {})[row["matrix"]] = \
                row["runtime_seconds"]
        complete = [label for label in labels
                    if set(runtimes[label]) == set(matrices)]
        if complete:
            charts.append((
                "sweep_runtime",
                "Simulated runtime per model and matrix",
                multi_bar_data(
                    matrices,
                    {label: [runtimes[label][m] for m in matrices]
                     for label in complete},
                    title="Simulated runtime (s) per model and matrix",
                    label_field="matrix", series_field="model",
                    value_field="runtime_seconds",
                ),
            ))
    return charts


def write_report_figures(output_dir: Union[str, Path],
                         summary_payload: Dict[str, Any],
                         ) -> Dict[str, Any]:
    """Write the report's figure set; returns its manifest.

    The manifest's scope is ``"report"`` and its inputs fingerprint is
    a digest of the summary's record fingerprints (already part of the
    roll-up), keeping the serial/parallel byte-identity intact.
    """
    out_dir = Path(output_dir) / REPORT_FIGURES_SUBDIR
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = summary_payload["summary"]
    fingerprint = sha256_bytes("\n".join(sorted(
        f"{row['model']}:{row['matrix']}:{row['variant']} "
        f"{row['fingerprint']}"
        for row in summary.get("records", [])
    )).encode("utf-8"))
    entries = []
    artifacts: Dict[str, bytes] = {}
    for figure_id, title, chart in summary_charts(summary_payload):
        rows = chart_csv_rows(chart)
        data_name = f"{figure_id}.csv"
        spec = vega_lite_spec(chart, data_url=data_name,
                              description=title)
        validate_vega_lite_spec(spec)
        spec_name = f"{figure_id}.vl.json"
        artifacts[data_name] = csv_bytes(rows)
        artifacts[spec_name] = spec_bytes(spec)
        entries.append({
            "id": figure_id,
            "title": title,
            "paper_ref": "sweep report",
            "kind": chart["kind"],
            "spec": spec_name,
            "data": data_name,
            "rows": len(rows),
        })
    manifest = build_manifest("report", fingerprint, entries, artifacts)
    write_manifest(out_dir, manifest, artifacts)
    return manifest


def report_figure_sections(summary_payload: Dict[str, Any],
                           ) -> List[Dict[str, str]]:
    """Renderer-ready figure blocks for the markdown/HTML report.

    Each block carries the artifact filenames (relative to the report)
    and the ASCII rendering of the same chart data, so the report shows
    the figure inline and links the versioned artifacts next to it.
    """
    sections = []
    for figure_id, title, chart in summary_charts(summary_payload):
        sections.append({
            "id": figure_id,
            "title": title,
            "spec": f"{REPORT_FIGURES_SUBDIR}/{figure_id}.vl.json",
            "data": f"{REPORT_FIGURES_SUBDIR}/{figure_id}.csv",
            "ascii": render_chart(chart),
        })
    return sections
