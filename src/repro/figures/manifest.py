"""The figure set's manifest: what was generated, from what, verbatim.

``figures_manifest.json`` is the figure directory's table of contents
and integrity record: schema version, generation scope, a fingerprint
of every simulation record the figures were derived from, and — per
figure — the artifact filenames, row counts, and SHA-256 checksums.
The golden-drift check (``repro figures --check``) and the snapshot
tests compare artifacts byte-for-byte and use the manifest to name
*which* figure drifted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump when the manifest layout changes.
FIGURES_MANIFEST_VERSION = 1

MANIFEST_FILENAME = "figures_manifest.json"


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def file_sha256(path: Union[str, Path]) -> str:
    return sha256_bytes(Path(path).read_bytes())


def inputs_fingerprint(records: Dict[Any, Any]) -> str:
    """One digest over every (point, record) the figures consumed.

    Sorted by point label so the digest is independent of evaluation
    order; each record contributes its behavioral fingerprint (see
    :meth:`repro.engine.record.RunRecord.fingerprint`), so the manifest
    pins *simulation behavior*, not cache state or wall clock.
    """
    lines = sorted(
        f"{point.label()} {record.fingerprint()}"
        for point, record in records.items()
    )
    return sha256_bytes("\n".join(lines).encode("utf-8"))


def dumps_manifest(manifest: Dict[str, Any]) -> str:
    """The manifest's canonical byte form (sorted keys, trailing \\n)."""
    return json.dumps(manifest, sort_keys=True, indent=1) + "\n"


def build_manifest(scope_name: str,
                   fingerprint: str,
                   entries: List[Dict[str, Any]],
                   artifacts: Dict[str, bytes]) -> Dict[str, Any]:
    """Assemble the manifest dict from per-figure artifact entries.

    Each entry names its ``spec`` and ``data`` files; their SHA-256
    checksums are taken here from ``artifacts`` (file name -> bytes).
    """
    figures = [dict(entry,
                    spec_sha256=sha256_bytes(artifacts[entry["spec"]]),
                    data_sha256=sha256_bytes(artifacts[entry["data"]]))
               for entry in entries]
    return {
        "schema": FIGURES_MANIFEST_VERSION,
        "scope": scope_name,
        "inputs_fingerprint": fingerprint,
        "num_figures": len(figures),
        "figures": sorted(figures, key=lambda e: e["id"]),
    }


def write_manifest(directory: Union[str, Path],
                   manifest: Dict[str, Any],
                   artifacts: Dict[str, bytes]) -> Path:
    """Write every artifact (file name -> bytes), then the manifest."""
    directory = Path(directory)
    for name, payload in artifacts.items():
        (directory / name).write_bytes(payload)
    path = directory / MANIFEST_FILENAME
    path.write_text(dumps_manifest(manifest), encoding="utf-8")
    return path


def load_manifest(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read and version-check a figure directory's manifest."""
    path = Path(directory) / MANIFEST_FILENAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("schema") != FIGURES_MANIFEST_VERSION:
        raise ValueError(
            f"unsupported figures manifest schema "
            f"{manifest.get('schema')!r} in {path}")
    return manifest


def validate_manifest(directory: Union[str, Path],
                      manifest: Optional[Dict[str, Any]] = None,
                      ) -> List[str]:
    """Check every manifest entry against the files actually on disk.

    Returns a list of problems (empty = intact): missing artifacts and
    checksum mismatches, each naming the figure id.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = load_manifest(directory)
    problems: List[str] = []
    for entry in manifest.get("figures", []):
        figure_id = entry.get("id", "?")
        for kind, name_key, sum_key in (
                ("spec", "spec", "spec_sha256"),
                ("data", "data", "data_sha256")):
            path = directory / entry[name_key]
            if not path.is_file():
                problems.append(
                    f"{figure_id}: missing {kind} file {entry[name_key]}")
                continue
            digest = file_sha256(path)
            if digest != entry[sum_key]:
                problems.append(
                    f"{figure_id}: {kind} checksum mismatch for "
                    f"{entry[name_key]} (manifest {entry[sum_key][:12]}, "
                    f"file {digest[:12]})")
    return problems
