"""Golden snapshot suite for the versioned figure pipeline (tier-1).

The paper's figures are emitted as diffable artifacts — a Vega-Lite
spec (``<id>.vl.json``) plus the tidy ``<id>.csv`` it references, under
a checksummed ``figures_manifest.json`` — and this suite pins the whole
set at the ``quick`` scope as golden files in ``tests/golden/figures``.
Any change that moves a number in any figure fails here *naming the
figure*, so evaluation drift is reviewed as an artifact diff instead of
discovered downstream.

Also checked: the paper claims each generator carries — every one
declared at the golden scope runs inside ``check_figures``.

Also pinned: the Vega-Lite spec contract (marks/channels/types the
builders are allowed to emit) in ``tests/golden/vega_lite_schema.json``,
and the repr-stable number formatting that keeps every CSV/JSON byte
identical across runs, platforms, and numpy scalar types.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_figures.py --regenerate

and justify the new goldens in the commit message.
"""

import dataclasses
import json
import pathlib
import re
import shutil
import sys

import numpy as np
import pytest

if __package__ in (None, ""):  # invoked as a script for --regenerate
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro.analysis.charts import (
    VEGA_LITE_CONTRACT,
    validate_vega_lite_spec,
)
from repro.experiments import ExperimentRunner
from repro.figures import (
    FIGURE_GENERATORS,
    GOLDEN_SCOPE,
    MANIFEST_FILENAME,
    SCOPES,
    check_claims,
    check_figures,
    figure_ids,
    generate_figures,
    get_generator,
    load_manifest,
    validate_manifest,
)
from repro.figures import generators
from repro.figures.pipeline import csv_bytes, spec_bytes
from repro.obs.numfmt import canonical, canonical_number, format_cell

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "figures"
SCHEMA_PATH = (pathlib.Path(__file__).parent / "golden"
               / "vega_lite_schema.json")


# ----------------------------------------------------------------------
# The pinned spec contract
# ----------------------------------------------------------------------
class TestSpecContract:
    def test_contract_matches_pinned_schema(self):
        """The builders' Vega-Lite vocabulary is itself golden: adding
        a mark/channel/type is a reviewed schema change, not drift."""
        pinned = json.loads(SCHEMA_PATH.read_text())
        assert pinned == json.loads(json.dumps(VEGA_LITE_CONTRACT)), (
            "VEGA_LITE_CONTRACT diverged from "
            "tests/golden/vega_lite_schema.json; if intentional, "
            "regenerate with PYTHONPATH=src python "
            "tests/test_figures.py --regenerate")

    def test_every_golden_spec_validates(self):
        specs = sorted(GOLDEN_DIR.glob("*.vl.json"))
        assert specs, f"no golden specs in {GOLDEN_DIR}"
        for path in specs:
            spec = json.loads(path.read_text())
            assert validate_vega_lite_spec(spec) > 0, path.name


# ----------------------------------------------------------------------
# The golden figure set
# ----------------------------------------------------------------------
class TestGoldenSet:
    def test_manifest_checksums_hold(self):
        """Every committed artifact matches its manifest checksum."""
        assert validate_manifest(GOLDEN_DIR) == []

    def test_manifest_covers_the_catalog(self):
        manifest = load_manifest(GOLDEN_DIR)
        assert manifest["scope"] == GOLDEN_SCOPE
        assert [e["id"] for e in manifest["figures"]] \
            == sorted(figure_ids())

    @pytest.mark.timeout(900)
    def test_regenerated_set_matches_goldens(self, tmp_path):
        """The drift guard itself: regenerate the full quick-scope set
        and byte-compare (specs, CSVs, manifest) against the goldens."""
        drifts = check_figures(golden_dir=GOLDEN_DIR,
                               workdir=tmp_path / "fresh")
        assert drifts == [], (
            "figure drift vs tests/golden/figures: "
            + "; ".join(drifts)
            + " — if intentional, regenerate with PYTHONPATH=src "
            "python tests/test_figures.py --regenerate")

    def test_check_names_the_perturbed_figure(self, tmp_path):
        """Perturbing one golden byte fails naming that figure id."""
        perturbed = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, perturbed)
        target = perturbed / "gmean_speedup.csv"
        target.write_bytes(target.read_bytes() + b"9")
        drifts = check_figures(golden_dir=perturbed,
                               only=["gmean_speedup"],
                               workdir=tmp_path / "fresh")
        assert any(d.startswith("gmean_speedup:") and "data drifted" in d
                   for d in drifts), drifts

    def test_check_reports_missing_golden_file(self, tmp_path):
        perturbed = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, perturbed)
        (perturbed / "gmean_speedup.vl.json").unlink()
        drifts = check_figures(golden_dir=perturbed,
                               only=["gmean_speedup"],
                               workdir=tmp_path / "fresh")
        assert any(d.startswith("gmean_speedup:") and "missing" in d
                   for d in drifts), drifts

    def test_check_without_goldens_says_so(self, tmp_path):
        drifts = check_figures(golden_dir=tmp_path / "empty")
        assert len(drifts) == 1
        assert "no golden manifest" in drifts[0]


# ----------------------------------------------------------------------
# The catalog and the paper claims it carries
# ----------------------------------------------------------------------
class TestCatalog:
    def test_lookup(self):
        assert "traffic" in get_generator("traffic").title.lower()
        with pytest.raises(ValueError, match="unknown figure id"):
            get_generator("fig99")

    def test_every_figure_and_table_present(self):
        """Figs. 3 and 10-25 and Tables 2-4 each have a generator
        (Table 1's values are pinned in test_config/test_experiments)."""
        refs = " ".join(g.paper_ref for g in FIGURE_GENERATORS)

        def numbers(pattern):
            return {int(n) for group in re.findall(pattern, refs)
                    for n in group.split("/")}

        assert numbers(r"Figs?\. ([\d/]+)") >= {3} | set(range(10, 26))
        assert numbers(r"Tables? ([\d/]+)") >= {2, 3, 4}


class TestClaims:
    def test_claim_scopes_are_known(self):
        for generator in FIGURE_GENERATORS:
            for claim in generator.claims:
                assert claim.scopes, claim.text
                assert set(claim.scopes) <= set(SCOPES), claim.text

    def test_every_generator_but_spmv_has_claims(self):
        bare = [g.figure_id for g in FIGURE_GENERATORS if not g.claims]
        assert bare == ["spmv"]

    def test_gp_below_g_is_reported(self, monkeypatch):
        """A figure whose GP gmean falls below G's fails the Fig. 10
        claim declared at the common scope, by figure id and text."""
        rows = [{"design": design, "gmean_speedup": speedup}
                for design, speedup in (
                    ("OuterSPACE", 5.0), ("SpArch", 18.0),
                    ("SparseZipper", 3.0), ("RVV", 2.0), ("G", 33.0),
                    ("GP", 30.0))]
        monkeypatch.setattr(generators, "FIGURE_GENERATORS", [
            dataclasses.replace(g, build=lambda scope, runner: {
                "rows": rows}) if g.figure_id == "gmean_speedup" else g
            for g in FIGURE_GENERATORS])
        failures = check_claims("common", ExperimentRunner(),
                                only=["gmean_speedup"])
        assert failures == [
            "gmean_speedup: claim fails at common scope: GP is at least "
            "as fast as G (paper: 38x vs 33x)"]

    def test_only_figures_with_claims_at_the_scope_are_built(self):
        """Table 2's claims hold at every scope; speedup and spmv declare
        none at paper scope, so its 37 matrices are never simulated."""
        assert check_claims("paper", ExperimentRunner(),
                            only=["area", "spmv", "speedup"]) == []


# ----------------------------------------------------------------------
# repr-stable numbers (the formatter every artifact byte routes through)
# ----------------------------------------------------------------------
class TestNumberFormatting:
    def test_numpy_scalars_match_python_floats(self):
        """Mixed float32/float64/int rows must produce the same bytes
        as their plain-Python equivalents — no dtype leaks into CSVs."""
        third = 1.0 / 3.0
        mixed = [{"label": "a", "value": np.float64(third),
                  "count": np.int64(7)},
                 {"label": "b", "value": float(np.float32(third)),
                  "count": 7}]
        plain = [{"label": "a", "value": third, "count": 7},
                 {"label": "b", "value": float(np.float32(third)),
                  "count": 7}]
        assert csv_bytes(mixed) == csv_bytes(plain)
        assert b"np." not in csv_bytes(mixed)

    def test_float32_precision_noise_is_truncated(self):
        """A float32 round-trip carries ~8 significant digits of real
        information; canonicalization keeps its 12-digit prefix stable
        instead of exposing 17-digit repr noise."""
        noisy = float(np.float32(0.1))  # 0.10000000149011612
        assert canonical_number(np.float32(0.1)) == 0.100000001490
        assert format_cell(canonical_number(noisy)) == "0.10000000149"

    def test_canonicalization_is_idempotent(self):
        payload = {"a": [np.float64(1.0) / 3, np.float32(2.5)],
                   "b": {"x": 1e-17, "y": True, "z": None}}
        once = canonical(payload)
        assert canonical(once) == once
        assert json.dumps(once, sort_keys=True) \
            == json.dumps(canonical(once), sort_keys=True)

    def test_csv_union_of_keys(self):
        """Columns are the union of row keys in first-seen order; a row
        missing a key leaves its cell empty."""
        assert csv_bytes([{"a": 1}, {"a": 2, "b": 3}]) == b"a,b\n1,\n2,3\n"

    def test_spec_bytes_are_stable(self):
        spec = {"b": 2.0000000000001, "a": [1.5, {"c": np.float64(0.2)}]}
        first = spec_bytes(canonical(spec))
        assert first == spec_bytes(canonical(json.loads(first)))


# ----------------------------------------------------------------------
# Writers: every artifact lands through the manifest writer
# ----------------------------------------------------------------------
#: A hand-made sweep summary with every section the report charts.
SUMMARY = {"summary": {
    "speedup": [{"model": "gamma", "gmean_speedup": 2.5}],
    "traffic": [{"model": "gamma", "gmean_normalized_traffic": 1.25}],
    "records": [{"model": model, "matrix": "wiki-Vote", "variant": "none",
                 "runtime_seconds": seconds, "fingerprint": model}
                for model, seconds in (("gamma", 0.5), ("mkl", 1.5))],
}}


class TestWriters:
    """After each writer, the directory holds exactly the manifest's
    files, and every checksum holds."""

    @staticmethod
    def assert_exact(directory):
        manifest = load_manifest(directory)
        assert manifest["figures"]
        assert validate_manifest(directory) == []
        names = {MANIFEST_FILENAME} | {
            entry[key] for entry in manifest["figures"]
            for key in ("spec", "data")}
        assert {path.name for path in directory.iterdir()} == names

    def test_generate_figures(self, tmp_path):
        generate_figures(tmp_path, only=["area", "dataflows"])
        self.assert_exact(tmp_path)

    def test_write_report_figures(self, tmp_path):
        from repro.figures.from_summary import (REPORT_FIGURES_SUBDIR,
                                                write_report_figures)

        write_report_figures(tmp_path, SUMMARY)
        self.assert_exact(tmp_path / REPORT_FIGURES_SUBDIR)


# ----------------------------------------------------------------------
# Report embedding: figures ride the deterministic summary
# ----------------------------------------------------------------------
def _small_sweep_report(tele_dir, cache_dir, monkeypatch, **kwargs):
    from repro.engine.sweep import SweepPoint, run_sweep
    from repro.obs import report

    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    plan = [SweepPoint("gamma", "wiki-Vote", "none"),
            SweepPoint("gamma", "wiki-Vote", "full"),
            SweepPoint("mkl", "wiki-Vote"),
            SweepPoint("ip", "wiki-Vote")]
    result = run_sweep(plan, **kwargs)
    report.finalize_sweep_telemetry(tele_dir, result)
    return report.generate_report(tele_dir)


class TestReportFigures:
    @pytest.mark.timeout(300)
    def test_serial_and_parallel_reports_identical_with_figures(
            self, tmp_path, monkeypatch):
        """The acceptance bar: reports *and* every figure artifact are
        byte-identical between a serial and a two-worker run."""
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        _small_sweep_report(serial, tmp_path / "cache_s", monkeypatch,
                            serial=True)
        _small_sweep_report(parallel, tmp_path / "cache_p", monkeypatch,
                            workers=2)
        compared = 0
        for name in ("report.md", "report.html"):
            assert (serial / name).read_bytes() \
                == (parallel / name).read_bytes(), name
        for path in sorted((serial / "figures").iterdir()):
            twin = parallel / "figures" / path.name
            assert path.read_bytes() == twin.read_bytes(), path.name
            compared += 1
        assert compared >= 4  # manifest + at least one spec/CSV pair

    @pytest.mark.timeout(300)
    def test_report_embeds_and_links_figures(self, tmp_path,
                                             monkeypatch):
        tele = tmp_path / "tele"
        paths = _small_sweep_report(tele, tmp_path / "cache",
                                    monkeypatch, serial=True)
        assert paths["figures"] == tele / "figures"
        assert validate_manifest(tele / "figures") == []
        md = (tele / "report.md").read_text()
        assert "## Figure: " in md
        assert "figures/sweep_speedup.vl.json" in md
        html = (tele / "report.html").read_text()
        assert "<pre>" in html and "figures/sweep_speedup.csv" in html
        assert "<script" not in html  # still static, self-contained
        for block_file in ("sweep_speedup.vl.json", "sweep_speedup.csv",
                           MANIFEST_FILENAME):
            assert (tele / "figures" / block_file).is_file()

    @pytest.mark.timeout(300)
    def test_no_figures_opt_out(self, tmp_path, monkeypatch):
        from repro.obs import report

        tele = tmp_path / "tele"
        _small_sweep_report(tele, tmp_path / "cache", monkeypatch,
                            serial=True)
        shutil.rmtree(tele / "figures")
        paths = report.generate_report(tele, include_figures=False)
        assert "figures" not in paths
        assert not (tele / "figures").exists()
        assert "## Figure: " not in (tele / "report.md").read_text()


# ----------------------------------------------------------------------
# Regeneration entry point (the committed-golden convention)
# ----------------------------------------------------------------------
def regenerate():
    SCHEMA_PATH.write_text(
        json.dumps(json.loads(json.dumps(VEGA_LITE_CONTRACT)),
                   sort_keys=True, indent=1) + "\n")
    print(f"wrote spec contract to {SCHEMA_PATH}")
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    manifest = generate_figures(GOLDEN_DIR, scope=GOLDEN_SCOPE)
    print(f"wrote {manifest['num_figures']} golden figure pairs "
          f"[scope {manifest['scope']}, inputs "
          f"{manifest['inputs_fingerprint'][:12]}] to {GOLDEN_DIR}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
