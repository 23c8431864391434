"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.__main__ import main
from repro.figures import generators


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for generator in generators.FIGURE_GENERATORS:
            assert generator.figure_id in out
            for claim in generator.claims:
                assert (f"claim [{','.join(claim.scopes)}]: {claim.text}"
                        in out)

    def test_run_table(self, capsys):
        assert main(["run", "gmean_speedup"]) == 0
        out = capsys.readouterr().out
        assert "gmean speedup over MKL" in out
        assert "GP" in out

    def test_run_without_ids(self, capsys):
        assert main(["run"]) == 2
        err = capsys.readouterr().err
        assert "no figure ids" in err

    def test_run_unknown_id(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown figure id(s): fig99")
        assert "see 'repro list'" in err

    def test_run_unknown_scope(self, capsys):
        assert main(["run", "area", "--scope", "huge"]) == 2
        assert "error: unknown scope" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFiguresCommand:
    def test_only_writes_one_figure(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path),
                     "--only", "area"]) == 0
        out = capsys.readouterr().out
        assert "wrote area: area.vl.json + area.csv" in out
        assert "all 3 paper claim(s) declared at quick scope hold" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "area.csv", "area.vl.json", "figures_manifest.json"]

    def test_failed_claim_exits_1(self, tmp_path, capsys, monkeypatch):
        """A quick-declared claim that breaks fails --check by name."""
        monkeypatch.setattr(generators, "FIGURE_GENERATORS", [
            _slower_g() if g.figure_id == "gmean_speedup" else g
            for g in generators.FIGURE_GENERATORS])
        assert main(["figures", "--check", "--only", "gmean_speedup",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert ("gmean_speedup: claim fails at quick scope: G is faster "
                "than SpArch") in err
        assert "drifted" not in err

    def test_check_rejects_other_scope(self, capsys):
        assert main(["figures", "--check", "--scope", "paper"]) == 2
        err = capsys.readouterr().err
        assert ("error: --check compares against goldens at scope "
                "'quick', not 'paper'") in err

    def test_unknown_id(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2
        assert "see 'repro list'" in capsys.readouterr().err


def _slower_g():
    """The gmean_speedup generator with G's row set below SpArch's."""
    generator = generators.get_generator("gmean_speedup")

    def build(scope, runner):
        figure = generator.build(scope, runner)
        speed = {r["design"]: r for r in figure["rows"]}
        speed["G"]["gmean_speedup"] = speed["SpArch"]["gmean_speedup"] / 2
        return figure

    return dataclasses.replace(generator, build=build)


class TestSweepCommand:
    def test_dry_run_plans_without_running(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--matrices", "wiki-Vote",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "6 points planned" in out
        assert "gamma:wiki-Vote:none" in out
        assert not list(tmp_path.glob("*.json"))

    def test_serial_sweep_populates_cache(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--matrices", "wiki-Vote", "--models",
                     "gamma", "--variants", "none", "--serial"]) == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        # Computed (non-cached) points report per-point wall clock and
        # event counts.
        assert "wall=" in out
        assert "events=" in out
        assert list(tmp_path.glob("*.json"))

    def test_cached_rerun_reports_no_computed_points(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = ["sweep", "--matrices", "wiki-Vote", "--models", "gamma",
                "--variants", "none", "--serial"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 to run" in out
        assert "wall=" not in out


class TestProfileCommand:
    def test_profile_report_sections(self, capsys):
        assert main(["profile", "gamma", "wiki-Vote"]) == 0
        out = capsys.readouterr().out
        assert "phase cycle accounting" in out
        assert "compute cycles" in out
        assert "memory-stall cycles" in out
        assert "bank hit rates" in out
        assert "per-PE utilization" in out
        assert "DRAM stream breakdown" in out
        assert "partial_write" in out

    def test_profile_exports_valid_trace(self, tmp_path, capsys):
        from repro.obs import validate_file

        trace_path = tmp_path / "events.jsonl"
        assert main(["profile", "gamma", "wiki-Vote",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace lines" in out
        assert validate_file(trace_path) > 0

    def test_profile_baseline_has_no_metrics(self, capsys):
        assert main(["profile", "ip", "wiki-Vote"]) == 0
        out = capsys.readouterr().out
        assert "no metrics attached" in out

    def test_profile_unknown_matrix(self, capsys):
        assert main(["profile", "gamma", "no-such-matrix"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_unknown_model(self, capsys):
        assert main(["profile", "nope", "wiki-Vote"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBrokenPipe:
    """A reader that closes early (``| head``) ends the CLI quietly."""

    @staticmethod
    def run_into_closed_pipe(args, tmp_path):
        """Run the CLI with stdout on a pipe whose reader is already gone,
        so its first write fails the way ``| head`` makes it fail."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        env["PYTHONPATH"] = (
            str(root / "src") + os.pathsep + env.get("PYTHONPATH", ""))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, cwd=root,
                timeout=300)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("command", (["list"], ["suite"]))
    def test_listing_exits_quietly(self, command, tmp_path):
        proc = self.run_into_closed_pipe(command, tmp_path)
        assert proc.stderr == ""
        assert proc.returncode == 1

    def test_profile_keeps_its_trace(self, tmp_path):
        from repro.obs import validate_file

        trace_path = tmp_path / "t.jsonl"
        proc = self.run_into_closed_pipe(
            ["profile", "gamma", "wiki-Vote", "--trace", str(trace_path)],
            tmp_path)
        assert proc.stderr == ""
        assert validate_file(trace_path) > 0
