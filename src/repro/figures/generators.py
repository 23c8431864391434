"""The figure catalog: one generator per paper figure/table family.

Each :class:`FigureGenerator` wraps one of the parameterized builders in
:mod:`repro.experiments.figures` and binds it to a
:class:`~repro.figures.scopes.FigureScope` at generation time. The
``figure_id`` is the artifact basename (``speedup.vl.json`` +
``speedup.csv``); ``paper_ref`` records which paper figure(s) the
artifact reproduces.

Generators are *semantic*, not one-per-paper-figure-number: e.g. the
paper renders per-matrix speedup twice (Fig. 11 common set, Fig. 15
extended set) and the pipeline expresses that as the ``speedup``
generator run at two scopes.

Each generator also carries the paper claims its figure supports, as
:class:`Claim` records: a predicate over the builder's figure dict and
the scopes at which it must hold.
:func:`repro.figures.pipeline.check_claims` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.roofline import ridge_intensity
from repro.experiments import figures as fig
from repro.experiments.runner import ExperimentRunner, scaled_gamma_config
from repro.figures.scopes import FigureScope
from repro.matrices import suite

#: Claim scopes; claims that do not depend on the matrix set take _ALL.
_Q, _C, _E, _P = ("quick",), ("common",), ("extended",), ("paper",)
_ALL = _Q + _C + _E + _P


@dataclass(frozen=True)
class Claim:
    """One paper claim a generator's figure must support.

    Attributes:
        text: The claim, citing the paper's value.
        holds: Predicate over the builder's figure dict (``rows``, plus
            ``pe_rows``/``speedup`` where the builder returns them).
        scopes: The scope names at which the claim must hold.
    """

    text: str
    holds: Callable[[Dict], bool]
    scopes: Tuple[str, ...]


@dataclass(frozen=True)
class FigureGenerator:
    """One versioned-artifact generator.

    Attributes:
        figure_id: Artifact basename and ``--only`` id.
        title: Human title (embedded in the Vega-Lite description).
        paper_ref: The paper figure/table the artifact reproduces.
        build: ``(scope, runner) -> figure dict`` with ``chart_data``.
        claims: The paper claims the figure supports.
    """

    figure_id: str
    title: str
    paper_ref: str
    build: Callable[[FigureScope, ExperimentRunner], Dict]
    claims: Tuple[Claim, ...] = ()


def _title(base: str, scope: FigureScope) -> str:
    return f"{base} [{scope.name} scope]"


def _by(key: str, field: str,
        test: Callable[[Dict], bool]) -> Callable[[Dict], bool]:
    """Predicate: ``test`` over the figure's ``key`` -> ``field``."""
    return lambda f: test({r[key]: r[field] for r in f["rows"]})


def _agg(test: Callable[[Dict], bool],
         row: str = "gmean") -> Callable[[Dict], bool]:
    """Predicate: ``test`` over the figure's gmean (or mean) row."""
    return lambda f: test(next(r for r in f["rows"] if r["matrix"] == row))


def _per_matrix(figure: Dict) -> List[Dict]:
    """The figure's per-matrix rows, without its gmean/mean row."""
    return [row for row in figure["rows"]
            if row["matrix"] not in ("gmean", "mean")]


def _groups(figure: Dict, label: str) -> Dict[str, Dict[str, Dict]]:
    """The figure's rows grouped as matrix -> ``label`` -> row."""
    groups: Dict[str, Dict[str, Dict]] = {}
    for row in figure["rows"]:
        groups.setdefault(row["matrix"], {})[row[label]] = row
    return groups


def _on(matrices: Sequence[str], label: str,
        test: Callable[[Dict], bool]) -> Callable[[Dict], bool]:
    """Predicate: ``test`` holds on each named matrix's ``label`` ->
    total traffic (a matrix missing from the figure fails loudly)."""
    return lambda f: all(
        test({k: r["total"] for k, r in _groups(f, label)[m].items()})
        for m in matrices)


def _flows(test: Callable[[Dict], bool]) -> Callable[[Dict], bool]:
    """Predicate: ``test`` holds on every matrix's dataflow -> row."""
    return lambda f: all(test(d)
                         for d in _groups(f, "dataflow").values())


def _pe_share(figure: Dict, component: str) -> float:
    return next(r["fraction"] for r in figure["pe_rows"]
                if r["component"] == component)


def _npr_target(name: str) -> float:
    return suite.spec_by_name(name).npr


def _ridge() -> float:
    return ridge_intensity(scaled_gamma_config())


#: The matrices paper Figs. 3 and 19 single out.
_TEASER = ("gupta2", "web-Google")
_ABLATION = ("Maragal_7", "sme3Db")


FIGURE_GENERATORS: List[FigureGenerator] = [
    FigureGenerator(
        "speedup", "Per-matrix speedup over MKL, all designs",
        "Figs. 11/15",
        lambda s, r: fig.speedup_figure(
            s.matrices, _title("Speedup over MKL", s), r),
        (
            Claim("GP beats MKL on every matrix (paper Figs. 11/15: up "
                  "to 184x / 50x)",
                  lambda f: all(r["GP"] > 1 for r in _per_matrix(f)),
                  _Q + _C + _E),
            Claim("GP beats MKL by over 25x on its best matrix (paper "
                  "Fig. 11: up to 184x)",
                  lambda f: max(r["GP"] for r in _per_matrix(f)) > 25,
                  _Q + _C),
            Claim("GP's gmean speedup over MKL is in (10, 120) (paper "
                  "Fig. 11: 38x)",
                  _agg(lambda g: 10 < g["GP"] < 120), _Q + _C),
            Claim("GP's gmean speedup over MKL is in (5, 80) (paper "
                  "Fig. 15: 17x)",
                  _agg(lambda g: 5 < g["GP"] < 80), _Q + _E),
        ),
    ),
    FigureGenerator(
        "gmean_speedup", "Suite gmean speedup over MKL per design",
        "Fig. 10",
        lambda s, r: fig.gmean_speedup_figure(
            s.matrices, _title("Gmean speedup over MKL", s), r),
        (
            Claim("OuterSPACE beats MKL by over 2x (paper: 5x)",
                  _by("design", "gmean_speedup",
                      lambda s: s["OuterSPACE"] > 2), _Q + _C),
            Claim("SpArch is faster than OuterSPACE (paper: 18x vs 5x)",
                  _by("design", "gmean_speedup",
                      lambda s: s["SpArch"] > s["OuterSPACE"]), _Q + _C),
            Claim("G is faster than SpArch (paper: 33x vs 18x)",
                  _by("design", "gmean_speedup",
                      lambda s: s["G"] > s["SpArch"]), _Q + _C),
            Claim("GP is at least as fast as G (paper: 38x vs 33x)",
                  _by("design", "gmean_speedup",
                      lambda s: s["GP"] >= s["G"]), _C),
            Claim("GP's gmean speedup over MKL is in (10, 120) (paper: "
                  "38x)",
                  _by("design", "gmean_speedup",
                      lambda s: 10 < s["GP"] < 120), _Q + _C),
            Claim("GP beats OuterSPACE by over 3x (paper: 7.7x)",
                  _by("design", "gmean_speedup",
                      lambda s: s["GP"] / s["OuterSPACE"] > 3), _Q + _C),
        ),
    ),
    FigureGenerator(
        "traffic", "Normalized DRAM traffic, all designs",
        "Figs. 12/16",
        lambda s, r: fig.traffic_figure(
            s.matrices, _title("Normalized traffic", s), r),
        (
            Claim("GP's gmean traffic is at most 1.02x G's (paper "
                  "Fig. 12: 1.07 vs 1.26 x compulsory)",
                  _agg(lambda g: g["GP"] <= g["G"] * 1.02), _Q + _C + _E),
            Claim("G's gmean traffic is below SpArch's (paper Fig. 12: "
                  "1.26 vs 1.59)",
                  _agg(lambda g: g["G"] < g["SpArch"]), _Q + _C),
            Claim("SpArch's gmean traffic is below OuterSPACE's (paper "
                  "Fig. 12: 1.59 vs ~4)",
                  _agg(lambda g: g["SpArch"] < g["OuterSPACE"]), _Q + _C),
            Claim("GP's gmean traffic is below 1.6x compulsory (paper "
                  "Fig. 12: 1.07)",
                  _agg(lambda g: g["GP"] < 1.6), _Q + _C),
            Claim("OuterSPACE's gmean traffic is in (2.5, 6.5)x "
                  "compulsory (paper Fig. 12: ~4)",
                  _agg(lambda g: 2.5 < g["OuterSPACE"] < 6.5), _Q + _C),
            Claim("GP's traffic is at most 1.05x OuterSPACE's on every "
                  "matrix (paper Fig. 12)",
                  lambda f: all(r["GP"] <= r["OuterSPACE"] * 1.05
                                for r in _per_matrix(f)), _Q + _C),
            Claim("OuterSPACE's gmean traffic is over 4x GP's (paper "
                  "Fig. 16: ~14x)",
                  _agg(lambda g: g["OuterSPACE"] / g["GP"] > 4), _E),
            Claim("SpArch's gmean traffic is over 1.5x GP's (paper "
                  "Fig. 16: ~3x)",
                  _agg(lambda g: g["SpArch"] / g["GP"] > 1.5), _Q + _E),
            Claim("OuterSPACE's worst traffic exceeds 10x compulsory "
                  "(paper Fig. 16: up to 54x)",
                  lambda f: max(r["OuterSPACE"]
                                for r in _per_matrix(f)) > 10, _E),
        ),
    ),
    FigureGenerator(
        "traffic_breakdown", "Traffic breakdown by stream and design",
        "Fig. 3",
        lambda s, r: fig.breakdown_figure(
            s.matrices, _title("Traffic breakdown", s), r),
        (
            Claim("GP moves less traffic than OuterSPACE on gupta2 and "
                  "web-Google (paper Fig. 3)",
                  _on(_TEASER, "design",
                      lambda t: t["GP"] < t["OuterSPACE"]), _P),
            Claim("GP moves less traffic than SpArch on gupta2 and "
                  "web-Google (paper Fig. 3)",
                  _on(_TEASER, "design",
                      lambda t: t["GP"] < t["SpArch"]), _P),
            Claim("G moves less traffic than OuterSPACE on gupta2 and "
                  "web-Google (paper Fig. 3)",
                  _on(_TEASER, "design",
                      lambda t: t["G"] < t["OuterSPACE"]), _P),
            Claim("IP moves over 2x GP's traffic on web-Google (paper "
                  "Fig. 3: 28x compulsory)",
                  _on(("web-Google",), "design",
                      lambda t: t["IP"] > 2 * t["GP"]), _P),
            Claim("OuterSPACE moves over 4x GP's traffic on gupta2 "
                  "(paper Fig. 3: partial outputs blow up)",
                  _on(("gupta2",), "design",
                      lambda t: t["OuterSPACE"] > 4 * t["GP"]), _P),
        ),
    ),
    FigureGenerator(
        "bandwidth", "Memory bandwidth utilization, G and GP",
        "Figs. 13/17",
        lambda s, r: fig.bandwidth_figure(
            s.matrices, _title("Bandwidth utilization", s), r),
        (
            Claim("G's mean bandwidth utilization exceeds 0.7 (paper "
                  "Fig. 13: saturates 128 GB/s)",
                  _agg(lambda m: m["G"] > 0.7, "mean"), _Q + _C),
            Claim("GP's mean bandwidth utilization exceeds 0.7 (paper "
                  "Fig. 13: saturates 128 GB/s)",
                  _agg(lambda m: m["GP"] > 0.7, "mean"), _Q + _C),
            Claim("GP's utilization exceeds 0.9 on at least half the "
                  "rows (paper Fig. 13: on almost every matrix)",
                  lambda f: sum(r["GP"] > 0.9 for r in _per_matrix(f))
                  >= len(f["rows"]) // 2, _Q + _C),
            Claim("GP's utilization is below 0.85 on at least 3 matrices "
                  "(paper Fig. 17: denser ones turn compute-bound)",
                  lambda f: sum(r["GP"] < 0.85
                                for r in _per_matrix(f)) >= 3, _E),
            Claim("GP's mean bandwidth utilization is in (0.2, 1.0] "
                  "(paper Fig. 17)",
                  _agg(lambda m: 0.2 < m["GP"] <= 1.0, "mean"), _Q + _E),
        ),
    ),
    FigureGenerator(
        "cache_util", "FiberCache utilization by fiber type",
        "Figs. 14/18",
        lambda s, r: fig.cache_util_figure(
            s.matrices, _title("FiberCache utilization", s), r),
        (
            Claim("B fibers take at least the partial-fiber share of G's "
                  "FiberCache on every matrix (paper Fig. 14)",
                  lambda f: all(r["G_B"] >= r["G_partial"]
                                for r in f["rows"]), _Q + _C),
            Claim("Partial fibers take over 1% of G's FiberCache on some "
                  "matrix (paper Fig. 14: wiki-Vote, email-Enron)",
                  lambda f: any(r["G_partial"] > 0.01
                                for r in f["rows"]), _Q + _C),
            Claim("Partial fibers take over 5% of GP's FiberCache on some "
                  "matrix (paper Fig. 18: Maragal_7 ~35%)",
                  lambda f: max(r["GP_partial"]
                                for r in f["rows"]) > 0.05, _Q + _E),
            Claim("Partial fibers take under 2% of GP's FiberCache on "
                  "some matrix (paper Fig. 18: NotreDame_actors none)",
                  lambda f: min(r["GP_partial"]
                                for r in f["rows"]) < 0.02, _Q + _E),
        ),
    ),
    FigureGenerator(
        "preprocessing", "Preprocessing ablation traffic breakdown",
        "Fig. 19",
        lambda s, r: fig.preprocessing_figure(
            s.matrices, _title("Preprocessing ablation", s), r),
        (
            Claim("Reordering (+R) cuts traffic below G's on Maragal_7 "
                  "and sme3Db (paper Fig. 19: ~6x on sme3Db)",
                  _on(_ABLATION, "variant",
                      lambda t: t["+R"] < t["G"]), _P),
            Claim("Selective tiling (+R+ST) moves at most 1.02x the "
                  "traffic of tiling all rows (+R+T) on Maragal_7 and "
                  "sme3Db (paper Fig. 19)",
                  _on(_ABLATION, "variant",
                      lambda t: t["+R+ST"] <= t["+R+T"] * 1.02), _P),
            Claim("Tiling all rows (+R+T) moves over 1.5x +R's traffic "
                  "on sme3Db (paper Fig. 19: 13x)",
                  _on(("sme3Db",), "variant",
                      lambda t: t["+R+T"] > 1.5 * t["+R"]), _P),
            Claim("Selective tiling (+R+ST) moves at most 1.02x +R's "
                  "traffic on sme3Db (paper Fig. 19: rows stay untiled)",
                  _on(("sme3Db",), "variant",
                      lambda t: t["+R+ST"] <= t["+R"] * 1.02), _P),
            Claim("Selective tiling (+R+ST) cuts traffic below +R's on "
                  "Maragal_7 (paper Fig. 19: 7.1x below G)",
                  _on(("Maragal_7",), "variant",
                      lambda t: t["+R+ST"] < t["+R"]), _P),
        ),
    ),
    FigureGenerator(
        "scheduling", "Multi-PE vs single-PE-per-row scheduling",
        "Fig. 20",
        lambda s, r: fig.scheduling_figure(
            s.scheduling_matrix, _title("Scheduling ablation", s), r),
        (
            Claim("Multi-PE scheduling takes at most 1.02x single-PE's "
                  "cycles (paper Fig. 20: 17% faster)",
                  _by("scheduler", "cycles",
                      lambda c: c["multi-PE"] <= c["single-PE"] * 1.02),
                  _Q + _C),
            Claim("Multi-PE scheduling moves at most 1.02x single-PE's "
                  "traffic (paper Fig. 20: 18% less)",
                  _by("scheduler", "total",
                      lambda t: t["multi-PE"] <= t["single-PE"] * 1.02),
                  _Q + _C),
            Claim("Multi-PE speedup over single-PE is at least 0.98x "
                  "(paper Fig. 20: 1.17x)",
                  lambda f: f["speedup"] >= 0.98, _Q + _C),
        ),
    ),
    FigureGenerator(
        "roofline", "Roofline placement of every matrix, G and GP",
        "Fig. 21",
        lambda s, r: fig.roofline_figure(
            s.matrices, _title("Roofline", s), r),
        (
            Claim("Over 60% of points reach 80% of the roof (paper "
                  "Fig. 21: almost all sit on the roofline)",
                  lambda f: sum(r["efficiency"] > 0.8 for r in f["rows"])
                  / len(f["rows"]) > 0.6, _Q + _P),
            Claim("Some point is memory-bound, below the ridge intensity "
                  "(paper Fig. 21)",
                  lambda f: any(r["intensity"] < _ridge()
                                for r in f["rows"]), _Q + _P),
            Claim("Some point is compute-bound, above the ridge "
                  "intensity (paper Fig. 21)",
                  lambda f: any(r["intensity"] > _ridge()
                                for r in f["rows"]), _Q + _P),
        ),
    ),
    FigureGenerator(
        "pe_scaling", "PE-count scaling sweep",
        "Figs. 22/23",
        lambda s, r: fig.pe_sweep_figure(
            s.matrices, _title("PE scaling", s), r),
        (
            Claim("32 PEs are at least as fast as 8 (paper Fig. 22)",
                  _by("pes", "gmean_speedup",
                      lambda s: s["32"] >= s["8"]), _Q + _C),
            Claim("128 PEs gain under 1.35x over 32 (paper Fig. 22: "
                  "memory-bound by 32 PEs)",
                  _by("pes", "gmean_speedup",
                      lambda s: s["128"] / s["32"] < 1.35), _Q + _C),
            Claim("Mean traffic varies under 1.4x across PE counts "
                  "(paper Fig. 22: the cache sets it)",
                  _by("pes", "mean_traffic",
                      lambda t: max(t.values()) / min(t.values()) < 1.4),
                  _C),
            Claim("32 PEs are faster than 8 (paper Fig. 23)",
                  _by("pes", "gmean_speedup",
                      lambda s: s["32"] > s["8"]), _Q + _E),
            Claim("128 PEs gain over 1.15x over 32 (paper Fig. 23: +65%)",
                  _by("pes", "gmean_speedup",
                      lambda s: s["128"] / s["32"] > 1.15), _E),
        ),
    ),
    FigureGenerator(
        "cache_scaling", "FiberCache-size scaling sweep",
        "Figs. 24/25",
        lambda s, r: fig.cache_sweep_figure(
            s.matrices, _title("FiberCache scaling", s), r),
        (
            Claim("A 12 MB FiberCache is at least 0.98x as fast as 3 MB "
                  "(paper Fig. 24: smooth gains above 1.5 MB)",
                  _by("cache_size", "gmean_speedup",
                      lambda s: s["12.0MB"] >= s["3.0MB"] * 0.98), _Q + _C),
            Claim("A 3 MB FiberCache is faster than 0.75 MB (paper "
                  "Fig. 24)",
                  _by("cache_size", "gmean_speedup",
                      lambda s: s["3.0MB"] > s["0.75MB"]), _Q + _C),
            Claim("Traffic at 0.75 MB exceeds 1.25x the 3 MB traffic "
                  "(paper Fig. 24: the small-cache cliff)",
                  _by("cache_size", "mean_traffic",
                      lambda t: t["0.75MB"] > 1.25 * t["3.0MB"]), _Q + _C),
            Claim("A 12 MB FiberCache is at least as fast as 0.75 MB "
                  "(paper Fig. 25)",
                  _by("cache_size", "gmean_speedup",
                      lambda s: s["12.0MB"] >= s["0.75MB"]), _Q + _E),
            Claim("Traffic at 0.75 MB exceeds 1.5x the 12 MB traffic "
                  "(paper Fig. 25: up to ~8x compulsory)",
                  _by("cache_size", "mean_traffic",
                      lambda t: t["0.75MB"] > 1.5 * t["12.0MB"]), _Q + _E),
        ),
    ),
    FigureGenerator(
        "spmv", "Gamma SpMV (GUST-style) by vector operand shape",
        "extension",
        lambda s, r: fig.spmv_figure(
            s.matrices, _title("Gamma SpMV", s), r),
    ),
    FigureGenerator(
        "energy", "Energy across designs (parametric model)",
        "extension",
        lambda s, r: fig.energy_figure(
            s.matrices, _title("Energy", s), r),
        (
            Claim("Gamma+pre uses at most 1.02x Gamma's gmean energy",
                  _by("design", "gmean_energy_uj",
                      lambda e: e["Gamma+pre"] <= e["Gamma"] * 1.02),
                  _Q + _C),
            Claim("Gamma uses less energy than SpArch (it moves less "
                  "data, paper Fig. 12)",
                  _by("design", "gmean_energy_uj",
                      lambda e: e["Gamma"] < e["SpArch"]), _Q + _C),
            Claim("SpArch uses less energy than OuterSPACE (it moves "
                  "less data, paper Fig. 12)",
                  _by("design", "gmean_energy_uj",
                      lambda e: e["SpArch"] < e["OuterSPACE"]), _Q + _C),
            Claim("DRAM takes over 40% of Gamma's energy",
                  _by("design", "mean_dram_share",
                      lambda d: d["Gamma"] > 0.4), _Q + _C),
        ),
    ),
    FigureGenerator(
        "dataflows", "Dataflow work counts (IP/OP/Gustavson)",
        "Fig. 2 / Sec. 2.2",
        lambda s, r: fig.dataflows_figure(
            s.dataflow_matrices, _title("Dataflow work counts", s)),
        (
            Claim("All three dataflows do the same effectual multiplies "
                  "on every matrix (Sec. 2.2)",
                  _flows(lambda d: d["inner_product"]["effectual"]
                         == d["outer_product"]["effectual"]
                         == d["gustavson"]["effectual"]), _Q + _C),
            Claim("Inner product's ineffectual comparisons exceed 2x its "
                  "effectual multiplies (Sec. 2.2)",
                  _flows(lambda d: d["inner_product"]["ineffectual"]
                         > 2 * d["inner_product"]["effectual"]), _Q + _C),
            Claim("Outer product's peak intermediate exceeds 10x "
                  "Gustavson's (Sec. 2.2)",
                  _flows(lambda d: d["outer_product"]["intermediate"]
                         > 10 * d["gustavson"]["intermediate"]), _Q + _C),
            Claim("Gustavson does no ineffectual work (Sec. 2.2)",
                  _flows(lambda d: d["gustavson"]["ineffectual"] == 0),
                  _Q + _C),
        ),
    ),
    FigureGenerator(
        "matraptor", "MatRaptor vs Gamma (Gustavson without B reuse)",
        "Sec. 7",
        lambda s, r: fig.matraptor_figure(
            s.matrices, _title("MatRaptor vs Gamma", s), r),
        (
            Claim("MatRaptor beats OuterSPACE (paper Sec. 7: 1.8x)",
                  _agg(lambda g: g["matraptor_vs_os"] > 1.0), _Q + _C),
            Claim("Gamma's gain over OuterSPACE exceeds 1.4x MatRaptor's "
                  "(paper Sec. 7: 6.6x vs 1.8x)",
                  _agg(lambda g: g["gamma_vs_os"]
                       > 1.4 * g["matraptor_vs_os"]), _Q + _C),
            Claim("Gamma moves less traffic than MatRaptor (it reuses B, "
                  "paper Sec. 7)",
                  _agg(lambda g: g["gamma_traffic"]
                       < g["matraptor_traffic"]), _Q + _C),
        ),
    ),
    FigureGenerator(
        "suite", "Matrix-suite characteristics",
        "Tables 3/4",
        lambda s, r: fig.suite_figure(
            s.suite_specs(), _title("Matrix suite", s)),
        (
            Claim("The common set has 19 matrices (paper Table 3)",
                  lambda f: len(f["rows"]) == 19, _C),
            Claim("The extended set has 18 matrices (paper Table 4)",
                  lambda f: len(f["rows"]) == 18, _E),
            Claim("No scaled matrix has more rows than the paper's "
                  "(Tables 3/4; ~1/64 scale)",
                  lambda f: all(r["rows"] <= r["paper_rows"]
                                for r in f["rows"]), _Q + _C + _E),
            Claim("Every matrix's nnz/row is in (0.5, 1.6)x the "
                  "published one (paper Table 3)",
                  lambda f: all(0.5 * r["paper_nnz_per_row"]
                                < r["nnz_per_row"]
                                < 1.6 * r["paper_nnz_per_row"]
                                for r in f["rows"]), _Q + _C),
            Claim("Every matrix's nnz/row is in (0.5, 1.6)x its spec's "
                  "target (paper Table 4; the densest are capped)",
                  lambda f: all(0.5 * _npr_target(r["matrix"])
                                < r["nnz_per_row"]
                                < 1.6 * _npr_target(r["matrix"])
                                for r in f["rows"]), _Q + _E),
            Claim("The densest matrix exceeds 100 nnz/row (paper "
                  "Table 4)",
                  lambda f: max(r["nnz_per_row"]
                                for r in f["rows"]) > 100, _E),
        ),
    ),
    FigureGenerator(
        "area", "Gamma area breakdown, model vs published",
        "Table 2",
        lambda s, r: fig.area_figure(_title("Area breakdown", s)),
        (
            Claim("Every component's modeled area is within 2% of the "
                  "published one (paper Table 2: 30.6 mm^2 in total)",
                  lambda f: all(abs(r["model_mm2"] - r["paper_mm2"])
                                <= 0.02 * r["paper_mm2"]
                                for r in f["rows"]), _ALL),
            Claim("The merger is 30% of a PE's area, within 0.03 (paper "
                  "Table 2)",
                  lambda f: abs(_pe_share(f, "Merger") - 0.30) < 0.03,
                  _ALL),
            Claim("The FP multiplier is 55% of a PE's area, within 0.03 "
                  "(paper Table 2)",
                  lambda f: abs(_pe_share(f, "FP Mul") - 0.55) < 0.03,
                  _ALL),
        ),
    ),
]


def figure_ids() -> List[str]:
    return [g.figure_id for g in FIGURE_GENERATORS]


def get_generator(figure_id: str) -> FigureGenerator:
    for generator in FIGURE_GENERATORS:
        if generator.figure_id == figure_id:
            return generator
    raise ValueError(
        f"unknown figure id {figure_id!r}; known: {figure_ids()}")
