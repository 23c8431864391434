"""The evaluation matrix suites (paper Tables 3 and 4), as synthetic stand-ins.

Each :class:`MatrixSpec` records the published matrix characteristics and the
scaled-down generator parameters we substitute for it. Scaling strategy
(documented in DESIGN.md): row counts are divided by ~64 so pure-Python
simulation is tractable, keeping nnz/row — and hence arithmetic intensity and
the footprint:FiberCache ratio — as close to the paper as possible; a few very
dense extended-set matrices also cap nnz/row (with rows adjusted to preserve
footprint), recorded in ``npr_scaled``. Experiments run on a proportionally
scaled Gamma (see :func:`repro.experiments.runner.scaled_gamma_config`), so
every normalized metric (traffic ratio, bandwidth utilization, speedup) is
scale-invariant.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.matrices import generators
from repro.matrices.csr import CsrMatrix

#: Footprint scale factor between the paper's matrices and our stand-ins.
SUITE_SCALE = 64


@dataclass(frozen=True)
class MatrixSpec:
    """One matrix of the evaluation suites.

    Attributes:
        name: SuiteSparse name from the paper.
        family: Generator family capturing the matrix's structure.
        paper_rows / paper_cols / paper_npr: Published characteristics
            (Tables 3-4). ``paper_cols`` equals ``paper_rows`` for square
            matrices.
        rows / cols / npr: Scaled generator parameters.
        square: Whether the matrix is square (non-square ones are evaluated
            as A x A^T, per Sec. 5).
        seed: Generator seed (deterministic suite).
        gen_kwargs: Extra per-family generator arguments.
        npr_scaled: True when nnz/row was reduced relative to the paper
            (only some dense extended-set matrices).
    """

    name: str
    family: str
    paper_rows: int
    paper_cols: int
    paper_npr: float
    rows: int
    cols: int
    npr: float
    square: bool = True
    seed: int = 0
    gen_kwargs: Dict = field(default_factory=dict)
    npr_scaled: bool = False

    def generate(self) -> CsrMatrix:
        """Materialize the synthetic stand-in."""
        if self.family == "uniform":
            return generators.uniform_random(
                self.rows, self.cols, self.npr, seed=self.seed,
                **self.gen_kwargs)
        if self.family == "power_law":
            return generators.power_law(
                self.rows, self.cols, self.npr, seed=self.seed,
                **self.gen_kwargs)
        if self.family == "mesh":
            return generators.mesh(
                self.rows, self.npr, seed=self.seed, **self.gen_kwargs)
        if self.family == "road":
            return generators.road_network(self.rows, seed=self.seed,
                                           **self.gen_kwargs)
        if self.family == "mixed":
            return generators.mixed_density(
                self.rows, self.cols, seed=self.seed, **self.gen_kwargs)
        if self.family == "block":
            return generators.block_random(
                self.rows, self.cols, self.npr, seed=self.seed,
                **self.gen_kwargs)
        if self.family == "band":
            return generators.diagonal_band(
                self.rows, self.cols, self.npr, seed=self.seed,
                **self.gen_kwargs)
        raise ValueError(f"unknown matrix family {self.family!r}")


def _name_seed(name: str) -> int:
    """Stable per-matrix seed.

    ``hash(str)`` is salted per interpreter process, which would make the
    suite differ between processes — torpedoing both the disk cache and
    parallel-vs-serial sweep determinism. CRC32 is stable everywhere.
    """
    return zlib.crc32(name.encode()) % (2**31)


def _sq(name, family, paper_rows, paper_npr, rows, npr=None, seed=None,
        npr_scaled=False, **gen_kwargs) -> MatrixSpec:
    """Spec helper for square matrices."""
    npr = paper_npr if npr is None else npr
    return MatrixSpec(
        name=name, family=family, paper_rows=paper_rows,
        paper_cols=paper_rows, paper_npr=paper_npr,
        rows=rows, cols=rows, npr=npr, square=True,
        seed=_name_seed(name) if seed is None else seed,
        gen_kwargs=gen_kwargs, npr_scaled=npr_scaled or npr != paper_npr,
    )


def _rect(name, family, paper_rows, paper_cols, paper_npr, rows, cols,
          npr=None, seed=None, **gen_kwargs) -> MatrixSpec:
    """Spec helper for non-square matrices (evaluated as A x A^T)."""
    npr = paper_npr if npr is None else npr
    return MatrixSpec(
        name=name, family=family, paper_rows=paper_rows,
        paper_cols=paper_cols, paper_npr=paper_npr,
        rows=rows, cols=cols, npr=npr, square=False,
        seed=_name_seed(name) if seed is None else seed,
        gen_kwargs=gen_kwargs, npr_scaled=npr != paper_npr,
    )


#: Table 3 — the "common set" used by OuterSPACE and SpArch's evaluations.
COMMON_SET: List[MatrixSpec] = [
    _sq("patents_main", "power_law", 240_547, 2.33, 3758, row_skew=1.2,
        max_degree=24),
    _sq("p2p-Gnutella31", "power_law", 62_586, 2.36, 978, row_skew=1.0,
        max_degree=30),
    _sq("roadNet-CA", "road", 1_971_281, 2.81, 30_625),
    _sq("webbase-1M", "power_law", 1_000_005, 3.11, 15_625, row_skew=2.2,
        max_degree=200),
    _sq("m133-b3", "uniform", 200_200, 4.00, 3128),
    _sq("cit-Patents", "power_law", 3_774_768, 4.38, 58_981, row_skew=1.4,
        max_degree=150),
    _sq("mario002", "band", 389_874, 5.38, 6092),
    _sq("web-Google", "power_law", 916_428, 5.57, 14_319, row_skew=1.9,
        max_degree=90),
    _sq("scircuit", "block", 170_998, 5.61, 2672, num_blocks=24),
    _sq("amazon0312", "block", 400_727, 7.99, 6261, num_blocks=32),
    _sq("ca-CondMat", "block", 23_133, 8.08, 361, num_blocks=8),
    _sq("email-Enron", "power_law", 36_692, 10.02, 573, row_skew=1.9,
        max_degree=180, locality=0.2),
    _sq("wiki-Vote", "power_law", 8_297, 12.50, 256, row_skew=1.6,
        max_degree=140, locality=0.2),
    _sq("cage12", "mesh", 130_228, 15.61, 2035),
    _sq("2cubes_sphere", "mesh", 101_492, 16.23, 1586),
    _sq("offshore", "mesh", 259_789, 16.33, 4059),
    _sq("cop20k_A", "mesh", 121_192, 21.65, 1894),
    _sq("filter3D", "mesh", 106_437, 25.43, 1663),
    _sq("poisson3Da", "mesh", 13_514, 26.10, 256),
]

#: Table 4 — the "extended set": denser, larger, and non-square matrices.
EXTENDED_SET: List[MatrixSpec] = [
    _rect("NotreDame_actors", "power_law", 392_400, 127_823, 3.75,
          6131, 1997, row_skew=1.6, max_degree=120),
    _rect("relat8", "uniform", 345_688, 12_347, 3.86, 2701, 96),
    _rect("Maragal_7", "mixed", 46_845, 26_564, 25.63, 732, 415,
          sparse_nnz_per_row=12.0, dense_row_fraction=0.10,
          dense_row_nnz=250),
    _rect("degme", "mixed", 185_501, 659_415, 43.81, 2899, 10_303,
          sparse_nnz_per_row=30.0, dense_row_fraction=0.01,
          dense_row_nnz=1600),
    _sq("gupta2", "mixed", 62_064, 68.45, 485,
        sparse_nnz_per_row=66.0, dense_row_fraction=0.02,
        dense_row_nnz=120, npr_scaled=True),
    _sq("vsp_bcsstk30_500", "mesh", 58_348, 69.12, 656, npr=48.0,
        band_factor=0.75),
    _sq("Ge87H76", "mesh", 112_985, 69.85, 1027, npr=40.0, band_factor=0.75),
    _sq("raefsky3", "mesh", 21_200, 70.22, 485, npr=48.0, band_factor=0.75),
    _sq("sme3Db", "mesh", 29_067, 71.60, 677, npr=48.0, renumber=True,
        band_factor=0.75),
    _sq("Ge99H100", "mesh", 112_985, 74.80, 1100, npr=40.0, band_factor=0.75),
    _sq("x104", "mesh", 108_384, 80.40, 1135, npr=40.0, band_factor=0.75),
    _sq("m_t1", "mesh", 97_578, 99.96, 952, npr=40.0, band_factor=0.75),
    _sq("ship_001", "mesh", 34_920, 111.58, 692, npr=44.0, band_factor=0.75),
    _sq("msc10848", "mesh", 10_848, 113.36, 400, npr=48.0, band_factor=0.75),
    _rect("EternityII_Etilde", "uniform", 10_054, 204_304, 116.42,
          157, 3192, npr=116.42),
    _sq("opt1", "mesh", 15_449, 124.97, 628, npr=48.0, band_factor=0.75),
    _sq("ramage02", "mesh", 16_830, 170.31, 933, npr=48.0, band_factor=0.75),
    _rect("nemsemm1", "mixed", 3_945, 75_352, 267.17, 62, 1177,
          npr=267.17, sparse_nnz_per_row=150.0, dense_row_fraction=0.1,
          dense_row_nnz=900),
]

_BY_NAME: Dict[str, MatrixSpec] = {
    spec.name: spec for spec in COMMON_SET + EXTENDED_SET
}


def spec_by_name(name: str) -> MatrixSpec:
    """Look up a suite matrix by its SuiteSparse name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown suite matrix {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def common_set_names() -> List[str]:
    return [spec.name for spec in COMMON_SET]


def extended_set_names() -> List[str]:
    return [spec.name for spec in EXTENDED_SET]


_CACHE: Dict[str, CsrMatrix] = {}


def load(name: str) -> CsrMatrix:
    """Generate (and memoize) a suite matrix by name."""
    if name not in _CACHE:
        _CACHE[name] = spec_by_name(name).generate()
    return _CACHE[name]


def operands(name: str) -> Tuple[CsrMatrix, CsrMatrix]:
    """The (A, B) pair evaluated for this matrix.

    Square matrices are squared (A x A); non-square ones compute A x A^T,
    both per the paper's Sec. 5.
    """
    spec = spec_by_name(name)
    a = load(name)
    if spec.square:
        return a, a
    return a, a.transpose()
