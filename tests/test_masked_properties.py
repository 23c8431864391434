"""Property-based tests (Hypothesis) for masked SpGEMM invariants.

Four laws, each over randomized operands, masks, and semirings:

* **containment** — the pattern of ``C<M>`` is a subset of M's pattern
  (disjoint from it under a complemented mask);
* **filter identity** — masked == unmasked-then-filtered, the defining
  GraphBLAS identity, bit-exact on the oracle and (tree-order
  tolerance for arithmetic) on the simulator;
* **triangle law** — ``sum((L x L)<L>)`` equals the brute-force
  O(n^3) triangle count;
* **degeneracy** — an empty mask yields an empty structural product and
  the full product under complement; a full mask the reverse.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_graph
from repro.apps import apply_mask, masked_spgemm, triangle_count
from repro.apps.triangles import triangle_count_reference
from repro.baselines.spgemm_ref import spgemm_semiring
from repro.config import GammaConfig
from repro.matrices.csr import CsrMatrix
from repro.semiring import ARITHMETIC, BOOLEAN, TROPICAL_MIN

SMALL_CONFIG = GammaConfig(
    num_pes=4, radix=4, fibercache_bytes=4 * 1024,
    fibercache_ways=4, fibercache_banks=4,
)

SEMIRINGS = {"arithmetic": ARITHMETIC, "boolean": BOOLEAN,
             "tropical": TROPICAL_MIN}

SETTINGS = settings(max_examples=20, deadline=None)


def build_pair(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 18))
    k = int(rng.integers(2, 18))
    n = int(rng.integers(2, 18))
    density = float(rng.choice([0.1, 0.25, 0.5]))
    a = (rng.random((m, k)) < density) * rng.uniform(0.1, 5.0, (m, k))
    b = (rng.random((k, n)) < density) * rng.uniform(0.1, 5.0, (k, n))
    return CsrMatrix.from_dense(a), CsrMatrix.from_dense(b)


def build_mask(seed, shape):
    rng = np.random.default_rng(seed + 104729)
    density = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
    return CsrMatrix.from_dense(
        (rng.random(shape) < density).astype(float))


def pattern(matrix):
    return {(row, int(col)) for row in range(matrix.num_rows)
            for col in matrix.row(row).coords}


seeds = st.integers(min_value=0, max_value=10_000)
semiring_names = st.sampled_from(sorted(SEMIRINGS))
complements = st.booleans()


class TestContainment:
    @SETTINGS
    @given(seed=seeds, name=semiring_names)
    def test_structural_output_within_mask(self, seed, name):
        a, b = build_pair(seed)
        mask = build_mask(seed, (a.num_rows, b.num_cols))
        result = masked_spgemm(a, b, mask, semiring=SEMIRINGS[name],
                               config=SMALL_CONFIG)
        assert pattern(result.output) <= pattern(mask)

    @SETTINGS
    @given(seed=seeds, name=semiring_names)
    def test_complement_output_disjoint_from_mask(self, seed, name):
        a, b = build_pair(seed)
        mask = build_mask(seed, (a.num_rows, b.num_cols))
        result = masked_spgemm(a, b, mask, complement=True,
                               semiring=SEMIRINGS[name],
                               config=SMALL_CONFIG)
        assert not (pattern(result.output) & pattern(mask))


class TestFilterIdentity:
    """masked == unmasked-then-filtered, under every semiring."""

    @SETTINGS
    @given(seed=seeds, name=semiring_names, complement=complements)
    def test_oracle_identity_bit_exact(self, seed, name, complement):
        a, b = build_pair(seed)
        semiring = SEMIRINGS[name]
        mask = build_mask(seed, (a.num_rows, b.num_cols))
        masked = spgemm_semiring(a, b, semiring, mask=mask,
                                 complement=complement)
        filtered = apply_mask(spgemm_semiring(a, b, semiring), mask,
                              complement=complement)
        assert masked.coords.tolist() == filtered.coords.tolist()
        assert masked.values.tolist() == filtered.values.tolist()

    @SETTINGS
    @given(seed=seeds, name=semiring_names, complement=complements)
    def test_simulator_matches_oracle(self, seed, name, complement):
        a, b = build_pair(seed)
        semiring = SEMIRINGS[name]
        mask = build_mask(seed, (a.num_rows, b.num_cols))
        expected = spgemm_semiring(a, b, semiring, mask=mask,
                                   complement=complement)
        result = masked_spgemm(a, b, mask, complement=complement,
                               semiring=semiring, config=SMALL_CONFIG)
        assert result.output.coords.tolist() == expected.coords.tolist()
        if name == "arithmetic":
            # Tree-order float summation: tolerance, not bit-equality.
            np.testing.assert_allclose(
                result.output.values, expected.values, rtol=1e-9)
        else:
            assert (result.output.values.tolist()
                    == expected.values.tolist())


class TestTriangleLaw:
    @SETTINGS
    @given(seed=seeds)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        adjacency = random_graph(n, 2.5, seed=seed, symmetric=True)
        result = triangle_count(adjacency, config=SMALL_CONFIG)
        assert result["triangles"] == triangle_count_reference(adjacency)


class TestDegeneracy:
    @SETTINGS
    @given(seed=seeds, name=semiring_names)
    def test_empty_mask(self, seed, name):
        a, b = build_pair(seed)
        semiring = SEMIRINGS[name]
        empty = CsrMatrix.from_dense(
            np.zeros((a.num_rows, b.num_cols)))
        structural = masked_spgemm(a, b, empty, semiring=semiring,
                                   config=SMALL_CONFIG)
        assert structural.output.nnz == 0
        assert structural.c_nnz == 0
        complement = masked_spgemm(a, b, empty, complement=True,
                                   semiring=semiring, config=SMALL_CONFIG)
        full = spgemm_semiring(a, b, semiring)
        assert pattern(complement.output) == pattern(full)

    @SETTINGS
    @given(seed=seeds, name=semiring_names)
    def test_full_mask(self, seed, name):
        a, b = build_pair(seed)
        semiring = SEMIRINGS[name]
        ones = CsrMatrix.from_dense(
            np.ones((a.num_rows, b.num_cols)))
        structural = masked_spgemm(a, b, ones, semiring=semiring,
                                   config=SMALL_CONFIG)
        full = spgemm_semiring(a, b, semiring)
        assert pattern(structural.output) == pattern(full)
        complement = masked_spgemm(a, b, ones, complement=True,
                                   semiring=semiring, config=SMALL_CONFIG)
        assert complement.output.nnz == 0
