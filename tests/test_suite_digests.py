"""Golden sha256 digests of every generated suite matrix (tier-1).

Cached simulations, program entries and the figure goldens all assume
the suite generators emit the same bytes for a given
``GENERATOR_VERSION``. A generator or builder change that moves a single
coordinate or value bit fails here, naming the matrix. Tier-1 checks
the smallest matrix of each generator family; the ``slow`` run checks
the whole suite.

If a change is *intentional*, bump ``GENERATOR_VERSION`` (stale cache
entries must not be reused) and regenerate with::

    PYTHONPATH=src python tests/test_suite_digests.py --regenerate
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.matrices import suite
from repro.matrices.generators import GENERATOR_VERSION

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "suite_matrices.json")

SPECS = list(suite.COMMON_SET) + list(suite.EXTENDED_SET)


def family_representatives():
    """The smallest (fewest expected nonzeros) spec of each family."""
    smallest = {}
    for spec in SPECS:
        best = smallest.get(spec.family)
        if best is None or spec.rows * spec.npr < best.rows * best.npr:
            smallest[spec.family] = spec
    return sorted(spec.name for spec in smallest.values())


def matrix_digest(matrix):
    """sha256 over the shape and the little-endian CSR arrays."""
    digest = hashlib.sha256(json.dumps(list(matrix.shape)).encode())
    digest.update(matrix.offsets.astype("<i8").tobytes())
    digest.update(matrix.coords.astype("<i8").tobytes())
    digest.update(matrix.values.astype("<f8").tobytes())
    return digest.hexdigest()


def describe(name):
    matrix = suite.spec_by_name(name).generate()
    return {"shape": list(matrix.shape), "nnz": matrix.nnz,
            "sha256": matrix_digest(matrix)}


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def check(name):
    golden = load_golden()
    assert golden["generator_version"] == GENERATOR_VERSION, (
        "GENERATOR_VERSION changed: regenerate with PYTHONPATH=src "
        "python tests/test_suite_digests.py --regenerate")
    assert describe(name) == golden["matrices"][name], (
        f"suite matrix {name} changed bytes at generator version "
        f"{GENERATOR_VERSION}: bump GENERATOR_VERSION if intentional, "
        "then regenerate with PYTHONPATH=src python "
        "tests/test_suite_digests.py --regenerate")


class TestSuiteDigests:
    def test_golden_covers_the_suite(self):
        assert sorted(load_golden()["matrices"]) == sorted(
            spec.name for spec in SPECS)

    @pytest.mark.parametrize("name", family_representatives())
    def test_family_representative(self, name):
        check(name)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(
        set(spec.name for spec in SPECS) - set(family_representatives())))
    def test_rest_of_suite(self, name):
        check(name)


def regenerate():
    GOLDEN_PATH.write_text(json.dumps({
        "description": (
            "sha256 of every generated suite matrix (shape plus "
            "little-endian offsets, coords and values); see "
            "tests/test_suite_digests.py"),
        "generator_version": GENERATOR_VERSION,
        "matrices": {spec.name: describe(spec.name) for spec in SPECS},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SPECS)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
