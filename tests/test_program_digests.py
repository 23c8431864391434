"""Golden sha256 digests of preprocessed work programs (tier-1).

A program is its items' nonzero offsets into A, in processing order
(:class:`repro.core.scheduler.WorkProgram`). Cached programs, cached
simulations and the figure goldens all assume preprocessing emits the
same offsets for a given matrix, variant, FiberCache size and radix; a
tiling, reordering or reorder-guard change that moves one item fails
here, naming the program.

Tier-1 checks every program the quick figure scope plans; the ``slow``
run checks ``full`` and ``reorder_tile_all`` for every other suite
matrix at the scaled config, except those listed under ``left_out``
(their programs took more than 5 s to build when the golden was made).

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_program_digests.py --regenerate
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.engine.defaults import preprocess_options, scaled_gamma_config
from repro.matrices import suite
from repro.matrices.generators import GENERATOR_VERSION
from repro.preprocessing import preprocess

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "programs.json")

#: Variants the slow run pins for every suite matrix.
SUITE_VARIANTS = ("full", "reorder_tile_all")

#: Suite matrices whose programs took more than 5 s to build.
LEFT_OUT = {
    "cit-Patents": "reorder_tile_all took 25.8 s",
    "roadNet-CA": "reorder_tile_all took 5.9 s",
}


def program_id(matrix, variant, cache_bytes, radix):
    return f"{matrix}/{variant}/{cache_bytes}/{radix}"


def program_digest(program):
    """sha256 over the little-endian ``starts`` then ``ends``."""
    digest = hashlib.sha256(program.starts.astype("<i8").tobytes())
    digest.update(program.ends.astype("<i8").tobytes())
    return digest.hexdigest()


def describe(key):
    matrix, variant, cache_bytes, radix = key.split("/")
    a, b = suite.operands(matrix)
    config = scaled_gamma_config(fibercache_bytes=int(cache_bytes),
                                 radix=int(radix))
    return program_digest(
        preprocess(a, b, config, preprocess_options(variant)))


def quick_plan():
    """Program ids the quick figure scope asks the program cache for.

    The disk cache is off meanwhile: a cached record would skip its
    program lookup.
    """
    import os
    import tempfile

    from repro.engine import sweep
    from repro.engine.defaults import preprocess_config_key
    from repro.figures.pipeline import generate_figures

    planned = set()
    real = sweep.cached_program

    def spy(matrix, variant, config):
        if preprocess_options(variant) is not None:
            fields = preprocess_config_key(config)
            planned.add(program_id(matrix, variant,
                                   fields["fibercache_bytes"],
                                   fields["radix"]))
        return real(matrix, variant, config)

    saved = os.environ.get("REPRO_NO_DISK_CACHE")
    os.environ["REPRO_NO_DISK_CACHE"] = "1"
    sweep.cached_program = spy
    try:
        with tempfile.TemporaryDirectory() as out:
            generate_figures(out, scope="quick")
    finally:
        sweep.cached_program = real
        if saved is None:
            del os.environ["REPRO_NO_DISK_CACHE"]
        else:
            os.environ["REPRO_NO_DISK_CACHE"] = saved
    return sorted(planned)


def suite_ids():
    config = scaled_gamma_config()
    return [program_id(spec.name, variant, config.fibercache_bytes,
                       config.radix)
            for spec in list(suite.COMMON_SET) + list(suite.EXTENDED_SET)
            if spec.name not in LEFT_OUT
            for variant in SUITE_VARIANTS]


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def check(section, key):
    golden = load_golden()
    assert golden["generator_version"] == GENERATOR_VERSION
    assert describe(key) == golden[section][key], (
        f"program {key} changed: regenerate with PYTHONPATH=src python "
        "tests/test_program_digests.py --regenerate if intentional")


class TestProgramDigests:
    def test_quick_golden_is_the_quick_plan(self, monkeypatch):
        monkeypatch.setattr("repro.engine.sweep._PROGRAM_MEMO", {})
        assert quick_plan() == sorted(load_golden()["quick"])

    def test_suite_golden_covers_the_suite(self):
        golden = load_golden()
        assert sorted(golden["suite"]) == sorted(
            set(suite_ids()) - set(golden["quick"]))
        assert golden["left_out"] == LEFT_OUT

    @pytest.mark.parametrize("key", sorted(load_golden()["quick"]))
    def test_quick_program(self, key):
        check("quick", key)

    @pytest.mark.slow
    @pytest.mark.parametrize("key", sorted(load_golden()["suite"]))
    def test_suite_program(self, key):
        check("suite", key)


def regenerate():
    quick = quick_plan()
    GOLDEN_PATH.write_text(json.dumps({
        "description": (
            "sha256 of preprocessed work programs (little-endian int64 "
            "starts, then ends), keyed matrix/variant/fibercache_bytes/"
            "radix; see tests/test_program_digests.py"),
        "generator_version": GENERATOR_VERSION,
        "left_out": LEFT_OUT,
        "quick": {key: describe(key) for key in quick},
        "suite": {key: describe(key) for key in suite_ids()
                  if key not in quick},
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote program digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
