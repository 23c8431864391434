"""Per-layer wall-clock attribution, measured from outside the program.

:func:`install` wraps the public callables each ``repro`` module exposes
(:data:`LAYERS`) and replaces every reference to them that a caller
resolves: the defining module's attribute, each module that imported the
name, a class's method, or an entry of the figure catalog. Nothing under
``src/`` changes. Each call records a span (layer, start, end, parent)
in memory; :func:`summarize` turns the spans of one pass into self
times. A layer's self time is its spans' duration minus the time of the
wrapped calls made inside them, so self times never double count and
their sum is the share of the pass the layers cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Layer name -> the ``module:attribute`` or ``module:Class.method``
#: callables timed as that layer.
LAYERS: Dict[str, List[str]] = {
    "baselines.dataflows": ["repro.baselines.dataflows:compare_dataflows"],
    "baselines.models": [
        "repro.baselines:run_inner_product_model",
        "repro.baselines:run_outerspace_model",
        "repro.baselines:run_sparch_model",
        "repro.baselines:run_mkl_model",
        "repro.baselines:run_sparsezipper_model",
        "repro.baselines:run_rvv_model",
        "repro.baselines.matraptor:run_matraptor_model",
    ],
    "preprocessing.preprocess": [
        "repro.preprocessing.pipeline:preprocess_with_report"],
    "preprocessing.tile": ["repro.preprocessing.tiling:tile_matrix"],
    "preprocessing.reorder": [
        "repro.preprocessing.reorder:affinity_reorder"],
    "preprocessing.estimate": [
        "repro.preprocessing.pipeline:estimate_b_traffic"],
    "core.simulate": ["repro.core.simulator:GammaSimulator.run"],
    "core.ref_simulate": [
        "repro.core.simulator_ref:ReferenceGammaSimulator.run"],
    "matrices.generate": ["repro.matrices.suite:MatrixSpec.generate"],
    "engine.cache_load": ["repro.engine.diskcache:load"],
    "engine.cache_store": ["repro.engine.diskcache:store"],
    "engine.program": ["repro.engine.sweep:cached_program"],
    "engine.execute_point": ["repro.engine.sweep:execute_point"],
    "figures.emit": [
        "repro.figures.pipeline:chart_csv_rows",
        "repro.figures.pipeline:vega_lite_spec",
        "repro.figures.pipeline:validate_vega_lite_spec",
        "repro.figures.pipeline:csv_bytes",
        "repro.figures.pipeline:spec_bytes",
        "repro.figures.pipeline:inputs_fingerprint",
        "repro.figures.pipeline:build_manifest",
        "repro.figures.pipeline:write_manifest",
    ],
}

#: Prefix of the per-figure layers (``figures.build.<figure_id>``).
FIGURE_BUILD = "figures.build."


def _simulation_attrs(result) -> Dict[str, Any]:
    dispatch = getattr(result, "dispatch", None) or {}
    return {"cycles": result.cycles, "tasks": result.num_tasks,
            "scalar": dispatch.get("scalar", 0),
            "epoch": dispatch.get("epoch", 0)}


#: Attributes recorded from a layer's arguments / return value.
_ARG_ATTRS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "engine.execute_point": lambda point, *a, **k: {
        "matrix": point.matrix, "model": point.model},
}
_RESULT_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "core.simulate": _simulation_attrs,
    "core.ref_simulate": _simulation_attrs,
    "engine.cache_load": lambda payload: {"hit": payload is not None},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        arg_attrs = _ARG_ATTRS.get(layer)
        result_attrs = _RESULT_ATTRS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span: Dict[str, Any] = {
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": arg_attrs(*args, **kwargs) if arg_attrs else {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if result_attrs is not None:
                span["attrs"].update(result_attrs(result))
            return result

        return traced


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer callable (importing its module first).

    Raises when a target no longer exists, so a renamed public function
    fails the traced run instead of silently zeroing its layer.
    """
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                setattr(cls, method,
                        tracer.wrap(layer, cls.__dict__[method]))
            else:
                original = getattr(module, attr)
                _replace_everywhere(original, tracer.wrap(layer, original))
    from repro.figures import generators

    catalog = generators.FIGURE_GENERATORS
    for index, generator in enumerate(catalog):
        catalog[index] = dataclasses.replace(generator, build=tracer.wrap(
            FIGURE_BUILD + generator.figure_id, generator.build))


def layer_names() -> List[str]:
    """Every layer :func:`install` times, figure builds included."""
    from repro.figures import generators

    return list(LAYERS) + [FIGURE_BUILD + g.figure_id
                           for g in generators.FIGURE_GENERATORS]


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


def _ancestor_attr(spans, index: int, key: str) -> Optional[Any]:
    parent = spans[index]["parent"]
    while parent is not None:
        if key in spans[parent]["attrs"]:
            return spans[parent]["attrs"][key]
        parent = spans[parent]["parent"]
    return None


def summarize(spans: List[Dict[str, Any]], wall: float) -> Dict[str, Any]:
    """Per-layer calls, total and self seconds of one pass, plus the
    simulator counters and per-matrix simulator time."""
    layers: Dict[str, Dict[str, float]] = {}
    by_matrix: Dict[str, Dict[str, float]] = {}
    sim = {"cycles": 0.0, "tasks": 0, "scalar": 0, "epoch": 0}
    cache = {"loads": 0, "hits": 0}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        layer = span["layer"]
        duration = span["end"] - span["start"]
        entry = layers.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
        if layer in ("core.simulate", "core.ref_simulate"):
            if layer == "core.simulate":
                for key in sim:
                    sim[key] += span["attrs"][key]
            matrix = _ancestor_attr(spans, index, "matrix")
            if matrix is not None:
                per = by_matrix.setdefault(matrix, {})
                per[layer] = per.get(layer, 0.0) + duration
        elif layer == "engine.cache_load":
            cache["loads"] += 1
            cache["hits"] += bool(span["attrs"]["hit"])
    return {"wall_s": wall, "layers": layers, "by_matrix": by_matrix,
            "simulator": sim, "cache": cache}
