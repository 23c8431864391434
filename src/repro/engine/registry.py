"""Model registry: every simulated design behind one ``run`` interface.

The paper's evaluation is a cross-product over designs — {Gamma, IP,
OuterSPACE, SpArch, MKL (+ MatRaptor from the extensions)} — and the old
experiment runner dispatched them through a hard-coded ``if/elif`` chain.
Here each design is a :class:`Model` registered by name; callers (the
experiment facade, the sweep engine, the CLI) look models up with
:func:`get_model` and invoke ``model.run(a, b, config, **variant)``,
always receiving a :class:`~repro.engine.record.RunRecord`.

Registering a new model is one decorated class::

    @register_model("mymodel")
    class MyModel:
        def run(self, a, b, config=None, *, matrix="", c_nnz=None, **kw):
            ...
            return RunRecord(...)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.analysis.traffic import compulsory_traffic
from repro.config import CpuConfig, GammaConfig
from repro.engine.defaults import (
    preprocess_options,
    scaled_cpu_config,
    scaled_gamma_config,
)
from repro.engine.record import RunRecord
from repro.matrices.csr import CsrMatrix

try:  # pragma: no cover - typing_extensions not required at runtime
    from typing import Protocol
except ImportError:  # Python < 3.8
    Protocol = object  # type: ignore[assignment]


class Model(Protocol):
    """What the engine requires of a registered model."""

    def run(self, a: CsrMatrix, b: CsrMatrix,
            config=None, **variant) -> RunRecord:
        """Evaluate C = A x B and return a serializable record."""
        ...


_REGISTRY: Dict[str, Callable[[], Model]] = {}


def register_model(name: str):
    """Class decorator adding a model factory to the registry."""

    def decorator(cls):
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_model(name: str) -> Model:
    """Instantiate the registered model ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_models() -> List[str]:
    return sorted(_REGISTRY)


def default_config_for(model: str) -> Union[GammaConfig, CpuConfig]:
    """The scaled experiment configuration a model runs under by default."""
    if model in CPU_MODELS:
        return scaled_cpu_config()
    return scaled_gamma_config()


# ----------------------------------------------------------------------
# Gamma
# ----------------------------------------------------------------------
@register_model("gamma")
class GammaModel:
    """The cycle-level Gamma simulator behind the registry interface.

    Backed by the batched :class:`~repro.core.GammaSimulator` (the
    data-oriented core: a functional pass over whole task graphs plus
    one timing loop); ``gamma-ref`` selects the event-ordered
    reference engine instead — both produce bit-identical records, so
    the pair doubles as an end-to-end lockstep check (``--engine`` at
    the CLI picks between them).

    ``collect_metrics=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to the simulator and serializes
    it onto ``RunRecord.metrics`` (the ``repro profile`` path); ``trace``
    optionally captures the per-task event stream. Both are off by
    default so sweeps pay no instrumentation cost.
    """

    def _simulator_class(self):
        from repro.core import GammaSimulator
        return GammaSimulator

    @staticmethod
    def _resolve_semiring(semiring):
        # 'arithmetic' maps to None (the simulator's default) so the
        # serving tier's semiring parameter changes nothing for the
        # sweep/figure paths that never set it.
        if isinstance(semiring, str):
            if semiring == "arithmetic":
                return None
            from repro.semiring import by_name
            return by_name(semiring)
        return semiring

    def run(self, a: CsrMatrix, b: CsrMatrix,
            config: Optional[GammaConfig] = None, *,
            matrix: str = "", variant: str = "none",
            multi_pe: bool = True, program=None,
            semiring="arithmetic", mask: str = "none",
            collect_metrics: bool = False, trace=None,
            **_ignored) -> RunRecord:
        from repro.preprocessing import preprocess

        config = config or scaled_gamma_config()
        metrics = None
        if collect_metrics:
            from repro.obs import MetricsRegistry
            metrics = MetricsRegistry()
        semiring_obj = self._resolve_semiring(semiring)
        if mask != "none":
            # Masked products narrow the B operand, so any preprocessed
            # program built for the full B would be stale — masked
            # points always run the plain row dataflow.
            from repro.apps.masked import MASK_MODES, default_mask, \
                masked_spgemm
            if mask not in MASK_MODES:
                raise ValueError(
                    f"unknown mask mode {mask!r}; known: {MASK_MODES}")
            if variant != "none" or program is not None:
                raise ValueError(
                    "masked runs do not compose with preprocessing "
                    f"variants (got variant={variant!r})")
            result = masked_spgemm(
                a, b, default_mask(a, b),
                complement=(mask == "complement"),
                semiring=semiring_obj, config=config,
                simulator_cls=self._simulator_class(),
                multi_pe=multi_pe, keep_output=False,
                trace=trace, metrics=metrics)
            return RunRecord.from_simulation(
                result, model=self.registry_name, matrix=matrix,
                variant=variant, multi_pe=multi_pe)
        if program is None:
            options = preprocess_options(variant)
            if options is not None:
                program = preprocess(a, b, config, options)
        sim = self._simulator_class()(
            config, multi_pe_scheduling=multi_pe, semiring=semiring_obj,
            keep_output=False, trace=trace, metrics=metrics)
        result = sim.run(a, b, program=program)
        return RunRecord.from_simulation(
            result, model=self.registry_name, matrix=matrix,
            variant=variant, multi_pe=multi_pe)

    registry_name = "gamma"


@register_model("gamma-ref")
class GammaReferenceModel(GammaModel):
    """The event-ordered reference Gamma engine (``--engine ref``)."""

    registry_name = "gamma-ref"

    def _simulator_class(self):
        from repro.core import ReferenceGammaSimulator
        return ReferenceGammaSimulator


@register_model("gamma-spmv")
class GammaSpmvModel(GammaModel):
    """GUST-style SpMV on the Gamma core (``y = A x``).

    Reuses the batched simulator on the operand collapsed to a
    ``k x 1`` vector (see :mod:`repro.baselines.spmv`); the ``operand``
    keyword selects the vector shape (``sparse-vector`` spMspV vs
    ``dense-vector`` classic SpMV; the cross-model default ``matrix``
    resolves to sparse). Preprocessing variants and masks target the
    SpGEMM operand structure and do not apply here.
    """

    registry_name = "gamma-spmv"

    def run(self, a: CsrMatrix, b: CsrMatrix,
            config: Optional[GammaConfig] = None, *,
            matrix: str = "", variant: str = "none",
            multi_pe: bool = True, operand: str = "matrix",
            semiring="arithmetic",
            collect_metrics: bool = False, trace=None,
            **_ignored) -> RunRecord:
        from repro.baselines.spmv import run_gamma_spmv

        config = config or scaled_gamma_config()
        if variant != "none":
            raise ValueError(
                "gamma-spmv does not take preprocessing variants "
                f"(got variant={variant!r})")
        metrics = None
        if collect_metrics:
            from repro.obs import MetricsRegistry
            metrics = MetricsRegistry()
        result = run_gamma_spmv(
            a, b, config, operand=operand,
            semiring=self._resolve_semiring(semiring),
            multi_pe=multi_pe, keep_output=False,
            trace=trace, metrics=metrics,
            simulator_cls=self._simulator_class())
        return RunRecord.from_simulation(
            result, model=self.registry_name, matrix=matrix,
            variant=variant, multi_pe=multi_pe)


#: Gamma engine selector: CLI ``--engine`` choice -> registry model name.
GAMMA_ENGINES = {"batched": "gamma", "ref": "gamma-ref"}

#: Models that are the cycle-level Gamma simulator (either engine); the
#: sweep engine treats these alike for record keying, program caching,
#: and c_nnz bootstrapping.
GAMMA_MODELS = frozenset(GAMMA_ENGINES.values())

#: Every model backed by the cycle-level simulator — the SpGEMM engines
#: plus the SpMV degeneration. These compute their own exact c_nnz and
#: accept semiring overrides; the sweep engine collects metrics and
#: skips the c_nnz-bootstrap prerequisite for them.
SIMULATOR_MODELS = GAMMA_MODELS | {"gamma-spmv"}

#: CPU platform models (roofline over the Gustavson kernel) — these run
#: under the scaled CpuConfig rather than a Gamma system config.
CPU_MODELS = frozenset({"mkl", "sparsezipper", "rvv"})


# ----------------------------------------------------------------------
# Baseline traffic models
# ----------------------------------------------------------------------
class _BaselineModel:
    """Adapter wrapping a ``run_*_model`` function as a registry model.

    Baselines need the true output size (``c_nnz``) for C write traffic;
    callers that know it (the sweep engine gets it from a cached Gamma
    record) pass it through, otherwise the model's own conservative upper
    bound applies.
    """

    registry_name: str = ""

    def _run_fn(self):
        raise NotImplementedError

    def _default_config(self):
        return scaled_gamma_config()

    def run(self, a: CsrMatrix, b: CsrMatrix, config=None, *,
            matrix: str = "", c_nnz: Optional[int] = None,
            **_ignored) -> RunRecord:
        config = config or self._default_config()
        result = self._run_fn()(a, b, config, c_nnz)
        compulsory = compulsory_traffic(a, b, result.c_nnz or c_nnz or 0)
        return RunRecord.from_baseline(
            result, model=self.registry_name, matrix=matrix,
            compulsory_bytes=compulsory, config=config)


@register_model("ip")
class InnerProductModel(_BaselineModel):
    registry_name = "ip"

    def _run_fn(self):
        from repro.baselines import run_inner_product_model
        return run_inner_product_model


@register_model("outerspace")
class OuterSpaceModel(_BaselineModel):
    registry_name = "outerspace"

    def _run_fn(self):
        from repro.baselines import run_outerspace_model
        return run_outerspace_model


@register_model("sparch")
class SpArchModel(_BaselineModel):
    registry_name = "sparch"

    def _run_fn(self):
        from repro.baselines import run_sparch_model
        return run_sparch_model


@register_model("matraptor")
class MatRaptorModel(_BaselineModel):
    registry_name = "matraptor"

    def _run_fn(self):
        from repro.baselines.matraptor import run_matraptor_model
        return run_matraptor_model


@register_model("mkl")
class MklModel(_BaselineModel):
    registry_name = "mkl"

    def _run_fn(self):
        from repro.baselines import run_mkl_model
        return run_mkl_model

    def _default_config(self):
        return scaled_cpu_config()


@register_model("sparsezipper")
class SparseZipperModel(_BaselineModel):
    """CPU with SparseZipper stream-merge matrix extensions."""

    registry_name = "sparsezipper"

    def _run_fn(self):
        from repro.baselines import run_sparsezipper_model
        return run_sparsezipper_model

    def _default_config(self):
        return scaled_cpu_config()


@register_model("rvv")
class RvvModel(_BaselineModel):
    """CPU running the vectorized SPA kernel on a RISC-V vector unit."""

    registry_name = "rvv"

    def _run_fn(self):
        from repro.baselines import run_rvv_model
        return run_rvv_model

    def _default_config(self):
        return scaled_cpu_config()
