"""System configurations for the Gamma accelerator and baseline models.

All hardware parameters from the paper's Table 1 are defaults here. Model
calibration constants (element sizes, clock, bandwidth) are shared by the
Gamma simulator and the baseline traffic models so comparisons stay iso-cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Bytes per stored nonzero: 32-bit coordinate + 64-bit double value (Sec. 5).
ELEMENT_BYTES = 12

#: Bytes per offsets-array entry (row pointer).
OFFSET_BYTES = 4

#: Cache line size in bytes, used by FiberCache and all cache models.
LINE_BYTES = 64

#: Nonzero elements that fit in one cache line.
ELEMENTS_PER_LINE = LINE_BYTES // ELEMENT_BYTES  # 5


@dataclass(frozen=True)
class GammaConfig:
    """Configuration of a Gamma system (paper Table 1 defaults).

    Attributes:
        num_pes: Number of processing elements.
        radix: Merger radix; maximum fibers linearly combined per pass.
        fibercache_bytes: Total FiberCache capacity in bytes.
        fibercache_ways: Set associativity of the FiberCache.
        fibercache_banks: Number of FiberCache banks.
        frequency_hz: Clock frequency.
        memory_bandwidth_bytes_per_s: Aggregate main-memory bandwidth.
        memory_latency_cycles: Main memory access latency (80 ns at 1 GHz).
        detailed_pe_model: When True, PEs are simulated with the per-cycle
            merger-tree model instead of the 1-element/cycle closed form.
            Exact but much slower; intended for small matrices and tests.
    """

    num_pes: int = 32
    radix: int = 64
    fibercache_bytes: int = 3 * 1024 * 1024
    fibercache_ways: int = 16
    fibercache_banks: int = 48
    frequency_hz: float = 1e9
    memory_bandwidth_bytes_per_s: float = 128e9
    memory_latency_cycles: int = 80
    detailed_pe_model: bool = False

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {self.num_pes}")
        if self.radix < 2:
            raise ValueError(f"radix must be >= 2, got {self.radix}")
        if self.fibercache_bytes < LINE_BYTES:
            raise ValueError("fibercache_bytes smaller than one line")
        if self.fibercache_ways < 1:
            raise ValueError("fibercache_ways must be >= 1")
        num_lines = self.fibercache_bytes // LINE_BYTES
        if num_lines % self.fibercache_ways != 0:
            raise ValueError(
                f"{self.fibercache_bytes} bytes / {LINE_BYTES} B lines is not "
                f"divisible into {self.fibercache_ways} ways"
            )

    @property
    def bytes_per_cycle(self) -> float:
        """Memory bandwidth expressed in bytes per clock cycle."""
        return self.memory_bandwidth_bytes_per_s / self.frequency_hz

    @property
    def fibercache_lines(self) -> int:
        return self.fibercache_bytes // LINE_BYTES

    @property
    def fibercache_sets(self) -> int:
        return self.fibercache_lines // self.fibercache_ways

    @property
    def peak_flops(self) -> float:
        """Peak multiply-accumulate rate (one MAC = one FLOP, Sec. 6.5)."""
        return self.num_pes * self.frequency_hz

    def scaled(self, **overrides) -> "GammaConfig":
        """Return a copy with some parameters replaced (for sweeps)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class CpuConfig:
    """Model of the paper's MKL software baseline platform (Sec. 5).

    A 4-core / 8-thread Skylake Xeon E3-1240 v5 with two DDR4-2400 channels.
    ``spgemm_efficiency`` captures how far short of peak FLOPs an spMspM
    kernel lands due to irregular accesses and merge data structures; it is
    a single global constant, calibrated once against the paper's gmean
    Gamma-vs-MKL speedup, never tuned per matrix.
    """

    num_cores: int = 4
    frequency_hz: float = 3.5e9
    memory_bandwidth_bytes_per_s: float = 38.4e9  # 2 channels x 19.2 GB/s
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    spgemm_efficiency: float = 0.04

    @property
    def effective_flops(self) -> float:
        """Sustained spMspM multiply-accumulate rate."""
        return self.num_cores * self.frequency_hz * self.spgemm_efficiency


#: Default configurations used throughout the experiments.
DEFAULT_GAMMA = GammaConfig()
DEFAULT_CPU = CpuConfig()


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the Sec. 4 preprocessing pipeline.

    Attributes:
        reorder: Apply affinity-based row reordering (Sec. 4.1).
        tile: Apply coordinate-space tiling (Sec. 4.2).
        selective: Tile only rows whose estimated B footprint exceeds
            ``tile_threshold_fraction`` of the FiberCache; when False every
            row is tiled (the "+T" ablation of Fig. 19).
        tile_threshold_fraction: Footprint threshold for selective tiling.
        tile_threshold_bytes: Absolute footprint threshold; when set it
            overrides the fraction. Scaled-suite experiments use this
            because per-row footprints do not shrink with the suite scale
            (see DESIGN.md).
    """

    reorder: bool = True
    tile: bool = True
    selective: bool = True
    tile_threshold_fraction: float = 0.25
    tile_threshold_bytes: float | None = None

    def threshold_bytes(self, fibercache_bytes: int) -> float:
        """The effective tiling threshold for a given FiberCache size."""
        if self.tile_threshold_bytes is not None:
            return self.tile_threshold_bytes
        return self.tile_threshold_fraction * fibercache_bytes

    @staticmethod
    def none() -> "PreprocessConfig":
        """No preprocessing (plain Gamma, 'G' bars in the paper)."""
        return PreprocessConfig(reorder=False, tile=False)

    @staticmethod
    def full() -> "PreprocessConfig":
        """Row reordering + selective tiling ('GP' bars in the paper)."""
        return PreprocessConfig()

    @staticmethod
    def reorder_only() -> "PreprocessConfig":
        """'+R' ablation of Fig. 19."""
        return PreprocessConfig(tile=False)

    @staticmethod
    def reorder_tile_all() -> "PreprocessConfig":
        """'+R+T' ablation of Fig. 19 (tile every row)."""
        return PreprocessConfig(selective=False)
