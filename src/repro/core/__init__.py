"""Gamma accelerator core: PEs, merger, FiberCache, scheduler, simulator."""

from repro.core.accumulator import Accumulator, accumulate
from repro.core.dram import MemoryInterface, TrafficCounter
from repro.core.fibercache import CacheStats, FiberCache
from repro.core.fibercache_ref import ReferenceFiberCache
from repro.core.merger import HighRadixMerger, merge_cycles
from repro.core.pe import PEResult, ProcessingElement
from repro.core.result import SimulationResult
from repro.core.scheduler import Scheduler, WorkItem, WorkProgram
from repro.core.simulator import GammaSimulator, multiply
from repro.core.simulator_ref import (ReferenceGammaSimulator,
                                      multiply_reference)
from repro.core.tasks import Task, TaskInput, build_task_tree, tree_stats
from repro.core.trace import ExecutionTrace, TaskEvent

__all__ = [
    "Accumulator",
    "CacheStats",
    "ExecutionTrace",
    "FiberCache",
    "GammaSimulator",
    "HighRadixMerger",
    "MemoryInterface",
    "PEResult",
    "ProcessingElement",
    "ReferenceFiberCache",
    "ReferenceGammaSimulator",
    "Scheduler",
    "SimulationResult",
    "Task",
    "TaskEvent",
    "TaskInput",
    "TrafficCounter",
    "WorkItem",
    "WorkProgram",
    "accumulate",
    "build_task_tree",
    "merge_cycles",
    "multiply",
    "multiply_reference",
    "tree_stats",
]
