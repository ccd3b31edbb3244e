"""Parallel runtime: task construction, FindSrc, scheduling, real threads.

The paper parallelizes with OpenMP ``schedule(dynamic, |T|)`` on the
CPU/KNL (fine-grained edge-range tasks) and with hardware block scheduling
on the GPU (coarse-grained per-vertex tasks).  This package provides the
equivalent machinery: task partitioners, the amortized ``FindSrc`` source
lookup, an event-driven dynamic-scheduler simulator (used by the processor
models), and a real ``multiprocessing`` execution path.
"""

from repro.parallel.tasks import (
    fine_grained_chunks,
    coarse_grained_tasks,
    DEFAULT_TASK_SIZE,
)
from repro.parallel.findsrc import SourceFinder
from repro.parallel.scheduler import (
    Schedule,
    simulate_dynamic,
    simulate_sharded,
    simulate_static,
    chunk_work,
)
from repro.parallel.metrics import (
    ChunkStat,
    ParallelStats,
    ShardStat,
    WorkerTelemetry,
)
from repro.parallel.sharedmem import AttachedCSR, SharedCSRHandle, SharedGraph
from repro.parallel.pool import (
    ShardedGraph,
    ShardHandle,
    WorkerPool,
    resolve_start_method,
)
from repro.parallel.skeleton import run_parallel_skeleton, SkeletonStats

__all__ = [
    "fine_grained_chunks",
    "coarse_grained_tasks",
    "DEFAULT_TASK_SIZE",
    "SourceFinder",
    "Schedule",
    "simulate_dynamic",
    "simulate_sharded",
    "simulate_static",
    "chunk_work",
    "ChunkStat",
    "ParallelStats",
    "ShardStat",
    "WorkerTelemetry",
    "AttachedCSR",
    "SharedCSRHandle",
    "SharedGraph",
    "ShardedGraph",
    "ShardHandle",
    "WorkerPool",
    "resolve_start_method",
    "run_parallel_skeleton",
    "SkeletonStats",
]
