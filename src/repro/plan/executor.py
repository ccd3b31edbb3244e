"""Execute a hybrid plan: one vectorized pass per kernel bucket.

The planner (:mod:`repro.plan.planner`) decides *where* each ``u < v``
edge's count comes from; this module runs the three production kernels
over their buckets and fuses everything through
:func:`repro.kernels.batch.symmetric_assign`:

* **cover** bucket → no kernel at all: zero-class edges keep the zeroed
  count vector, probe-class edges run one batched wedge-closure search
  (:func:`repro.plan.coveredge.probe_cover_counts`)
* **gallop** bucket → :func:`repro.kernels.batchsearch.count_edges_galloping`
* **bitmap** bucket → :func:`repro.kernels.batch.count_edges_bitmap`
* **matmul** bucket → :func:`repro.kernels.batch.count_all_edges_matmul`
  restricted to the planned rows

SpGEMM over a row produces counts for *all* of the row's edge offsets, not
just the planned ones; writing them is harmless because every kernel is
exact — overlapping writes agree bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.batch import (
    count_all_edges_matmul,
    count_edges_bitmap,
    symmetric_assign,
)
from repro.kernels.batchsearch import count_edges_galloping
from repro.plan.chunking import weighted_vertex_chunks
from repro.plan.planner import DEFAULT_SKEW_THRESHOLD, ExecutionPlan, get_plan

__all__ = [
    "HybridReport",
    "execute_plan",
    "count_all_edges_hybrid",
]


@dataclass(frozen=True)
class BucketTiming:
    """Measured wall time of one bucket next to the planner's prediction."""

    name: str
    edges: int
    predicted_ns: float
    measured_seconds: float

    @property
    def measured_ms(self) -> float:
        return self.measured_seconds * 1e3


@dataclass(frozen=True)
class HybridReport:
    """Execution record of one hybrid run (bench/CLI telemetry)."""

    plan: ExecutionPlan
    timings: tuple[BucketTiming, ...]
    fuse_seconds: float
    total_seconds: float

    def format(self) -> str:
        lines = [self.plan.format()]
        for t in self.timings:
            lines.append(
                f"ran    {t.name:7s}: {t.edges:>8d} edges in {t.measured_ms:9.2f} ms"
                f" (predicted {t.predicted_ns / 1e6:9.2f} ms)"
            )
        lines.append(f"symmetric assign : {self.fuse_seconds * 1e3:.2f} ms")
        lines.append(f"total            : {self.total_seconds * 1e3:.2f} ms")
        return "\n".join(lines)


def execute_plan(
    graph: CSRGraph,
    plan: ExecutionPlan,
    pool=None,
    chunks_per_worker: int = 4,
) -> tuple[np.ndarray, HybridReport]:
    """Run every bucket of ``plan`` and mirror to the full count vector.

    With a started one-segment :class:`~repro.parallel.pool.WorkerPool`
    as ``pool``, the bitmap bucket — the hybrid plan's dominant work on
    real graphs — is cut into ``effective_workers × chunks_per_worker``
    contiguous edge chunks of equal predicted cost (the same
    :func:`~repro.plan.chunking.weighted_vertex_chunks` cut the pool
    applies per vertex) and farmed out to the persistent workers;
    the gallop and matmul buckets stay vectorized in-process.  Results
    are bit-identical either way.
    """
    t_start = time.perf_counter()
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    timings = []

    bucket_ns = {b.name: b.predicted_ns for b in plan.buckets()}

    # Cover bucket: zero-class edges need no write (cnt starts zeroed);
    # probe-class edges are one batched wedge-closure search each.
    t0 = time.perf_counter()
    if len(plan.cover_probe_edges):
        from repro.plan.coveredge import probe_cover_counts

        cnt[plan.cover_probe_edges] = probe_cover_counts(
            graph, plan.cover_probe_src, plan.cover_probe_target
        )
    timings.append(
        BucketTiming(
            "cover",
            plan.num_cover_edges,
            bucket_ns["cover"],
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    if len(plan.gallop_edges):
        cnt[plan.gallop_edges] = count_edges_galloping(graph, plan.gallop_edges)
    timings.append(
        BucketTiming(
            "gallop",
            len(plan.gallop_edges),
            bucket_ns["gallop"],
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    if len(plan.bitmap_edges):
        if pool is not None and pool.is_parallel:
            eo = plan.bitmap_edges
            bounds, _ = weighted_vertex_chunks(
                plan.bitmap_cost,
                pool.effective_workers * max(1, int(chunks_per_worker)),
            )
            chunks = [eo[lo:hi] for lo, hi in bounds]
            for eo, vals in pool.run_edge_chunks(chunks):
                cnt[eo] = vals
        else:
            count_edges_bitmap(graph, plan.bitmap_edges, cnt)
    timings.append(
        BucketTiming(
            "bitmap",
            len(plan.bitmap_edges),
            bucket_ns["bitmap"],
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    if len(plan.matmul_rows):
        mm = count_all_edges_matmul(graph, rows=plan.matmul_rows)
        # The row product covers all of the row's offsets; restricting the
        # write to planned offsets would only discard identical values.
        lo = graph.offsets[plan.matmul_rows]
        hi = graph.offsets[plan.matmul_rows + 1]
        for a, b in zip(lo, hi):
            cnt[a:b] = mm[a:b]
    timings.append(
        BucketTiming(
            "matmul",
            len(plan.matmul_edges),
            bucket_ns["matmul"],
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    symmetric_assign(graph, cnt)
    fuse_seconds = time.perf_counter() - t0

    report = HybridReport(
        plan=plan,
        timings=tuple(timings),
        fuse_seconds=fuse_seconds,
        total_seconds=time.perf_counter() - t_start,
    )
    return cnt, report


def count_all_edges_hybrid(
    graph: CSRGraph,
    skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
    return_report: bool = False,
    cover: bool = True,
):
    """Plan (cached) + execute; the ``backend="hybrid"`` entry point.

    ``cover=False`` disables the cover-edge pre-pass bucket — every edge
    runs on a real intersection kernel (the pre-cover behavior, kept as
    a differential fuzz path and a planner A/B knob).
    """
    plan = get_plan(graph, skew_threshold, cover=cover)
    cnt, report = execute_plan(graph, plan)
    if return_report:
        return cnt, report
    return cnt
