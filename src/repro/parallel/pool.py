"""One worker-pool runtime for every multi-process counting path.

This is the substitute for the paper's OpenMP execution (§4): chunks of
roughly equal predicted work go onto a dynamic queue and a **persistent
pool of worker processes** pulls them until the queue drains — the
``schedule(dynamic)`` behavior the paper tunes with ``|T|``.

The pool runs over a :class:`ShardedGraph` export — the K shared-memory
segments of a :class:`~repro.plan.shardplan.ShardPlan` — with **one task
queue per segment** and its workers spread across the segments:

* ``parallel`` and the hybrid planner's pooled bitmap bucket use one
  segment (the CSR itself, exported once) with W workers pulling from its
  shared queue;
* ``sharded`` uses K segments with one worker each, so every worker maps
  only its own shard — the 2D decomposition of Tom & Karypis, with the
  single export as its 1-segment case.

A shard segment keeps the **full-length offsets array** (vertex ids stay
global) with the degrees of non-resident rows zeroed, and gathers ``dst``
only for the owned rows plus the boundary columns.  Owned rows are then
byte-identical to the global CSR, so local edge offsets map to global ones
by one per-segment scalar::

    global_eo = local_eo + (graph.offsets[lo] - local_offsets[lo])

Workers always return global offsets; the parent scatters them into one
count vector and mirrors through
:func:`~repro.kernels.batch.symmetric_assign` like every other backend.

Failure semantics: a worker exception or a dead worker makes the one
result collector tear the whole pool down and raise
:class:`~repro.errors.WorkerPoolError`.  A closed pool is never reused, so
no result of a failed request can reach a later one.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
import warnings
from dataclasses import dataclass, replace
from queue import Empty

import numpy as np

from repro.errors import SharedExportError, WorkerPoolError
from repro.graph.csr import CSRGraph
from repro.kernels.batch import count_edges_bitmap, symmetric_assign
from repro.parallel.metrics import ChunkStat, ParallelStats, ShardStat, rss_bytes
from repro.parallel.sharedmem import SharedCSRHandle, SharedGraph
from repro.plan.chunking import weighted_vertex_chunks
from repro.plan.shardplan import ShardPlan, ShardSpec

__all__ = [
    "ShardHandle",
    "ShardedGraph",
    "WorkerPool",
    "WorkerPoolError",
    "build_shard_csr",
    "count_vertex_range",
    "resolve_start_method",
]

#: Environment override for the pool's start method (used by the CI matrix
#: to pin both the fork and the spawn leg).
START_METHOD_ENV = "MP_START_METHOD"

#: ``start_method`` value that serves every segment in-process through the
#: same attach/count/remap data path (no worker processes).  Used by the
#: fuzzer and property tests to exercise shard arithmetic cheaply.
INLINE = "inline"

_STOP = None  # queue sentinel

_POLL_SECONDS = 1.0  # result wait before the collector checks for dead workers


def count_vertex_range(
    graph: CSRGraph, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Counts for all ``u < v`` edges whose source ``u`` lies in [lo, hi).

    Returns ``(edge_offsets, counts)`` for the computed entries.  Runs the
    :func:`~repro.kernels.batch.count_edges_bitmap` kernel — the same code
    path as the sequential bitmap backend — over the range's upper edge
    offsets into a compact buffer aligned with the offsets.
    """
    offsets = graph.offsets
    dst = graph.dst
    span = np.arange(int(offsets[lo]), int(offsets[hi]), dtype=np.int64)
    src = np.searchsorted(offsets, span, side="right") - 1
    eo = span[src < dst[span]]
    vals = np.zeros(len(eo), dtype=np.int64)
    if len(eo):
        count_edges_bitmap(graph, eo, vals, aligned=True)
    return eo, vals


def resolve_start_method(start_method: str | None = None) -> str:
    """Pick the pool's start method.

    Priority: explicit argument > ``MP_START_METHOD`` environment variable
    > ``fork`` when available (cheapest) > the platform default.  Unknown
    or unavailable methods raise ``ValueError`` so a CI matrix leg can
    never silently test the wrong path.
    """
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    available = mp.get_all_start_methods()
    if method is None:
        return "fork" if "fork" in available else mp.get_start_method()
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available on this platform "
            f"(have {available})"
        )
    return method


def build_shard_csr(graph: CSRGraph, spec: ShardSpec) -> tuple[CSRGraph, int]:
    """Materialize one shard's local CSR; returns ``(local, eo_delta)``.

    Resident rows are the owned range ``[lo, hi)`` plus the boundary
    columns; every other row keeps its global id but degree zero.  The
    returned delta maps local edge offsets of owned rows to global ones.
    A shard owning every vertex *is* the CSR, so it is returned as is
    rather than gathered into a second copy.
    """
    n = graph.num_vertices
    if spec.lo == 0 and spec.hi == n:
        return graph, 0
    degrees = graph.degrees
    keep = np.zeros(n, dtype=bool)
    keep[spec.lo : spec.hi] = True
    if len(spec.boundary):
        keep[spec.boundary] = True
    local_deg = np.where(keep, degrees, 0).astype(np.int64)
    local_off = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(local_deg)]
    )
    rows = np.flatnonzero(keep)
    if len(rows):
        starts = graph.offsets[rows]
        lens = degrees[rows].astype(np.int64)
        # Flat gather: one index array covering every resident row's slice.
        ends = np.cumsum(lens)
        flat = np.arange(int(ends[-1]), dtype=np.int64)
        flat += np.repeat(starts - np.concatenate(([0], ends[:-1])), lens)
        local_dst = graph.dst[flat]
    else:
        local_dst = graph.dst[:0].copy()
    local = CSRGraph(local_off, local_dst, validate=False)
    delta = int(graph.offsets[spec.lo] - local_off[spec.lo])
    return local, delta


@dataclass(frozen=True)
class ShardHandle:
    """Picklable reference to one exported segment."""

    index: int
    csr: SharedCSRHandle
    edge_offset_delta: int
    nbytes: int

    def attach(self):
        return self.csr.attach()


class ShardedGraph:
    """Parent-side owner of a shard plan's shared-memory segments.

    Generalizes :class:`~repro.parallel.sharedmem.SharedGraph` from one
    export to a plan's worth of them.  Segments are exported on the first
    access to :attr:`handles` (the picklable per-segment references
    workers attach), so an in-process pool over a one-segment layout never
    touches shared memory.  ``unlink()`` is idempotent and releases every
    segment; a failed export releases what it had built.  A plan whose
    budget no K could meet is exported anyway, with a ``RuntimeWarning``.
    """

    def __init__(self, graph: CSRGraph, plan: ShardPlan):
        if not plan.fits_budget:
            warnings.warn(
                f"shard budget {plan.budget_bytes} B is unsatisfiable: the "
                f"largest of {plan.num_shards} shards still attaches "
                f"{plan.max_shard_bytes} B (replicated offsets and hub "
                "boundary lists set a per-shard floor); proceeding over "
                "budget",
                RuntimeWarning,
                stacklevel=2,
            )
        self.graph = graph
        self.plan = plan
        self._segments: list[SharedGraph] = []
        self._handles: list[ShardHandle] | None = None
        self._unlinked = False

    @property
    def handles(self) -> list[ShardHandle]:
        if self._handles is None:
            if self._unlinked:
                raise SharedExportError("shard segments", "export was unlinked")
            try:
                self._handles = [self._export(spec) for spec in self.plan.shards]
            except BaseException:
                self._release()
                raise
        return self._handles

    def _export(self, spec: ShardSpec) -> ShardHandle:
        local, delta = build_shard_csr(self.graph, spec)
        seg = SharedGraph(local)
        self._segments.append(seg)
        return ShardHandle(
            index=spec.index,
            csr=seg.handle,
            edge_offset_delta=delta,
            nbytes=seg.nbytes(),
        )

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def nbytes(self) -> int:
        return sum(h.nbytes for h in self.handles)

    def max_shard_bytes(self) -> int:
        return max((h.nbytes for h in self.handles), default=0)

    @property
    def replication_factor(self) -> float:
        return self.plan.replication_factor

    def _release(self) -> None:
        for seg in self._segments:
            seg.unlink()
        self._segments = []

    def unlink(self) -> None:
        """Release every segment.  Idempotent."""
        if not self._unlinked:
            self._unlinked = True
            self._release()

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def _run_task(graph, delta, task, shard, nbytes) -> tuple:
    """Serve one task on a (local) CSR; returns ``(eo, vals, ChunkStat)``
    with ``eo`` in global edge offsets.

    ``("range", lo, hi)`` counts the ``u < v`` edges of the owned sources
    in ``[lo, hi)``; ``("edges", eo)`` counts an explicit sorted array of
    global upper-edge offsets (the hybrid planner's bitmap bucket).
    """
    t0 = time.perf_counter()
    if task[0] == "range":
        _, lo, hi = task
        eo, vals = count_vertex_range(graph, lo, hi)
        eo = eo + delta
    else:
        _, eo = task
        lo = hi = -1
        vals = np.zeros(len(eo), dtype=np.int64)
        if len(eo):
            count_edges_bitmap(graph, eo - delta, vals, aligned=True)
    stat = ChunkStat(
        os.getpid(),
        lo,
        hi,
        len(eo),
        time.perf_counter() - t0,
        bytes_attached=nbytes,
        shard=shard,
        rss_bytes=rss_bytes(),
    )
    return eo, vals, stat


def _worker_main(handle: ShardHandle, shard, task_q, result_q) -> None:
    """Worker loop: attach one segment, serve its queue until the stop
    sentinel.  Any failure goes back to the parent as an ``"err"``."""
    try:
        attached = handle.attach()
    except Exception:
        result_q.put(("err", traceback.format_exc()))
        return
    nbytes = attached.nbytes()
    while True:
        task = task_q.get()
        if task is _STOP:
            break
        try:
            result = _run_task(
                attached.graph, handle.edge_offset_delta, task, shard, nbytes
            )
        except Exception:
            result_q.put(("err", traceback.format_exc()))
            continue
        result_q.put(("ok", *result))


class WorkerPool:
    """Persistent counting pool over a :class:`ShardedGraph` (context
    manager).

    Starts ``workers_per_segment`` worker processes per segment **once**;
    every later request reuses the same workers and the same zero-copy
    segments.  Requests cut each segment's owned range into
    ``workers_per_segment × chunks_per_worker`` chunks on the shard plan's
    predicted-cost curve and queue them on that segment's queue — except
    that a segment of a multi-segment layout served by one worker is one
    chunk.

    Parameters
    ----------
    export:
        The segments to serve, **borrowed**: the pool exports them on
        start when it needs them but never unlinks them — the owner does.
    workers_per_segment:
        Workers per segment; default ``os.cpu_count()``.  A pool of one
        worker in total runs in-process (no processes; no shared memory
        for a one-segment export).
    start_method:
        ``fork``/``spawn``/``forkserver`` (see :func:`resolve_start_method`)
        or ``"inline"``: serve every segment in-process over its attached
        shared memory.
    on_fallback:
        Callback receiving the sequential-fallback message instead of the
        default ``warnings.warn``; a session passes a once-per-session
        deduplicator here.
    """

    def __init__(
        self,
        export: ShardedGraph,
        workers_per_segment: int | None = None,
        *,
        start_method: str | None = None,
        on_fallback=None,
    ):
        self.export = export
        self.graph = export.graph
        explicit = workers_per_segment is not None
        self.workers_per_segment = max(
            1, int(workers_per_segment) if explicit else (os.cpu_count() or 1)
        )
        self.requested_workers = self.workers_per_segment * max(1, export.num_shards)
        self.start_method = "in-process"
        self.fallback_reason: str | None = None
        if not explicit and self.requested_workers == 1:
            self.fallback_reason = "only one CPU available"
        self._start_method_arg = start_method
        self._on_fallback = on_fallback
        self._attached = False  # in-process runs attach the segments
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Export the segments (when needed) and launch the workers."""
        if self._started:
            return self
        self._started = True
        method = self._start_method_arg
        if method != INLINE:
            method = resolve_start_method(method)
        spawn = method != INLINE and self.requested_workers > 1
        if spawn or self.export.num_shards > 1:
            try:
                self._attached = bool(self.export.handles)
                if spawn:
                    self._spawn(method)
                    return self
            except (OSError, ValueError, ImportError) as exc:
                self._stop_workers(graceful=False)
                self.fallback_reason = f"shared-memory pool setup failed: {exc}"
        if self.fallback_reason is not None:
            message = (
                f"worker pool running sequentially ({self.fallback_reason}); "
                f"effective workers = 1 of {self.requested_workers} requested"
            )
            if self._on_fallback is not None:
                self._on_fallback(message)
            else:
                warnings.warn(message, RuntimeWarning, stacklevel=3)
        return self

    def _spawn(self, method: str) -> None:
        ctx = mp.get_context(method)
        self._result_q = ctx.Queue()
        handles = self.export.handles
        for handle in handles:
            task_q = ctx.Queue()
            self._task_qs.append(task_q)
            shard = handle.index if len(handles) > 1 else None
            for _ in range(self.workers_per_segment):
                p = ctx.Process(
                    target=_worker_main,
                    args=(handle, shard, task_q, self._result_q),
                    daemon=True,
                )
                p.start()
                self._procs.append(p)
        self.start_method = method

    def _stop_workers(self, graceful: bool) -> None:
        """Stop every worker and drop the queues.

        Graceful: a stop sentinel per worker, then join.  Otherwise (a
        failed request may still have tasks queued) terminate at once and
        abandon whatever the queues still buffer.
        """
        if graceful:
            for task_q in self._task_qs:
                for _ in range(self.workers_per_segment):
                    task_q.put(_STOP)
        for p in self._procs:
            p.join(timeout=10 if graceful else 0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        self._procs = []
        for q in [*self._task_qs, self._result_q]:
            if q is None:
                continue
            if not graceful:
                q.cancel_join_thread()
            q.close()
            if graceful:
                q.join_thread()
        self._task_qs = []
        self._result_q = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def is_parallel(self) -> bool:
        return bool(self._procs)

    @property
    def effective_workers(self) -> int:
        return len(self._procs) or 1

    def worker_pids(self) -> list[int]:
        """PIDs of the persistent worker processes (empty when in-process)."""
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Stop the workers.  Idempotent; the export stays with its owner."""
        if not self._closed:
            self._closed = True
            self._stop_workers(graceful=True)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #
    def count_all_edges(
        self,
        chunks_per_worker: int = 4,
        with_stats: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, ParallelStats]:
        """All-edge common neighbor counts, aligned with ``graph.dst``.

        ``chunks_per_worker`` is the over-decomposition factor (the
        paper's ``|T|`` knob): more chunks per worker balance the dynamic
        queues better at slightly higher queue overhead.
        With ``with_stats=True`` also returns the request's
        :class:`~repro.parallel.metrics.ParallelStats`; shard rows and the
        replication factor are reported for multi-segment layouts only.
        """
        if not self._started:
            self.start()
        tasks, predicted = self._range_tasks(max(1, int(chunks_per_worker)))
        cnt = np.zeros(self.graph.num_directed_edges, dtype=np.int64)
        t0 = time.perf_counter()
        results = self._run(tasks)
        for eo, vals, _ in results:
            cnt[eo] = vals
        wall = time.perf_counter() - t0
        counts = symmetric_assign(self.graph, cnt)
        if not with_stats:
            return counts
        multi = self.export.num_shards > 1
        handles = self.export.handles if multi and self._attached else []
        stats = ParallelStats(
            requested_workers=self.requested_workers,
            effective_workers=self.effective_workers,
            start_method=self.start_method,
            wall_seconds=wall,
            chunk_stats=[
                replace(s, predicted_cost=predicted.get((s.lo, s.hi)))
                for _, _, s in results
            ],
            fallback_reason=self.fallback_reason,
            shard_stats=[
                ShardStat(
                    s.index, s.lo, s.hi, s.owned_bytes, s.boundary_bytes,
                    len(s.boundary), h.nbytes,
                )
                for s, h in zip(self.export.plan.shards, handles)
            ],
            replication_factor=self.export.replication_factor if multi else None,
        )
        return counts, stats

    def _range_tasks(self, chunks_per_worker: int):
        """Per-segment ``("range", lo, hi)`` tasks cut on the shard plan's
        cost curve, plus the predicted cost of every range.

        Chunks balance workers that share a queue.  A multi-segment layout
        with one worker per segment has nothing to balance inside a
        segment, and every further chunk there is one more queue round
        trip, so each of its segments is one task.
        """
        plan = self.export.plan
        workers = self.workers_per_segment if self._procs else 1
        per_segment = workers * chunks_per_worker
        if plan.num_shards > 1 and workers == 1:
            per_segment = 1
        tasks, predicted = [], {}
        for spec in plan.shards:
            bounds, pred = weighted_vertex_chunks(
                plan.chunk_cost[spec.lo : spec.hi], per_segment
            )
            segment = []
            for (lo, hi), cost in zip(bounds, pred):
                lo, hi = spec.lo + lo, spec.lo + hi
                segment.append(("range", lo, hi))
                predicted[(lo, hi)] = float(cost)
            tasks.append(segment)
        return tasks, predicted

    def run_edge_chunks(self, chunks: list[np.ndarray]) -> list[tuple]:
        """Count explicit edge-offset chunks; ``(eo, vals)`` pairs.

        Each chunk is a sorted int64 array of global upper (``u < v``)
        edge offsets — the hybrid planner runs its bitmap bucket
        work-weighted across the workers this way.  Results come back in
        arbitrary order (callers scatter by offset).  One-segment layouts
        only: every worker must own every source.
        """
        if self.export.num_shards != 1:
            raise ValueError("edge tasks need a one-segment export")
        if not self._started:
            self.start()
        tasks = [("edges", np.asarray(c, dtype=np.int64)) for c in chunks if len(c)]
        return [(eo, vals) for eo, vals, _ in self._run([tasks])]

    def _run(self, tasks: list[list[tuple]]) -> list[tuple]:
        """Serve one request's per-segment tasks; ``(eo, vals, ChunkStat)``
        per task, in any order."""
        if self._closed:
            raise WorkerPoolError("worker pool is closed")
        if not self._procs:
            return self._run_in_process(tasks)
        for task_q, segment in zip(self._task_qs, tasks):
            for task in segment:
                task_q.put(task)
        return self._collect(sum(len(segment) for segment in tasks))

    def _collect(self, pending: int) -> list[tuple]:
        """The result collector.  Any failure closes the pool before
        raising, so no result of this request can reach a later one."""
        results = []
        try:
            while len(results) < pending:
                try:
                    msg = self._result_q.get(timeout=_POLL_SECONDS)
                except Empty:
                    dead = [p.exitcode for p in self._procs if not p.is_alive()]
                    if dead:
                        raise WorkerPoolError(
                            f"{len(dead)} worker(s) died (exit codes {dead}) "
                            f"with {pending - len(results)} chunks pending"
                        ) from None
                    continue
                if msg[0] == "err":
                    raise WorkerPoolError(f"worker failed:\n{msg[1]}")
                results.append(msg[1:])
        except BaseException:
            self._closed = True
            self._stop_workers(graceful=False)
            raise
        return results

    def _run_in_process(self, tasks: list[list[tuple]]) -> list[tuple]:
        """Serve every segment in the calling process.

        Same data path as the workers — attach the segment, count on the
        local CSR, remap offsets by the segment delta — minus the
        processes, which is what makes shard arithmetic cheaply fuzzable.
        Without an attached export the plain CSR serves every segment.
        """
        results = []
        for index, segment in enumerate(tasks):
            if not self._attached:
                results += [_run_task(self.graph, 0, t, None, 0) for t in segment]
                continue
            handle = self.export.handles[index]
            shard = handle.index if len(tasks) > 1 else None
            attached = handle.attach()
            try:
                results += [
                    _run_task(
                        attached.graph,
                        handle.edge_offset_delta,
                        task,
                        shard,
                        attached.nbytes(),
                    )
                    for task in segment
                ]
            finally:
                attached.close()
        return results
