"""GraphSession: one graph, lazily memoized artifacts, declarative backends.

The paper's speedups come from *reusing* per-vertex structures across many
probes (BMP's dynamically constructed bitmap index, §4).  The codebase
used to rebuild per-**graph** structures on every call instead: each
``count()`` re-derived degrees and SHA-256 fingerprints, the planner kept
its own cache, the parallel backend re-exported shared memory and
respawned workers per request, and ``count_pairs`` allocated a fresh mark
plane per query batch.

:class:`GraphSession` owns a CSR plus every derived artifact, memoized on
first use:

=================  =====================================================
artifact            invalidated by
=================  =====================================================
``degrees``         structure (but *patched in place* by edit batches)
``fingerprint``     structure
``upper_edges``     structure
``reorder``         structure
``plan:<skew>``     structure
``export:<K>``      structure (shared-memory segments are unlinked)
``pool[:sharded]``  structure / a different worker configuration / a
                    request that failed and closed the pool
``mark_buffer``     vertex-count change only (survives edit batches)
``oriented_dag``    structure (degree ranks shift under edits)
``bipartite_view``  structure (an edit can create or break 2-colorability)
=================  =====================================================

Invalidation is **selective** and driven by the dynamic overlay: a batch
of applied edits (:meth:`apply_edits`) drops only the artifacts whose
inputs actually changed.  The degree vector is patched incrementally at
the touched endpoints instead of rebuilt, and size-keyed buffers survive
untouched.  A warm session therefore answers repeated counts, plans,
pair queries, and updates without re-deriving anything — the
amortize-across-queries regime streaming triangle-counting systems
exploit with persistent per-graph state.

Backends are resolved through a :class:`~repro.engine.registry.
BackendRegistry`; capability mismatches (``MPS`` + ``bitmap``,
``collect_stats`` on a stats-less backend) are rejected by one
declarative check instead of per-call-site tables.

Thread safety
-------------
A session may be shared across threads (the serving layer dispatches
reads from a thread pool): artifact memoization, execution, edit
application, and close all serialize on one reentrant lock, so
concurrent ``count``/``count_pairs`` calls interleaved with
``apply_edits`` are linearized — every read observes a fully pre-edit or
fully post-edit graph, never a torn one, and the shared mark plane is
never probed by two readers at once.  Readers that must not wait on
writers should read from a snapshot session instead (see
:mod:`repro.serve.service`).
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from repro.engine.registry import BackendRegistry, default_registry
from repro.errors import AlgorithmError, SessionClosedError
from repro.graph.csr import CSRGraph

__all__ = ["GraphSession", "ArtifactStats", "SHARD_BUDGET_ENV"]

#: Environment override (in MiB) for the sharded-execution memory budget:
#: when a session's CSR export would exceed it, ``backend="auto"`` routes
#: to the ``sharded`` backend instead of ``hybrid``.  The CI leg forces
#: this low so K>1 shard paths execute on the bundled graphs.
SHARD_BUDGET_ENV = "REPRO_SHARD_BUDGET"


def _budget_from_env() -> int | None:
    raw = os.environ.get(SHARD_BUDGET_ENV)
    if not raw:
        return None
    try:
        return int(float(raw) * 2**20)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {SHARD_BUDGET_ENV}={raw!r} (expected MiB)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


@dataclass
class ArtifactStats:
    """Build/reuse telemetry for one session artifact.

    ``build_seconds`` accumulates wall time across rebuilds (a
    structure edit forces a rebuild that is counted again);
    ``last_build_seconds`` keeps only the most recent build so
    :meth:`GraphSession.profile` can separate "expensive once" from
    "expensive every invalidation".
    """

    builds: int = 0
    hits: int = 0
    invalidations: int = 0
    updates: int = 0
    build_seconds: float = 0.0
    last_build_seconds: float = 0.0


class _Artifact:
    """One cached value plus its invalidation policy."""

    __slots__ = ("value", "deps", "close", "update")

    def __init__(self, value, deps, close=None, update=None):
        self.value = value
        self.deps = deps  # subset of {"structure", "size"}
        self.close = close  # optional resource release hook
        self.update = update  # optional in-place edit-batch patcher


def _close_runtime(artifacts: dict) -> None:
    """Finalizer body: release closeable artifacts (pool, shared memory).

    Module-level (not a bound method) so the ``weakref.finalize`` it backs
    holds no reference to the session itself.  Releases in reverse
    insertion order so dependents go first — the worker pool must join
    its children before the shared-memory export they attach is
    unlinked, or a slow-starting spawn worker can re-register a segment
    with the resource tracker after the parent already unregistered it.
    """
    for art in reversed(list(artifacts.values())):
        if art.close is not None:
            try:
                art.close(art.value)
            except Exception:  # pragma: no cover - teardown is best-effort
                pass
    artifacts.clear()


class GraphSession:
    """Owns one graph and every derived artifact; routes all execution.

    Parameters
    ----------
    graph:
        The CSR graph served by this session.  Mutations arrive only
        through :meth:`apply_edits` (the dynamic overlay's invalidation
        hook) — the graph object itself stays immutable.
    registry:
        Backend registry; defaults to the process-wide
        :func:`~repro.engine.registry.default_registry`.
    start_method:
        Default ``multiprocessing`` start method for the worker-pool
        artifact (per-request override wins).
    shard_budget_mb:
        Memory budget (MiB) for one worker's attached shared memory.
        When the CSR export exceeds it, ``backend="auto"`` routes to the
        ``sharded`` backend, which bounds each worker to one shard
        segment.  Defaults to the ``REPRO_SHARD_BUDGET`` environment
        variable; ``None`` (and no env) disables budget routing.

    Use as a context manager (or call :meth:`close`) to release the
    worker pool and shared-memory export deterministically; a finalizer
    also releases them when the session is garbage collected.
    """

    def __init__(
        self,
        graph: CSRGraph,
        registry: BackendRegistry | None = None,
        start_method: str | None = None,
        shard_budget_mb: float | None = None,
    ):
        self._graph = graph
        self.registry = registry if registry is not None else default_registry()
        self.start_method = start_method
        self.shard_budget_bytes = (
            int(shard_budget_mb * 2**20)
            if shard_budget_mb is not None
            else _budget_from_env()
        )
        self._artifacts: dict[str, _Artifact] = {}
        self._stats: dict[str, ArtifactStats] = {}
        self._closed = False
        self._lock = threading.RLock()
        self._fallback_warned = False
        self._finalizer = weakref.finalize(self, _close_runtime, self._artifacts)

    # ------------------------------------------------------------------ #
    # artifact cache machinery
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self, operation: str) -> None:
        if self._closed:
            raise SessionClosedError(operation)

    def _memo(self, name, build, *, deps, close=None, update=None):
        """Return the cached artifact ``name``, building it on first use."""
        with self._lock:
            self._check_open(f"build artifact {name!r} on")
            stats = self._stats.setdefault(name, ArtifactStats())
            art = self._artifacts.get(name)
            if art is not None:
                stats.hits += 1
                return art.value
            t0 = time.perf_counter()
            value = build()
            elapsed = time.perf_counter() - t0
            self._artifacts[name] = _Artifact(value, frozenset(deps), close, update)
            stats.builds += 1
            stats.build_seconds += elapsed
            stats.last_build_seconds = elapsed
            return value

    def invalidate(self, *names: str) -> None:
        """Drop the named artifacts (all of them when called with none).

        Bulk invalidation runs in reverse insertion order so dependent
        artifacts release before what they borrow (pool before shared
        export — see :func:`_close_runtime`).
        """
        with self._lock:
            targets = names or tuple(reversed(self._artifacts))
            for name in targets:
                art = self._artifacts.pop(name, None)
                if art is None:
                    continue
                if art.close is not None:
                    art.close(art.value)
                self._stats.setdefault(name, ArtifactStats()).invalidations += 1

    def artifact_stats(self) -> dict[str, ArtifactStats]:
        """Per-artifact build/hit/invalidation counters (telemetry)."""
        return dict(self._stats)

    def profile(self) -> dict:
        """Build-time summary: where this session's wall time went.

        Returns ``{"artifacts": {name: {...}}, "total_build_seconds",
        "total_builds"}`` with artifacts sorted by cumulative build time,
        most expensive first — the first place to look when a warm
        session's first request is slow.
        """
        with self._lock:
            rows = {
                name: {
                    "builds": s.builds,
                    "hits": s.hits,
                    "invalidations": s.invalidations,
                    "updates": s.updates,
                    "build_seconds": s.build_seconds,
                    "last_build_seconds": s.last_build_seconds,
                }
                for name, s in sorted(
                    self._stats.items(),
                    key=lambda kv: kv[1].build_seconds,
                    reverse=True,
                )
            }
            return {
                "artifacts": rows,
                "total_build_seconds": sum(
                    r["build_seconds"] for r in rows.values()
                ),
                "total_builds": sum(r["builds"] for r in rows.values()),
            }

    def cached_artifacts(self) -> list[str]:
        """Names of the artifacts currently held warm."""
        return list(self._artifacts)

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    def degrees(self) -> np.ndarray:
        """Per-vertex degree vector (int64, owned by the session).

        Survives :meth:`apply_edits` via an in-place ±1 patch at the
        touched endpoints instead of a rebuild.
        """

        def patch(deg, ins, dels, old_graph, new_graph):
            if len(ins):
                np.add.at(deg, ins.ravel(), 1)
            if len(dels):
                np.add.at(deg, dels.ravel(), -1)
            return deg

        return self._memo(
            "degrees",
            lambda: np.diff(self._graph.offsets).astype(np.int64, copy=False),
            deps={"structure"},
            update=patch,
        )

    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the CSR arrays (plan/save cache key)."""
        from repro.core.result import graph_fingerprint

        return self._memo(
            "fingerprint",
            lambda: graph_fingerprint(self._graph),
            deps={"structure"},
        )

    def upper_edge_offsets(self) -> np.ndarray:
        """Edge offsets of every ``u < v`` edge, ascending."""

        def build():
            g = self._graph
            return np.flatnonzero(g.edge_sources() < g.dst)

        return self._memo("upper_edges", build, deps={"structure"})

    def reorder(self):
        """Degree-descending :class:`~repro.graph.reorder.ReorderResult`."""
        from repro.graph.reorder import reorder_graph

        return self._memo(
            "reorder", lambda: reorder_graph(self._graph), deps={"structure"}
        )

    def plan(self, skew_threshold: float | None = None, cover: bool = True):
        """The hybrid :class:`~repro.plan.ExecutionPlan`, memoized per
        ``(skew, cover)`` configuration.

        The first access consults the global plan cache (so unrelated
        sessions over the same graph still share plans); subsequent
        accesses skip even the fingerprint hash.  ``cover=False`` plans
        without the cover-edge pre-pass bucket.
        """
        from repro.plan.planner import DEFAULT_SKEW_THRESHOLD, get_plan

        skew = DEFAULT_SKEW_THRESHOLD if skew_threshold is None else float(skew_threshold)
        return self._memo(
            f"plan:{skew:g}:{'cover' if cover else 'nocover'}",
            lambda: get_plan(
                self._graph, skew, fingerprint=self.fingerprint(), cover=cover
            ),
            deps={"structure"},
        )

    def mark_buffer(self) -> np.ndarray:
        """All-``False`` boolean mark plane of ``num_vertices`` entries.

        The BMP probe structure for :meth:`count_pairs`.  Callers must
        leave it fully cleared.  Survives edit batches — only a
        vertex-count change invalidates it.
        """
        return self._memo(
            "mark_buffer",
            lambda: np.zeros(self._graph.num_vertices, dtype=bool),
            deps={"size"},
        )

    def oriented_dag(self) -> CSRGraph:
        """The degree-ascending DAG orientation of the graph
        (:func:`repro.motif.clique.orient_dag`), memoized for every
        clique-family motif count.  Structure-keyed: any edit batch drops
        it, because one inserted edge can flip degree ranks globally.
        """
        from repro.motif.clique import orient_dag

        return self._memo(
            "oriented_dag",
            lambda: orient_dag(self._graph),
            deps={"structure"},
        )

    def bipartite_view(self):
        """The 2-colored :class:`~repro.graph.bipartite.BipartiteProjection`
        of the graph, memoized for every biclique-family motif count.

        Raises :class:`~repro.errors.AlgorithmError` when the graph has
        an odd cycle; the failure is *not* cached, so a session whose
        graph becomes bipartite after edits succeeds on retry.
        """
        from repro.graph.bipartite import bipartite_from_graph

        return self._memo(
            "bipartite_view",
            lambda: bipartite_from_graph(self._graph),
            deps={"structure"},
        )

    def export(self, num_shards: int | None = 1):
        """The CSR's shared-memory export for the worker pool
        (:class:`~repro.parallel.pool.ShardedGraph`), memoized per
        requested shard count.

        ``num_shards=1`` is the CSR itself, exported once; ``None``
        resolves K from the session's shard budget (smallest K whose
        largest segment fits, simulator-arbitrated).  The shard plan uses
        the session's memoized execution plan as its cost curve, so pool
        requests never re-price the graph.  Segments are exported on first
        use and unlinked on invalidation or :meth:`close`.
        """
        from repro.parallel.pool import ShardedGraph
        from repro.plan.shardplan import plan_shards

        def build():
            plan = plan_shards(
                self._graph,
                num_shards=num_shards,
                budget_bytes=(
                    self.shard_budget_bytes if num_shards is None else None
                ),
                plan=self.plan(),
            )
            return ShardedGraph(self._graph, plan)

        return self._memo(
            f"export:{num_shards if num_shards is not None else 'auto'}",
            build,
            deps={"structure"},
            close=lambda export: export.unlink(),
        )

    def pool(
        self,
        num_workers: int | None = None,
        *,
        sharded: bool = False,
        start_method: str | None = None,
    ):
        """Persistent :class:`~repro.parallel.pool.WorkerPool`, one memo
        slot per layout.

        ``sharded=False`` is the one-segment layout (``parallel`` and the
        hybrid planner's pooled bitmap bucket): ``num_workers`` workers on
        one queue.  ``sharded=True`` runs ``num_workers`` shards with one
        worker each (``None``: K from the shard budget).  Each layout keeps
        its own slot, so alternating backends never restarts workers; a
        different worker count or start method rebuilds that layout's pool
        (the export is kept), and so does a pool a failed request closed.

        A pool that degrades to sequential execution warns **once per
        session**: the fallback reason (single CPU, shared-memory setup
        failure) is a property of the host, not of the request.
        """
        from repro.parallel.pool import WorkerPool

        with self._lock:
            method = start_method if start_method is not None else self.start_method
            key = (None if num_workers is None else int(num_workers), method)
            slot = "pool:sharded" if sharded else "pool"
            art = self._artifacts.get(slot)
            if art is not None and (art.value[0] != key or art.value[1].closed):
                self.invalidate(slot)

            def build():
                export = self.export(key[0] if sharded else 1)
                pool = WorkerPool(
                    export,
                    1 if sharded else key[0],
                    start_method=method,
                    on_fallback=self._warn_fallback_once,
                )
                return (key, pool.start())

            return self._memo(
                slot, build, deps={"structure"}, close=lambda entry: entry[1].close()
            )[1]

    def _warn_fallback_once(self, message: str) -> None:
        """Emit the pool's sequential-fallback warning at most once."""
        if self._fallback_warned:
            return
        self._fallback_warned = True
        warnings.warn(message, RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def count(
        self,
        algorithm: str = "auto",
        backend: str = "auto",
        *,
        num_workers: int | None = None,
        chunks_per_worker: int = 4,
        collect_stats: bool = False,
        skew_threshold: float | None = None,
        start_method: str | None = None,
        cover: bool = True,
    ):
        """Exact all-edge counts through the registry-resolved backend.

        Mirrors :meth:`repro.core.api.CommonNeighborCounter.count` but
        executes against this session's warm artifacts: the hybrid path
        reuses the memoized plan, the parallel path reuses the persistent
        pool and shared-memory export.  ``collect_stats`` on a backend
        with no declared stats capability raises
        :class:`~repro.errors.AlgorithmError` instead of being silently
        dropped; ``num_workers``/``chunks_per_worker`` are honored by
        every backend declaring ``supports_num_workers`` (``parallel``
        *and* ``hybrid``, whose bitmap bucket then runs on the pool).

        An explicit ``algorithm`` (``M``, ``MPS``, ``BMP``, ...) selects
        the first registered backend executing its structure when
        ``backend`` is ``"auto"`` (``M``/``MPS`` → ``merge``,
        ``BMP``/``BMP-RF`` → ``bitmap``); an explicit pair must be one
        the registry declares.
        """
        with self._lock:
            self._check_open("count on")
            if algorithm != "auto":
                from repro.algorithms import get_algorithm

                algo = get_algorithm(algorithm)
                if backend == "auto":
                    honored = self.registry.backends_for(algo.name)
                    backend = honored[0] if honored else self._auto_backend()
                self.registry.check_algorithm(algorithm, algo.name, backend)
            spec = self.registry.get(
                self._auto_backend() if backend == "auto" else backend
            )
            if collect_stats and not spec.supports_stats:
                stats_capable = [
                    s.name for s in self.registry.specs() if s.supports_stats
                ]
                raise AlgorithmError(
                    f"backend {spec.name!r} declares no stats capability; "
                    f"collect_stats is supported by {stats_capable}"
                )
            counts, stats = spec.run(
                self,
                num_workers=num_workers,
                chunks_per_worker=chunks_per_worker,
                collect_stats=collect_stats,
                skew_threshold=skew_threshold,
                start_method=start_method,
                cover=cover,
            )
            return self._wrap_result(counts, stats)

    def count_motif(self, motif: str = "common-neighbors", backend: str = "auto", **opts):
        """Count one registered motif; returns a
        :class:`~repro.motif.spec.MotifResult`.

        The edge family (``common-neighbors``) routes through
        :meth:`count` — its backends, stats, and parallel options all
        apply, and the result carries the full per-edge
        :class:`~repro.core.result.EdgeCounts` with the triangle total.
        Clique motifs run on the memoized :meth:`oriented_dag`, biclique
        motifs on the memoized :meth:`bipartite_view`; ``backend="auto"``
        picks the motif's default runner, and a backend that cannot count
        the motif raises :class:`~repro.errors.AlgorithmError` naming the
        capable ones (CLI exit code 4).
        """
        from repro.motif.spec import MotifResult, get_motif

        spec = get_motif(motif)
        if spec.family == "edge":
            counts = self.count(backend=backend, **opts)
            return MotifResult(
                motif=spec.name,
                params=spec.params,
                total=counts.triangle_count(),
                backend=backend,
                edge_counts=counts,
            )
        with self._lock:
            self._check_open("count motif on")
            name = spec.default_backend if backend == "auto" else backend
            runner = spec.runners.get(name)
            if runner is None:
                if name in self.registry:
                    # A registered counting backend whose kernels do not
                    # execute this motif's structure.
                    self.registry.check_motif(name, spec.name)
                raise AlgorithmError(
                    f"unknown backend {name!r} for motif {spec.name!r}; "
                    f"its runners are {spec.runner_names()} and the "
                    f"motif-capable counting backends are "
                    f"{self.registry.motif_backends(spec.name) or 'none'}"
                )
            if spec.structure == "dag":
                structure = self.oriented_dag()
            else:
                structure = self.bipartite_view().graph
            total = runner(structure, **opts)
            return MotifResult(
                motif=spec.name,
                params=spec.params,
                total=int(total),
                backend=name,
            )

    def _auto_backend(self) -> str:
        """``backend="auto"`` resolution: hybrid, unless the CSR export
        would blow the shard budget — then sharded execution bounds each
        worker to one segment."""
        if (
            self.shard_budget_bytes is not None
            and self._graph.memory_bytes() > self.shard_budget_bytes
            and "sharded" in self.registry
        ):
            return "sharded"
        return "hybrid"

    def _wrap_result(self, counts, stats):
        from repro.core.result import EdgeCounts
        from repro.parallel.metrics import ParallelStats

        if isinstance(stats, ParallelStats):
            return EdgeCounts(self._graph, counts, parallel_stats=stats)
        if stats is not None:
            return EdgeCounts(self._graph, counts, hybrid_report=stats)
        return EdgeCounts(self._graph, counts)

    def count_pairs(self, u, v) -> np.ndarray:
        """Common neighbor counts for arbitrary vertex *pairs* (paper §1).

        Pairs sharing a left endpoint are grouped by a stable sort; each
        group marks ``N(left)`` once in the session's reusable mark plane
        and answers **all** its queries with one vectorized gather over
        the concatenated right-side adjacency lists — no per-pair Python
        loop.  Returns an int64 array aligned with the inputs.
        """
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("u and v must have the same length")
        if len(u) == 0:
            return np.empty(0, dtype=np.int64)
        # The whole probe runs under the session lock: the mark plane is a
        # shared scratch buffer, and an edit batch must never swap the
        # graph between the degree read and the gather.
        with self._lock:
            self._check_open("count pairs on")
            graph = self._graph
            n = graph.num_vertices
            if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
                raise IndexError("vertex ids out of range")
            return self._count_pairs_locked(graph, u, v)

    def _count_pairs_locked(self, graph, u, v) -> np.ndarray:
        # Put the lower-degree endpoint on the probing (right) side.
        d = self.degrees()
        swap = d[u] < d[v]
        left = np.where(swap, v, u)
        right = np.where(swap, u, v)

        order = np.argsort(left, kind="stable")
        lsort = left[order]
        rsort = right[order]
        # Segment boundaries of equal-left runs in the sorted order.
        starts = np.flatnonzero(np.r_[True, lsort[1:] != lsort[:-1]])
        ends = np.r_[starts[1:], len(lsort)]

        offsets, dst = graph.offsets, graph.dst
        mark = self.mark_buffer()
        out = np.empty(len(u), dtype=np.int64)
        for s, e in zip(starts, ends):
            a = int(lsort[s])
            nbrs = graph.neighbors(a)
            mark[nbrs] = True
            rights = rsort[s:e]
            lens = d[rights]
            total = int(lens.sum())
            if total:
                # Flat gather indices over the concatenated N(right) lists.
                firsts = np.cumsum(lens) - lens
                flat = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(firsts, lens)
                    + np.repeat(offsets[rights], lens)
                )
                seg = np.repeat(np.arange(len(rights)), lens)
                sums = np.bincount(
                    seg, weights=mark[dst[flat]], minlength=len(rights)
                ).astype(np.int64)
            else:
                sums = np.zeros(len(rights), dtype=np.int64)
            out[order[s:e]] = sums
            mark[nbrs] = False
        return out

    # ------------------------------------------------------------------ #
    # invalidation hooks (driven by the dynamic overlay)
    # ------------------------------------------------------------------ #
    def apply_edits(self, insertions=None, deletions=None, new_graph=None) -> None:
        """Selective invalidation after a batch of *applied* edits.

        ``insertions``/``deletions`` are ``(m, 2)`` arrays of the edges
        that actually changed the adjacency (no-ops must be filtered by
        the caller — the overlay already knows).  ``new_graph`` is the
        post-edit CSR the session serves from now on.

        Only the artifacts whose inputs changed are touched: structure-
        keyed artifacts (fingerprint, plans, upper-edge index, reorder,
        shared-memory export, worker pool) are dropped and closeables
        released; the degree vector is patched in place at the touched
        endpoints; size-keyed buffers (the mark plane) survive untouched
        unless the vertex count changed.
        """
        ins = _edit_array(insertions)
        dels = _edit_array(deletions)
        with self._lock:
            self._check_open("apply edits to")
            old_graph = self._graph
            size_changed = (
                new_graph is not None
                and new_graph.num_vertices != old_graph.num_vertices
            )
            if new_graph is not None:
                self._graph = new_graph

            for name in reversed(list(self._artifacts)):
                art = self._artifacts[name]
                if art.update is not None and not size_changed:
                    art.value = art.update(
                        art.value, ins, dels, old_graph, self._graph
                    )
                    self._stats.setdefault(name, ArtifactStats()).updates += 1
                elif "structure" in art.deps or (
                    "size" in art.deps and size_changed
                ):
                    self.invalidate(name)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the worker pool and shared-memory export.

        Idempotent: closing twice (or closing a session whose finalizer
        already ran) is a no-op.  Any later ``count``/``count_pairs``/
        ``apply_edits``/artifact access raises
        :class:`~repro.errors.SessionClosedError` instead of failing with
        an incidental ``KeyError`` from the cleared artifact dict.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._finalizer.detach()
            _close_runtime(self._artifacts)

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        warm = ", ".join(self.cached_artifacts()) or "none"
        return f"GraphSession({self._graph!r}, warm=[{warm}])"


def _edit_array(pairs) -> np.ndarray:
    if pairs is None:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edit batch must have shape (m, 2), got {arr.shape}")
    return arr
