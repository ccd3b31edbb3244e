"""Dynamic counting facade: live all-edge counts under graph mutation.

:class:`DynamicCounter` owns a :class:`~repro.engine.session.GraphSession`
for the initial batch build and all recounts, then keeps the counts exact
under batched edge insertions and deletions through the incremental
kernel (:mod:`repro.dynamic.delta`) — no full recount per batch.  Batches
large enough that a recount is cheaper (``recount_fraction`` of the
current edge count) are instead applied structurally and recounted
through the session's configured backend (``auto`` by default, which
also honors the session's shard budget).

The dynamic overlay drives the session's *selective* invalidation: when
the base CSR swaps (threshold compaction, a recount batch, a snapshot),
the applied edits since the previous swap are forwarded to
:meth:`GraphSession.apply_edits` — structure-keyed artifacts rebuild,
the degree vector is patched in place, size-keyed buffers survive.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import CommonNeighborCounter
from repro.core.result import EdgeCounts
from repro.dynamic.delta import DeltaKernel, UpdateResult, edge_key
from repro.dynamic.overlay import DEFAULT_COMPACTION_THRESHOLD, AdjacencyOverlay
from repro.engine import GraphSession
from repro.errors import EdgeNotFoundError, VerificationError
from repro.graph.csr import CSRGraph
from repro.types import OpCounts

__all__ = ["DynamicCounter"]

#: Batches larger than this fraction of the current |E| are applied as a
#: structural update followed by one batch recount instead of per-edge
#: deltas (a recount is vectorized; the delta path is per-edge Python).
DEFAULT_RECOUNT_FRACTION = 0.1


def _as_pairs(pairs) -> np.ndarray:
    """Normalize an edge batch into an ``(m, 2)`` int64 array."""
    if pairs is None:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge batch must have shape (m, 2), got {arr.shape}")
    return arr


def _counts_dict(graph: CSRGraph, counts: np.ndarray) -> dict[tuple[int, int], int]:
    """Per-edge counts array (aligned with ``dst``) → canonical-key dict."""
    src = graph.edge_sources()
    mask = src < graph.dst
    return dict(
        zip(
            zip(src[mask].tolist(), graph.dst[mask].tolist()),
            np.asarray(counts)[mask].tolist(),
        )
    )


def _counts_array(graph: CSRGraph, counts: dict[tuple[int, int], int]) -> np.ndarray:
    """Canonical-key dict → counts array aligned with ``graph.dst``.

    CSR enumerates directed edges in strictly increasing ``(src, dst)``
    order, so sorting both orientations of the dict keys by that composite
    key reproduces the alignment without per-edge binary searches.
    """
    m = graph.num_directed_edges
    if 2 * len(counts) != m:
        raise ValueError(
            f"counts dict holds {len(counts)} edges but graph has {m // 2}"
        )
    out = np.empty(m, dtype=np.int64)
    if m == 0:
        return out
    k = len(counts)
    u = np.fromiter((key[0] for key in counts), dtype=np.int64, count=k)
    v = np.fromiter((key[1] for key in counts), dtype=np.int64, count=k)
    c = np.fromiter(counts.values(), dtype=np.int64, count=k)
    uu = np.concatenate([u, v])
    vv = np.concatenate([v, u])
    order = np.argsort(uu * graph.num_vertices + vv, kind="stable")
    out[:] = np.tile(c, 2)[order]
    return out


class DynamicCounter:
    """Live all-edge common neighbor counts under edge updates.

    Parameters
    ----------
    graph:
        Initial frozen CSR graph.
    algorithm, backend, num_workers, chunks_per_worker:
        Forwarded to :class:`CommonNeighborCounter` for the initial build
        and for batch recounts (see that class for the honored
        algorithm/backend combinations).
    compaction_threshold:
        Overlay delta budget as a fraction of the base adjacency volume;
        exceeded → the CSR is rebuilt (:class:`AdjacencyOverlay`).
    recount_fraction:
        Batches larger than this fraction of the current ``|E|`` recount
        instead of applying per-edge deltas.
    initial:
        Precomputed :class:`EdgeCounts` for ``graph`` (e.g. loaded via
        :meth:`EdgeCounts.load`) to skip the initial build.
    """

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: str = "auto",
        backend: str = "auto",
        num_workers: int | None = None,
        chunks_per_worker: int = 4,
        compaction_threshold: float = DEFAULT_COMPACTION_THRESHOLD,
        recount_fraction: float = DEFAULT_RECOUNT_FRACTION,
        initial: EdgeCounts | None = None,
    ):
        self.algorithm = algorithm
        self.backend = backend
        self.num_workers = num_workers
        self.chunks_per_worker = chunks_per_worker
        if backend != "auto":
            from repro.engine import default_registry

            default_registry().get(backend)  # raises on unknown names
        self._session = GraphSession(graph)
        # Applied edits accumulated since the session last saw a base-CSR
        # swap; forwarded to apply_edits() at the next swap.
        self._pending_ins: list[tuple[int, int]] = []
        self._pending_dels: list[tuple[int, int]] = []
        self.recount_fraction = float(recount_fraction)
        self.overlay = AdjacencyOverlay(graph, compaction_threshold)
        if initial is not None:
            if initial.graph != graph:
                raise ValueError("initial counts were computed for a different graph")
            base = initial
        else:
            base = self._count_via_session()
        self._counts = _counts_dict(graph, base.counts)
        self._kernel = DeltaKernel(self.overlay, self._counts)
        self.total_ops = OpCounts()
        self.updates_applied = 0
        self.recounts = 0

    # ------------------------------------------------------------------ #
    # sizes / lookups
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.overlay.num_vertices

    @property
    def num_edges(self) -> int:
        return self.overlay.num_edges

    def count(self, u: int, v: int) -> int:
        """Current ``|N(u) ∩ N(v)|`` for the live edge ``(u, v)``."""
        try:
            return self._counts[edge_key(int(u), int(v))]
        except KeyError:
            raise EdgeNotFoundError(int(u), int(v)) from None

    def __getitem__(self, edge: tuple[int, int]) -> int:
        u, v = edge
        return self.count(u, v)

    def triangle_count(self) -> int:
        """Total triangles under the current adjacency."""
        return sum(self._counts.values()) // 3

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def apply(self, insertions=None, deletions=None) -> UpdateResult:
        """Apply one batch of edge insertions and deletions.

        ``insertions`` / ``deletions`` are ``(m, 2)`` arrays (or iterables
        of pairs).  Duplicate insertions and deletions of absent edges are
        counted as ``skipped`` no-ops.  Returns an :class:`UpdateResult`
        describing what happened; cumulative kernel accounting accrues on
        :attr:`total_ops`.
        """
        ins = _as_pairs(insertions)
        dels = _as_pairs(deletions)
        batch = len(ins) + len(dels)
        if batch == 0:
            return UpdateResult(mode="noop")
        if batch > self.recount_fraction * max(self.num_edges, 1):
            return self._apply_recount(ins, dels)

        ops = OpCounts()
        inserted = deleted = skipped = 0
        kernel = self._kernel
        for u, v in ins.tolist():
            if kernel.insert(u, v, ops):
                inserted += 1
                self._pending_ins.append((u, v))
            else:
                skipped += 1
        for u, v in dels.tolist():
            if kernel.delete(u, v, ops):
                deleted += 1
                self._pending_dels.append((u, v))
            else:
                skipped += 1
        compacted = self.overlay.maybe_compact()
        if compacted:
            self._sync_session()
        self.total_ops += ops
        self.updates_applied += inserted + deleted
        return UpdateResult(inserted, deleted, skipped, "incremental", ops, compacted)

    def _apply_recount(self, ins: np.ndarray, dels: np.ndarray) -> UpdateResult:
        """Large batch: mutate structure only, then one vectorized recount."""
        inserted = deleted = skipped = 0
        for u, v in ins.tolist():
            if self.overlay.insert_edge(u, v):
                inserted += 1
                self._pending_ins.append((u, v))
            else:
                skipped += 1
        for u, v in dels.tolist():
            if self.overlay.delete_edge(u, v):
                deleted += 1
                self._pending_dels.append((u, v))
            else:
                skipped += 1
        graph = self.overlay.compact()
        self._sync_session()
        self._counts = _counts_dict(graph, self._count_via_session(graph).counts)
        self._kernel.counts = self._counts
        self.updates_applied += inserted + deleted
        self.recounts += 1
        return UpdateResult(inserted, deleted, skipped, "recount", OpCounts(), True)

    # ------------------------------------------------------------------ #
    # session plumbing
    # ------------------------------------------------------------------ #
    @property
    def session(self) -> GraphSession:
        """The counter's :class:`GraphSession` (warm artifacts, pools)."""
        return self._session

    def _sync_session(self) -> None:
        """Forward the applied-edit backlog after a base-CSR swap.

        Called whenever the overlay rebuilt its base (threshold
        compaction, recount batch, snapshot): the session selectively
        invalidates structure-keyed artifacts, patches degrees in place at
        the touched endpoints, and keeps size-keyed buffers warm.
        """
        base = self.overlay.base
        if base is self._session.graph:
            return
        self._session.apply_edits(
            _as_pairs(self._pending_ins or None),
            _as_pairs(self._pending_dels or None),
            new_graph=base,
        )
        self._pending_ins = []
        self._pending_dels = []

    def _count_via_session(self, graph: CSRGraph | None = None) -> EdgeCounts:
        if graph is not None and graph is not self._session.graph:
            # Defensive: recounts always sync first, so this only fires if
            # a caller hands in a foreign CSR.
            self._session.apply_edits(new_graph=graph)
        return self._session.count(
            algorithm=self.algorithm,
            backend=self.backend,
            num_workers=self.num_workers,
            chunks_per_worker=self.chunks_per_worker,
        )

    # ------------------------------------------------------------------ #
    # snapshots / verification
    # ------------------------------------------------------------------ #
    def materialize(self) -> CSRGraph:
        """Compact the overlay, sync the session, return the live CSR.

        The serving layer's epoch hook: after an edit batch it needs a
        frozen CSR for the next read snapshot but not the per-edge counts
        array, so this skips :meth:`snapshot`'s ``O(E log E)`` counts
        realignment.  When no edits are outstanding the current base is
        returned as-is (no rebuild).
        """
        graph = self.overlay.compact()
        self._sync_session()
        return graph

    def snapshot(self) -> EdgeCounts:
        """Compact the overlay and return counts aligned with the fresh CSR."""
        graph = self.overlay.compact()
        self._sync_session()
        return EdgeCounts(graph, _counts_array(graph, self._counts))

    def verify(self) -> bool:
        """Full recount equality check (raises :class:`VerificationError`).

        The reference recount always uses the default batch backend, so it
        is independent of whichever engine built the incremental state.
        """
        snap = self.snapshot()
        expected = CommonNeighborCounter().count(snap.graph)
        if not np.array_equal(snap.counts, expected.counts):
            bad = int(np.count_nonzero(snap.counts != expected.counts))
            raise VerificationError(
                f"dynamic counts diverged from recount on {bad} of "
                f"{len(snap.counts)} edge offsets"
            )
        return True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's pooled resources."""
        self._session.close()

    def __enter__(self) -> "DynamicCounter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DynamicCounter(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"updates={self.updates_applied}, recounts={self.recounts})"
        )
