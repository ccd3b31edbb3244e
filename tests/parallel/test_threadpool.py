"""The worker pool's one-segment layout (the ``parallel`` backend): the
range kernel, start-method resolution, chunking and telemetry.

Contract tests shared with the sharded layout live in ``test_pool.py``.
"""

import multiprocessing as mp
import warnings

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.engine import GraphSession
from repro.graph.build import csr_from_pairs
from repro.kernels.batch import count_all_edges_bitmap, count_all_edges_matmul
from repro.parallel.pool import (
    ShardedGraph,
    WorkerPool,
    count_vertex_range,
    resolve_start_method,
)
from repro.plan.shardplan import plan_shards

START_METHODS = [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


def count_all_edges_parallel(
    graph, num_workers, chunks_per_worker=4, *, start_method=None, return_stats=False
):
    """One-shot ``parallel`` count on a throwaway session."""
    with GraphSession(graph) as session:
        result = session.count(
            backend="parallel",
            num_workers=num_workers,
            chunks_per_worker=chunks_per_worker,
            start_method=start_method,
            collect_stats=return_stats,
        )
    if return_stats:
        return result.counts, result.parallel_stats
    return result.counts


def single_segment(graph, plan="auto"):
    """The one-segment export the ``parallel`` layout runs over."""
    return ShardedGraph(graph, plan_shards(graph, num_shards=1, plan=plan))


def _vertex_chunks(graph, num_chunks):
    """Vertex ranges an in-process one-segment pool cuts on the
    adjacency-volume curve."""
    with single_segment(graph, plan=None) as export:
        with WorkerPool(export, 1) as pool:
            _, stats = pool.count_all_edges(num_chunks, with_stats=True)
    return sorted((c.lo, c.hi) for c in stats.chunk_stats)


def test_vertex_range_counts(medium_graph):
    ref = count_all_edges_matmul(medium_graph)
    n = medium_graph.num_vertices
    eo, vals = count_vertex_range(medium_graph, 0, n)
    assert np.array_equal(ref[eo], vals)


def test_vertex_range_partition_is_complete(medium_graph):
    n = medium_graph.num_vertices
    mid = n // 2
    eo1, _ = count_vertex_range(medium_graph, 0, mid)
    eo2, _ = count_vertex_range(medium_graph, mid, n)
    src = medium_graph.edge_sources()
    upper = np.flatnonzero(src < medium_graph.dst)
    assert np.array_equal(np.sort(np.concatenate([eo1, eo2])), upper)


def test_vertex_range_empty_graph():
    g = csr_from_pairs([], num_vertices=5)
    eo, vals = count_vertex_range(g, 0, 5)
    assert len(eo) == 0 and len(vals) == 0


def test_vertex_range_isolated_vertices():
    # Vertices 2 and 4 are isolated; the rest form a triangle plus a tail.
    g = csr_from_pairs([(0, 1), (1, 3), (0, 3), (3, 5)], num_vertices=6)
    ref = count_all_edges_bitmap(g)
    eo, vals = count_vertex_range(g, 0, 6)
    assert np.array_equal(ref[eo], vals)


def test_parallel_matches_reference_single_worker(medium_graph):
    ref = count_all_edges_matmul(medium_graph)
    got = count_all_edges_parallel(medium_graph, num_workers=1)
    assert np.array_equal(ref, got)


def test_parallel_empty_graph():
    g = csr_from_pairs([], num_vertices=3)
    assert len(count_all_edges_parallel(g, num_workers=2)) == 0


def test_persistent_pool_reuses_workers(medium_graph):
    """A second request is served by the same worker processes."""
    ref = count_all_edges_bitmap(medium_graph)
    with single_segment(medium_graph) as export, WorkerPool(export, 2) as pool:
        assert pool.is_parallel
        pids_before = pool.worker_pids()
        assert len(pids_before) == 2
        c1, s1 = pool.count_all_edges(with_stats=True)
        c2, s2 = pool.count_all_edges(with_stats=True)
        assert pool.worker_pids() == pids_before  # no re-creation
        assert np.array_equal(c1, ref) and np.array_equal(c2, ref)
        for stats in (s1, s2):
            assert set(c.worker_pid for c in stats.chunk_stats) <= set(pids_before)
            assert stats.replication_factor is None and stats.shard_stats == []


def test_persistent_pool_chunks_per_worker_override(medium_graph):
    ref = count_all_edges_bitmap(medium_graph)
    with single_segment(medium_graph) as export:
        with WorkerPool(export, 2) as pool:
            c1, s1 = pool.count_all_edges(chunks_per_worker=1, with_stats=True)
            c8, s8 = pool.count_all_edges(chunks_per_worker=8, with_stats=True)
    assert np.array_equal(c1, ref) and np.array_equal(c8, ref)
    assert s8.num_chunks > s1.num_chunks  # over-decomposition took effect


def test_fallback_emits_warning(medium_graph, monkeypatch):
    """When the shared-memory pool cannot start, a standalone pool must
    degrade loudly: a RuntimeWarning plus telemetry reporting 1 effective
    worker."""

    def boom(graph):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(pool_mod, "SharedGraph", boom)
    ref = count_all_edges_matmul(medium_graph)
    with single_segment(medium_graph) as export:
        with pytest.warns(RuntimeWarning, match="sequentially"):
            pool = WorkerPool(export, 2).start()
        with pool:
            got, stats = pool.count_all_edges(with_stats=True)
    assert np.array_equal(ref, got)
    assert stats.effective_workers == 1
    assert stats.requested_workers == 2
    assert "shared-memory pool setup failed" in stats.fallback_reason


def test_explicit_single_worker_does_not_warn(medium_graph):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count_all_edges_parallel(medium_graph, num_workers=1)


def test_resolve_start_method_env(monkeypatch):
    monkeypatch.setenv("MP_START_METHOD", "spawn")
    assert resolve_start_method() == "spawn"
    # An explicit argument wins over the environment.
    if "fork" in mp.get_all_start_methods():
        assert resolve_start_method("fork") == "fork"


def test_resolve_start_method_rejects_unknown(monkeypatch):
    monkeypatch.delenv("MP_START_METHOD", raising=False)
    with pytest.raises(ValueError, match="not available"):
        resolve_start_method("not-a-method")
    monkeypatch.setenv("MP_START_METHOD", "bogus")
    with pytest.raises(ValueError, match="not available"):
        resolve_start_method()


def test_vertex_chunks_cover_everything(medium_graph):
    chunks = _vertex_chunks(medium_graph, 7)
    assert chunks[0][0] == 0
    assert chunks[-1][1] == medium_graph.num_vertices
    for (a, b), (c, d) in zip(chunks, chunks[1:]):
        assert b == c and a < b


def test_vertex_chunks_balanced_by_volume(medium_graph):
    chunks = _vertex_chunks(medium_graph, 4)
    volumes = [
        int(medium_graph.offsets[hi] - medium_graph.offsets[lo]) for lo, hi in chunks
    ]
    assert max(volumes) < 3 * (sum(volumes) / len(volumes) + 1)


def test_vertex_chunks_empty_graph():
    g = csr_from_pairs([], num_vertices=0)
    assert _vertex_chunks(g, 4) == []


def test_vertex_chunks_edgeless_vertices():
    g = csr_from_pairs([], num_vertices=3)
    chunks = _vertex_chunks(g, 4)
    assert chunks and chunks[0][0] == 0 and chunks[-1][1] == 3


def test_vertex_chunks_more_chunks_than_vertices(small_graph):
    n = small_graph.num_vertices
    chunks = _vertex_chunks(small_graph, 10 * n)
    assert len(chunks) <= n
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    covered = sum(hi - lo for lo, hi in chunks)
    assert covered == n


def test_vertex_chunks_isolated_vertices():
    # Isolated vertices share offsets; chunk boundaries must stay monotone
    # and still cover every vertex exactly once.
    pairs = [(0, 9), (1, 9), (5, 9)]
    g = csr_from_pairs(pairs, num_vertices=12)
    chunks = _vertex_chunks(g, 5)
    assert chunks[0][0] == 0 and chunks[-1][1] == 12
    covered = sum(hi - lo for lo, hi in chunks)
    assert covered == 12


@pytest.mark.parametrize("method", START_METHODS)
def test_parallel_isolated_vertices_cross_check(method):
    pairs = [(0, 9), (1, 9), (5, 9), (0, 1)]
    g = csr_from_pairs(pairs, num_vertices=12)
    ref = count_all_edges_bitmap(g)
    got = count_all_edges_parallel(g, num_workers=2, start_method=method)
    assert np.array_equal(ref, got)


def test_more_workers_than_vertices(small_graph):
    ref = count_all_edges_bitmap(small_graph)
    got = count_all_edges_parallel(small_graph, num_workers=2, chunks_per_worker=16)
    assert np.array_equal(ref, got)


def test_stats_telemetry_shape(medium_graph):
    _, stats = count_all_edges_parallel(
        medium_graph, num_workers=2, return_stats=True
    )
    src = medium_graph.edge_sources()
    upper = int(np.count_nonzero(src < medium_graph.dst))
    assert stats.total_edges == upper
    assert stats.num_chunks == len(stats.chunk_stats)
    assert stats.wall_seconds > 0
    assert all(c.seconds >= 0 for c in stats.chunk_stats)
    sched = stats.simulated_schedule()
    assert sched.num_chunks == stats.num_chunks
    assert sched.makespan <= stats.busy_seconds + 1e-9
