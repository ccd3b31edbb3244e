"""The worker pool's multi-segment layout (the ``sharded`` backend):
local CSRs, bit-exactness, segment lifecycle, telemetry.

Contract tests shared with the one-segment layout live in ``test_pool.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.verify import brute_force_counts
from repro.engine import GraphSession
from repro.graph.datasets import DATASETS, load_dataset
from repro.kernels.batch import count_all_edges_merge
from repro.parallel.pool import ShardedGraph, WorkerPool, build_shard_csr
from repro.plan.shardplan import plan_shards
from tests.strategies import csr_graphs


def count_all_edges_sharded(
    graph, num_shards, *, start_method=None, return_stats=False
):
    """One-shot count over a throwaway ``num_shards``-segment export."""
    with ShardedGraph(graph, plan_shards(graph, num_shards=num_shards)) as export:
        with WorkerPool(export, 1, start_method=start_method) as pool:
            return pool.count_all_edges(with_stats=return_stats)


# --------------------------------------------------------------------- #
# local CSR construction
# --------------------------------------------------------------------- #
def test_build_shard_csr_owned_rows_identical(medium_graph):
    g = medium_graph
    plan = plan_shards(g, num_shards=3)
    for spec in plan.shards:
        local, delta = build_shard_csr(g, spec)
        assert local.num_vertices == g.num_vertices
        # Owned rows carry identical adjacency under the offset delta.
        for u in range(spec.lo, min(spec.hi, spec.lo + 40)):
            assert np.array_equal(local.neighbors(u), g.neighbors(u))
            assert local.offsets[u] + delta == g.offsets[u]
        # Non-resident rows are empty.
        resident = np.zeros(g.num_vertices, dtype=bool)
        resident[spec.lo : spec.hi] = True
        resident[spec.boundary] = True
        assert (np.diff(local.offsets)[~resident] == 0).all()


# --------------------------------------------------------------------- #
# bit-exactness
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
@settings(max_examples=40, deadline=None)
@given(graph=csr_graphs(max_vertex=30, max_size=120))
def test_sharded_bit_equal_merge_property(num_shards, graph):
    """The ISSUE's property: sharded counts == merge counts for
    K in {1, 2, 4, 7} over the shared CSR strategy."""
    expected = count_all_edges_merge(graph)
    got = count_all_edges_sharded(
        graph, num_shards=num_shards, start_method="inline"
    )
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_sharded_processes_bit_exact(medium_graph):
    expected = brute_force_counts(medium_graph)
    with ShardedGraph(medium_graph, plan_shards(medium_graph, 2)) as export:
        with WorkerPool(export, 1) as pool:
            assert pool.is_parallel
            assert len(pool.worker_pids()) == 2
            got = pool.count_all_edges()
            # A warm pool answers repeated requests identically.
            again = pool.count_all_edges(chunks_per_worker=1)
    assert np.array_equal(got, expected)
    assert np.array_equal(again, expected)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_sharded_matches_merge_and_hybrid_on_bundled(name):
    graph = load_dataset(name, scale=0.02)
    with GraphSession(graph) as session:
        merge = session.count(backend="merge").counts
        hybrid = session.count(backend="hybrid").counts
        sharded = session.count(
            backend="sharded", num_workers=3, start_method="inline"
        ).counts
    assert np.array_equal(sharded, merge)
    assert np.array_equal(sharded, hybrid)


def test_budget_driven_counter(medium_graph):
    expected = brute_force_counts(medium_graph)
    budget = plan_shards(medium_graph, num_shards=2).max_shard_bytes
    plan = plan_shards(medium_graph, budget_bytes=budget)
    with ShardedGraph(medium_graph, plan) as export:
        with WorkerPool(export, 1, start_method="inline") as pool:
            assert export.num_shards > 1
            assert export.max_shard_bytes() <= budget
            assert np.array_equal(pool.count_all_edges(), expected)


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
def test_sharded_graph_unlink_idempotent(medium_graph):
    sharded = ShardedGraph(medium_graph, plan_shards(medium_graph, num_shards=2))
    assert sharded.num_shards == 2
    assert sharded.nbytes() > 0
    sharded.unlink()
    sharded.unlink()  # double close is a no-op
    with sharded:
        pass  # __exit__ after unlink is also a no-op


def test_counter_does_not_unlink_borrowed_segments(medium_graph):
    with ShardedGraph(
        medium_graph, plan_shards(medium_graph, num_shards=2)
    ) as sharded:
        with WorkerPool(sharded, 1, start_method="inline") as pool:
            pool.count_all_edges()
        # The borrowed export must still be attachable after pool close.
        attached = sharded.handles[0].attach()
        assert attached.graph is not None
        attached.close()


def test_single_shard_runs_in_process(medium_graph):
    with ShardedGraph(medium_graph, plan_shards(medium_graph, 1)) as export:
        with WorkerPool(export, 1) as pool:
            assert not pool.is_parallel
            got, stats = pool.count_all_edges(with_stats=True)
    assert np.array_equal(got, brute_force_counts(medium_graph))
    assert stats.effective_workers == 1


# --------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------- #
def test_sharded_stats_fields(medium_graph):
    _, stats = count_all_edges_sharded(medium_graph, 2, return_stats=True)
    assert stats.requested_workers == 2
    assert stats.effective_workers == 2
    assert len(stats.shard_stats) == 2
    assert stats.replication_factor >= 1.0
    for c in stats.chunk_stats:
        assert c.shard in (0, 1)
        assert c.bytes_attached > 0
        assert c.rss_bytes > 0
        assert c.predicted_cost is not None
    # Each worker attaches only its shard segment, never the full export.
    per_shard = {s.index: s.attached_bytes for s in stats.shard_stats}
    for c in stats.chunk_stats:
        assert c.bytes_attached == per_shard[c.shard]
    assert stats.max_worker_bytes_attached < medium_graph.memory_bytes()
    text = stats.format()
    assert "shard 0" in text and "replication" in text
    assert "MiB attached" in text


def test_session_sharded_artifacts_memoized(medium_graph):
    with GraphSession(medium_graph) as session:
        pool1 = session.pool(2, sharded=True, start_method="inline")
        pool2 = session.pool(2, sharded=True, start_method="inline")
        assert pool1 is pool2
        # A different shard count rebuilds the pool (new export artifact).
        pool3 = session.pool(3, sharded=True, start_method="inline")
        assert pool3 is not pool1
        stats = session.artifact_stats()
        assert stats["pool:sharded"].invalidations == 1
        assert "export:2" in session.cached_artifacts()
        assert "export:3" in session.cached_artifacts()


def test_session_auto_routes_on_budget(medium_graph):
    budget_mb = plan_shards(medium_graph, num_shards=2).max_shard_bytes / 2**20
    with GraphSession(
        medium_graph, shard_budget_mb=budget_mb, start_method="inline"
    ) as session:
        assert session._auto_backend() == "sharded"
        result = session.count(collect_stats=True)
        assert result.parallel_stats is not None
        assert len(result.parallel_stats.shard_stats) > 1
        assert (
            result.parallel_stats.max_worker_bytes_attached
            <= session.shard_budget_bytes
        )
    assert np.array_equal(result.counts, brute_force_counts(medium_graph))


def test_session_no_budget_keeps_hybrid(medium_graph):
    with GraphSession(medium_graph) as session:
        assert session._auto_backend() == "hybrid"
