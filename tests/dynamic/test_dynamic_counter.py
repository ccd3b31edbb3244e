"""Tests for the DynamicCounter facade, including the randomized
equivalence acceptance test (incremental vs. from-scratch recount)."""

import numpy as np
import pytest

from repro.core import DynamicCounter, count_common_neighbors
from repro.errors import EdgeNotFoundError, VerificationError
from repro.graph.build import csr_from_pairs, csr_to_undirected_pairs
from repro.graph.generators import chung_lu_graph, small_test_graph


def random_batch(rng, counter, max_ins=4, max_del=3):
    """A mixed batch: some random candidate pairs, some existing edges."""
    n = counter.num_vertices
    ins = rng.integers(0, n, size=(int(rng.integers(0, max_ins + 1)), 2))
    ins = ins[ins[:, 0] != ins[:, 1]]
    u, v = csr_to_undirected_pairs(counter.overlay.to_csr())
    k = min(int(rng.integers(0, max_del + 1)), len(u))
    idx = rng.choice(len(u), size=k, replace=False) if k else np.empty(0, np.int64)
    dels = np.stack([u[idx], v[idx]], axis=1) if k else None
    return (ins if len(ins) else None), dels


@pytest.mark.parametrize("backend", ["matmul", "parallel"])
def test_randomized_equivalence_200_batches(backend):
    """Acceptance: ≥200 mixed batches, exact equality after every batch."""
    graph = chung_lu_graph(120, 420, exponent=2.1, seed=23)
    kwargs = {"num_workers": 2} if backend == "parallel" else {}
    counter = DynamicCounter(graph, backend=backend, **kwargs)
    rng = np.random.default_rng(17)
    for batch_no in range(200):
        ins, dels = random_batch(rng, counter)
        counter.apply(ins, dels)
        snap = counter.snapshot()
        expected = count_common_neighbors(snap.graph)
        assert np.array_equal(snap.counts, expected.counts), f"batch {batch_no}"
    assert counter.updates_applied > 200  # the batches did real work


def test_initial_counts_match_batch_build(medium_graph):
    counter = DynamicCounter(medium_graph)
    batch = count_common_neighbors(medium_graph)
    snap = counter.snapshot()
    assert np.array_equal(snap.counts, batch.counts)
    assert counter.triangle_count() == batch.triangle_count()


def test_count_lookup_and_getitem():
    counter = DynamicCounter(small_test_graph())
    assert counter.count(0, 1) == 2
    assert counter[1, 0] == 2
    with pytest.raises(EdgeNotFoundError):
        counter.count(0, 7)


def test_insert_updates_lookup():
    counter = DynamicCounter(small_test_graph())
    counter.apply(insertions=[(4, 6)])
    # 5 is adjacent to both 4 and 6, so the new edge sees one common nbr.
    assert counter[4, 6] == 1
    assert counter.verify()


def test_large_batch_routes_through_recount():
    graph = csr_from_pairs([(0, 1), (1, 2)], num_vertices=10)
    counter = DynamicCounter(graph, recount_fraction=0.5)
    ins = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    result = counter.apply(insertions=ins)
    assert result.mode == "recount"
    assert counter.recounts == 1
    assert counter.verify()


def test_large_graph_recount_honors_the_shard_budget(monkeypatch):
    # A 150k-edge ring lattice whose CSR exceeds the shard budget: the
    # recount of an oversized batch goes where ``auto`` goes (the sharded
    # pool) and never exports the whole CSR for a one-segment pool.
    from repro.engine.session import SHARD_BUDGET_ENV
    from repro.kernels.batch import count_all_edges_matmul

    n = 30_000
    src = np.repeat(np.arange(n), 5)
    dst = (src + np.tile(np.arange(1, 6), n)) % n
    graph = csr_from_pairs(np.column_stack([src, dst]))
    assert graph.num_edges >= 150_000
    monkeypatch.setenv(SHARD_BUDGET_ENV, str(0.6 * graph.memory_bytes() / 2**20))
    rng = np.random.default_rng(0)
    ins = rng.integers(0, n, size=(20_000, 2))
    with DynamicCounter(graph) as counter:
        result = counter.apply(insertions=ins[ins[:, 0] != ins[:, 1]])
        assert result.mode == "recount"
        stats = counter.session.artifact_stats()
        assert stats["pool:sharded"].builds == 2  # initial count + recount
        assert "pool" not in stats
        snap = counter.snapshot()
        assert np.array_equal(snap.counts, count_all_edges_matmul(snap.graph))


def test_small_batch_stays_incremental(medium_graph):
    counter = DynamicCounter(medium_graph)
    result = counter.apply(insertions=[(0, 1), (0, 2)], deletions=None)
    assert result.mode == "incremental"
    assert counter.recounts == 0


def test_noop_batch():
    counter = DynamicCounter(small_test_graph())
    result = counter.apply()
    assert result.mode == "noop"
    assert result.applied == 0


def test_skipped_updates_reported():
    counter = DynamicCounter(small_test_graph())
    result = counter.apply(insertions=[(0, 1)], deletions=[(0, 7)])
    assert result.skipped == 2
    assert result.applied == 0
    assert counter.verify()


def test_bad_batch_shape_rejected():
    counter = DynamicCounter(small_test_graph())
    with pytest.raises(ValueError):
        counter.apply(insertions=np.arange(6))


def test_verify_detects_corruption():
    counter = DynamicCounter(small_test_graph())
    counter._counts[(0, 1)] += 1
    with pytest.raises(VerificationError):
        counter.verify()


def test_deletion_to_empty_graph():
    graph = csr_from_pairs([(0, 1), (1, 2), (0, 2)], num_vertices=3)
    counter = DynamicCounter(graph)
    counter.apply(deletions=[(0, 1), (1, 2), (0, 2)])
    assert counter.num_edges == 0
    assert counter.triangle_count() == 0
    assert counter.verify()


def test_compaction_preserves_counts():
    graph = csr_from_pairs([(0, 1)], num_vertices=16)
    counter = DynamicCounter(graph, compaction_threshold=0.05)
    rng = np.random.default_rng(3)
    for _ in range(40):
        u, v = rng.integers(0, 16, 2).tolist()
        if u != v:
            counter.apply(insertions=[(u, v)])
    assert counter.overlay.compactions >= 1
    assert counter.verify()


def test_ops_accounting_accrues(medium_graph):
    counter = DynamicCounter(medium_graph)
    counter.apply(insertions=[(0, 1), (2, 3)])
    assert counter.total_ops.bitmap_set > 0
    assert counter.total_ops.total_words > 0
