"""The worker pool's contract, once per layout and start method.

Every layout runs the same runtime: one segment with two workers on a
shared queue (``parallel``), two shards with a worker each (``sharded``),
and three shards served in-process (``sharded-inline``).
"""

import multiprocessing as mp
import warnings

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.core.verify import brute_force_counts
from repro.engine import GraphSession
from repro.parallel.pool import ShardedGraph, WorkerPool
from repro.plan.shardplan import plan_shards

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]

#: (backend, num_workers, start method) per layout.
LAYOUTS = [
    *(pytest.param("parallel", 2, m, id=f"1x2-{m}") for m in START_METHODS),
    *(pytest.param("sharded", 2, m, id=f"2shards-{m}") for m in START_METHODS),
    pytest.param("sharded", 3, "inline", id="3shards-inline"),
]


def _pool(session, backend, num_workers, method):
    return session.pool(
        num_workers, sharded=backend == "sharded", start_method=method
    )


@pytest.mark.parametrize("backend,num_workers,method", LAYOUTS)
def test_bit_exact(medium_graph, backend, num_workers, method):
    expected = brute_force_counts(medium_graph)
    with GraphSession(medium_graph) as session:
        result = session.count(
            backend=backend,
            num_workers=num_workers,
            start_method=method,
            collect_stats=True,
        )
    assert np.array_equal(result.counts, expected)
    stats = result.parallel_stats
    assert stats.fallback_reason is None
    if method == "inline":
        assert stats.effective_workers == 1
    else:
        assert stats.effective_workers == num_workers
        assert stats.start_method == method


@pytest.mark.parametrize("backend,num_workers,method", LAYOUTS)
def test_closed_pool_rejects_requests(medium_graph, backend, num_workers, method):
    shards = num_workers if backend == "sharded" else 1
    per_segment = 1 if backend == "sharded" else num_workers
    with ShardedGraph(medium_graph, plan_shards(medium_graph, shards)) as export:
        pool = WorkerPool(export, per_segment, start_method=method).start()
        pool.close()
        pool.close()  # idempotent
        assert pool.closed and pool.worker_pids() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.count_all_edges()


@pytest.mark.parametrize("backend,num_workers,method", LAYOUTS)
def test_fallback_warns_once_and_stays_exact(
    medium_graph, backend, num_workers, method, monkeypatch
):
    """No shared memory: the pool degrades to in-process counting on the
    plain CSR, warns once per session, and stays bit-exact."""

    def boom(graph):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(pool_mod, "SharedGraph", boom)
    expected = brute_force_counts(medium_graph)
    with GraphSession(medium_graph) as session:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [
                session.count(
                    backend=backend,
                    num_workers=num_workers,
                    start_method=method,
                    collect_stats=True,
                )
                for _ in range(2)
            ]
    fallback = [w for w in caught if "sequentially" in str(w.message)]
    assert len(fallback) == 1
    for result in results:
        assert np.array_equal(result.counts, expected)
        stats = result.parallel_stats
        assert stats.effective_workers == 1
        assert stats.requested_workers == num_workers
        assert "shared-memory pool setup failed" in stats.fallback_reason


@pytest.mark.parametrize("backend,num_workers,method", LAYOUTS)
def test_session_reuses_workers(medium_graph, backend, num_workers, method):
    expected = brute_force_counts(medium_graph)
    with GraphSession(medium_graph, start_method=method) as session:
        pool = _pool(session, backend, num_workers, method)
        pids = pool.worker_pids()
        assert len(pids) == (0 if method == "inline" else num_workers)
        for _ in range(2):
            result = session.count(
                backend=backend, num_workers=num_workers, collect_stats=True
            )
            assert np.array_equal(result.counts, expected)
            assert _pool(session, backend, num_workers, method) is pool
            assert pool.worker_pids() == pids
            if pids:
                served = {c.worker_pid for c in result.parallel_stats.chunk_stats}
                assert served <= set(pids)


@pytest.mark.parametrize("method", START_METHODS)
def test_cycling_layouts_keeps_every_pool_warm(medium_graph, method):
    """hybrid → parallel → sharded on one session: each layout keeps its
    own memo slot, so no cycle restarts any worker."""
    expected = brute_force_counts(medium_graph)
    with GraphSession(medium_graph, start_method=method) as session:
        pids = []
        for _ in range(2):
            for backend in ("hybrid", "parallel", "sharded"):
                got = session.count(backend=backend, num_workers=2).counts
                assert np.array_equal(got, expected), backend
            pids.append(
                (
                    session.pool(2).worker_pids(),
                    session.pool(2, sharded=True).worker_pids(),
                )
            )
    assert pids[0] == pids[1]
    assert all(len(layout) == 2 for layout in pids[0])
