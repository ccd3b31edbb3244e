"""Unit tests for the parallel telemetry layer."""

import numpy as np
import pytest

from repro.parallel.metrics import ChunkStat, ParallelStats


@pytest.fixture
def stats() -> ParallelStats:
    chunks = [
        ChunkStat(100, 0, 10, edges=40, seconds=0.2),
        ChunkStat(100, 10, 20, edges=60, seconds=0.1),
        ChunkStat(200, 20, 40, edges=100, seconds=0.5),
    ]
    return ParallelStats(
        requested_workers=2,
        effective_workers=2,
        start_method="spawn",
        wall_seconds=0.6,
        chunk_stats=chunks,
    )


def test_totals(stats):
    assert stats.num_chunks == 3
    assert stats.total_edges == 200
    assert stats.busy_seconds == pytest.approx(0.8)
    assert stats.edges_per_sec == pytest.approx(200 / 0.6)


def test_per_worker_aggregation(stats):
    workers = stats.per_worker()
    assert [w.pid for w in workers] == [100, 200]
    w100, w200 = workers
    assert w100.chunks == 2 and w100.edges == 100
    assert w100.busy_seconds == pytest.approx(0.3)
    assert w200.edges_per_sec == pytest.approx(100 / 0.5)


def test_imbalance(stats):
    # busy: {100: 0.3, 200: 0.5}; mean over 2 workers = 0.4
    assert stats.imbalance == pytest.approx(0.5 / 0.4 - 1.0)


def test_imbalance_counts_idle_workers():
    s = ParallelStats(4, 4, "fork", 1.0, [ChunkStat(1, 0, 5, 10, 0.8)])
    # One busy worker out of four: max/mean = 0.8 / 0.2.
    assert s.imbalance == pytest.approx(3.0)


def test_chunk_seconds_in_queue_order(stats):
    assert np.allclose(stats.chunk_seconds(), [0.2, 0.1, 0.5])


def test_simulated_schedule_consistency(stats):
    sched = stats.simulated_schedule()
    assert sched.num_workers == 2
    assert sched.total_work == pytest.approx(0.8)
    # Greedy dynamic: A takes 0.2; B takes 0.1 then (earliest free) 0.5.
    assert sched.makespan == pytest.approx(0.6)
    assert sched.makespan <= stats.busy_seconds


def test_empty_stats():
    s = ParallelStats(2, 2, "fork", 0.0, [])
    assert s.imbalance == 0.0
    assert s.edges_per_sec == 0.0
    assert s.per_worker() == []
    assert "workers" in s.format()


def test_format_mentions_fallback():
    s = ParallelStats(
        4, 1, "in-process", 0.1,
        [ChunkStat(1, 0, 5, 10, 0.1)],
        fallback_reason="shared-memory pool setup failed: test",
    )
    text = s.format()
    assert "fallback" in text
    assert "1 effective / 4 requested" in text


def test_format_lists_every_worker(stats):
    text = stats.format()
    assert "worker 100" in text and "worker 200" in text
    assert "imbalance" in text
