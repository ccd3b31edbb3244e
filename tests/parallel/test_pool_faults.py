"""Failure paths of the worker pool: a failed request must not poison a
warm session.

A worker exception or a dead worker tears the pool down and raises
:class:`~repro.errors.WorkerPoolError`; the session then starts a fresh
pool, so every later count is bit-exact again and no shared-memory
segment outlives ``session.close()``.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.engine import GraphSession
from repro.errors import WorkerPoolError
from repro.graph.datasets import load_dataset
from repro.kernels.batch import count_all_edges_merge

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
BACKENDS = ["parallel", "sharded"]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("or", scale=0.05)


def _shm_listing() -> list[str]:
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the injected fault reaches workers by fork inheritance",
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_chunk_exception_does_not_poison_the_session(graph, backend, monkeypatch):
    expected = count_all_edges_merge(graph)
    armed = mp.get_context("fork").Value("i", 1)  # one chunk fails, once
    count_vertex_range = pool_mod.count_vertex_range

    def flaky(*args, **kwargs):
        with armed.get_lock():
            fire, armed.value = armed.value, 0
        if fire:
            raise RuntimeError("injected chunk failure")
        return count_vertex_range(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "count_vertex_range", flaky)
    before = _shm_listing()
    with GraphSession(graph, start_method="fork") as session:
        with pytest.raises(WorkerPoolError, match="injected chunk failure"):
            session.count(backend=backend, num_workers=2)
        for _ in range(3):
            got = session.count(backend=backend, num_workers=2).counts
            assert np.array_equal(got, expected)
    assert _shm_listing() == before


@pytest.mark.parametrize("method", START_METHODS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_killed_worker_fails_fast_then_recovers(graph, backend, method):
    expected = count_all_edges_merge(graph)
    before = _shm_listing()
    with GraphSession(graph, start_method=method) as session:
        session.count(backend=backend, num_workers=2)
        pool = session.pool(2, sharded=backend == "sharded")
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        t0 = time.perf_counter()
        try:
            got = session.count(backend=backend, num_workers=2).counts
        except WorkerPoolError:
            pass  # the pool noticed the dead worker and closed itself
        else:
            assert np.array_equal(got, expected)
        assert time.perf_counter() - t0 < 5.0
        got = session.count(backend=backend, num_workers=2).counts
        assert np.array_equal(got, expected)
    assert _shm_listing() == before
