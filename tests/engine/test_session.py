"""GraphSession artifact memoization and selective invalidation."""

import numpy as np
import pytest

from repro.core.dynamic import DynamicCounter
from repro.core.verify import brute_force_counts
from repro.engine import GraphSession
from repro.errors import AlgorithmError, SessionClosedError
from repro.graph.generators import chung_lu_graph, small_test_graph


# --------------------------------------------------------------------- #
# memoization
# --------------------------------------------------------------------- #
def test_artifacts_build_once_and_hit_afterwards():
    with GraphSession(small_test_graph()) as s:
        fp1 = s.fingerprint()
        fp2 = s.fingerprint()
        assert fp1 == fp2
        d1 = s.degrees()
        d2 = s.degrees()
        assert d1 is d2
        stats = s.artifact_stats()
        assert stats["fingerprint"].builds == 1
        assert stats["fingerprint"].hits == 1
        assert stats["degrees"].builds == 1
        assert stats["degrees"].hits == 1


def test_plan_memoized_per_skew_threshold():
    with GraphSession(chung_lu_graph(120, 500, seed=3)) as s:
        p_default = s.plan()
        assert s.plan() is p_default
        p_tight = s.plan(2.0)
        assert p_tight is not p_default
        assert s.plan(2.0) is p_tight
        assert s.artifact_stats()["plan:50:cover"].builds == 1


def test_repeated_counts_reuse_plan_and_fingerprint():
    with GraphSession(chung_lu_graph(120, 500, seed=3)) as s:
        a = s.count(backend="hybrid")
        b = s.count(backend="hybrid")
        assert np.array_equal(a.counts, b.counts)
        stats = s.artifact_stats()
        assert stats["plan:50:cover"].builds == 1
        assert stats["plan:50:cover"].hits >= 1
        assert stats["fingerprint"].builds == 1


def test_count_pairs_reuses_mark_buffer_and_degrees():
    g = small_test_graph()
    with GraphSession(g) as s:
        rng = np.random.default_rng(0)
        u = rng.integers(0, g.num_vertices, 20)
        v = rng.integers(0, g.num_vertices, 20)
        first = s.count_pairs(u, v)
        second = s.count_pairs(u, v)
        assert np.array_equal(first, second)
        stats = s.artifact_stats()
        assert stats["mark_buffer"].builds == 1
        assert stats["mark_buffer"].hits >= 1
        assert stats["degrees"].builds == 1


def test_closed_session_rejects_artifact_access():
    s = GraphSession(small_test_graph())
    s.close()
    with pytest.raises(RuntimeError, match="closed"):
        s.fingerprint()


def test_collect_stats_on_statless_backend_raises():
    with GraphSession(small_test_graph()) as s:
        with pytest.raises(AlgorithmError, match="stats"):
            s.count(backend="merge", collect_stats=True)


def test_hybrid_collect_stats_surfaces_bucket_timings():
    with GraphSession(chung_lu_graph(120, 500, seed=3)) as s:
        result = s.count(backend="hybrid", collect_stats=True)
        report = result.hybrid_report
        assert report is not None
        names = {t.name for t in report.timings}
        assert {"gallop", "bitmap", "matmul"} <= names <= {
            "cover", "gallop", "bitmap", "matmul",
        }
        assert sum(t.edges for t in report.timings) == report.plan.num_upper_edges


# --------------------------------------------------------------------- #
# selective invalidation
# --------------------------------------------------------------------- #
def _warm(session):
    session.fingerprint()
    session.degrees()
    session.upper_edge_offsets()
    session.plan()
    session.mark_buffer()


def test_apply_edits_drops_structure_keeps_size_artifacts():
    g = small_test_graph()
    with GraphSession(g) as s:
        _warm(s)
        mark = s.mark_buffer()
        s.apply_edits(insertions=np.array([[0, 6]]), new_graph=g)
        warm = set(s.cached_artifacts())
        assert "mark_buffer" in warm  # |V| unchanged → survives
        assert "degrees" in warm  # patched in place, not dropped
        assert "fingerprint" not in warm
        assert "plan:50:cover" not in warm
        assert "upper_edges" not in warm
        assert s.mark_buffer() is mark
        stats = s.artifact_stats()
        assert stats["fingerprint"].invalidations == 1
        assert stats["mark_buffer"].invalidations == 0
        assert stats["degrees"].updates == 1


def test_apply_edits_patches_degrees_in_place():
    g = small_test_graph()
    with GraphSession(g) as s:
        deg = s.degrees()
        before = deg.copy()
        s.apply_edits(
            insertions=np.array([[0, 6]]),
            deletions=np.array([[4, 5]]),
            new_graph=g,
        )
        assert s.degrees() is deg
        expected = before.copy()
        expected[[0, 6]] += 1
        expected[[4, 5]] -= 1
        assert np.array_equal(deg, expected)


def test_dynamic_counter_drives_selective_invalidation():
    """A compaction-triggering edit stream invalidates structure-keyed
    artifacts exactly once per base swap while the session's size-keyed
    buffers and patched degree vector stay warm."""
    g = chung_lu_graph(80, 300, seed=7)
    with DynamicCounter(g, compaction_threshold=0.01) as counter:
        session = counter.session
        session.mark_buffer()
        session.degrees()
        fp_before = session.fingerprint()

        rng = np.random.default_rng(1)
        compactions_seen = 0
        for _ in range(6):
            u, v = rng.integers(0, 80, 2)
            if u == v:
                continue
            r = counter.apply(insertions=[(int(u), int(v))])
            if r.compacted:
                compactions_seen += 1
        assert compactions_seen > 0, "edit stream never compacted"

        stats = session.artifact_stats()
        assert stats["mark_buffer"].invalidations == 0
        assert stats["degrees"].builds == 1  # never rebuilt, only patched
        assert stats["degrees"].updates >= compactions_seen
        # The fingerprint is dropped at the first swap and not rebuilt in
        # between, so later swaps find nothing to invalidate.
        assert stats["fingerprint"].invalidations >= 1

        # The patched degree vector matches the swapped-in base CSR.
        assert np.array_equal(
            session.degrees(), np.diff(session.graph.offsets)
        )
        assert session.fingerprint() != fp_before

        # Counts served after the invalidations are still exact.
        snap = counter.snapshot()
        assert np.array_equal(snap.counts, brute_force_counts(snap.graph))


def test_recount_batch_syncs_session_to_new_base():
    g = chung_lu_graph(80, 300, seed=7)
    with DynamicCounter(g, recount_fraction=0.0001) as counter:
        session = counter.session
        session.degrees()
        counter.apply(insertions=[(0, 50), (1, 51), (2, 52)])
        assert counter.recounts == 1
        assert session.graph is counter.overlay.base
        assert np.array_equal(session.degrees(), np.diff(session.graph.offsets))


def test_invalidate_everything_then_rebuild():
    with GraphSession(small_test_graph()) as s:
        fp = s.fingerprint()
        s.invalidate()
        assert s.cached_artifacts() == []
        assert s.fingerprint() == fp
        assert s.artifact_stats()["fingerprint"].builds == 2


# --------------------------------------------------------------------- #
# teardown / use-after-close
# --------------------------------------------------------------------- #
def test_close_is_idempotent():
    s = GraphSession(small_test_graph())
    assert not s.closed
    s.close()
    s.close()  # second close is a no-op, not an error
    assert s.closed


def test_closed_session_raises_session_closed_error():
    s = GraphSession(small_test_graph())
    s.count()  # warm, then tear down
    s.close()
    with pytest.raises(SessionClosedError, match="count on"):
        s.count()
    with pytest.raises(SessionClosedError, match="count pairs"):
        s.count_pairs([0], [1])
    with pytest.raises(SessionClosedError, match="apply edits"):
        s.apply_edits(insertions=[(0, 6)])
    # Callers that guard on RuntimeError (the historical behavior) still
    # catch the dedicated error type.
    assert issubclass(SessionClosedError, RuntimeError)


def test_context_manager_exit_then_reuse_raises():
    with GraphSession(small_test_graph()) as s:
        s.count_pairs([0], [1])
    with pytest.raises(SessionClosedError):
        s.count_pairs([0], [1])


# --------------------------------------------------------------------- #
# sequential-fallback warning dedup
# --------------------------------------------------------------------- #
def _break_shared_memory(monkeypatch):
    import repro.parallel.pool as pool_mod
    import repro.parallel.sharedmem as sharedmem

    def boom(graph):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(sharedmem, "SharedGraph", boom)
    monkeypatch.setattr(pool_mod, "SharedGraph", boom)


def test_parallel_fallback_warns_once_per_session(monkeypatch):
    """Regression: a warm session used to emit one RuntimeWarning per
    count when the pool degraded to sequential execution.  The fallback
    reason is a property of the host, so the session warns exactly once —
    even across pool rebuilds with different worker counts."""
    import warnings as warnings_mod

    _break_shared_memory(monkeypatch)
    g = chung_lu_graph(60, 200, seed=4)
    with GraphSession(g) as s:
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            a = s.count(backend="parallel", num_workers=2)
            b = s.count(backend="parallel", num_workers=2)
            c = s.count(backend="parallel", num_workers=3)  # pool rebuild
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.counts, c.counts)
        fallback = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "sequentially" in str(w.message)
        ]
        assert len(fallback) == 1, (
            f"expected exactly one fallback warning, got {len(fallback)}"
        )

    # A fresh session is a fresh host report: it warns once again.
    with GraphSession(g) as s2:
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            s2.count(backend="parallel", num_workers=2)
        fallback = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "sequentially" in str(w.message)
        ]
        assert len(fallback) == 1
