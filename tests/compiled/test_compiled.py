"""Compiled kernel providers: bit-exactness, gating, and the dispatch
that makes them the loop under every default path."""

import numpy as np
import pytest

from repro import compiled
from repro.engine import GraphSession, default_registry
from repro.errors import AlgorithmError
from repro.graph.build import csr_from_pairs
from repro.kernels import batch, batchsearch


@pytest.fixture(autouse=True)
def fresh_provider(monkeypatch):
    """Re-probe the provider around every test (env flips stay local)."""
    compiled.reset_provider_cache()
    yield monkeypatch
    compiled.reset_provider_cache()


def random_graph(seed, n=150, m=900):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return csr_from_pairs(edges)


def upper_offsets(graph):
    return np.flatnonzero(graph.edge_sources() < graph.dst)


needs_provider = pytest.mark.skipif(
    not compiled.available(), reason="no compiled provider on this host"
)


# --------------------------------------------------------------------- #
# provider selection and gating
# --------------------------------------------------------------------- #
def test_module_imports_cleanly_whatever_the_host_has():
    # available() must answer without raising, both ways.
    assert compiled.available() in (True, False)
    if compiled.available():
        assert compiled.provider() in ("numba", "cc")
        assert compiled.unavailable_reason() is None
    else:
        assert compiled.provider() is None
        assert compiled.unavailable_reason()


def test_forced_off_disables_and_names_the_reason(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    assert not compiled.available()
    assert "REPRO_COMPILED=off" in compiled.unavailable_reason()
    with pytest.raises(AlgorithmError):
        compiled.require()


def test_forced_numba_unavailable_without_numba(monkeypatch):
    pytest.importorskip_reverse = None  # documentation: no numba assumed
    try:
        import numba  # noqa: F401

        pytest.skip("numba installed: forcing it succeeds by design")
    except ImportError:
        pass
    monkeypatch.setenv("REPRO_COMPILED", "numba")
    compiled.reset_provider_cache()
    assert not compiled.available()


def test_registry_lists_one_backend_per_kernel(monkeypatch):
    # The provider is a host capability, not a backend: the registry is
    # the same with or without one, and the retired per-provider names
    # fail like any unknown backend.
    reg = default_registry()
    with_provider = reg.names()
    assert len(with_provider) == 7
    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    assert reg.names() == with_provider
    with GraphSession(random_graph(0)) as session:
        for retired in ("gallop-compiled", "bitmap-compiled"):
            with pytest.raises(AlgorithmError, match="unknown backend"):
                session.count(backend=retired)


# --------------------------------------------------------------------- #
# kernel bit-exactness against the interpreted counterparts
# --------------------------------------------------------------------- #
@needs_provider
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gallop_compiled_matches_interpreted(seed):
    g = random_graph(seed)
    eo = upper_offsets(g)
    expected = batchsearch.count_edges_galloping_interpreted(g, eo)
    got = compiled.count_edges_galloping_compiled(g, eo)
    np.testing.assert_array_equal(got, expected)


@needs_provider
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bitmap_compiled_matches_interpreted(seed):
    g = random_graph(seed)
    eo = upper_offsets(g)
    expected = np.zeros(g.num_directed_edges, dtype=np.int64)
    batch.count_edges_bitmap_interpreted(g, eo, expected)
    got = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, got)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_bitmap_compiled_aligned_mode():
    g = random_graph(3)
    eo = upper_offsets(g)[::3]  # strided subset, still ascending
    full = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, full)
    compact = np.zeros(len(eo), dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, compact, aligned=True)
    np.testing.assert_array_equal(compact, full[eo])


@needs_provider
def test_batched_lower_bound_compiled_matches_interpreted():
    rng = np.random.default_rng(4)
    hay = np.sort(rng.integers(0, 1000, size=500).astype(np.int32))
    lanes = 300
    lo = rng.integers(0, 400, size=lanes)
    hi = lo + rng.integers(0, 100, size=lanes)
    targets = rng.integers(0, 1000, size=lanes).astype(np.int32)
    expected = batchsearch.batched_lower_bound_interpreted(hay, lo, hi, targets)
    got = compiled.batched_lower_bound_compiled(hay, lo, hi, targets)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_compiled_backends_match_merge_through_session():
    # ``bitmap`` and ``gallop`` run the provider's loops on this host.
    g = random_graph(5)
    with GraphSession(g) as session:
        ref = session.count(backend="merge").counts
        for backend in ("gallop", "bitmap"):
            got = session.count(backend=backend).counts
            np.testing.assert_array_equal(got, ref)


@needs_provider
def test_empty_graph_and_empty_subset():
    g = csr_from_pairs(np.array([[0, 1]]), num_vertices=3)
    none = np.empty(0, dtype=np.int64)
    assert len(compiled.count_edges_galloping_compiled(g, none)) == 0
    cnt = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, none, cnt)
    assert not cnt.any()


# --------------------------------------------------------------------- #
# dispatch: the provider serves every default path
# --------------------------------------------------------------------- #
def _interpreted_bodies_raise(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("interpreted kernel body ran with a provider present")

    for module, name in (
        (batch, "count_edges_bitmap_interpreted"),
        (batchsearch, "count_edges_galloping_interpreted"),
        (batchsearch, "batched_lower_bound_interpreted"),
    ):
        monkeypatch.setattr(module, name, boom)


@needs_provider
def test_provider_serves_every_default_path(monkeypatch):
    from repro.graph.datasets import load_dataset
    from repro.motif import count_cliques
    from repro.plan import clear_plan_cache

    # Skewed: the plan has gallop, cover-probe and bitmap buckets.
    g = load_dataset("wi", scale=0.02, cache=False)
    clear_plan_cache()
    with GraphSession(g) as session:
        ref = session.count(backend="merge").counts
        plan = session.plan()
        assert len(plan.gallop_edges) and len(plan.bitmap_edges)
        assert len(plan.cover_probe_edges)
        triangles = count_cliques(g, 3, backend="merge")
        _interpreted_bodies_raise(monkeypatch)
        for backend, opts in (
            ("hybrid", {}),
            ("bitmap", {}),
            ("gallop", {}),
            ("parallel", {"num_workers": 2, "start_method": "inline"}),
            ("sharded", {"num_workers": 3, "start_method": "inline"}),
        ):
            got = session.count(backend=backend, **opts).counts
            np.testing.assert_array_equal(got, ref, err_msg=backend)
        # Threshold 1 puts the clique base case's edges on gallop too.
        for threshold in (None, 1.0):
            got = count_cliques(g, 3, backend="hybrid", skew_threshold=threshold)
            assert got == triangles


def test_fuzzer_registers_the_same_paths_with_or_without_a_provider(monkeypatch):
    from repro.fuzz import differential

    before = differential.registered_paths()
    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    differential._register_builtin_paths()
    assert differential.registered_paths() == before
    for name in ("merge", "bitmap", "gallop", "hybrid-cold"):
        assert name in before
    for retired in ("gallop-compiled", "bitmap-compiled"):
        assert retired not in before


@needs_provider
def test_fuzz_case_runs_compiled_paths_bit_exact():
    # The planner and pool paths run the provider's loops.
    from repro.fuzz.differential import run_case
    from repro.fuzz.generators import generate_case

    paths = ["hybrid-cold", "hybrid-warm", "sharded-inline", "merge"]
    for index in range(4):
        case = generate_case(seed=99, index=index)
        report = run_case(case, paths=paths)
        assert report.ok, [f.format() for f in report.failures]
        assert report.paths_run == paths
