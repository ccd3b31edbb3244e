"""BackendRegistry capability checks + cross-backend agreement property."""

import contextlib
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro import compiled
from repro.core.verify import brute_force_counts
from repro.engine import BackendSpec, BackendRegistry, GraphSession, default_registry
from repro.errors import AlgorithmError
from tests.strategies import csr_graphs

EXPECTED_BUILTINS = {
    "merge",
    "bitmap",
    "matmul",
    "gallop",
    "parallel",
    "sharded",
    "hybrid",
}


def test_builtin_backends_registered():
    assert EXPECTED_BUILTINS <= set(default_registry().names())


def test_unknown_backend_raises_with_choices():
    with pytest.raises(AlgorithmError, match="unknown backend"):
        default_registry().get("gpu")


def test_capability_tables_match_old_contract():
    reg = default_registry()
    assert set(reg.backends_for("M")) == {"merge"}
    assert reg.backends_for("MPS") == ["merge", "gallop"]
    assert reg.backends_for("BMP") == ["bitmap", "parallel", "sharded"]
    assert reg.get("parallel").supports_stats
    assert reg.get("sharded").supports_stats
    assert reg.get("sharded").supports_num_workers
    assert reg.get("hybrid").supports_stats
    assert reg.get("hybrid").supports_num_workers
    assert not reg.get("merge").supports_stats


def test_check_algorithm_rejects_mismatch():
    with pytest.raises(AlgorithmError, match="does not execute"):
        default_registry().check_algorithm("MPS-AVX512", "MPS", "bitmap")


def test_register_duplicate_requires_replace():
    reg = BackendRegistry()
    spec = BackendSpec(name="x", run=lambda s, **k: (None, None))
    reg.register(spec)
    with pytest.raises(ValueError, match="already registered"):
        reg.register(spec)
    reg.register(spec, replace=True)
    reg.unregister("x")
    assert "x" not in reg


def test_custom_backend_routes_through_session():
    """A backend registered tomorrow is dispatchable today — no API edits."""
    reg = default_registry()

    def run_shifted(session, **_):
        from repro.kernels.batch import count_all_edges_merge

        return count_all_edges_merge(session.graph), None

    reg.register(BackendSpec(name="merge2", run=run_shifted))
    try:
        from repro.graph.generators import small_test_graph

        g = small_test_graph()
        with GraphSession(g) as s:
            got = s.count(backend="merge2").counts
        assert np.array_equal(got, brute_force_counts(g))
    finally:
        reg.unregister("merge2")


@contextlib.contextmanager
def _kernel_provider(env):
    """Run the block under the ``env`` overrides, re-probing the kernel
    provider on entry and exit."""
    with mock.patch.dict(os.environ, env):
        compiled.reset_provider_cache()
        try:
            yield
        finally:
            compiled.reset_provider_cache()


@settings(max_examples=25, deadline=None)
@given(graph=csr_graphs(max_vertex=20, max_size=80))
def test_every_registered_backend_agrees_bit_exactly(graph):
    """The registry *is* the coverage list: every enumerated backend must
    produce the brute-force counts bit-exactly on shared strategy graphs,
    both on the host's kernel provider and on the interpreted kernels.
    """
    expected = brute_force_counts(graph)
    for env in ({}, {"REPRO_COMPILED": "off"}):
        with _kernel_provider(env), GraphSession(graph) as session:
            for spec in session.registry.specs():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    kwargs = (
                        {"num_workers": 1} if spec.supports_num_workers else {}
                    )
                    got = session.count(backend=spec.name, **kwargs).counts
                assert got.dtype == np.int64
                assert np.array_equal(got, expected), (spec.name, env)


def test_stream_paths_live_outside_the_registry():
    """Streaming is not a counting backend: ``stream-exact`` is a fuzz
    path of its own and ``stream-sampled`` has its statistical one."""
    from repro.fuzz.differential import registered_paths

    reg = default_registry()
    for name in ("stream-exact", "stream-sampled"):
        assert name not in reg
        with pytest.raises(AlgorithmError, match="unknown backend"):
            reg.get(name)
        assert name in registered_paths()
