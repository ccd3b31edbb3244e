"""Work-weighted chunk boundaries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.build import csr_from_pairs
from repro.plan import weighted_vertex_chunks
from tests.strategies import cost_vectors


def test_covers_range_without_gaps():
    cost = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 0.0])
    bounds, pred = weighted_vertex_chunks(cost, 3)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == len(cost)
    for (_, a), (b, _) in zip(bounds[:-1], bounds[1:]):
        assert a == b
    assert np.isclose(pred.sum(), cost.sum())


def test_balances_better_than_equal_split():
    # One hub vertex carries half the work; equal vertex ranges would put
    # it with a full share of the rest.
    cost = np.ones(100)
    cost[0] = 100.0
    bounds, pred = weighted_vertex_chunks(cost, 4)
    assert pred.max() / pred.mean() < 2.0
    # The hub lands in a chunk of its own (or nearly).
    assert bounds[0][1] <= 2


def test_zero_cost_falls_back_to_equal_ranges():
    bounds, pred = weighted_vertex_chunks(np.zeros(10), 2)
    assert bounds == [(0, 5), (5, 10)]
    assert pred.tolist() == [0.0, 0.0]


def test_degenerate_inputs():
    assert weighted_vertex_chunks(np.empty(0), 4)[0] == []
    assert weighted_vertex_chunks(np.ones(3), 0)[0] == []
    bounds, _ = weighted_vertex_chunks(np.ones(2), 8)  # more chunks than work
    assert bounds[0][0] == 0 and bounds[-1][1] == 2


@pytest.mark.parametrize(
    "pairs,n,k",
    [
        pytest.param([], 3, 4, id="edgeless-vertices"),
        pytest.param([(0, 9), (1, 9), (5, 9)], 12, 5, id="isolated-vertices"),
        pytest.param([(0, 1), (1, 2), (2, 3)], 4, 40, id="more-chunks-than-vertices"),
    ],
)
def test_degree_weights_cover_every_vertex(pairs, n, k):
    """Adjacency volume as the weight (the unplanned balance key): ranges
    stay monotone and cover every vertex exactly once, whatever the
    isolated vertices or the chunk count."""
    degrees = csr_from_pairs(pairs, num_vertices=n).degrees
    bounds, pred = weighted_vertex_chunks(degrees, k)
    assert 0 < len(bounds) <= n
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    for (_, a), (b, _) in zip(bounds[:-1], bounds[1:]):
        assert a == b
    assert pred.sum() == degrees.sum()


def test_empty_graph_has_no_chunks():
    degrees = csr_from_pairs([], num_vertices=0).degrees
    assert weighted_vertex_chunks(degrees, 4)[0] == []


@given(cost_vectors(max_size=50), st.integers(1, 8))
def test_property_partition_is_exact(cost, k):
    bounds, pred = weighted_vertex_chunks(cost, k)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == len(cost)
    covered = sum(hi - lo for lo, hi in bounds)
    assert covered == len(cost)
    assert np.isclose(pred.sum(), cost.sum())
