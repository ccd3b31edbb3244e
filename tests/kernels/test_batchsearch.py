"""Batched lockstep lower-bound search and the galloping edge counter."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.build import csr_from_pairs
from repro.graph.generators import chung_lu_graph, small_test_graph
from repro.kernels import batchsearch
from repro.kernels.batch import count_all_edges_matmul
from repro.kernels.batchsearch import (
    batched_lower_bound,
    count_edges_galloping,
    count_edges_galloping_interpreted,
)
from repro.kernels.costmodel import upper_edges
from repro.types import OpCounts
from tests.strategies import sorted_int_arrays


# --------------------------------------------------------------------- #
# batched_lower_bound
# --------------------------------------------------------------------- #
def test_matches_searchsorted_single_segment():
    hay = np.array([1, 3, 5, 7, 9], dtype=np.int64)
    targets = np.array([0, 1, 2, 9, 10], dtype=np.int64)
    lo = np.zeros(5, dtype=np.int64)
    hi = np.full(5, 5, dtype=np.int64)
    got = batched_lower_bound(hay, lo, hi, targets)
    assert got.tolist() == np.searchsorted(hay, targets).tolist()


def test_respects_segment_bounds():
    # Two overlapping segments of the same haystack.
    hay = np.array([2, 4, 6, 8, 10, 12], dtype=np.int64)
    lo = np.array([0, 3], dtype=np.int64)
    hi = np.array([3, 6], dtype=np.int64)
    targets = np.array([100, 1], dtype=np.int64)
    got = batched_lower_bound(hay, lo, hi, targets)
    assert got.tolist() == [3, 3]  # clamp to hi, clamp to lo


def test_empty_lanes_and_empty_input():
    hay = np.array([5], dtype=np.int64)
    got = batched_lower_bound(
        hay,
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([5], dtype=np.int64),
    )
    assert got.tolist() == [0]
    empty = np.empty(0, dtype=np.int64)
    assert len(batched_lower_bound(hay, empty, empty, empty)) == 0


@given(
    sorted_int_arrays(max_value=200, max_size=60, min_size=1),
    st.lists(st.integers(0, 200), min_size=1, max_size=20),
)
def test_property_matches_per_lane_searchsorted(hay, target_vals):
    targets = np.array(target_vals, dtype=np.int64)
    lanes = len(targets)
    rng = np.random.default_rng(len(hay) * 31 + lanes)
    lo = rng.integers(0, len(hay) + 1, lanes)
    hi = np.array([rng.integers(l, len(hay) + 1) for l in lo], dtype=np.int64)
    got = batched_lower_bound(hay, lo, hi, targets)
    for i in range(lanes):
        expect = lo[i] + np.searchsorted(hay[lo[i] : hi[i]], targets[i])
        assert got[i] == expect


# --------------------------------------------------------------------- #
# count_edges_galloping
# --------------------------------------------------------------------- #
def _check_against_matmul(graph, edge_offsets):
    # The entry point (the host's provider, if any) and the interpreted body.
    expected = count_all_edges_matmul(graph)
    for kernel in (count_edges_galloping, count_edges_galloping_interpreted):
        got = kernel(graph, edge_offsets)
        assert np.array_equal(got, expected[edge_offsets]), kernel.__name__


def test_small_graph_all_upper_edges():
    g = small_test_graph()
    es = upper_edges(g)
    _check_against_matmul(g, es.edge_offsets)


def test_skewed_graph_and_subsets():
    g = chung_lu_graph(800, 4000, exponent=2.0, seed=11)
    es = upper_edges(g)
    _check_against_matmul(g, es.edge_offsets)
    # A scattered subset (every third edge) must also be exact.
    _check_against_matmul(g, es.edge_offsets[::3])


def test_tiny_lane_block_forces_many_blocks(monkeypatch):
    monkeypatch.setattr(batchsearch, "LANE_BLOCK", 8)
    g = chung_lu_graph(300, 1500, exponent=2.1, seed=3)
    es = upper_edges(g)
    _check_against_matmul(g, es.edge_offsets)


def test_star_graph():
    n = 50
    g = csr_from_pairs([(0, i) for i in range(1, n)])
    es = upper_edges(g)
    got = count_edges_galloping(g, es.edge_offsets)
    assert got.sum() == 0  # star has no triangles


def test_dag_with_empty_out_lists():
    # An oriented DAG has vertices with empty N⁺ lists; an edge whose
    # smaller list is empty counts zero rather than a neighbor lane's hit.
    from repro.motif.clique import orient_dag

    dag = orient_dag(chung_lu_graph(60, 300, exponent=2.1, seed=5))
    src = dag.edge_sources()
    eo = np.arange(dag.num_directed_edges)
    expected = [
        len(np.intersect1d(dag.neighbors(int(src[i])), dag.neighbors(int(dag.dst[i]))))
        for i in eo
    ]
    for kernel in (count_edges_galloping, count_edges_galloping_interpreted):
        assert kernel(dag, eo).tolist() == expected, kernel.__name__


def test_empty_offsets():
    g = small_test_graph()
    assert len(count_edges_galloping(g, np.empty(0, dtype=np.int64))) == 0


# --------------------------------------------------------------------- #
# OpCounts accounting pins
#
# These pin the *exact* operation counts of the lockstep accounting so a
# refactor that silently changes the charged work (e.g. charging parked
# lanes, or dropping the per-lane verification probe) fails loudly.  The
# numbers are empirical but explainable — each pin's comment derives them.
# --------------------------------------------------------------------- #
def test_opcounts_pin_duplicate_heavy_offsets():
    # Every upper edge of the 8-vertex fixture repeated 3×.  Duplicate
    # offsets are independent lanes: all charges scale exactly 3× and the
    # matches counter triples with the returned counts.
    g = small_test_graph()
    offsets = np.repeat(upper_edges(g).edge_offsets, 3)
    ops = OpCounts()
    counts = count_edges_galloping(g, offsets, ops)
    assert int(counts.sum()) == 45
    assert ops.seq_words == 78  # Σ d_small over 30 lanes-of-edges
    assert ops.comparisons == 78  # one verification compare per needle
    assert ops.binary_steps == 189  # lockstep bisection rounds, active lanes
    assert ops.rand_words == 267  # 189 bisection gathers + 78 probes
    assert ops.matches == 45  # always equals counts.sum()


def test_opcounts_pin_empty_needle():
    # No offsets at all: the kernel returns before touching memory, so
    # every counter must stay zero.
    g = small_test_graph()
    ops = OpCounts()
    counts = count_edges_galloping(g, np.empty(0, dtype=np.int64), ops)
    assert len(counts) == 0
    assert (
        ops.seq_words,
        ops.rand_words,
        ops.binary_steps,
        ops.comparisons,
        ops.matches,
    ) == (0, 0, 0, 0, 0)


def test_opcounts_pin_empty_lanes_charge_nothing():
    # Lanes with lo == hi never become active: zero bisection steps and
    # zero gathers, matching the scalar kernels' immediate exit.
    ops = OpCounts()
    hay = np.array([5], dtype=np.int64)
    zeros = np.zeros(4, dtype=np.int64)
    got = batched_lower_bound(
        hay, zeros, zeros, np.array([1, 2, 3, 4], dtype=np.int64), ops
    )
    assert got.tolist() == [0, 0, 0, 0]
    assert ops.binary_steps == 0
    assert ops.rand_words == 0


def test_opcounts_pin_all_misses_star():
    # Star on 9 vertices: 8 upper edges, each intersecting a 1-element
    # leaf list against the degree-8 hub segment.  8 needles × 4 lockstep
    # rounds (ceil(log2(8)) + 1 convergence round) = 32 bisection steps;
    # rand_words adds the 8 verification probes.  Nothing ever matches.
    star = csr_from_pairs([(0, i) for i in range(1, 9)])
    offsets = upper_edges(star).edge_offsets
    ops = OpCounts()
    counts = count_edges_galloping(star, offsets, ops)
    assert int(counts.sum()) == 0
    assert ops.seq_words == 8
    assert ops.comparisons == 8
    assert ops.binary_steps == 32
    assert ops.rand_words == 40
    assert ops.matches == 0
