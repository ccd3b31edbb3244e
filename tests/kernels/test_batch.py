"""Unit tests for the production batch counting paths."""

import numpy as np
import pytest

from repro.graph.build import csr_from_pairs
from repro.graph.generators import chung_lu_graph, erdos_renyi_graph
from repro.kernels.batch import (
    count_all_edges_bitmap,
    count_all_edges_matmul,
    count_all_edges_merge,
    count_edge,
    count_edges_bitmap,
    reverse_edge_offsets,
    symmetric_assign,
)
from repro.types import OpCounts

ALL_PATHS = [count_all_edges_bitmap, count_all_edges_matmul, count_all_edges_merge]


@pytest.mark.parametrize("path", ALL_PATHS)
def test_small_graph_ground_truth(path, small_graph, small_graph_counts):
    cnt = path(small_graph)
    for (u, v), expected in small_graph_counts.items():
        assert cnt[small_graph.edge_offset(u, v)] == expected
        assert cnt[small_graph.edge_offset(v, u)] == expected


@pytest.mark.parametrize("path", ALL_PATHS)
def test_triangle_identity(path, medium_graph):
    import networkx as nx

    cnt = path(medium_graph)
    expected = sum(nx.triangles(medium_graph.to_networkx()).values()) // 3
    assert cnt.sum() // 6 == expected


def test_all_paths_agree(medium_graph, uniform_graph):
    for g in (medium_graph, uniform_graph):
        results = [path(g) for path in ALL_PATHS]
        for r in results[1:]:
            assert np.array_equal(results[0], r)


@pytest.mark.parametrize("path", ALL_PATHS)
def test_empty_graph(path):
    g = csr_from_pairs([], num_vertices=4)
    assert len(path(g)) == 0


@pytest.mark.parametrize("path", ALL_PATHS)
def test_triangle_free_graph(path):
    # A path graph has no triangles: all counts zero.
    g = csr_from_pairs([(i, i + 1) for i in range(10)])
    assert not path(g).any()


@pytest.mark.parametrize("path", ALL_PATHS)
def test_complete_graph(path):
    n = 8
    g = csr_from_pairs([(i, j) for i in range(n) for j in range(i + 1, n)])
    cnt = path(g)
    assert np.all(cnt == n - 2)


def test_matmul_blocking_invariance(medium_graph):
    """Row-block size must not change results."""
    full = count_all_edges_matmul(medium_graph)
    tiny_blocks = count_all_edges_matmul(medium_graph, row_block_nnz=64)
    assert np.array_equal(full, tiny_blocks)


def test_reverse_edge_offsets_involution(medium_graph):
    rev = reverse_edge_offsets(medium_graph)
    assert np.array_equal(rev[rev], np.arange(len(rev)))
    src = medium_graph.edge_sources()
    assert np.array_equal(src[rev], medium_graph.dst)
    assert np.array_equal(medium_graph.dst[rev], src)


def test_symmetric_assign_mirrors(medium_graph):
    src = medium_graph.edge_sources()
    cnt = np.where(src < medium_graph.dst, np.arange(len(src)), -1)
    out = symmetric_assign(medium_graph, cnt.copy())
    rev = reverse_edge_offsets(medium_graph)
    lower = src > medium_graph.dst
    assert np.array_equal(out[lower], out[rev[lower]])
    assert not np.any(out == -1)


def test_count_edge_non_adjacent(small_graph):
    # (1, 4) is not an edge; common neighbor is vertex 0.
    assert count_edge(small_graph, 1, 4) == 1
    assert count_edge(small_graph, 6, 7) == 0


def test_count_edge_with_isolated_vertex(small_graph):
    assert count_edge(small_graph, 7, 0) == 0


def test_bitmap_kernel_charges_op_counts(medium_graph):
    # Asking for OpCounts runs the interpreted body on any host.
    src = medium_graph.edge_sources()
    eo = np.flatnonzero(src < medium_graph.dst)
    cnt = np.zeros(medium_graph.num_directed_edges, dtype=np.int64)
    ops = OpCounts()
    count_edges_bitmap(medium_graph, eo, cnt, ops)
    assert ops.bitmap_set > 0
    assert ops.bitmap_set == ops.bitmap_clear
    assert ops.bitmap_test > 0
    assert ops.rand_words == ops.bitmap_test
    # Every computed count contributes its matches.
    ref = count_all_edges_matmul(medium_graph)
    assert np.array_equal(cnt[eo], ref[eo])
    assert ops.matches == int(ref[eo].sum())
