"""Unit tests for the algorithm layer (M, MPS, BMP)."""

import numpy as np
import pytest

from repro.algorithms import MPS, BMP, MergeBaseline, algorithm_names, get_algorithm
from repro.core.api import count_common_neighbors
from repro.errors import UnknownAlgorithmError
from repro.graph.reorder import reorder_graph
from repro.kernels.batch import count_all_edges_matmul
from repro.kernels.costmodel import upper_edges


def test_registry_contents():
    names = algorithm_names()
    for expected in ("M", "MPS", "BMP", "BMP-RF", "MPS-AVX2", "MPS-AVX512", "MPS-SCALAR"):
        assert expected in names


def test_unknown_algorithm():
    with pytest.raises(UnknownAlgorithmError):
        get_algorithm("quantum")


def test_get_algorithm_case_insensitive():
    assert isinstance(get_algorithm("bmp"), BMP)
    assert isinstance(get_algorithm("mps"), MPS)


def test_get_algorithm_kwargs_override():
    a = get_algorithm("MPS", skew_threshold=20.0)
    assert a.skew_threshold == 20.0
    with pytest.raises(TypeError):
        get_algorithm("MPS", bogus=1)


def test_all_algorithms_same_counts(medium_graph):
    ref = count_all_edges_matmul(medium_graph)
    for name in algorithm_names():
        got = count_common_neighbors(medium_graph, algorithm=name).counts
        assert np.array_equal(got, ref), name


def test_bmp_requires_reorder_flag():
    assert BMP().requires_reorder
    assert not MPS().requires_reorder
    assert not MergeBaseline().requires_reorder


def test_bmp_count_roundtrips_reorder(medium_graph, small_graph, small_graph_counts):
    # The reorder BMP's work model assumes is a relabelling: counting the
    # reordered graph gives every edge its count under the new ids.
    rr = reorder_graph(small_graph)
    result = count_common_neighbors(rr.graph, algorithm="BMP")
    for (u, v), expected in small_graph_counts.items():
        assert result[int(rr.new_id[u]), int(rr.new_id[v])] == expected


def test_mps_describe():
    assert "VB16" in MPS(lane_width=16).describe()
    assert "scalar-merge" in MPS(vectorized=False).describe()
    assert "RF" in get_algorithm("BMP-RF").describe()


def test_mps_threshold_affects_work(medium_graph):
    es = upper_edges(medium_graph)
    strict = MPS(skew_threshold=1e9).work(es)  # everything VB
    loose = MPS(skew_threshold=1.0).work(es)  # everything PS
    # With all edges on PS, vector_ops count pivots instead of blocks.
    assert strict.totals() != loose.totals()


def test_mps_scalar_variant_has_branches(medium_graph):
    es = upper_edges(medium_graph)
    scalar = MPS(vectorized=False).work(es)
    vectorized = MPS(vectorized=True).work(es)
    assert scalar["branch_ops"].sum() > vectorized["branch_ops"].sum()


def test_work_vector_alignment(medium_graph):
    es = upper_edges(medium_graph)
    for name in ("M", "MPS", "BMP"):
        w = get_algorithm(name).work(es)
        assert w.n == len(es)


def test_baseline_work_matches_merge_formula(medium_graph):
    es = upper_edges(medium_graph)
    w = MergeBaseline().work(es)
    assert np.allclose(w["scalar_ops"], 2.0 * (es.du + es.dv))
