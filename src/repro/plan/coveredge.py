"""Cover-edge pre-pass: edges whose counts need no intersection at all.

Bader et al. ("Cover Edge-Based Novel Triangle Counting", PAPERS.md)
observe that a large share of a real graph's edges never participate in
a triangle, and that many of the rest close a *wedge* whose existence is
decidable with a single adjacency probe.  This module applies the same
idea to all-edge common neighbor counting: classify, with a few
vectorized passes over the CSR arrays, the ``u < v`` edges whose exact
count is **derivable without running any intersection kernel**, so the
hybrid planner can bucket them out of the gallop/bitmap/matmul work
entirely.

Two provably exact classes are recognized:

**zero** (``|N(u) ∩ N(v)| = 0`` by construction)
    * a degree-1 endpoint: its only neighbor is the other endpoint of
      the edge, which is never a *common* neighbor (no self loops);
    * disjoint trimmed ranges: the exact ``[min, max]`` spans of
      ``N(u)\\{v}`` and ``N(v)\\{u}`` do not overlap — both adjacency
      lists are sorted, so min/max after excluding the endpoint are two
      gathers each, and disjoint spans mean an empty intersection.

**probe** (``d_small = 2``: the count is one wedge-closure test)
    The smaller endpoint's neighbors are exactly ``{large, w}``, so
    ``N(small)\\{large} = {w}`` and the count is 1 iff the wedge
    ``large – small – w`` closes, i.e. the edge ``(large, w)`` exists.
    One batched lower-bound search of ``w`` in ``N(large)`` answers a
    whole bucket of such edges per dispatch.

Classification costs a handful of whole-array gathers; the planner
prices the skip with :func:`repro.kernels.costmodel.cover_work` and
assigns an edge to the cover bucket only when that beats every real
kernel (in practice: always, which is the point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.costmodel import EdgeSet

__all__ = [
    "CoverClassification",
    "classify_cover_edges",
    "probe_cover_counts",
]


@dataclass(frozen=True)
class CoverClassification:
    """The cover-eligible subset of an :class:`EdgeSet`.

    ``zero_mask``/``probe_mask`` align with the edge set; the ``probe_*``
    arrays are compacted to the probe edges only, in edge-set order.
    """

    zero_mask: np.ndarray
    probe_mask: np.ndarray
    probe_src: np.ndarray  # larger endpoint of each probe edge
    probe_target: np.ndarray  # the wedge's third vertex w

    @property
    def covered_mask(self) -> np.ndarray:
        return self.zero_mask | self.probe_mask

    @property
    def num_covered(self) -> int:
        return int(np.count_nonzero(self.zero_mask)) + len(self.probe_src)


def classify_cover_edges(graph: CSRGraph, es: EdgeSet) -> CoverClassification:
    """Vectorized exact classification of the cover-eligible edges."""
    m = len(es)
    empty = np.empty(0, dtype=np.int64)
    if m == 0:
        mask = np.zeros(0, dtype=bool)
        return CoverClassification(mask, mask.copy(), empty, empty)

    offsets = graph.offsets
    dst = graph.dst
    d_small = es.d_small

    # Class zero, part 1: a degree-1 endpoint's only neighbor is the
    # other endpoint, never a common neighbor.
    zero = d_small <= 1.0

    # Class zero, part 2: exact [min, max] spans of N(u)\{v} and N(v)\{u}
    # for edges where both trimmed lists are nonempty.  Lists are sorted,
    # so excluding the endpoint moves the extreme inward by one slot at
    # most; two gathers per side recover the exact trimmed min/max.
    eligible = (es.du >= 2.0) & (es.dv >= 2.0)
    min_u, max_u = _trimmed_span(offsets, dst, es.u, es.v)
    min_v, max_v = _trimmed_span(offsets, dst, es.v, es.u)
    zero |= eligible & ((max_u < min_v) | (max_v < min_u))

    # Class probe: d_small == 2 leaves exactly one candidate common
    # neighbor w; the count is [edge (large, w) exists].
    probe = (d_small == 2.0) & ~zero
    idx = np.flatnonzero(probe)
    if len(idx):
        swap = es.dv[idx] < es.du[idx]
        small = np.where(swap, es.v[idx], es.u[idx])
        large = np.where(swap, es.u[idx], es.v[idx])
        first = dst[offsets[small]].astype(np.int64)
        second = dst[offsets[small] + 1].astype(np.int64)
        w = np.where(first == large, second, first)
        return CoverClassification(zero, probe, large, w)
    return CoverClassification(zero, probe, empty, empty)


def _trimmed_span(offsets, dst, a, b):
    """Exact min/max of ``N(a)\\{b}`` per edge (valid where ``d_a >= 2``)."""
    lo = offsets[a]
    hi = offsets[a + 1]
    first = dst[lo].astype(np.int64)
    last = dst[hi - 1].astype(np.int64)
    second = dst[np.minimum(lo + 1, hi - 1)].astype(np.int64)
    second_last = dst[np.maximum(hi - 2, lo)].astype(np.int64)
    mn = np.where(first == b, second, first)
    mx = np.where(last == b, second_last, last)
    return mn, mx


def probe_cover_counts(
    graph: CSRGraph, probe_src: np.ndarray, probe_target: np.ndarray
) -> np.ndarray:
    """0/1 counts for the probe-class edges: does ``(src, target)`` exist?

    One independent lower-bound search of each target in its source's
    adjacency segment.
    """
    out = np.zeros(len(probe_src), dtype=np.int64)
    if len(probe_src) == 0:
        return out
    from repro.kernels.batchsearch import batched_lower_bound

    offsets = graph.offsets
    dst = graph.dst
    lo = offsets[probe_src]
    hi = offsets[probe_src + 1]
    pos = batched_lower_bound(dst, lo, hi, probe_target)
    found = pos < hi
    found &= dst[np.minimum(pos, len(dst) - 1)] == probe_target
    out[found] = 1
    return out
