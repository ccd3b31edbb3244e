"""Batched lower-bound search: many independent searches per NumPy dispatch.

The scalar ``LowerBound`` kernels in :mod:`repro.kernels.lowerbound` run
one search at a time — fine for instrumentation, hopeless as a production
path in CPython.  This module is their *batched* counterpart: every lane
(one element of one skewed intersection) advances through the same
bisection rounds in lockstep, the way the paper's GPU executes PS across a
warp.  One round is a handful of whole-array NumPy operations, so the
per-element interpreter overhead is amortized over the entire batch.

:func:`count_edges_galloping` builds on it to intersect *many* degree-skewed
edges at once: for each edge the smaller endpoint's neighbor list is
searched inside the larger endpoint's adjacency segment of ``graph.dst``,
``O(d_small · log d_large)`` work per edge — the pivot-skip economics that
make MPS win on skewed graphs, without a per-edge Python loop.
"""

from __future__ import annotations

import numpy as np

from repro import compiled
from repro.graph.csr import CSRGraph
from repro.types import OpCounts

__all__ = [
    "batched_lower_bound",
    "batched_lower_bound_interpreted",
    "count_edges_galloping",
    "count_edges_galloping_interpreted",
]

#: Flat search lanes processed per dispatch; bounds the working-set memory
#: of the lockstep arrays (~7 int64 temporaries per lane).
LANE_BLOCK = 1 << 21


def batched_lower_bound(
    haystack: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
    ops: OpCounts | None = None,
) -> np.ndarray:
    """Lower bound over many ``[lo[i], hi[i])`` segments.

    For each lane ``i`` returns the smallest index ``j`` in
    ``[lo[i], hi[i])`` with ``haystack[j] >= targets[i]`` (``hi[i]`` when no
    such element).  Each segment must be sorted ascending; segments may
    overlap and differ in length.

    A vertex-valued (int32) haystack is searched on the host's
    :mod:`repro.compiled` provider when there is one and no ``ops`` is
    asked for; every other call runs
    :func:`batched_lower_bound_interpreted`.
    """
    haystack = np.asarray(haystack)
    if ops is None and haystack.dtype == np.int32 and compiled.available():
        return compiled.batched_lower_bound_compiled(haystack, lo, hi, targets)
    return batched_lower_bound_interpreted(haystack, lo, hi, targets, ops)


def batched_lower_bound_interpreted(
    haystack: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
    ops: OpCounts | None = None,
) -> np.ndarray:
    """NumPy body of :func:`batched_lower_bound` (same arguments).

    All lanes bisect in lockstep:
    ``ceil(log2(max segment length))`` rounds of whole-array operations.

    When an :class:`~repro.types.OpCounts` is passed, each bisection step
    of each *active* lane (one not yet converged to ``lo == hi``) charges
    one ``binary_steps`` and one ``rand_words`` — the haystack word the
    step gathers.  Lanes that start empty (``lo == hi``) charge nothing,
    matching the scalar ``LowerBound`` kernels' immediate exit.
    """
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    if len(lo) == 0:
        return lo
    span = int((hi - lo).max())
    if span <= 0:
        return lo
    mid = np.empty_like(lo)
    for _ in range(span.bit_length()):
        active = lo < hi
        if ops is not None:
            stepped = int(np.count_nonzero(active))
            ops.binary_steps += stepped
            ops.rand_words += stepped
        np.add(lo, hi, out=mid)
        mid >>= 1
        # Inactive lanes park on index 0 — harmless gather, result masked.
        np.multiply(mid, active, out=mid)
        go_right = haystack[mid] < targets
        lo = np.where(active & go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def _segment_starts(lens: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: start of each segment in the flat layout."""
    return np.cumsum(lens) - lens


def _flat_gather_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``[starts[i], starts[i] + lens[i])`` as one vector."""
    total = int(lens.sum())
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - _segment_starts(lens), lens)
    return flat


def count_edges_galloping(
    graph: CSRGraph, edge_offsets: np.ndarray, ops: OpCounts | None = None
) -> np.ndarray:
    """Common neighbor counts for the given ``u < v`` edge offsets.

    Intended for the planner's degree-skewed bucket, where
    ``d_small · log2(d_large)`` beats both the bitmap gather
    (``O(d_large)``) and the SpGEMM row share.  The loop runs on the
    host's :mod:`repro.compiled` provider when there is one and no
    ``ops`` is asked for; otherwise on
    :func:`count_edges_galloping_interpreted`.  Both return the same
    int64 array aligned with ``edge_offsets``.
    """
    if ops is None and compiled.available():
        return compiled.count_edges_galloping_compiled(graph, edge_offsets)
    return count_edges_galloping_interpreted(graph, edge_offsets, ops)


def count_edges_galloping_interpreted(
    graph: CSRGraph, edge_offsets: np.ndarray, ops: OpCounts | None = None
) -> np.ndarray:
    """NumPy body of :func:`count_edges_galloping` (same arguments).

    The intersection of each edge runs as a batch of lower-bound searches:
    every element of the smaller endpoint's neighbor list is located inside
    the larger endpoint's adjacency segment, then hits are segment-summed
    per edge.

    When an :class:`~repro.types.OpCounts` is passed, the search work is
    charged to it: every needle element streamed charges one ``seq_words``,
    bisection steps charge through :func:`batched_lower_bound_interpreted`
    (``binary_steps`` + ``rand_words``), the per-lane verification probe
    charges one ``rand_words`` and one ``comparisons``, and each confirmed
    common neighbor charges one ``matches`` — so ``ops.matches`` always
    equals the returned counts' total.

    Returns an int64 array aligned with ``edge_offsets``.
    """
    edge_offsets = np.asarray(edge_offsets, dtype=np.int64)
    out = np.zeros(len(edge_offsets), dtype=np.int64)
    if len(edge_offsets) == 0:
        return out

    offsets = graph.offsets
    dst = graph.dst
    deg = graph.degrees
    u = np.searchsorted(offsets, edge_offsets, side="right") - 1
    v = dst[edge_offsets].astype(np.int64)
    swap = deg[v] < deg[u]
    small = np.where(swap, v, u)
    large = np.where(swap, u, v)
    lens = deg[small]

    # Block over edges so the flat lane arrays stay memory-bounded.
    csum = np.cumsum(lens)
    blk_lo = 0
    while blk_lo < len(edge_offsets):
        base = int(csum[blk_lo] - lens[blk_lo])
        blk_hi = int(np.searchsorted(csum, base + LANE_BLOCK, side="right"))
        blk_hi = min(max(blk_hi, blk_lo + 1), len(edge_offsets))
        sl = slice(blk_lo, blk_hi)
        blk_lens = lens[sl]
        targets = dst[_flat_gather_index(offsets[small[sl]], blk_lens)]
        hay_lo = np.repeat(offsets[large[sl]], blk_lens)
        hay_hi = np.repeat(offsets[large[sl] + 1], blk_lens)
        pos = batched_lower_bound_interpreted(dst, hay_lo, hay_hi, targets, ops)
        found = pos < hay_hi
        found &= dst[np.minimum(pos, len(dst) - 1)] == targets
        # ``reduceat`` returns the element *at* a zero-length segment's
        # start instead of an empty sum; a DAG-oriented CSR has empty
        # ``N⁺(small)`` lists, so reduce only the non-empty segments.
        nz = blk_lens > 0
        if nz.any():
            sums = np.zeros(len(blk_lens), dtype=np.int64)
            sums[nz] = np.add.reduceat(found, _segment_starts(blk_lens)[nz])
            out[sl] = sums
        if ops is not None:
            ops.seq_words += len(targets)  # needle elements streamed
            ops.rand_words += len(targets)  # verification gather per lane
            ops.comparisons += len(targets)  # equality check per lane
            ops.matches += int(np.count_nonzero(found))
        blk_lo = blk_hi
    return out
