"""Production all-edge counting paths (exact, vectorized).

Three independent implementations of the same result — the common neighbor
count for every directed edge offset, aligned with ``graph.dst``:

* :func:`count_all_edges_bitmap` — the paper's BMP structure,
  *degree-bucketed*: source vertices are processed in groups per NumPy
  dispatch (dense sources isolate into small groups, sparse sources batch
  by the thousands), each group marking its neighborhoods in a stacked
  mark plane and segment-reducing all gathered adjacencies at once.  This
  is the "paper-faithful" production path.
* :func:`count_all_edges_matmul` — ``(A·A) ⊙ A`` through SciPy sparse
  matrix multiplication, blocked over row ranges to bound peak memory.
  Fastest on balanced graphs; the default backend and an independent
  checker.  Accepts a ``rows`` subset so the hybrid planner can skip rows
  whose edges run on a cheaper kernel.
* :func:`count_all_edges_merge` — per-edge ``searchsorted`` merge; slow,
  used for cross-validation on small graphs.

Plus the symmetric-assignment machinery shared by every algorithm
(paper §3: compute only ``u < v``, mirror to ``e(v, u)``).
"""

from __future__ import annotations

import numpy as np

from repro import compiled
from repro.graph.csr import CSRGraph

__all__ = [
    "reverse_edge_offsets",
    "symmetric_assign",
    "count_all_edges_bitmap",
    "count_edges_bitmap",
    "count_edges_bitmap_interpreted",
    "count_all_edges_matmul",
    "count_all_edges_merge",
    "count_edge",
]


def reverse_edge_offsets(graph: CSRGraph) -> np.ndarray:
    """For every edge offset ``i = e(u, v)`` return ``e(v, u)``.

    Sorting the directed edge list by ``(dst, src)`` enumerates the
    reversed pairs in CSR order, so a single lexsort yields the whole
    mapping — the vectorized equivalent of the per-edge binary searches
    that the paper's GPU co-processing phase hides on the CPU.
    """
    src = graph.edge_sources()
    order = np.lexsort((src, graph.dst))
    return order


def symmetric_assign(graph: CSRGraph, cnt: np.ndarray) -> np.ndarray:
    """Mirror counts from ``u < v`` edge offsets onto their reverses."""
    rev = reverse_edge_offsets(graph)
    src = graph.edge_sources()
    upper = src < graph.dst  # offsets holding computed counts
    lower_rev = rev[~upper]  # reverse partner of each u > v offset
    cnt[~upper] = cnt[lower_rev]
    return cnt


#: Gathered adjacency elements per bitmap-group dispatch (working-set cap).
BITMAP_GATHER_BUDGET = 1 << 21

#: Bytes of stacked mark rows per group (``group_size × |V|`` booleans).
BITMAP_MARK_BUDGET = 1 << 23


def _segment_starts(lens: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: start of each segment in the flat layout."""
    return np.cumsum(lens) - lens


def _flat_gather_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``[starts[i], starts[i] + lens[i])`` as one vector."""
    flat = np.arange(int(lens.sum()), dtype=np.int64)
    flat += np.repeat(starts - _segment_starts(lens), lens)
    return flat


def count_edges_bitmap(
    graph: CSRGraph,
    edge_offsets: np.ndarray,
    cnt: np.ndarray,
    ops=None,
    *,
    aligned: bool = False,
) -> None:
    """BMP counts for sorted ``u < v`` edge offsets, written into ``cnt``.

    The loop runs on the host's :mod:`repro.compiled` provider when there
    is one and no ``ops`` is asked for; otherwise on
    :func:`count_edges_bitmap_interpreted`, which is also the only body
    that charges an :class:`~repro.types.OpCounts`.  Both write the same
    counts.

    ``cnt`` is indexed by edge offset by default; with ``aligned=True`` it
    is instead aligned with ``edge_offsets`` (``cnt[i]`` receives the count
    of ``edge_offsets[i]``), letting parallel workers fill compact
    per-chunk buffers instead of full-size count vectors.
    """
    if ops is None and compiled.available():
        compiled.count_edges_bitmap_compiled(
            graph, edge_offsets, cnt, aligned=aligned
        )
    else:
        count_edges_bitmap_interpreted(
            graph, edge_offsets, cnt, ops, aligned=aligned
        )


def count_edges_bitmap_interpreted(
    graph: CSRGraph,
    edge_offsets: np.ndarray,
    cnt: np.ndarray,
    ops=None,
    *,
    aligned: bool = False,
) -> None:
    """NumPy body of :func:`count_edges_bitmap` (same arguments).

    Degree-bucketed execution: source vertices are processed in groups
    sized by two budgets — the stacked mark plane (``group × |V|`` bools
    ≤ :data:`BITMAP_MARK_BUDGET`) and the gathered adjacency volume
    (≤ :data:`BITMAP_GATHER_BUDGET`) — so dense sources land in small
    groups while thousands of sparse sources share one dispatch.  Each
    group marks all its neighborhoods in the plane (row per source),
    gathers every requested ``N(v)`` as one flat vector, tests marks, and
    segment-sums per edge.

    When an :class:`~repro.types.OpCounts` is passed, the BMP-structure
    work (bitmap set/test/clear, word traffic, matches) is charged to it.
    """
    eo = np.asarray(edge_offsets, dtype=np.int64)
    if len(eo) == 0:
        return
    n = graph.num_vertices
    offsets = graph.offsets
    dst = graph.dst
    deg = graph.degrees

    src = np.searchsorted(offsets, eo, side="right") - 1
    us, tails = np.unique(src, return_counts=True)
    tail_starts = _segment_starts(tails)
    vs = dst[eo].astype(np.int64)
    gather_lens = deg[vs]
    per_u_gather = np.add.reduceat(gather_lens, tail_starts)
    gather_cum = np.cumsum(per_u_gather)
    max_rows = max(1, BITMAP_MARK_BUDGET // max(n, 1))

    start = 0
    while start < len(us):
        base = int(gather_cum[start] - per_u_gather[start])
        end = int(
            np.searchsorted(gather_cum, base + BITMAP_GATHER_BUDGET, side="right")
        )
        end = min(max(end, start + 1), start + max_rows, len(us))
        us_g = us[start:end]
        rows = end - start

        # Mark plane: one boolean row per source in the group.
        mark_lens = deg[us_g]
        mark_cols = dst[_flat_gather_index(offsets[us_g], mark_lens)].astype(
            np.int64
        )
        mark_rows = np.repeat(np.arange(rows, dtype=np.int64), mark_lens)
        mark = np.zeros(rows * n, dtype=bool)
        mark[mark_rows * n + mark_cols] = True

        # Gather all requested N(v) of the group as one flat vector.
        e_lo = int(tail_starts[start])
        e_hi = int(tail_starts[end - 1] + tails[end - 1])
        lens_g = gather_lens[e_lo:e_hi]
        seg = _segment_starts(lens_g)
        gcols = dst[_flat_gather_index(offsets[vs[e_lo:e_hi]], lens_g)].astype(
            np.int64
        )
        edge_rows = np.repeat(
            np.arange(rows, dtype=np.int64), tails[start:end]
        )
        # ``reduceat`` returns the element *at* a zero-length segment's
        # start instead of an empty sum, and a trailing empty segment
        # would index past ``hits`` — both reachable on asymmetric
        # (DAG-oriented) CSRs where ``N⁺(v)`` may be empty, so reduce
        # only the non-empty segments.
        sums = np.zeros(len(lens_g), dtype=np.int64)
        nz = lens_g > 0
        if nz.any():
            hits = mark[np.repeat(edge_rows, lens_g) * n + gcols]
            sums[nz] = np.add.reduceat(hits, seg[nz])
        if aligned:
            cnt[e_lo:e_hi] = sums
        else:
            cnt[eo[e_lo:e_hi]] = sums

        if ops is not None:
            marked = int(mark_lens.sum())
            gathered = int(lens_g.sum())
            ops.bitmap_set += marked
            ops.bitmap_clear += marked  # plane retired after the group
            ops.bitmap_test += gathered
            ops.rand_words += gathered  # mark probes are random touches
            ops.seq_words += marked + gathered  # streamed adjacency reads
            ops.matches += int(sums.sum())
        start = end


def count_all_edges_bitmap(graph: CSRGraph) -> np.ndarray:
    """BMP-structured exact counting; returns counts aligned with ``dst``.

    Runs :func:`count_edges_bitmap` over every ``u < v`` edge offset —
    groups of source vertices per NumPy dispatch instead of a per-vertex
    Python loop — then mirrors through :func:`symmetric_assign`.
    """
    src = graph.edge_sources()
    eo = np.flatnonzero(src < graph.dst)
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    count_edges_bitmap(graph, eo, cnt)
    return symmetric_assign(graph, cnt)


def count_all_edges_matmul(
    graph: CSRGraph,
    row_block_nnz: int = 2_000_000,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Exact counting via blocked sparse ``(A·A) ⊙ A``.

    For adjacent ``(u, v)``, ``(A²)[u, v] = |N(u) ∩ N(v)|``.  Rows are
    processed in blocks sized by their nnz so the intermediate product
    stays small.  ``A`` carries ``int32`` data and the edge-id alignment
    matrix ``int64`` payloads — counts and offsets are exact integers, so
    float carriers would only double the memory traffic.

    When ``rows`` is given (sorted unique vertex ids), only those rows'
    products are computed: every edge offset ``e(u, v)`` with ``u ∈ rows``
    receives its count, everything else is left untouched.  The hybrid
    planner uses this to skip rows whose edges run on a cheaper kernel.
    """
    import scipy.sparse as sp

    n = graph.num_vertices
    offsets = graph.offsets
    dst = graph.dst
    nnz = len(dst)
    cnt = np.zeros(nnz, dtype=np.int64)
    if nnz == 0:
        return cnt
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return cnt

    A = sp.csr_matrix((np.ones(nnz, dtype=np.int32), dst, offsets), shape=(n, n))

    row_nnz = offsets[rows + 1] - offsets[rows]
    nnz_cum = np.cumsum(row_nnz)
    start = 0
    while start < len(rows):
        # Grow the block until its nnz budget is reached.
        base = int(nnz_cum[start] - row_nnz[start])
        end = int(np.searchsorted(nnz_cum, base + row_block_nnz, side="right"))
        end = min(max(end, start + 1), len(rows))
        blk = rows[start:end]
        if len(blk) == blk[-1] - blk[0] + 1:  # contiguous: cheap slice
            block = A[blk[0] : blk[-1] + 1]
        else:
            block = A[blk]
        prod = (block @ A).multiply(block).tocsr()
        prod.sort_indices()
        # prod's pattern is a subset of block's (zero counts vanish);
        # align through the edge-offset positions of the surviving entries.
        if prod.nnz:
            flat = _flat_gather_index(offsets[blk], row_nnz[start:end])
            ids = sp.csr_matrix(
                (
                    flat + 1,
                    dst[flat],
                    np.concatenate(([0], np.cumsum(row_nnz[start:end]))),
                ),
                shape=(len(blk), n),
            )
            pattern = prod.copy()
            pattern.data = np.ones_like(pattern.data)
            pos = ids.multiply(pattern).tocsr()
            pos.sort_indices()
            cnt[pos.data - 1] = prod.data
        start = end

    return cnt


def count_all_edges_merge(graph: CSRGraph) -> np.ndarray:
    """Per-edge ``searchsorted`` merge counting (validation path)."""
    offsets = graph.offsets
    dst = graph.dst
    cnt = np.zeros(len(dst), dtype=np.int64)
    src = graph.edge_sources()
    upper = np.flatnonzero(src < dst)
    for eo in upper:
        u = int(src[eo])
        v = int(dst[eo])
        cnt[eo] = count_edge(graph, u, v)
    return symmetric_assign(graph, cnt)


def count_edge(graph: CSRGraph, u: int, v: int) -> int:
    """Exact ``|N(u) ∩ N(v)|`` for one vertex pair (need not be an edge)."""
    a = graph.neighbors(u)
    b = graph.neighbors(v)
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return 0
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1 if len(b) else 0
    return int(np.count_nonzero(b[idx] == a)) if len(b) else 0
