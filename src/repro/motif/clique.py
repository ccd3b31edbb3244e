"""k-clique counting over a degree-ordered DAG (k ∈ {3, 4, 5}).

The kClist construction (Danisch et al.; Almasri et al.'s GPU variant in
PAPERS.md): orient every undirected edge from its lower-ranked endpoint
to its higher-ranked endpoint under a degree-ascending total order, so
low-degree vertices point at hubs and out-degrees stay small.  Every
k-clique then appears exactly once as a root vertex plus a
(k−1)-clique inside its out-neighborhood, and the per-level candidate
intersection is the *same* sorted-adjacency intersection primitive the
common-neighbor kernels already implement — which is why the ``bitmap``
and ``hybrid`` runners below call straight into
:mod:`repro.kernels.batch` / :mod:`repro.kernels.batchsearch` for the
k=3 base case and the per-edge seeding of deeper recursions.

Runners (all bit-exact, cross-checked by the differential fuzzer):

``merge``
    Sequential reference: per-level ``np.intersect1d`` recursion.
``bitmap``
    Mark-plane intersection; k=3 runs the production BMP batch kernel
    over the DAG's edge offsets.
``hybrid``
    The planner path: DAG edges are priced by
    :func:`repro.kernels.costmodel.clique_work`, bucketed into
    gallop/bitmap by degree skew exactly like the common-neighbor
    planner, and each bucket seeds the recursion through its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = [
    "orient_dag",
    "brute_force_cliques",
    "count_cliques",
    "CliquePlan",
    "plan_cliques",
    "CLIQUE_RUNNERS",
    "DEFAULT_SKEW_THRESHOLD",
]

#: Degree-skew ratio above which a DAG edge's base intersection goes to
#: the galloping kernel (mirrors the common-neighbor planner's default).
DEFAULT_SKEW_THRESHOLD = 50.0

_SUPPORTED_K = (3, 4, 5)


def orient_dag(graph: CSRGraph) -> CSRGraph:
    """Orient ``graph`` into a DAG CSR under the degree-ascending order.

    Each undirected edge is kept only in the direction from the endpoint
    earlier in (degree, id) order to the later one.  The result is a
    valid (asymmetric) :class:`CSRGraph` whose rows remain sorted by
    vertex id — exactly what the batch intersection kernels require —
    with out-degree bounded by the graph's degeneracy-style ordering, so
    deeper clique levels intersect small candidate sets.
    """
    n = graph.num_vertices
    deg = graph.degrees.astype(np.int64)
    order = np.argsort(deg, kind="stable")  # ascending degree, ties by id
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src = graph.edge_sources()
    keep = rank[src] < rank[graph.dst]
    out_deg = np.bincount(src[keep].astype(np.int64), minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=offsets[1:])
    return CSRGraph(offsets, graph.dst[keep])


def brute_force_cliques(graph: CSRGraph, k: int) -> int:
    """Reference count by id-ordered set recursion (trusted by inspection).

    Enumerates cliques with vertices in ascending *id* order — a
    different total order than :func:`orient_dag`'s degree order, so the
    reference shares no orientation code with the runners it checks.
    """
    _check_k(k)
    n = graph.num_vertices
    adj = [set(graph.neighbors(u).tolist()) for u in range(n)]

    def extend(cand: set, depth: int) -> int:
        if depth == 1:
            return len(cand)
        total = 0
        for v in cand:
            total += extend({w for w in cand & adj[v] if w > v}, depth - 1)
        return total

    return sum(
        extend({v for v in adj[u] if v > u}, k - 1) for u in range(n)
    )


def _check_k(k: int) -> None:
    if k not in _SUPPORTED_K:
        raise AlgorithmError(
            f"k-clique counting supports k in {list(_SUPPORTED_K)}, got {k}"
        )


def _dag_edge_endpoints(dag: CSRGraph):
    src = dag.edge_sources()
    return src, dag.dst


# --------------------------------------------------------------------- #
# recursion helpers
# --------------------------------------------------------------------- #
def _extend_merge(dag: CSRGraph, cand: np.ndarray, depth: int) -> int:
    """Cliques of ``depth`` vertices inside ``cand`` (sorted DAG ids)."""
    if depth == 1:
        return len(cand)
    total = 0
    for v in cand.tolist():
        nxt = np.intersect1d(cand, dag.neighbors(v), assume_unique=True)
        if len(nxt) >= depth - 1:
            total += _extend_merge(dag, nxt, depth - 1)
    return total


def _extend_marked(dag: CSRGraph, cand: np.ndarray, depth: int, planes) -> int:
    """Same recursion with one mark plane per level (no sort/merge cost)."""
    if depth == 1:
        return len(cand)
    plane = planes[depth]
    plane[cand] = True
    total = 0
    for v in cand.tolist():
        nbrs = dag.neighbors(v)
        nxt = nbrs[plane[nbrs]]
        if len(nxt) >= depth - 1:
            total += _extend_marked(dag, nxt, depth - 1, planes)
    plane[cand] = False
    return total


def _make_planes(n: int, k: int) -> dict[int, np.ndarray]:
    return {d: np.zeros(n, dtype=bool) for d in range(2, k)}


# --------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------- #
def _count_merge(dag: CSRGraph, k: int, **_) -> int:
    total = 0
    for u in range(dag.num_vertices):
        nbrs = dag.neighbors(u)
        if len(nbrs) >= k - 1:
            total += _extend_merge(dag, nbrs, k - 1)
    return total


def _count_bitmap(dag: CSRGraph, k: int, **_) -> int:
    from repro.kernels import batch

    if k == 3:
        # Triangles = Σ over DAG edges |N⁺(u) ∩ N⁺(v)|: exactly the BMP
        # batch kernel run on the DAG's own (asymmetric) adjacency.
        cnt = np.zeros(dag.num_directed_edges, dtype=np.int64)
        eo = np.arange(dag.num_directed_edges, dtype=np.int64)
        if len(eo):
            batch.count_edges_bitmap(dag, eo, cnt)
        return int(cnt.sum())
    planes = _make_planes(dag.num_vertices, k)
    total = 0
    for u in range(dag.num_vertices):
        nbrs = dag.neighbors(u)
        if len(nbrs) >= k - 1:
            total += _extend_marked(dag, nbrs, k - 1, planes)
    return total


def _bucket_edges(dag: CSRGraph, skew_threshold: float):
    """Split DAG edge offsets into (gallop, bitmap) buckets by out-degree
    skew — the same rule the common-neighbor planner applies to its
    undirected edges, here on the oriented out-degrees."""
    src, dst = _dag_edge_endpoints(dag)
    d = dag.degrees.astype(np.float64)
    du, dv = d[src], d[dst]
    ratio = np.maximum(du, dv) / np.maximum(np.minimum(du, dv), 1.0)
    skewed = ratio > skew_threshold
    eo = np.arange(dag.num_directed_edges, dtype=np.int64)
    return eo[skewed], eo[~skewed]


def _count_hybrid(
    dag: CSRGraph, k: int, *, skew_threshold: float | None = None, **_
) -> int:
    """Planner path: per-edge kernel choice for the base intersection.

    k=3 reduces entirely to batch kernels over the two buckets; k≥4
    seeds the marked recursion from each edge's bucket-computed
    intersection.
    """
    from repro.kernels import batch, batchsearch

    threshold = (
        DEFAULT_SKEW_THRESHOLD if skew_threshold is None else float(skew_threshold)
    )
    gallop_eo, bitmap_eo = _bucket_edges(dag, threshold)
    if k == 3:
        total = 0
        if len(gallop_eo):
            vals = batchsearch.count_edges_galloping(dag, gallop_eo)
            total += int(vals.sum())
        if len(bitmap_eo):
            cnt = np.zeros(dag.num_directed_edges, dtype=np.int64)
            batch.count_edges_bitmap(dag, bitmap_eo, cnt)
            total += int(cnt.sum())
        return total

    src, dst = _dag_edge_endpoints(dag)
    planes = _make_planes(dag.num_vertices, k)
    seed_plane = np.zeros(dag.num_vertices, dtype=bool)
    total = 0
    # Gallop bucket: sorted-array intersection per skewed edge.
    for i in gallop_eo.tolist():
        w = np.intersect1d(
            dag.neighbors(int(src[i])),
            dag.neighbors(int(dst[i])),
            assume_unique=True,
        )
        if len(w) >= k - 2:
            total += _extend_marked(dag, w, k - 2, planes)
    # Bitmap bucket: mark N⁺(u) once per source row, probe each dst row.
    order = np.argsort(src[bitmap_eo], kind="stable")
    grouped = bitmap_eo[order]
    i = 0
    while i < len(grouped):
        u = int(src[grouped[i]])
        row = dag.neighbors(u)
        seed_plane[row] = True
        j = i
        while j < len(grouped) and int(src[grouped[j]]) == u:
            nbrs = dag.neighbors(int(dst[grouped[j]]))
            w = nbrs[seed_plane[nbrs]]
            if len(w) >= k - 2:
                total += _extend_marked(dag, w, k - 2, planes)
            j += 1
        seed_plane[row] = False
        i = j
    return total


CLIQUE_RUNNERS = {
    "merge": _count_merge,
    "bitmap": _count_bitmap,
    "hybrid": _count_hybrid,
}


def count_cliques(
    graph: CSRGraph,
    k: int,
    backend: str = "merge",
    *,
    dag: CSRGraph | None = None,
    skew_threshold: float | None = None,
) -> int:
    """Count k-cliques of ``graph`` through the named runner.

    ``dag`` lets a session pass its memoized oriented CSR; otherwise the
    orientation is built here.
    """
    _check_k(k)
    runner = CLIQUE_RUNNERS.get(backend)
    if runner is None:
        raise AlgorithmError(
            f"unknown clique backend {backend!r}; "
            f"choose from {sorted(CLIQUE_RUNNERS)}"
        )
    if dag is None:
        dag = orient_dag(graph)
    return runner(dag, k, skew_threshold=skew_threshold)


# --------------------------------------------------------------------- #
# planner surface (``repro plan --motif clique-k``)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CliquePlan:
    """Bucketed DAG-edge plan for one k-clique count."""

    k: int
    dag_edges: int
    gallop_edges: int
    bitmap_edges: int
    skew_threshold: float
    predicted_scalar_ops: float
    predicted_words: float

    def format(self) -> str:
        lines = [
            f"motif clique-{self.k}: {self.dag_edges} oriented DAG edges "
            f"(skew threshold {self.skew_threshold:g})",
            f"  gallop bucket  : {self.gallop_edges:>8d} edges",
            f"  bitmap bucket  : {self.bitmap_edges:>8d} edges",
            f"  predicted work : {self.predicted_scalar_ops:,.0f} scalar ops, "
            f"{self.predicted_words:,.0f} words touched",
        ]
        return "\n".join(lines)


def plan_cliques(
    graph: CSRGraph,
    k: int,
    *,
    dag: CSRGraph | None = None,
    skew_threshold: float | None = None,
) -> CliquePlan:
    """Price and bucket the DAG edges without running the count."""
    from repro.kernels.costmodel import clique_work, dag_edge_set

    _check_k(k)
    if dag is None:
        dag = orient_dag(graph)
    threshold = (
        DEFAULT_SKEW_THRESHOLD if skew_threshold is None else float(skew_threshold)
    )
    gallop_eo, bitmap_eo = _bucket_edges(dag, threshold)
    es = dag_edge_set(dag)
    work = clique_work(es, k)
    return CliquePlan(
        k=k,
        dag_edges=dag.num_directed_edges,
        gallop_edges=len(gallop_eo),
        bitmap_edges=len(bitmap_eo),
        skew_threshold=threshold,
        predicted_scalar_ops=work.total("scalar_ops"),
        predicted_words=work.total("seq_words") + work.total("rand_words"),
    )
