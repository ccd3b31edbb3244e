"""Shard planning: cut the vertex space into K cost-balanced segments.

The single-export backend ships the whole CSR to every worker; its
scaling ceiling is the size of that one export.  Following the 2D
edge-space decomposition of Tom & Karypis (distributed triangle
counting), a :class:`ShardPlan` instead assigns each shard a contiguous
*source-vertex range* cut on the planner's cumulative predicted-cost
curve (the same curve :func:`~repro.plan.chunking.weighted_vertex_chunks`
balances worker chunks on), plus the *boundary columns* — adjacency
lists of out-of-range destination vertices — that make every ``u < v``
edge with an owned source locally resolvable.  Owning both endpoint
lists is what lets a shard worker run the unmodified counting kernels
on its local segment and still produce bit-exact global results.

Picking K is a memory/replication trade-off: more shards bound each
worker's attached bytes tighter, but boundary columns (and the full
offsets array, replicated per shard so vertex ids stay global) are
copied once per shard that needs them.  ``plan_shards`` resolves a byte
budget to the smallest feasible K, then lets
:func:`~repro.parallel.scheduler.simulate_sharded` — which charges that
replication volume as serial export-copy time — arbitrate between the
nearby candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel.scheduler import Schedule, simulate_sharded
from repro.plan.chunking import weighted_vertex_chunks

__all__ = ["ShardSpec", "ShardPlan", "plan_shards", "shard_boundary"]

#: Hard ceiling on K during budget-driven search; beyond this the
#: replicated offsets arrays dominate and more shards stop helping.
MAX_SHARDS = 64

#: How many feasible K candidates the simulator arbitrates between.
_K_CANDIDATES = 3


def shard_boundary(graph: CSRGraph, lo: int, hi: int) -> np.ndarray:
    """Destination vertices outside ``[lo, hi)`` whose adjacency lists the
    shard must replicate.

    Only ``u < v`` edges are counted by a shard (mirrors come from
    ``symmetric_assign`` in the parent), so the boundary is exactly the
    set of destinations ``v >= hi`` reachable from an owned source ``u``
    with ``u < v``; destinations inside the range are owned rows already.
    """
    if lo == 0 and hi == graph.num_vertices:
        return np.empty(0, dtype=np.int64)
    offsets = graph.offsets
    span_lo, span_hi = int(offsets[lo]), int(offsets[hi])
    d = graph.dst[span_lo:span_hi].astype(np.int64, copy=False)
    src = np.repeat(
        np.arange(lo, hi, dtype=np.int64), graph.degrees[lo:hi]
    )
    out = np.unique(d[d > src])
    return out[(out < lo) | (out >= hi)]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: an owned source range plus replicated boundary columns."""

    index: int
    lo: int
    hi: int
    boundary: np.ndarray = field(compare=False)
    owned_bytes: int
    boundary_bytes: int
    offsets_bytes: int
    predicted_cost: float

    @property
    def num_owned(self) -> int:
        return self.hi - self.lo

    @property
    def total_bytes(self) -> int:
        """Shared-memory footprint of this shard's segment."""
        return self.owned_bytes + self.boundary_bytes + self.offsets_bytes


@dataclass(frozen=True)
class ShardPlan:
    """A complete K-way sharding of one graph."""

    shards: tuple[ShardSpec, ...]
    chunk_cost: np.ndarray = field(compare=False)
    graph_bytes: int
    budget_bytes: int | None = None
    fits_budget: bool = True

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.shards)

    @property
    def max_shard_bytes(self) -> int:
        if not self.shards:
            return 0
        return max(s.total_bytes for s in self.shards)

    @property
    def replication_bytes(self) -> int:
        """Bytes copied *beyond* one plain export: boundary columns plus
        the offsets arrays replicated into every shard after the first."""
        extra_offsets = sum(s.offsets_bytes for s in self.shards[1:])
        return sum(s.boundary_bytes for s in self.shards) + extra_offsets

    @property
    def replication_factor(self) -> float:
        """``total shard bytes / single-export bytes`` (>= 1 for K >= 1)."""
        if self.graph_bytes <= 0:
            return 1.0
        return self.total_bytes / self.graph_bytes

    def shard_for_vertex(self, u: int) -> ShardSpec:
        for s in self.shards:
            if s.lo <= u < s.hi:
                return s
        raise IndexError(f"vertex {u} not covered by any shard")

    def simulate(
        self,
        workers_per_shard: int = 1,
        copy_ns_per_byte: float = 0.25,
        chunks_per_shard: int = 1,
    ) -> Schedule:
        """Model this plan's makespan including replication copy cost."""
        costs = []
        for s in self.shards:
            if chunks_per_shard > 1:
                _, pred = weighted_vertex_chunks(
                    self.chunk_cost[s.lo : s.hi], chunks_per_shard
                )
                costs.append(pred)
            else:
                costs.append(s.predicted_cost)
        return simulate_sharded(
            costs,
            [s.total_bytes for s in self.shards],
            workers_per_shard=workers_per_shard,
            copy_ns_per_byte=copy_ns_per_byte,
        )


def _resolve_cost(graph: CSRGraph, plan) -> np.ndarray:
    if isinstance(plan, np.ndarray):
        return np.asarray(plan, dtype=np.float64)
    if plan is None:
        # Volume-based fallback: adjacency bytes as the balance weight.
        return graph.degrees.astype(np.float64)
    if plan == "auto":
        from repro.plan.planner import get_plan

        plan = get_plan(graph)
    return np.asarray(plan.chunk_cost, dtype=np.float64)


def _layout(
    graph: CSRGraph, cost: np.ndarray, num_shards: int
) -> tuple[ShardSpec, ...]:
    offsets = graph.offsets
    degrees = graph.degrees
    offsets_bytes = int(offsets.nbytes)
    itemsize = graph.dst.dtype.itemsize
    bounds, predicted = weighted_vertex_chunks(cost, num_shards)
    shards = []
    for i, ((lo, hi), pred) in enumerate(zip(bounds, predicted)):
        boundary = shard_boundary(graph, lo, hi)
        shards.append(
            ShardSpec(
                index=i,
                lo=lo,
                hi=hi,
                boundary=boundary,
                owned_bytes=int(offsets[hi] - offsets[lo]) * itemsize,
                boundary_bytes=int(degrees[boundary].sum()) * itemsize,
                offsets_bytes=offsets_bytes,
                predicted_cost=float(pred),
            )
        )
    return tuple(shards)


def plan_shards(
    graph: CSRGraph,
    num_shards: int | None = None,
    budget_bytes: int | None = None,
    plan="auto",
    max_shards: int = MAX_SHARDS,
) -> ShardPlan:
    """Build a :class:`ShardPlan` for ``graph``.

    Exactly one of ``num_shards`` / ``budget_bytes`` drives K:

    - ``num_shards`` given: cut that many cost-balanced ranges directly.
    - ``budget_bytes`` given: find the smallest K whose largest shard
      fits the budget, then pick — among that K and the next few — the
      one :func:`simulate_sharded` scores fastest once replication copy
      volume is charged.  If even ``max_shards`` cannot fit (the
      replicated offsets array alone is a per-shard floor),
      ``fits_budget`` is ``False`` on the returned plan and the caller
      decides whether to proceed degraded or fail.
    - neither: K = 1 (a sharded run degenerating to one segment).

    ``plan`` selects the balance weight: ``"auto"`` prices vertices with
    the cost-model planner, ``None`` falls back to adjacency volume, or
    pass an :class:`~repro.plan.planner.ExecutionPlan` / per-vertex cost
    array directly.
    """
    cost = _resolve_cost(graph, plan)
    if len(cost) != graph.num_vertices:
        raise ValueError(
            f"cost vector length {len(cost)} != num_vertices "
            f"{graph.num_vertices}"
        )
    graph_bytes = graph.memory_bytes()

    if num_shards is not None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        shards = _layout(graph, cost, num_shards)
        fits = (
            budget_bytes is None
            or max((s.total_bytes for s in shards), default=0) <= budget_bytes
        )
        return ShardPlan(shards, cost, graph_bytes, budget_bytes, fits)

    if budget_bytes is None:
        shards = _layout(graph, cost, 1)
        return ShardPlan(shards, cost, graph_bytes, None, True)

    # Budget-driven: smallest feasible K, then simulator arbitration.
    feasible_k = None
    layouts: dict[int, tuple[ShardSpec, ...]] = {}
    for k in range(1, max_shards + 1):
        shards = _layout(graph, cost, k)
        layouts[k] = shards
        if max((s.total_bytes for s in shards), default=0) <= budget_bytes:
            feasible_k = k
            break
    if feasible_k is None:
        return ShardPlan(
            layouts[max_shards], cost, graph_bytes, budget_bytes, False
        )
    best_k, best_makespan = feasible_k, None
    for k in range(feasible_k, min(feasible_k + _K_CANDIDATES, max_shards) + 1):
        shards = layouts.get(k) or _layout(graph, cost, k)
        layouts[k] = shards
        if max((s.total_bytes for s in shards), default=0) > budget_bytes:
            continue  # cost curve cuts are not monotone in shard size
        candidate = ShardPlan(shards, cost, graph_bytes, budget_bytes, True)
        makespan = candidate.simulate().makespan
        if best_makespan is None or makespan < best_makespan:
            best_k, best_makespan = k, makespan
    return ShardPlan(layouts[best_k], cost, graph_bytes, budget_bytes, True)
