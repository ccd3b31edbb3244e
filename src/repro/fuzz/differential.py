"""Differential execution of one fuzz case through every registered path.

Every *execution path* is a named way of producing all-edge common
neighbor counts: a backend kernel, a planner cache state, a process pool
start method, or the dynamic edit-replay engine.  The runner executes a
case through each registered path and cross-checks the result bit-exactly
against :func:`repro.core.verify.brute_force_counts` — the one reference
simple enough to be trusted by inspection — plus symmetry and OpCounts
invariants.

The registry is open: a future backend registers itself with
:func:`register_path` and is fuzzed from then on.  Paths carry a *stride*
(run every k-th case) so expensive paths — spawn-method process pools —
still get covered without dominating the budget; explicitly requested
paths always run on every case.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.fuzz.generators import FuzzCase, generate_case
from repro.graph.csr import CSRGraph
from repro.types import OpCounts

__all__ = [
    "ExecutionPath",
    "Failure",
    "CaseReport",
    "FuzzFailure",
    "FuzzReport",
    "InvariantViolation",
    "register_path",
    "unregister_path",
    "registered_paths",
    "run_case",
    "run_fuzz",
]


class InvariantViolation(AssertionError):
    """An execution path broke one of its own accounting invariants."""


@dataclass(frozen=True)
class ExecutionPath:
    """One registered way of computing all-edge counts.

    ``run`` takes the case's base :class:`CSRGraph` and returns counts
    aligned with ``graph.dst`` for static paths; dynamic paths
    (``kind="dynamic"``) take ``(case, graph)`` and return the *final*
    ``(graph, counts)`` after replaying the case's edit sequence.
    """

    name: str
    run: object
    kind: str = "static"  # "static" | "dynamic"
    stride: int = 1


@dataclass(frozen=True)
class Failure:
    """One differential disagreement, invariant break, or path crash."""

    path: str
    kind: str  # "mismatch" | "invariant" | "error"
    detail: str

    def format(self) -> str:
        return f"[{self.path}] {self.kind}: {self.detail}"


@dataclass
class CaseReport:
    """Outcome of running one case through a set of paths."""

    case: FuzzCase
    paths_run: list[str] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    #: Set when the whole report was skipped (e.g. replay of an artifact
    #: whose recorded path is not runnable on this host) — the reason,
    #: human-readable.  A skipped report is "ok" but ran nothing.
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzFailure:
    """A failing case with its shrunk reproducer and on-disk artifact."""

    case: FuzzCase
    failure: Failure
    shrunk: FuzzCase | None = None
    artifact: str | None = None


@dataclass
class FuzzReport:
    """Summary of one fuzz run."""

    cases: int
    seed: int
    coverage: dict[str, int]
    failures: list[FuzzFailure]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"cases            : {self.cases} (seed {self.seed}, "
            f"{self.elapsed_seconds:.1f} s)",
            "path coverage    :",
        ]
        for name, count in self.coverage.items():
            lines.append(f"  {name:16s} {count:>6d} cases")
        lines.append(f"failures         : {len(self.failures)}")
        for f in self.failures:
            lines.append(f"  {f.case.describe()}")
            lines.append(f"    {f.failure.format()}")
            if f.shrunk is not None:
                lines.append(f"    shrunk to {f.shrunk.describe()}")
            if f.artifact:
                lines.append(f"    artifact: {f.artifact}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# built-in paths
#
# The path list is enumerated from the engine's backend registry
# (:func:`repro.engine.default_registry`) — one fuzz path per registered
# backend × declared fuzz variant — so a backend registered tomorrow is
# fuzzed tomorrow, with no second table to update.  A few paths carry
# deep-checked runners that additionally enforce OpCounts and plan-cache
# invariants the generic session runner cannot see.
#
# Kernel entry points are resolved through their module at call time (not
# captured at import), so an injected fault — monkeypatching a backend to
# test the fuzzer itself — is seen by the registered path.
# --------------------------------------------------------------------- #
def _make_session_runner(backend: str, opts: dict):
    """Generic runner: one throwaway GraphSession, one backend count."""

    def run(graph: CSRGraph) -> np.ndarray:
        from repro.engine import GraphSession

        with warnings.catch_warnings():
            # A sequential fallback is telemetry, not a differential bug.
            warnings.simplefilter("ignore", RuntimeWarning)
            with GraphSession(graph) as session:
                return session.count(backend=backend, **opts).counts

    return run


def _run_count_pairs(graph: CSRGraph) -> np.ndarray:
    """Vectorized pair-query path, asked about every ``u < v`` edge.

    :meth:`GraphSession.count_pairs` answers arbitrary pair queries with
    its own grouped-gather implementation; feeding it exactly the graph's
    edges makes it differentially comparable against the edge-count
    reference.
    """
    from repro.engine import GraphSession
    from repro.kernels import batch

    src = graph.edge_sources()
    eo = np.flatnonzero(src < graph.dst)
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    with GraphSession(graph) as session:
        if len(eo):
            cnt[eo] = session.count_pairs(src[eo], graph.dst[eo])
    return batch.symmetric_assign(graph, cnt)


def _run_bitmap(graph: CSRGraph) -> np.ndarray:
    """Degree-bucketed BMP kernel, with OpCounts invariants enforced."""
    from repro.kernels import batch

    src = graph.edge_sources()
    eo = np.flatnonzero(src < graph.dst)
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    ops = OpCounts()
    batch.count_edges_bitmap(graph, eo, cnt, ops)
    if ops.bitmap_set != ops.bitmap_clear:
        raise InvariantViolation(
            f"bitmap set/clear imbalance: {ops.bitmap_set} set, "
            f"{ops.bitmap_clear} cleared (mark plane leaked)"
        )
    if ops.matches != int(cnt[eo].sum()):
        raise InvariantViolation(
            f"bitmap matches accounting ({ops.matches}) != computed "
            f"count total ({int(cnt[eo].sum())})"
        )
    return batch.symmetric_assign(graph, cnt)


def _run_gallop(graph: CSRGraph) -> np.ndarray:
    """Batched lockstep galloping over *all* upper edges (not only the
    planner's skewed bucket), with OpCounts invariants enforced."""
    from repro.kernels import batch, batchsearch

    src = graph.edge_sources()
    eo = np.flatnonzero(src < graph.dst)
    ops = OpCounts()
    vals = batchsearch.count_edges_galloping(graph, eo, ops)
    if ops.matches != int(vals.sum()):
        raise InvariantViolation(
            f"gallop matches accounting ({ops.matches}) != computed "
            f"count total ({int(vals.sum())})"
        )
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    cnt[eo] = vals
    return batch.symmetric_assign(graph, cnt)


def _run_hybrid_cold(graph: CSRGraph) -> np.ndarray:
    """Hybrid planner from an empty plan cache (plan + execute)."""
    from repro.plan import clear_plan_cache, count_all_edges_hybrid, plan_cache_stats

    clear_plan_cache()
    before = plan_cache_stats().misses
    cnt = count_all_edges_hybrid(graph)
    if plan_cache_stats().misses != before + 1:
        raise InvariantViolation("cold hybrid run did not miss the plan cache")
    return cnt


def _run_hybrid_warm(graph: CSRGraph) -> np.ndarray:
    """Hybrid planner through a warm plan cache (cached-plan execution)."""
    from repro.plan import count_all_edges_hybrid, get_plan, plan_cache_stats

    get_plan(graph)  # prime (hit or miss, either way now cached)
    before = plan_cache_stats().hits
    cnt = count_all_edges_hybrid(graph)
    if plan_cache_stats().hits != before + 1:
        raise InvariantViolation("warm hybrid run did not hit the plan cache")
    return cnt


def _stream_events(case: FuzzCase) -> list[tuple[float, int, int]]:
    """The case's edges + edit-batch insertions as a timestamped stream.

    Base edges arrive at t = 0, 1, 2, ...; each edit batch's insertions
    continue the clock.  Deletions have no stream counterpart — expiry is
    the stream's deletion — so they are dropped; the window chosen by
    :func:`_run_stream_window` makes the earlier half of the stream
    expire, which exercises the same delete machinery.
    """
    events = []
    t = 0
    for u, v in case.edges.tolist():
        events.append((float(t), int(u), int(v)))
        t += 1
    for batch in case.edits:
        for u, v in batch.insert.tolist():
            events.append((float(t), int(u), int(v)))
            t += 1
    return events


def _model_live_graph(
    events, upto: int, window: float, num_vertices: int
) -> CSRGraph:
    """From-scratch reference: CSR of the window's live set after
    ``events[:upto]`` (latest arrival per edge, strict-inequality expiry)."""
    from repro.graph.build import csr_from_pairs

    now = events[upto - 1][0]
    stamps: dict[tuple[int, int], float] = {}
    for t, u, v in events[:upto]:
        if u != v:
            stamps[(min(u, v), max(u, v))] = t
    live = [key for key, t in stamps.items() if now - t < window]
    return csr_from_pairs(live, num_vertices)


def _run_stream_window(
    case: FuzzCase, graph: CSRGraph
) -> tuple[CSRGraph, np.ndarray]:
    """Drive the sliding-window counter and cross-check every checkpoint.

    The case becomes a timestamped arrival stream; the window is sized so
    roughly the older half has expired by the end.  At each edit-batch
    boundary the counter's live CSR and counts must match a from-scratch
    replay of the window — any divergence raises
    :class:`InvariantViolation` naming the checkpoint.  The final live
    graph and counts are returned for the outer brute-force comparison.
    """
    from repro.core.verify import brute_force_counts
    from repro.stream import StreamCounter

    events = _stream_events(case)
    if not events:
        return graph, brute_force_counts(graph)
    window = max(2.0, len(events) / 2.0)
    # Checkpoints: after the base edges, after each edit batch.
    marks = {len(case.edges)} if len(case.edges) else set()
    n = len(case.edges)
    for batch in case.edits:
        n += len(batch.insert)
        marks.add(n)
    marks.add(len(events))
    marks.discard(0)

    counter = StreamCounter(window, num_vertices=case.num_vertices)
    try:
        pos = 0
        for mark in sorted(marks):
            counter.ingest(events[pos:mark])
            pos = mark
            snap = counter.snapshot()
            model = _model_live_graph(
                events, mark, window, counter.num_vertices
            )
            if not (
                np.array_equal(snap.graph.offsets, model.offsets)
                and np.array_equal(snap.graph.dst, model.dst)
            ):
                raise InvariantViolation(
                    f"window live set diverged from replay at event {mark} "
                    f"({snap.graph.num_edges} live edges vs "
                    f"{model.num_edges} in the model)"
                )
            if mark != len(events):
                expected = brute_force_counts(model)
                if not np.array_equal(snap.counts, expected):
                    raise InvariantViolation(
                        f"window counts diverged from replay at event "
                        f"{mark}: {_first_mismatch(model, snap.counts, expected)}"
                    )
        final = counter.snapshot()
        return final.graph, final.counts
    finally:
        counter.close()


def _run_stream_exact(graph: CSRGraph) -> np.ndarray:
    """Replay the graph's edges through the sliding-window engine.

    Every edge is ingested as one timestamped event under an infinite
    window, so the snapshot's live set is exactly the input graph and the
    counts must be bit-identical to the batch kernels — streaming's
    equivalence anchor.
    """
    import math

    from repro.graph.build import csr_to_undirected_pairs
    from repro.stream import StreamCounter

    u, v = csr_to_undirected_pairs(graph)
    with StreamCounter(window=math.inf, num_vertices=graph.num_vertices) as stream:
        stream.ingest(
            (float(i), a, b) for i, (a, b) in enumerate(zip(u.tolist(), v.tolist()))
        )
        return stream.snapshot().counts


def _run_stream_sampled_check(graph: CSRGraph) -> np.ndarray:
    """Statistical path for the reservoir estimator.

    Three internal invariants (deterministic, so safe under fuzz):

    1. ``tau`` must equal a brute-force triangle count of the reservoir
       subgraph after the whole stream (the incremental maintenance
       check);
    2. a same-seed rerun must reproduce the sample and estimate exactly
       (determinism);
    3. with a half-size reservoir, the stated (ε, δ=0.01) interval must
       contain the true triangle total — the bars are empirically far
       more conservative than δ, and the stream order and seed are fixed
       by the case, so a pass is reproducible, not probabilistic.

    Returns counts from an exhaustive-capacity run (every edge sampled →
    estimates exact), which the outer layer compares bit-exactly.
    """
    from repro.core.verify import brute_force_counts
    from repro.graph.build import csr_to_undirected_pairs
    from repro.kernels import batch
    from repro.stream import SampledCounter

    u, v = csr_to_undirected_pairs(graph)
    edges = list(zip(u.tolist(), v.tolist()))
    expected = brute_force_counts(graph)
    true_triangles = int(expected.sum()) // 6

    # (3) statistical interval on a lossy reservoir, deterministic seed.
    if len(edges) >= 24:
        lossy = SampledCounter(capacity=len(edges) // 2, seed=7, delta=0.01)
        lossy.ingest(edges)
        est = lossy.triangle_estimate()
        if not est["low"] <= true_triangles <= est["high"]:
            raise InvariantViolation(
                f"sampled triangle interval [{est['low']:.1f}, "
                f"{est['high']:.1f}] (δ=0.01) misses the true total "
                f"{true_triangles} (tau={est['tau']}, "
                f"reservoir {lossy.sampled_edges}/{lossy.stream_edges})"
            )
        # (1) incremental tau == recount of the reservoir subgraph.
        from repro.graph.build import csr_from_pairs

        sub = csr_from_pairs(lossy.reservoir(), graph.num_vertices)
        sub_triangles = int(brute_force_counts(sub).sum()) // 6
        if lossy.tau != sub_triangles:
            raise InvariantViolation(
                f"incremental tau {lossy.tau} != reservoir subgraph "
                f"triangle count {sub_triangles}"
            )
        # (2) determinism under the same seed.
        twin = SampledCounter(capacity=len(edges) // 2, seed=7, delta=0.01)
        twin.ingest(edges)
        if twin.reservoir() != lossy.reservoir() or twin.tau != lossy.tau:
            raise InvariantViolation(
                "same-seed reservoir runs diverged (non-deterministic "
                "sampling)"
            )

    sampler = SampledCounter(capacity=max(len(edges), 8), seed=1)
    sampler.ingest(edges)
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    src = graph.edge_sources()
    eo = np.flatnonzero(src < graph.dst)
    for i in eo.tolist():
        est = sampler.edge_estimate(int(src[i]), int(graph.dst[i]))
        if not est["exact"]:
            raise InvariantViolation(
                f"exhaustive reservoir produced an inexact estimate for "
                f"edge ({int(src[i])}, {int(graph.dst[i])})"
            )
        cnt[i] = int(round(est["count"]))
    return batch.symmetric_assign(graph, cnt)


def _case_bipartite(graph: CSRGraph):
    """The case's ``u < v`` edges read as left→right bipartite pairs.

    Both sides carry the full vertex range, so every CSR-deduped edge
    becomes one bipartite edge regardless of 2-colorability — a
    deterministic bipartite instance for every fuzz case.
    """
    from repro.graph.bipartite import bipartite_from_pairs

    src = graph.edge_sources()
    mask = src < graph.dst
    pairs = list(zip(src[mask].tolist(), graph.dst[mask].tolist()))
    n = graph.num_vertices
    return bipartite_from_pairs(pairs, num_left=n, num_right=n)


def _run_motif_clique_seq(graph: CSRGraph) -> np.ndarray:
    """Cross-check the sequential clique runners against brute force.

    ``merge`` and ``bitmap`` must match :func:`brute_force_cliques` for
    every supported k, and the k=3 total must reconcile exactly with the
    common-neighbor triangle identity ``Σ counts / 6`` — the bridge
    between the motif suite and the paper's original workload.  Returns
    merge-kernel CN counts for the outer bit-exact comparison.
    """
    from repro.kernels import batch
    from repro.motif.clique import brute_force_cliques, count_cliques, orient_dag

    dag = orient_dag(graph)
    for k in (3, 4, 5):
        expected = brute_force_cliques(graph, k)
        for backend in ("merge", "bitmap"):
            got = count_cliques(graph, k, backend=backend, dag=dag)
            if got != expected:
                raise InvariantViolation(
                    f"clique-{k} runner {backend!r} counted {got}, "
                    f"brute force counted {expected}"
                )
    counts = batch.count_all_edges_merge(graph)
    triangles = int(counts.sum()) // 6
    k3 = count_cliques(graph, 3, backend="bitmap", dag=dag)
    if k3 != triangles:
        raise InvariantViolation(
            f"clique-3 total {k3} != CN triangle identity {triangles}"
        )
    return counts


def _run_motif_clique_planner(graph: CSRGraph) -> np.ndarray:
    """The hybrid clique runner, at the default and an aggressive skew
    threshold (forcing the gallop bucket to fill), against brute force."""
    from repro.kernels import batch
    from repro.motif.clique import brute_force_cliques, count_cliques, orient_dag

    dag = orient_dag(graph)
    for k in (3, 4, 5):
        expected = brute_force_cliques(graph, k)
        for threshold in (None, 1.5):
            got = count_cliques(
                graph, k, backend="hybrid", dag=dag, skew_threshold=threshold
            )
            if got != expected:
                raise InvariantViolation(
                    f"clique-{k} hybrid (skew={threshold}) counted {got}, "
                    f"brute force counted {expected}"
                )
    return batch.count_all_edges_merge(graph)


#: Deterministic work bound for the p=3 biclique sweep: cases whose
#: subset-emission cost Σ_r C(d_r, 3) exceeds this skip p=3 (p=2 always
#: runs) so one dense generated case cannot stall the fuzz budget.
_BICLIQUE_P3_EMISSION_BOUND = 50_000


def _run_motif_biclique(graph: CSRGraph) -> np.ndarray:
    """Cross-check both biclique runners against brute force.

    Runs on the case's edges read as bipartite pairs (every case yields
    an instance), plus the 2-coloring projection when the graph admits
    one — where a successful projection with a nonzero triangle count is
    itself an invariant violation (triangles are odd cycles).
    """
    from math import comb

    from repro.core.verify import brute_force_counts
    from repro.errors import AlgorithmError
    from repro.graph.bipartite import bipartite_from_graph
    from repro.motif.biclique import brute_force_bicliques, count_bicliques

    bip = _case_bipartite(graph)
    degs = bip.right_degrees
    p3_cost = sum(comb(int(d), 3) for d in degs.tolist())
    shapes = [(1, 2), (2, 2), (2, 3)]
    if p3_cost <= _BICLIQUE_P3_EMISSION_BOUND:
        shapes.append((3, 2))
    for p, q in shapes:
        expected = brute_force_bicliques(bip, p, q)
        for backend in ("hash", "bitmap"):
            got = count_bicliques(bip, p, q, backend=backend)
            if got != expected:
                raise InvariantViolation(
                    f"biclique-{p}-{q} runner {backend!r} counted {got}, "
                    f"brute force counted {expected}"
                )

    counts = brute_force_counts(graph)
    try:
        view = bipartite_from_graph(graph)
    except AlgorithmError:
        pass  # an odd cycle: no bipartite view to check
    else:
        if int(counts.sum()) != 0:
            raise InvariantViolation(
                "graph 2-colored successfully but has triangles "
                "(odd cycles) — the bipartite projection is wrong"
            )
        expected = brute_force_bicliques(view.graph, 2, 2)
        for backend in ("hash", "bitmap"):
            got = count_bicliques(view.graph, 2, 2, backend=backend)
            if got != expected:
                raise InvariantViolation(
                    f"projected biclique-2-2 runner {backend!r} counted "
                    f"{got}, brute force counted {expected}"
                )
    return counts


def _run_dynamic_replay(
    case: FuzzCase, graph: CSRGraph
) -> tuple[CSRGraph, np.ndarray]:
    """Replay the case's edit sequence through a DynamicCounter.

    The default ``recount_fraction`` stays in force, so oversized batches
    exercise the structural-recount fallback while small ones run the
    per-edge delta kernel — both against the same reference.
    """
    from repro.core.dynamic import DynamicCounter

    counter = DynamicCounter(graph, backend="matmul")
    for batch in case.edits:
        counter.apply(insertions=batch.insert, deletions=batch.delete)
    snap = counter.snapshot()
    return snap.graph, snap.counts


_REGISTRY: OrderedDict[str, ExecutionPath] = OrderedDict()


def register_path(name: str, run, kind: str = "static", stride: int = 1) -> None:
    """Register (or replace) an execution path under ``name``."""
    if kind not in ("static", "dynamic"):
        raise ValueError(f"unknown path kind {kind!r}")
    _REGISTRY[name] = ExecutionPath(name, run, kind, max(1, int(stride)))


def unregister_path(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_paths() -> list[str]:
    """Names of every registered execution path, in registration order."""
    return list(_REGISTRY)


#: Paths whose runner enforces extra invariants (OpCounts balance,
#: plan-cache hit/miss discipline) on top of the differential check; they
#: override the generic session runner for the matching registry path.
_DEEP_CHECKED = {
    "bitmap": _run_bitmap,
    "gallop": _run_gallop,
    "hybrid-cold": _run_hybrid_cold,
    "hybrid-warm": _run_hybrid_warm,
}


def _register_builtin_paths() -> None:
    """One fuzz path per registry backend × declared fuzz variant."""
    from repro.engine import default_registry

    for spec in default_registry().specs():
        for variant in spec.fuzz_variants:
            name = variant.path_name(spec.name)
            runner = _DEEP_CHECKED.get(name) or _make_session_runner(
                spec.name, dict(variant.opts)
            )
            register_path(name, runner, stride=variant.stride)
    register_path("count-pairs", _run_count_pairs)
    register_path("dynamic-replay", _run_dynamic_replay, kind="dynamic")
    register_path("stream-exact", _run_stream_exact, stride=4)
    register_path("stream-window", _run_stream_window, kind="dynamic", stride=2)
    register_path("stream-sampled", _run_stream_sampled_check, stride=2)
    register_path("motif-clique-seq", _run_motif_clique_seq, stride=2)
    register_path("motif-clique-planner", _run_motif_clique_planner, stride=2)
    register_path("motif-biclique", _run_motif_biclique, stride=2)


_register_builtin_paths()


# --------------------------------------------------------------------- #
# running cases
# --------------------------------------------------------------------- #
def _resolve_paths(names) -> list[ExecutionPath]:
    if names is None:
        return list(_REGISTRY.values())
    paths = []
    for name in names:
        if name not in _REGISTRY:
            raise KeyError(
                f"unknown execution path {name!r}; registered: "
                f"{registered_paths()}"
            )
        # Explicitly requested paths run on every case.
        paths.append(replace(_REGISTRY[name], stride=1))
    return paths


def _first_mismatch(
    graph: CSRGraph, got: np.ndarray, expected: np.ndarray
) -> str:
    got = np.asarray(got)
    if got.shape != expected.shape:
        return f"shape {got.shape} != expected {expected.shape}"
    bad = np.flatnonzero(got != expected)
    eo = int(bad[0])
    src = graph.edge_sources()
    return (
        f"{len(bad)} of {len(expected)} offsets differ; first at edge "
        f"offset {eo} = ({int(src[eo])}, {int(graph.dst[eo])}): "
        f"got {int(got[eo])}, expected {int(expected[eo])}"
    )


def _check_symmetry(graph: CSRGraph, counts: np.ndarray) -> str | None:
    from repro.kernels.batch import reverse_edge_offsets

    rev = reverse_edge_offsets(graph)
    counts = np.asarray(counts)
    if not np.array_equal(counts, counts[rev]):
        eo = int(np.flatnonzero(counts != counts[rev])[0])
        return (
            f"counts asymmetric across edge directions (first at offset {eo})"
        )
    return None


def run_case(case: FuzzCase, paths=None) -> CaseReport:
    """Run one case through the selected paths and cross-check everything.

    Static paths compare against the brute-force reference on the base
    graph; the dynamic path replays the edit sequence and compares its
    final counts against a brute-force recount of the *final* graph (the
    edit-replay vs. from-scratch differential).  Paths are skipped by
    their stride (``case.index % stride``) unless explicitly requested.
    """
    from repro.core.verify import brute_force_counts

    report = CaseReport(case=case)
    selected = [
        p for p in _resolve_paths(paths) if case.index % p.stride == 0
    ]
    if not selected:
        return report

    graph = case.graph()
    reference = None
    for path in selected:
        if path.kind == "dynamic":
            if not case.edits:
                continue
            try:
                final_graph, counts = path.run(case, graph)
                expected = brute_force_counts(final_graph)
                check_graph = final_graph
            except InvariantViolation as exc:
                report.paths_run.append(path.name)
                report.failures.append(Failure(path.name, "invariant", str(exc)))
                continue
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                report.paths_run.append(path.name)
                report.failures.append(
                    Failure(path.name, "error", f"{type(exc).__name__}: {exc}")
                )
                continue
        else:
            if reference is None:
                reference = brute_force_counts(graph)
            expected = reference
            check_graph = graph
            try:
                counts = path.run(graph)
            except InvariantViolation as exc:
                report.paths_run.append(path.name)
                report.failures.append(Failure(path.name, "invariant", str(exc)))
                continue
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                report.paths_run.append(path.name)
                report.failures.append(
                    Failure(path.name, "error", f"{type(exc).__name__}: {exc}")
                )
                continue

        report.paths_run.append(path.name)
        if not np.array_equal(np.asarray(counts), expected):
            report.failures.append(
                Failure(
                    path.name,
                    "mismatch",
                    _first_mismatch(check_graph, counts, expected),
                )
            )
            continue
        asym = _check_symmetry(check_graph, counts)
        if asym is not None:
            report.failures.append(Failure(path.name, "invariant", asym))
    return report


def case_still_fails(case: FuzzCase, path_name: str) -> bool:
    """Shrinking predicate: does ``case`` still fail on ``path_name``?

    Any failure kind on that path counts — a mismatch that shrinks into a
    crash is still the same reproducer chain.
    """
    report = run_case(case, paths=[path_name])
    return any(f.path == path_name for f in report.failures)


def run_fuzz(
    num_cases: int,
    seed: int,
    paths=None,
    artifact_dir: str | None = None,
    shrink: bool = True,
    max_vertices: int | None = None,
    max_failures: int = 10,
    progress=None,
) -> FuzzReport:
    """Generate and differentially execute ``num_cases`` cases.

    Deterministic given ``(num_cases, seed, paths, max_vertices)``.  On a
    failing case the first failure is greedily shrunk
    (:func:`repro.fuzz.shrink.shrink_case`) and, when ``artifact_dir`` is
    given, serialized as a replayable artifact.  Stops collecting after
    ``max_failures`` distinct failing cases (the run keeps counting
    coverage).
    """
    from repro.fuzz import shrink as shrink_mod
    from repro.fuzz.generators import DEFAULT_MAX_VERTICES

    t0 = time.perf_counter()
    coverage: dict[str, int] = {
        p.name: 0 for p in _resolve_paths(paths)
    }
    failures: list[FuzzFailure] = []
    for index in range(num_cases):
        case = generate_case(
            seed, index, max_vertices=max_vertices or DEFAULT_MAX_VERTICES
        )
        report = run_case(case, paths=paths)
        for name in report.paths_run:
            coverage[name] += 1
        if report.failures and len(failures) < max_failures:
            failure = report.failures[0]
            shrunk = None
            artifact = None
            if shrink:
                shrunk = shrink_mod.shrink_case(
                    case, lambda c: case_still_fails(c, failure.path)
                )
            if artifact_dir is not None:
                artifact = shrink_mod.save_artifact(
                    shrunk if shrunk is not None else case,
                    failure,
                    artifact_dir,
                )
            failures.append(FuzzFailure(case, failure, shrunk, artifact))
        if progress is not None:
            progress(index + 1, num_cases, len(failures))
    return FuzzReport(
        cases=num_cases,
        seed=seed,
        coverage=coverage,
        failures=failures,
        elapsed_seconds=time.perf_counter() - t0,
    )
