"""One declarative backend registry for every entry point.

Before this module existed the codebase kept three divergent tables of
"ways to compute all-edge counts": ``_BACKENDS`` and
``_ALGORITHM_BACKENDS`` in :mod:`repro.core.api`, and a hand-maintained
list of built-in execution paths in :mod:`repro.fuzz.differential`.
Adding a backend meant editing all three and hoping they stayed in sync.

:class:`BackendRegistry` replaces them: each backend registers **once**
as a :class:`BackendSpec` carrying its runner plus declared capabilities —
which algorithm structure it executes, whether it can surface execution
stats, whether it honors ``num_workers``, and whether it can count an
arbitrary subset of edge offsets.
Every consumer (the public API, the CLI, :class:`~repro.core.dynamic.
DynamicCounter`, the differential fuzzer, the bench harness) asks the
registry instead of keeping its own table, so capability mismatches like
``MPS`` + ``bitmap`` are rejected by one declarative check.

Runners execute against a :class:`repro.engine.session.GraphSession`, so
they transparently reuse the session's memoized artifacts (fingerprint,
execution plan, shared-memory export, persistent worker pool).
"""

from __future__ import annotations

import multiprocessing as mp
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AlgorithmError

__all__ = [
    "BackendSpec",
    "PathVariant",
    "BackendRegistry",
    "default_registry",
]


@dataclass(frozen=True)
class PathVariant:
    """One fuzzable flavor of a backend (e.g. ``parallel-spawn``).

    ``suffix`` extends the backend name to the execution-path name
    (empty → the bare backend name); ``stride`` runs the path on every
    k-th fuzz case (expensive paths still get coverage without dominating
    the budget); ``opts`` are extra keyword arguments passed to
    :meth:`GraphSession.count`.
    """

    suffix: str = ""
    stride: int = 1
    opts: dict = field(default_factory=dict)

    def path_name(self, backend: str) -> str:
        return f"{backend}-{self.suffix}" if self.suffix else backend


@dataclass(frozen=True)
class BackendSpec:
    """One registered counting backend plus its declared capabilities.

    ``run(session, **opts)`` returns ``(counts, stats)`` where ``counts``
    aligns with ``graph.dst`` and ``stats`` is backend-specific telemetry
    (``None`` when the backend collects none, or stats were not asked
    for).

    Capabilities
    ------------
    ``algorithms``
        Names of the algorithm families whose structure this backend
        executes (``M``/``MPS``/``BMP``); an explicit ``algorithm=`` in
        the API is honored only by backends declaring it.  Empty set →
        the backend pairs with no explicit algorithm (``matmul`` is an
        algebraic path; ``hybrid`` picks kernels itself).
    ``supports_stats``
        ``collect_stats=True`` yields a telemetry object
        (:class:`~repro.parallel.metrics.ParallelStats` or
        :class:`~repro.plan.HybridReport`); backends without it raise
        instead of silently dropping the flag.
    ``supports_num_workers``
        ``num_workers``/``chunks_per_worker`` change execution; other
        backends ignore them (documented single-process paths).
    ``supports_edge_subset``
        Can produce counts for an arbitrary sorted subset of ``u < v``
        edge offsets (the planner uses this to farm its bitmap bucket out
        to the worker pool).
    ``motifs``
        Names of the registered motifs (see :mod:`repro.motif.spec`)
        whose structure this backend's kernels execute.  Every backend
        counts the paper's per-edge common neighbors; backends whose
        intersection primitive also drives the oriented-DAG clique
        recursion or the bipartite subset emission declare those motif
        names too, and :meth:`BackendRegistry.check_motif` rejects
        mismatches (``sharded`` + ``clique-4``) with the capable list.
    """

    name: str
    run: object
    algorithms: frozenset = frozenset()
    supports_stats: bool = False
    supports_num_workers: bool = False
    supports_edge_subset: bool = False
    fuzz_variants: tuple = (PathVariant(),)
    description: str = ""
    motifs: frozenset = frozenset({"common-neighbors"})


class BackendRegistry:
    """Ordered name → :class:`BackendSpec` mapping with capability queries."""

    def __init__(self):
        self._specs: OrderedDict[str, BackendSpec] = OrderedDict()

    # ------------------------------------------------------------------ #
    def register(self, spec: BackendSpec, replace: bool = False) -> None:
        if not replace and spec.name in self._specs:
            raise ValueError(f"backend {spec.name!r} is already registered")
        self._specs[spec.name] = spec

    def unregister(self, name: str) -> None:
        self._specs.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> list[str]:
        """Registered backend names, in registration order."""
        return list(self._specs)

    def specs(self) -> list[BackendSpec]:
        return list(self._specs.values())

    def get(self, name: str) -> BackendSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise AlgorithmError(
                f"unknown backend {name!r}; choose from {sorted(self._specs)}"
            ) from None

    # ------------------------------------------------------------------ #
    # capability queries
    # ------------------------------------------------------------------ #
    def backends_for(self, algorithm_name: str) -> list[str]:
        """Backends declaring they execute ``algorithm_name``'s structure."""
        return [
            s.name for s in self._specs.values() if algorithm_name in s.algorithms
        ]

    def check_algorithm(self, algorithm: str, algorithm_name: str, backend: str) -> None:
        """Raise unless ``backend`` executes ``algorithm_name``'s structure.

        ``algorithm`` is the user-facing spelling (e.g. ``"BMP-RF"``),
        ``algorithm_name`` the registered family (``"BMP"``).
        """
        spec = self.get(backend)
        if algorithm_name not in spec.algorithms:
            honored = self.backends_for(algorithm_name)
            raise AlgorithmError(
                f"backend {backend!r} does not execute algorithm "
                f"{algorithm!r}; honored backends for {algorithm_name}: "
                f"{honored or 'none'} (backend='auto' runs the first)"
            )

    def motif_backends(self, motif: str) -> list[str]:
        """Backends declaring they execute ``motif``'s structure."""
        return [s.name for s in self._specs.values() if motif in s.motifs]

    def check_motif(self, backend: str, motif: str) -> BackendSpec:
        """Raise unless ``backend`` declares it can count ``motif``.

        The error names the capable backends so CLI users get an
        actionable exit-code-4 message instead of a KeyError deep in a
        runner table.
        """
        spec = self.get(backend)
        if motif not in spec.motifs:
            raise AlgorithmError(
                f"backend {backend!r} does not count motif {motif!r}; "
                f"motif-capable backends: {self.motif_backends(motif) or 'none'} "
                f"(use backend='auto' for the motif's default runner)"
            )
        return spec


# --------------------------------------------------------------------- #
# built-in backend runners
#
# Kernel entry points resolve through their module at call time (not
# captured at import), so monkeypatched fault injection — the fuzz suite
# testing itself — is seen by registered backends.
# --------------------------------------------------------------------- #
def _run_merge(session, **_):
    from repro.kernels import batch

    return batch.count_all_edges_merge(session.graph), None


def _run_matmul(session, **_):
    from repro.kernels import batch

    return batch.count_all_edges_matmul(session.graph), None


def _run_bitmap(session, **_):
    from repro.kernels import batch

    graph = session.graph
    eo = session.upper_edge_offsets()
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    if len(eo):
        batch.count_edges_bitmap(graph, eo, cnt)
    return batch.symmetric_assign(graph, cnt), None


def _run_gallop(session, **_):
    from repro.kernels import batch, batchsearch

    graph = session.graph
    eo = session.upper_edge_offsets()
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    if len(eo):
        cnt[eo] = batchsearch.count_edges_galloping(graph, eo)
    return batch.symmetric_assign(graph, cnt), None


def _pool_count(pool, chunks_per_worker, collect_stats):
    if collect_stats:
        return pool.count_all_edges(chunks_per_worker, with_stats=True)
    return pool.count_all_edges(chunks_per_worker), None


def _run_parallel(
    session,
    *,
    num_workers=None,
    chunks_per_worker=4,
    collect_stats=False,
    start_method=None,
    **_,
):
    pool = session.pool(num_workers, start_method=start_method)
    return _pool_count(pool, chunks_per_worker, collect_stats)


def _run_hybrid(
    session,
    *,
    num_workers=None,
    chunks_per_worker=4,
    collect_stats=False,
    skew_threshold=None,
    start_method=None,
    cover=True,
    **_,
):
    from repro.plan.executor import execute_plan
    from repro.plan.planner import DEFAULT_SKEW_THRESHOLD

    plan = session.plan(
        DEFAULT_SKEW_THRESHOLD if skew_threshold is None else skew_threshold,
        cover=cover,
    )
    pool = None
    if num_workers is not None and int(num_workers) != 1 and len(plan.bitmap_edges):
        pool = session.pool(num_workers, start_method=start_method)
        if not pool.is_parallel:
            pool = None
    cnt, report = execute_plan(
        session.graph, plan, pool=pool, chunks_per_worker=chunks_per_worker
    )
    return cnt, (report if collect_stats else None)


def _run_sharded(
    session,
    *,
    num_workers=None,
    chunks_per_worker=4,
    collect_stats=False,
    start_method=None,
    **_,
):
    # ``num_workers`` doubles as the shard count: one worker per shard.
    pool = session.pool(num_workers, sharded=True, start_method=start_method)
    return _pool_count(pool, chunks_per_worker, collect_stats)


def _sharded_fuzz_variants() -> tuple:
    """Shard-arithmetic and real-pool flavors of the sharded path.

    The inline flavor runs K=3 shards in-process over their attached
    segments every few cases (cheap, covers boundary/delta math); one
    process-backed flavor per platform keeps the worker protocol honest.
    """
    variants = [
        PathVariant(
            suffix="inline",
            stride=3,
            opts={"num_workers": 3, "start_method": "inline"},
        )
    ]
    available = mp.get_all_start_methods()
    method = "fork" if "fork" in available else "spawn"
    variants.append(
        PathVariant(
            suffix=method,
            stride=16,
            opts={"num_workers": 2, "start_method": method},
        )
    )
    return tuple(variants)


def _parallel_fuzz_variants() -> tuple:
    """Fork/spawn fuzz flavors, gated on platform availability."""
    variants = []
    available = mp.get_all_start_methods()
    for method, stride in (("fork", 4), ("spawn", 16)):
        if method in available:
            variants.append(
                PathVariant(
                    suffix=method,
                    stride=stride,
                    opts={
                        "num_workers": 2,
                        "chunks_per_worker": 3,
                        "start_method": method,
                    },
                )
            )
    return tuple(variants)


#: Motif families whose runners reuse the named kernels (the clique
#: runner table in :mod:`repro.motif.clique` uses the same names).
_CLIQUE_MOTIFS = frozenset({f"clique-{k}" for k in (3, 4, 5)})
_BICLIQUE_MOTIFS = frozenset(
    {f"biclique-{p}-{q}" for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))}
)
_CN = frozenset({"common-neighbors"})


def _builtin_specs() -> list[BackendSpec]:
    return [
        BackendSpec(
            name="merge",
            run=_run_merge,
            algorithms=frozenset({"M", "MPS"}),
            motifs=_CN | _CLIQUE_MOTIFS,
            description="per-edge searchsorted merge (reference path)",
        ),
        BackendSpec(
            name="bitmap",
            run=_run_bitmap,
            algorithms=frozenset({"BMP"}),
            supports_edge_subset=True,
            motifs=_CN | _CLIQUE_MOTIFS | _BICLIQUE_MOTIFS,
            description="BMP mark-and-probe structure",
        ),
        BackendSpec(
            name="matmul",
            run=_run_matmul,
            supports_edge_subset=True,
            description="blocked sparse (A·A) ⊙ A (SciPy SpGEMM)",
        ),
        BackendSpec(
            name="gallop",
            run=_run_gallop,
            algorithms=frozenset({"MPS"}),
            supports_edge_subset=True,
            description="galloping lower-bound search (pivot-skip structure)",
        ),
        BackendSpec(
            name="parallel",
            run=_run_parallel,
            algorithms=frozenset({"BMP"}),
            supports_stats=True,
            supports_num_workers=True,
            supports_edge_subset=True,
            fuzz_variants=_parallel_fuzz_variants(),
            description="shared-memory multiprocessing with work-weighted chunks",
        ),
        BackendSpec(
            name="sharded",
            run=_run_sharded,
            algorithms=frozenset({"BMP"}),
            supports_stats=True,
            supports_num_workers=True,
            fuzz_variants=_sharded_fuzz_variants(),
            description=(
                "K-way 2D shard partitioning; each worker attaches only "
                "its own shared-memory segment"
            ),
        ),
        BackendSpec(
            name="hybrid",
            run=_run_hybrid,
            supports_stats=True,
            supports_num_workers=True,
            fuzz_variants=(
                PathVariant(suffix="cold"),
                PathVariant(suffix="warm"),
                PathVariant(suffix="nocover", opts={"cover": False}),
            ),
            motifs=_CN | _CLIQUE_MOTIFS,
            description="cost-model planner splitting edges across kernels",
        ),
    ]


_DEFAULT: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry, populated with the built-in backends."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BackendRegistry()
        for spec in _builtin_specs():
            _DEFAULT.register(spec)
    return _DEFAULT
