"""Public counting API.

``count_common_neighbors(graph)`` is the one-call entry point: it computes
the exact all-edge common neighbor counts with the fastest available
backend and returns an :class:`repro.core.result.EdgeCounts`.

:class:`CommonNeighborCounter` exposes the full configuration surface —
algorithm choice (M / MPS / BMP / BMP-RF), backend (any name registered in
the :class:`~repro.engine.registry.BackendRegistry`), and access to the
architecture simulator for modeled run times on the paper's processors.

Every call executes through a :class:`~repro.engine.session.GraphSession`:
a counter reused on the same graph object keeps its session warm, so
repeated counts skip fingerprinting, planning, shared-memory export, and
worker-pool startup.  Close the counter (context manager) to release the
session's pooled resources deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import EdgeCounts
from repro.engine import GraphSession
from repro.graph.csr import CSRGraph
from repro.graph.stats import skew_percentage

__all__ = [
    "count_common_neighbors",
    "count_pairs",
    "CommonNeighborCounter",
    "recommend_processor",
]

#: Processors the simulator models (paper §2); anything else is a typo,
#: not a request for the KNL default.
_SIM_PROCESSORS = ("cpu", "knl", "gpu")


def count_common_neighbors(
    graph: CSRGraph,
    algorithm: str = "auto",
    backend: str = "auto",
    num_workers: int | None = None,
    chunks_per_worker: int = 4,
    collect_stats: bool = False,
) -> EdgeCounts:
    """Count ``|N(u) ∩ N(v)|`` for every edge of ``graph``.

    Parameters
    ----------
    graph:
        Undirected graph in CSR form.
    algorithm:
        ``"auto"`` (default), or one of the registered algorithm names
        (``M``, ``MPS``, ``BMP``, ``BMP-RF``, ...).  All algorithms
        produce identical counts — the choice affects the *work model*
        used by :meth:`CommonNeighborCounter.simulate` and, with
        ``backend="auto"``, runs the first backend executing the
        algorithm's structure.  Combining an explicit algorithm with an
        explicit backend is allowed only when the backend declares it
        executes that algorithm's structure (see
        :meth:`CommonNeighborCounter.count`); incompatible pairs raise
        :class:`~repro.errors.AlgorithmError`.
    backend:
        Execution backend for the exact counts — any name registered in
        the engine's :class:`~repro.engine.registry.BackendRegistry`:
        ``hybrid`` (cost-model planner splits edges across galloping /
        bitmap / matmul kernels), ``matmul`` (SciPy sparse), ``bitmap``
        (the paper-faithful structure), ``gallop`` (batched pivot-skip),
        ``parallel`` (shared-memory multiprocessing with work-weighted
        chunks), ``merge`` (reference), or ``auto`` (routes through the
        hybrid planner).
    num_workers / chunks_per_worker:
        Honored by every backend declaring the ``supports_num_workers``
        capability: ``parallel`` (pool size and over-decomposition — the
        paper's ``|T|`` trade-off) and ``hybrid`` (the planner's bitmap
        bucket runs work-weighted on the persistent pool).
    collect_stats:
        When true, execution telemetry is attached to the result —
        ``EdgeCounts.parallel_stats`` (per-worker chunks) for the
        parallel backend, ``EdgeCounts.hybrid_report`` (plan + per-bucket
        timings) for the hybrid backend.  Backends that declare no stats
        capability raise :class:`~repro.errors.AlgorithmError` instead of
        silently dropping the flag.

    For repeated counts over the same graph, keep a
    :class:`CommonNeighborCounter` (or a
    :class:`~repro.engine.session.GraphSession`) open instead — this
    one-shot form tears its session down on return.
    """
    with CommonNeighborCounter(
        algorithm=algorithm,
        backend=backend,
        num_workers=num_workers,
        chunks_per_worker=chunks_per_worker,
        collect_stats=collect_stats,
    ) as counter:
        return counter.count(graph)


class CommonNeighborCounter:
    """Configurable all-edge common neighbor counter.

    Holds one warm :class:`~repro.engine.session.GraphSession` per graph
    object: calling :meth:`count` repeatedly on the same graph reuses the
    session's memoized fingerprint, execution plan, shared-memory export,
    and worker pool.  Counting a *different* graph closes the old session
    and opens a fresh one.  Use as a context manager (or call
    :meth:`close`) to release pooled resources deterministically.
    """

    def __init__(
        self,
        algorithm: str = "auto",
        backend: str = "auto",
        num_workers: int | None = None,
        chunks_per_worker: int = 4,
        collect_stats: bool = False,
    ):
        self.algorithm = algorithm
        self.backend = backend
        self.num_workers = num_workers
        self.chunks_per_worker = chunks_per_worker
        self.collect_stats = collect_stats
        self._session: GraphSession | None = None

    # ------------------------------------------------------------------ #
    def session(self, graph: CSRGraph) -> GraphSession:
        """The counter's session for ``graph`` (opened/rotated on demand)."""
        if self._session is None or self._session.graph is not graph:
            if self._session is not None:
                self._session.close()
            self._session = GraphSession(graph)
        return self._session

    def count(self, graph: CSRGraph) -> EdgeCounts:
        """Exact counts with the configured algorithm/backend.

        Honored combinations: an explicit algorithm with ``backend="auto"``
        runs the first registered backend executing its structure
        (``M``/``MPS`` → ``merge``, ``BMP``/``BMP-RF`` → ``bitmap``); an
        explicit backend with ``algorithm="auto"`` runs the backend.  When *both* are explicit
        the backend executes only if it declares the algorithm's structure
        in the registry — ``M``/``MPS`` (and variants) pair with ``merge``
        (MPS also with ``gallop``), ``BMP``/``BMP-RF`` pair with
        ``bitmap`` or ``parallel`` — and any other combination raises
        :class:`~repro.errors.AlgorithmError` rather than silently
        discarding the algorithm choice.
        """
        return self.session(graph).count(
            algorithm=self.algorithm,
            backend=self.backend,
            num_workers=self.num_workers,
            chunks_per_worker=self.chunks_per_worker,
            collect_stats=self.collect_stats,
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the warm session (worker pool, shared memory)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def __enter__(self) -> "CommonNeighborCounter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def simulate(self, graph: CSRGraph, processor: str, **knobs):
        """Modeled run time on one of the paper's processors.

        ``processor`` must be ``"cpu"``, ``"knl"``, or ``"gpu"``
        (case-insensitive); anything else — including stray whitespace —
        raises :class:`~repro.errors.SimulationError` instead of silently
        simulating the wrong machine.  Delegates to
        :func:`repro.simarch.simulate`; see there for knobs.
        """
        from repro.errors import SimulationError
        from repro.simarch import simulate

        proc = processor.lower() if isinstance(processor, str) else processor
        if proc not in _SIM_PROCESSORS:
            raise SimulationError(
                f"unknown processor {processor!r}; choose from "
                f"{list(_SIM_PROCESSORS)}"
            )
        algorithm = self.algorithm
        if algorithm == "auto":
            algorithm = "BMP-RF" if proc in ("cpu", "gpu") else "MPS-AVX512"
        return simulate(graph, algorithm, proc, **knobs)


def count_pairs(graph: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Common neighbor counts for arbitrary vertex *pairs* (not only edges).

    Similarity queries (paper §1) often ask about non-adjacent pairs.
    Pairs sharing a left endpoint are grouped so each group marks ``N(u)``
    in one boolean bitmap (the BMP structure) and answers all its queries
    with one vectorized gather over the concatenated right-side adjacency
    lists — no per-pair Python loop.  Pairs are given as parallel
    ``u``/``v`` arrays; returns an int64 array of counts.

    One-shot wrapper over :meth:`GraphSession.count_pairs`; for repeated
    query batches keep a session open to reuse its mark plane and degree
    vector.
    """
    with GraphSession(graph) as session:
        return session.count_pairs(u, v)


def recommend_processor(graph: CSRGraph, skew_threshold: float = 50.0) -> str:
    """The paper's §5.3 guidance, as a function.

    Degree-skewed graphs (high fraction of intersections with
    ``d_u/d_v > 50``, like web-it and twitter) run best as BMP on the
    GPU; near-uniform large graphs (friendster) as MPS on the KNL.
    """
    pct = skew_percentage(graph, skew_threshold)
    return "gpu" if pct >= 15.0 else "knl"
