"""Per-worker telemetry for the real parallel counting backend.

Every chunk a worker pulls off the dynamic queue comes back with a
:class:`ChunkStat` — who ran it, which vertex range, how many edge counts
it produced and how long it took.  :class:`ParallelStats` aggregates a
request's chunk stats into per-worker utilization, throughput, and a
measured load-imbalance figure that can be validated directly against
the event-driven :func:`~repro.parallel.scheduler.simulate_dynamic`
model (paper §4's ``|T|`` trade-off, now observable on real wall-clock
data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.scheduler import Schedule, simulate_dynamic

__all__ = [
    "ChunkStat",
    "ShardStat",
    "WorkerTelemetry",
    "ParallelStats",
    "rss_bytes",
]


def rss_bytes() -> int:
    """Peak resident-set size of the calling process, in bytes (0 if
    the platform exposes no ``getrusage``).  Workers report this so the
    bench can verify the per-worker memory claim of sharded execution."""
    try:
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(rss) * (1 if sys.platform == "darwin" else 1024)
    except Exception:  # pragma: no cover - exotic platforms
        return 0


@dataclass(frozen=True)
class ChunkStat:
    """One dynamically-scheduled chunk, as measured by the worker.

    ``predicted_cost`` is the planner's cost estimate for the chunk's
    vertex range (arbitrary units, comparable across chunks of the same
    request); ``None`` when the request ran without a plan.
    ``bytes_attached`` is the shared-memory footprint the worker mapped to
    serve the chunk (the whole export for the single-export backend, one
    shard segment for sharded execution); ``shard`` is the owning shard
    index, or ``None`` outside sharded runs.  ``rss_bytes`` is the
    worker's peak RSS when it finished the chunk.
    """

    worker_pid: int
    lo: int
    hi: int
    edges: int
    seconds: float
    predicted_cost: float | None = None
    bytes_attached: int = 0
    shard: int | None = None
    rss_bytes: int = 0


@dataclass(frozen=True)
class ShardStat:
    """Parent-side summary of one shard of a sharded request."""

    index: int
    lo: int
    hi: int
    owned_bytes: int
    boundary_bytes: int
    boundary_vertices: int
    attached_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.attached_bytes


@dataclass(frozen=True)
class WorkerTelemetry:
    """Aggregated view of one worker process across a request."""

    pid: int
    chunks: int
    edges: int
    busy_seconds: float
    bytes_attached: int = 0
    rss_bytes: int = 0

    @property
    def edges_per_sec(self) -> float:
        if self.busy_seconds <= 0:
            return 0.0
        return self.edges / self.busy_seconds


@dataclass
class ParallelStats:
    """Telemetry for one ``count_all_edges`` request.

    ``effective_workers`` may be smaller than ``requested_workers`` when
    the backend fell back (single CPU, shared-memory setup failure);
    ``fallback_reason`` records why, and the backend also raises a
    ``RuntimeWarning`` so the degradation is never silent.
    """

    requested_workers: int
    effective_workers: int
    start_method: str
    wall_seconds: float
    chunk_stats: list[ChunkStat] = field(default_factory=list)
    fallback_reason: str | None = None
    shard_stats: list[ShardStat] = field(default_factory=list)
    replication_factor: float | None = None

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_chunks(self) -> int:
        return len(self.chunk_stats)

    @property
    def total_edges(self) -> int:
        """Computed ``u < v`` edge counts (before symmetric assignment)."""
        return sum(c.edges for c in self.chunk_stats)

    @property
    def edges_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_edges / self.wall_seconds

    @property
    def busy_seconds(self) -> float:
        """Total worker-side compute time across all chunks."""
        return float(sum(c.seconds for c in self.chunk_stats))

    def per_worker(self) -> list[WorkerTelemetry]:
        """One :class:`WorkerTelemetry` per participating worker pid."""
        agg: dict[int, list[ChunkStat]] = {}
        for c in self.chunk_stats:
            agg.setdefault(c.worker_pid, []).append(c)
        return [
            WorkerTelemetry(
                pid=pid,
                chunks=len(cs),
                edges=sum(c.edges for c in cs),
                busy_seconds=float(sum(c.seconds for c in cs)),
                bytes_attached=max(c.bytes_attached for c in cs),
                rss_bytes=max(c.rss_bytes for c in cs),
            )
            for pid, cs in sorted(agg.items())
        ]

    @property
    def max_worker_bytes_attached(self) -> int:
        """Largest shared-memory footprint any single worker mapped —
        the quantity the shard budget bounds."""
        if not self.chunk_stats:
            return 0
        return max(c.bytes_attached for c in self.chunk_stats)

    @property
    def imbalance(self) -> float:
        """Measured load imbalance: ``max(busy) / mean(busy) - 1``.

        The mean is taken over ``effective_workers`` (idle workers count
        as zero busy time), mirroring the scheduler simulator's
        ``makespan / ideal - 1`` definition.
        """
        busy = [w.busy_seconds for w in self.per_worker()]
        if not busy:
            return 0.0
        mean = sum(busy) / max(self.effective_workers, 1)
        if mean <= 0:
            return 0.0
        return max(busy) / mean - 1.0

    def chunk_seconds(self) -> np.ndarray:
        """Measured per-chunk costs in queue (submission) order."""
        order = sorted(self.chunk_stats, key=lambda c: c.lo)
        return np.array([c.seconds for c in order], dtype=np.float64)

    @property
    def chunk_imbalance(self) -> float:
        """Per-chunk work spread: ``max(seconds) / mean(seconds) - 1``.

        Unlike :attr:`imbalance` this is meaningful even with one worker —
        it measures how evenly the *chunking policy* split the work, which
        is exactly what work-weighted boundaries are supposed to improve.
        """
        secs = self.chunk_seconds()
        if len(secs) == 0 or secs.mean() <= 0:
            return 0.0
        return float(secs.max() / secs.mean() - 1.0)

    @property
    def predicted_chunk_imbalance(self) -> float | None:
        """Planner-predicted chunk spread, when a plan drove the chunking."""
        pred = [
            c.predicted_cost
            for c in self.chunk_stats
            if c.predicted_cost is not None
        ]
        if len(pred) != len(self.chunk_stats) or not pred:
            return None
        arr = np.asarray(pred, dtype=np.float64)
        if arr.mean() <= 0:
            return 0.0
        return float(arr.max() / arr.mean() - 1.0)

    def prediction_error(self) -> float | None:
        """Mean relative error of predicted vs measured chunk cost shares.

        Both vectors are normalized to sum to 1 (the planner's units are
        arbitrary), so this reports how well the plan ranked the chunks —
        the quantity that decides boundary quality.
        """
        stats = [c for c in self.chunk_stats if c.predicted_cost is not None]
        if len(stats) != len(self.chunk_stats) or not stats:
            return None
        pred = np.array([c.predicted_cost for c in stats], dtype=np.float64)
        meas = np.array([c.seconds for c in stats], dtype=np.float64)
        if pred.sum() <= 0 or meas.sum() <= 0:
            return None
        pred /= pred.sum()
        meas /= meas.sum()
        return float(np.abs(pred - meas).mean() / max(meas.mean(), 1e-30))

    def simulated_schedule(self, dequeue_overhead: float = 0.0) -> Schedule:
        """Replay the measured chunk costs through the dynamic-schedule
        simulator — the bridge between real telemetry and the model that
        feeds Figures 5-10."""
        return simulate_dynamic(
            self.chunk_seconds(), max(self.effective_workers, 1), dequeue_overhead
        )

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def format(self) -> str:
        """Human-readable telemetry block (the CLI's ``--stats`` output)."""
        lines = [
            f"workers          : {self.effective_workers} effective / "
            f"{self.requested_workers} requested ({self.start_method})",
            f"chunks           : {self.num_chunks}",
            f"wall time        : {self.wall_seconds:.4f} s "
            f"({self.edges_per_sec:,.0f} edges/s)",
        ]
        if self.fallback_reason:
            lines.append(f"fallback         : {self.fallback_reason}")
        for w in self.per_worker():
            line = (
                f"worker {w.pid:<9d} : {w.chunks} chunks, {w.edges} edges, "
                f"{w.busy_seconds:.4f} s busy ({w.edges_per_sec:,.0f} edges/s)"
            )
            if w.bytes_attached:
                line += f", {w.bytes_attached / 2**20:.2f} MiB attached"
            lines.append(line)
        for s in self.shard_stats:
            lines.append(
                f"shard {s.index:<10d} : vertices [{s.lo}, {s.hi}), "
                f"{s.owned_bytes / 2**20:.2f} MiB owned + "
                f"{s.boundary_bytes / 2**20:.2f} MiB boundary "
                f"({s.boundary_vertices} cols), "
                f"{s.attached_bytes / 2**20:.2f} MiB attached"
            )
        if self.replication_factor is not None:
            lines.append(
                f"replication      : {self.replication_factor:.2f}x of the "
                "single export across all shards"
            )
        if self.chunk_stats:
            sched = self.simulated_schedule()
            lines.append(
                f"imbalance        : measured {100 * self.imbalance:.1f}%, "
                f"simulated dynamic {100 * sched.imbalance:.1f}%"
            )
            chunk_line = (
                f"chunk imbalance  : measured {100 * self.chunk_imbalance:.1f}%"
            )
            pred_imb = self.predicted_chunk_imbalance
            if pred_imb is not None:
                chunk_line += f", plan-predicted {100 * pred_imb:.1f}%"
            lines.append(chunk_line)
            err = self.prediction_error()
            if err is not None:
                lines.append(
                    f"plan accuracy    : mean chunk-share error "
                    f"{100 * err:.1f}% of mean"
                )
        return "\n".join(lines)
