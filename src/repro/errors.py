"""Exception hierarchy for the repro package.

All errors raised by this package derive from :class:`ReproError` so that
callers can catch package-level failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """A graph violates a structural invariant (CSR layout, sortedness...)."""


class EdgeNotFoundError(ReproError, KeyError):
    """An edge-offset lookup ``e(u, v)`` was requested for a missing edge."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u}, {v}) not present in graph")
        self.u = u
        self.v = v


class AlgorithmError(ReproError):
    """An algorithm was misconfigured or received invalid input."""


class UnknownAlgorithmError(AlgorithmError, KeyError):
    """Requested algorithm name is not registered."""

    def __init__(self, name: str, known: tuple[str, ...]):
        super().__init__(f"unknown algorithm {name!r}; known: {', '.join(known)}")
        self.name = name
        self.known = known


class SessionClosedError(ReproError, RuntimeError):
    """A :class:`~repro.engine.session.GraphSession` was used after close().

    Derives from ``RuntimeError`` so pre-existing callers catching the old
    incidental failures keep working; the message names the operation that
    was attempted so long-lived services log something actionable instead
    of a ``KeyError`` from a cleared artifact dict.
    """

    def __init__(self, operation: str = "use"):
        super().__init__(
            f"cannot {operation} a closed GraphSession; sessions release "
            "their worker pool and shared-memory export on close() and "
            "cannot be reopened"
        )
        self.operation = operation


class ServiceOverloadedError(ReproError):
    """The serving layer's admission queue is full; retry after a delay."""

    def __init__(self, queue_depth: int, retry_after: float = 0.05):
        super().__init__(
            f"admission queue full ({queue_depth} requests pending); "
            f"retry in {retry_after:g}s"
        )
        self.queue_depth = queue_depth
        self.retry_after = retry_after


class UnknownGraphError(ReproError, KeyError):
    """A serving request referenced a graph key not in the session pool."""

    def __init__(self, key: str, known: tuple[str, ...] = ()):
        super().__init__(
            f"unknown graph {key!r}; loaded graphs: {sorted(known) or 'none'}"
        )
        self.key = key
        self.known = known


class SharedExportError(ReproError):
    """A shared-memory CSR export could not be attached.

    Raised (instead of the incidental ``FileNotFoundError`` from
    ``multiprocessing.shared_memory``) when a worker attaches a handle
    whose blocks were already unlinked by the exporting process — the
    session closed, or the export was invalidated by an edit batch while
    a request was still in flight.
    """

    def __init__(self, name: str, detail: str = ""):
        super().__init__(
            f"cannot attach shared-memory block {name!r}: the export was "
            "already unlinked by its owner (session closed or invalidated)"
            + (f"; {detail}" if detail else "")
        )
        self.name = name


class WorkerPoolError(ReproError, RuntimeError):
    """A worker-pool request failed: a worker raised, or a worker died.

    The pool tears itself down before raising, so a failed request can
    never leave results behind for the next one; a
    :class:`~repro.engine.session.GraphSession` starts a fresh pool on its
    next request.  Derives from ``RuntimeError`` so callers matching the
    pool's historical failures keep working.
    """


class StreamOrderError(ReproError, ValueError):
    """A stream event carried a timestamp earlier than the stream clock.

    Sliding-window expiry relies on non-decreasing timestamps (the
    arrival log is a monotone deque); out-of-order events would silently
    corrupt the live-edge set, so they are rejected loudly instead.
    """

    def __init__(self, timestamp: float, now: float):
        super().__init__(
            f"stream timestamp {timestamp:g} precedes the current stream "
            f"clock {now:g}; events must arrive in non-decreasing time order"
        )
        self.timestamp = timestamp
        self.now = now


class SimulationError(ReproError):
    """The architecture simulator was given inconsistent parameters."""


class CapacityError(SimulationError):
    """A simulated memory allocation exceeds the device capacity."""


class VerificationError(ReproError):
    """Computed counts failed verification against a reference."""
