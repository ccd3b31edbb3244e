"""Compiled variants of the per-edge intersection hot loops.

The paper's premise is that all-edge common neighbor counting is bound
by the raw speed of the intersection inner loops; everything else in
this reproduction orchestrates NumPy dispatches around them.  This
package drops the interpreter from those loops entirely.  Three kernels
are provided — the galloping (exponential + binary lower bound)
intersection, the batched lower-bound search, and the BMP mark/probe
loop — through whichever *provider* the host supports:

``numba``
    ``@njit``-compiled machine code (preferred: vendor-tested codegen,
    on-disk jit cache, ``nogil`` so serving dispatch threads overlap).
``cc``
    The same loops as one small C translation unit, compiled on first
    use with the system C compiler and bound via ctypes
    (:mod:`repro.compiled._ccjit`) — covers images that ship a
    toolchain but no numba wheel.

The provider is a host capability, not a backend.  The kernel entry
points :func:`repro.kernels.batch.count_edges_bitmap`,
:func:`repro.kernels.batchsearch.count_edges_galloping` and
:func:`repro.kernels.batchsearch.batched_lower_bound` (for int32
haystacks) call these loops whenever :func:`available` answers ``True``
and the caller passes no :class:`~repro.types.OpCounts`, so every path
built on them — the ``bitmap``/``gallop`` backends, the hybrid planner's
buckets and cover probe, the pool workers, the clique base case — runs
compiled without naming it.  Otherwise they run their interpreted
bodies (``*_interpreted``), which stay the reference, the ``OpCounts``
work-model path, and the only path on a host with no provider.

Selection is automatic (numba, else cc, else unavailable) and can be
forced with ``REPRO_COMPILED=numba|cc|off`` for debugging and the
optional-dependency CI matrix.

All kernels are **bit-exact** against their interpreted counterparts;
the tests pin both and the differential fuzzer runs on whichever the
host selected.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = [
    "provider",
    "available",
    "unavailable_reason",
    "require",
    "reset_provider_cache",
    "count_edges_galloping_compiled",
    "count_edges_bitmap_compiled",
    "batched_lower_bound_compiled",
]

_UNSET = object()
_provider = _UNSET
_impl = None


def _probe_numba():
    try:
        from repro.compiled import _numbajit
    except ImportError:
        return None
    return _numbajit


def _probe_cc():
    from repro.compiled import _ccjit

    lib = _ccjit.load()
    if lib is None:
        return None

    class _CCImpl:
        @staticmethod
        def gallop_counts(offsets, dst, small, large, out):
            lib.repro_gallop_counts(offsets, dst, small, large, len(small), out)

        @staticmethod
        def lower_bound_batch(hay, lo, hi, targets, out):
            lib.repro_lower_bound_batch(hay, lo, hi, targets, len(targets), out)

        @staticmethod
        def bitmap_counts(offsets, dst, src, eo, mark, out):
            lib.repro_bitmap_counts(offsets, dst, src, eo, len(eo), mark, out)

    return _CCImpl


def provider() -> str | None:
    """The selected provider name (``"numba"``/``"cc"``) or ``None``.

    Resolution order is numba, then the system C toolchain; the
    ``REPRO_COMPILED`` environment variable forces one provider
    (``numba``/``cc``) or disables compilation outright (``off``).  The
    probe result is cached for the process (see
    :func:`reset_provider_cache`).
    """
    global _provider, _impl
    if _provider is not _UNSET:
        return _provider
    forced = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    candidates = {
        "auto": (("numba", _probe_numba), ("cc", _probe_cc)),
        "numba": (("numba", _probe_numba),),
        "cc": (("cc", _probe_cc),),
    }.get(forced, ())
    if forced in ("off", "0", "none", "false"):
        candidates = ()
    _provider, _impl = None, None
    for name, probe in candidates:
        impl = probe()
        if impl is not None:
            _provider, _impl = name, impl
            break
    return _provider


def available() -> bool:
    """True when a compiled provider is usable on this host."""
    return provider() is not None


def unavailable_reason() -> str | None:
    """Why no compiled provider is usable (``None`` when one is)."""
    if available():
        return None
    forced = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    if forced in ("off", "0", "none", "false"):
        return "compiled kernels disabled via REPRO_COMPILED=off"
    return (
        "no compiled-kernel provider: numba is not installed and no "
        "working C compiler (cc/gcc/clang) was found"
    )


def require():
    """The selected provider implementation, or raise with the reason."""
    if not available():
        raise AlgorithmError(unavailable_reason())
    return _impl


def reset_provider_cache() -> None:
    """Forget the cached provider probe (tests flip ``REPRO_COMPILED``)."""
    global _provider, _impl
    _provider = _UNSET
    _impl = None


# --------------------------------------------------------------------- #
# public kernels (thin array-prep wrappers over the provider loops)
# --------------------------------------------------------------------- #
def count_edges_galloping_compiled(
    graph: CSRGraph, edge_offsets: np.ndarray
) -> np.ndarray:
    """Compiled counterpart of :func:`~repro.kernels.batchsearch.
    count_edges_galloping`: counts for the given ``u < v`` edge offsets.

    Per edge, every element of the smaller endpoint's neighbor list is
    located in the larger endpoint's list by a galloping search resuming
    from the previous match — ``O(d_small · log(d_large / d_small))``
    with no interpreter in the loop.  Returns int64 counts aligned with
    ``edge_offsets``.
    """
    impl = require()
    eo = np.ascontiguousarray(edge_offsets, dtype=np.int64)
    out = np.zeros(len(eo), dtype=np.int64)
    if len(eo) == 0:
        return out
    offsets = graph.offsets
    deg = graph.degrees
    u = np.searchsorted(offsets, eo, side="right") - 1
    v = graph.dst[eo].astype(np.int64)
    swap = deg[v] < deg[u]
    small = np.ascontiguousarray(np.where(swap, v, u), dtype=np.int64)
    large = np.ascontiguousarray(np.where(swap, u, v), dtype=np.int64)
    impl.gallop_counts(offsets, graph.dst, small, large, out)
    return out


def count_edges_bitmap_compiled(
    graph: CSRGraph,
    edge_offsets: np.ndarray,
    cnt: np.ndarray,
    *,
    aligned: bool = False,
) -> None:
    """Compiled counterpart of :func:`~repro.kernels.batch.
    count_edges_bitmap`: BMP counts written into ``cnt``.

    ``edge_offsets`` must be sorted ascending (source-grouped, as
    :meth:`GraphSession.upper_edge_offsets` and the planner's buckets
    produce them): the kernel marks each source's neighborhood exactly
    once per run of edges sharing it, probes every ``N(v)`` against the
    byte-per-vertex mark array, and clears only the marks it set.  With
    ``aligned=True`` the result lands at ``cnt[i]`` instead of
    ``cnt[edge_offsets[i]]`` (compact per-chunk buffers).
    """
    impl = require()
    eo = np.ascontiguousarray(edge_offsets, dtype=np.int64)
    if len(eo) == 0:
        return
    offsets = graph.offsets
    src = np.searchsorted(offsets, eo, side="right") - 1
    src = np.ascontiguousarray(src, dtype=np.int64)
    mark = np.zeros(graph.num_vertices, dtype=np.uint8)
    out = np.zeros(len(eo), dtype=np.int64)
    impl.bitmap_counts(offsets, graph.dst, src, eo, mark, out)
    if aligned:
        cnt[: len(eo)] = out
    else:
        cnt[eo] = out


def batched_lower_bound_compiled(
    haystack: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Compiled counterpart of :func:`~repro.kernels.batchsearch.
    batched_lower_bound` for vertex-valued (int32) haystacks.

    Each lane runs an independent binary search of ``targets[i]`` in
    ``haystack[lo[i]:hi[i]]``; unlike the lockstep NumPy version, lanes
    that converge early cost nothing.
    """
    impl = require()
    hay = np.ascontiguousarray(haystack, dtype=np.int32)
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    tgt = np.ascontiguousarray(targets, dtype=np.int32)
    out = np.empty(len(tgt), dtype=np.int64)
    if len(tgt):
        impl.lower_bound_batch(hay, lo, hi, tgt, out)
    return out
