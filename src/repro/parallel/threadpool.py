"""Former home of the single-export pool, kept as an import path.

``benchmarks/e2e/run.py`` records the host's start method through
``repro.parallel.threadpool.resolve_start_method``; the runtime itself
lives in :mod:`repro.parallel.pool`.
"""

from repro.parallel.pool import resolve_start_method

__all__ = ["resolve_start_method"]
