"""The baseline M: plain two-pointer merge for every edge.

This is the comparison point of the paper's Figure 3 and Table 4 — no
pivot-skip, no vectorization, no bitmap.
"""

from __future__ import annotations

from repro.algorithms.base import Algorithm, register_algorithm
from repro.kernels.costmodel import EdgeSet, merge_work
from repro.types import WorkVector

__all__ = ["MergeBaseline"]


class MergeBaseline(Algorithm):
    """Merge-only baseline (``M`` in the paper's evaluation)."""

    name = "M"
    requires_reorder = False

    def work(self, es: EdgeSet) -> WorkVector:
        return merge_work(es)


register_algorithm("M", MergeBaseline)
