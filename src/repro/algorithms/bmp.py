"""BMP — dynamically constructed bitmap index (Algorithm 2).

BMP builds the bitmap over the *larger* neighbor set (guaranteed by the
degree-descending reorder) and probes it with the smaller one, so each
intersection is ``O(min(d_u, d_v))``.  The work model assumes the
reorder; the exact counts come from the ``bitmap`` backend, which needs
no reorder to be exact.
"""

from __future__ import annotations

from repro.algorithms.base import Algorithm, register_algorithm
from repro.kernels.costmodel import EdgeSet, bmp_work
from repro.kernels.rangefilter import DEFAULT_RANGE_SCALE
from repro.types import WorkVector

__all__ = ["BMP"]


class BMP(Algorithm):
    """Bitmap-index algorithm with optional range filtering.

    Parameters
    ----------
    range_filter:
        Enable the paper's bitmap range filtering technique (RF).
    range_scale:
        Ids covered per filter bit (paper ratio: 4096).
    """

    name = "BMP"
    requires_reorder = True

    def __init__(
        self, range_filter: bool = False, range_scale: int = DEFAULT_RANGE_SCALE
    ):
        self.range_filter = bool(range_filter)
        self.range_scale = int(range_scale)

    def work(self, es: EdgeSet) -> WorkVector:
        return bmp_work(
            es,
            range_filter=self.range_filter,
            range_scale=self.range_scale,
            assume_reordered=True,
        )

    def describe(self) -> str:
        rf = f", RF/{self.range_scale}" if self.range_filter else ""
        return f"BMP({'reordered'}{rf})"


register_algorithm("BMP", BMP)
register_algorithm("BMP-RF", lambda: BMP(range_filter=True))
