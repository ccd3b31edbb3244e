"""MPS — merge with pivot-skip and optional vectorization (Algorithm 1).

Dispatch per edge on the degree-skew ratio against threshold ``t``
(paper's empirical default 50): skewed pairs take the pivot-skip merge,
balanced pairs take the block-wise merge — *vectorized* at ``lane_width``
lanes when vectorization is enabled (the paper's technique **V**), scalar
otherwise (the configuration of Figure 3, before V is enabled).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm, register_algorithm
from repro.kernels.costmodel import (
    EdgeSet,
    block_merge_work,
    merge_work,
    pivot_skip_work,
    skew_mask,
)
from repro.types import WorkVector

__all__ = ["MPS", "DEFAULT_SKEW_THRESHOLD"]

#: Paper: "We choose an empirical number 50 as the threshold".
DEFAULT_SKEW_THRESHOLD = 50.0


class MPS(Algorithm):
    """Merge-based pivot-skip algorithm.

    Parameters
    ----------
    skew_threshold:
        Degree-ratio cutoff ``t`` between VB (below) and PS (above).
    vectorized:
        Whether the balanced-pair merge uses the SIMD block-wise kernel.
    lane_width:
        SIMD lanes when vectorized: 8 = AVX2, 16 = AVX-512, 32 = GPU warp.
    """

    name = "MPS"
    requires_reorder = False

    def __init__(
        self,
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
        vectorized: bool = True,
        lane_width: int = 8,
    ):
        self.skew_threshold = float(skew_threshold)
        self.vectorized = bool(vectorized)
        self.lane_width = int(lane_width)

    def work(self, es: EdgeSet) -> WorkVector:
        skewed = skew_mask(es, self.skew_threshold)
        ps = pivot_skip_work(es, self.lane_width)
        balanced = (
            block_merge_work(es, self.lane_width)
            if self.vectorized
            else merge_work(es)
        )
        w = WorkVector(len(es))
        for name in w.fields():
            w[name] = np.where(skewed, ps[name], balanced[name])
        return w

    def describe(self) -> str:
        v = f"VB{self.lane_width}" if self.vectorized else "scalar-merge"
        return f"MPS(t={self.skew_threshold:g}, {v})"


register_algorithm("MPS", MPS)
register_algorithm("MPS-SCALAR", lambda: MPS(vectorized=False))
register_algorithm("MPS-AVX2", lambda: MPS(lane_width=8))
register_algorithm("MPS-AVX512", lambda: MPS(lane_width=16))
