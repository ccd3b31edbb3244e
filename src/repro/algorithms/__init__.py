"""Algorithm layer: the paper's M baseline, MPS, and BMP.

Each algorithm is the per-edge work model consumed by the architecture
simulator; its exact counts come from the registry backend executing its
structure.  Obtain instances via :func:`get_algorithm` or the registry in
:mod:`repro.algorithms.base`.
"""

from repro.algorithms.base import Algorithm, get_algorithm, register_algorithm, algorithm_names
from repro.algorithms.baseline import MergeBaseline
from repro.algorithms.mps import MPS
from repro.algorithms.bmp import BMP
from repro.algorithms.symmetry import (
    reverse_offsets_via_search,
    coprocess_reverse_offsets,
)
from repro.algorithms.reference import (
    run_merge_reference,
    run_mps_reference,
    run_bmp_reference,
)

__all__ = [
    "Algorithm",
    "get_algorithm",
    "register_algorithm",
    "algorithm_names",
    "MergeBaseline",
    "MPS",
    "BMP",
    "reverse_offsets_via_search",
    "coprocess_reverse_offsets",
    "run_merge_reference",
    "run_mps_reference",
    "run_bmp_reference",
]
