"""Algorithm interface and registry.

An :class:`Algorithm` is one of the paper's per-experiment variants as a
work model: what each edge costs on the processor simulators.  Exact
counts for an algorithm come from the registry backend executing its
structure (:meth:`repro.engine.GraphSession.count`).
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.errors import UnknownAlgorithmError
from repro.kernels.costmodel import EdgeSet
from repro.types import WorkVector

__all__ = ["Algorithm", "register_algorithm", "get_algorithm", "algorithm_names"]


class Algorithm(abc.ABC):
    """One all-edge common-neighbor-counting algorithm.

    Subclasses define:

    * :attr:`name` — registry key (e.g. ``"MPS"``);
    * :attr:`requires_reorder` — whether the algorithm depends on the
      degree-descending vertex ordering (BMP does, paper §2.1);
    * :meth:`work` — per-edge :class:`WorkVector` for the simulator.
    """

    name: str = "abstract"
    requires_reorder: bool = False

    @abc.abstractmethod
    def work(self, es: EdgeSet) -> WorkVector:
        """Modeled per-edge work over the ``u < v`` edges of ``es``."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


_REGISTRY: dict[str, Callable[[], Algorithm]] = {}


def register_algorithm(name: str, factory: Callable[[], Algorithm]) -> None:
    """Register a zero-argument factory under ``name`` (case-insensitive)."""
    _REGISTRY[name.upper()] = factory


def algorithm_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_algorithm(name: str, **kwargs) -> Algorithm:
    """Instantiate a registered algorithm.

    ``kwargs`` override the variant's default parameters (e.g.
    ``get_algorithm("MPS", skew_threshold=20)``).
    """
    key = name.upper()
    if key not in _REGISTRY:
        raise UnknownAlgorithmError(name, algorithm_names())
    algo = _REGISTRY[key]()
    for attr, value in kwargs.items():
        if not hasattr(algo, attr):
            raise TypeError(f"{key} has no parameter {attr!r}")
        setattr(algo, attr, value)
    return algo
