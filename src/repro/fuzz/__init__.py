"""Differential fuzzing of every registered execution path.

The paper's correctness claim is that every algorithm/backend computes the
*same* all-edge common neighbor counts.  This package turns that claim
into a permanent regression net:

* :mod:`repro.fuzz.generators` — a seeded graph grammar producing the
  adversarial shapes (stars, cliques, bipartite blocks, paths, isolated
  vertices, power-law tails, duplicate-dense edge lists) plus random edit
  sequences for the dynamic path;
* :mod:`repro.fuzz.differential` — a runner that executes one case
  through every registered execution path (merge / bitmap / matmul /
  gallop / hybrid cold+warm plan cache / fork+spawn parallel pools /
  dynamic edit replay) and cross-checks counts bit-exactly, plus
  OpCounts and symmetry invariants, against
  :func:`repro.core.verify.brute_force_counts`;
* :mod:`repro.fuzz.shrink` — greedy minimization of failing cases to a
  small reproducer, serialized as a replayable JSON artifact.

Entry points: ``repro fuzz --cases N --seed S`` (CLI) and
:func:`run_fuzz` (library).
"""

from repro.fuzz.differential import (
    CaseReport,
    ExecutionPath,
    Failure,
    FuzzReport,
    InvariantViolation,
    registered_paths,
    register_path,
    run_case,
    run_fuzz,
    unregister_path,
)
from repro.fuzz.generators import EditBatch, FuzzCase, generate_case
from repro.fuzz.shrink import (
    load_artifact,
    replay_artifact,
    save_artifact,
    shrink_case,
)

__all__ = [
    "CaseReport",
    "EditBatch",
    "ExecutionPath",
    "Failure",
    "FuzzCase",
    "FuzzReport",
    "InvariantViolation",
    "generate_case",
    "load_artifact",
    "register_path",
    "registered_paths",
    "replay_artifact",
    "run_case",
    "run_fuzz",
    "save_artifact",
    "shrink_case",
    "unregister_path",
]
