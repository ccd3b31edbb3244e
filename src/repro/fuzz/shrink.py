"""Greedy shrinking of failing fuzz cases and replayable artifacts.

A fuzz failure on a 48-vertex composite graph is a poor bug report; the
same failure on a 4-vertex, 3-edge graph is a unit test.  The shrinker
takes a failing case and a predicate ("does this still fail on the same
path?") and greedily minimizes, in order of leverage:

1. drop the edit sequence entirely, then whole batches, then single edits;
2. drop edge rows in exponentially shrinking chunks (delta-debugging
   style: halves, quarters, ..., single rows);
3. compact vertex ids — remove unused ids and renumber, so the reproducer
   ends at the smallest ``num_vertices`` that still fails.

Every accepted step re-runs the predicate, so the output is always a
still-failing case.  The result serializes to a JSON artifact carrying
the seed, edge pairs, edit sequence, and the failing path — enough to
replay the exact failure with ``repro fuzz --replay``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.fuzz.generators import EditBatch, FuzzCase

__all__ = [
    "shrink_case",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
    "ARTIFACT_FORMAT",
]

ARTIFACT_FORMAT = "repro-fuzz-v1"

#: Hard cap on predicate evaluations per shrink — keeps a pathological
#: failure from stalling the whole fuzz run.
MAX_PREDICATE_CALLS = 400


class _Budget:
    def __init__(self, limit: int, predicate):
        self.limit = limit
        self.calls = 0
        self.predicate = predicate

    def fails(self, case: FuzzCase) -> bool:
        if self.calls >= self.limit:
            return False  # budget exhausted: reject further shrinks
        self.calls += 1
        try:
            return bool(self.predicate(case))
        except Exception:  # noqa: BLE001 - a crashing predicate rejects
            return False


def _with(case: FuzzCase, **changes) -> FuzzCase:
    fields = {
        "num_vertices": case.num_vertices,
        "edges": case.edges,
        "edits": case.edits,
        "seed": case.seed,
        "index": case.index,
    }
    fields.update(changes)
    return FuzzCase(**fields)


# --------------------------------------------------------------------- #
# shrink passes
# --------------------------------------------------------------------- #
def _shrink_edits(case: FuzzCase, budget: _Budget) -> FuzzCase:
    if case.edits:
        candidate = _with(case, edits=[])
        if budget.fails(candidate):
            return candidate
    # Drop whole batches.
    i = 0
    while i < len(case.edits):
        candidate = _with(case, edits=case.edits[:i] + case.edits[i + 1 :])
        if budget.fails(candidate):
            case = candidate
        else:
            i += 1
    # Drop single edits inside each surviving batch.
    for i, batch in enumerate(list(case.edits)):
        for attr in ("insert", "delete"):
            rows = getattr(batch, attr)
            j = 0
            while j < len(rows):
                kept = np.delete(rows, j, axis=0)
                new_batch = EditBatch(
                    insert=kept if attr == "insert" else batch.insert,
                    delete=kept if attr == "delete" else batch.delete,
                )
                edits = list(case.edits)
                edits[i] = new_batch
                candidate = _with(case, edits=edits)
                if budget.fails(candidate):
                    case = candidate
                    batch = new_batch
                    rows = kept
                else:
                    j += 1
    return case


def _shrink_edges(case: FuzzCase, budget: _Budget) -> FuzzCase:
    """Delta-debugging row removal: big chunks first, then single rows."""
    chunk = max(1, len(case.edges) // 2)
    while chunk >= 1:
        i = 0
        while i < len(case.edges):
            kept = np.concatenate(
                [case.edges[:i], case.edges[i + chunk :]]
            ).reshape(-1, 2)
            candidate = _with(case, edges=kept)
            if budget.fails(candidate):
                case = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk //= 2
    return case


def _used_vertices(case: FuzzCase) -> np.ndarray:
    parts = [case.edges.ravel()]
    for batch in case.edits:
        parts.append(batch.insert.ravel())
        parts.append(batch.delete.ravel())
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return np.unique(flat)


def _compact_vertices(case: FuzzCase, budget: _Budget) -> FuzzCase:
    """Renumber used vertices to [0, k) and drop the unused tail."""
    used = _used_vertices(case)
    k = max(2, len(used))
    if len(used) and k < case.num_vertices:
        remap = np.full(case.num_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used), dtype=np.int64)

        def apply(rows: np.ndarray) -> np.ndarray:
            return remap[rows] if len(rows) else rows

        candidate = _with(
            case,
            num_vertices=k,
            edges=apply(case.edges),
            edits=[
                EditBatch(insert=apply(b.insert), delete=apply(b.delete))
                for b in case.edits
            ],
        )
        if budget.fails(candidate):
            return candidate
    # Even without renumbering, try trimming trailing isolated ids.
    hi = int(used.max()) + 1 if len(used) else 2
    hi = max(hi, 2)
    if hi < case.num_vertices:
        candidate = _with(case, num_vertices=hi)
        if budget.fails(candidate):
            return candidate
    return case


def shrink_case(
    case: FuzzCase,
    still_fails,
    max_predicate_calls: int = MAX_PREDICATE_CALLS,
) -> FuzzCase:
    """Greedily minimize ``case`` while ``still_fails(case)`` holds.

    ``still_fails`` must return True for the input case; if it does not
    (a flaky failure), the original case is returned unshrunk.  Passes
    repeat until a fixpoint or the predicate-call budget is exhausted.
    """
    budget = _Budget(max_predicate_calls, still_fails)
    if not budget.fails(case):
        return case
    while True:
        before = (len(case.edges), case.num_edits, case.num_vertices)
        case = _shrink_edits(case, budget)
        case = _shrink_edges(case, budget)
        case = _compact_vertices(case, budget)
        after = (len(case.edges), case.num_edits, case.num_vertices)
        if after == before or budget.calls >= budget.limit:
            return case


# --------------------------------------------------------------------- #
# artifacts
# --------------------------------------------------------------------- #
def save_artifact(case: FuzzCase, failure, directory: str | os.PathLike) -> str:
    """Serialize a (shrunk) failing case to a replayable JSON artifact."""
    os.makedirs(directory, exist_ok=True)
    name = (
        f"fuzz-seed{case.seed}-case{case.index}-"
        f"{failure.path.replace('/', '_')}.json"
    )
    path = os.path.join(str(directory), name)
    payload = {
        "format": ARTIFACT_FORMAT,
        "created_unix": int(time.time()),
        "failure": {
            "path": failure.path,
            "kind": failure.kind,
            "detail": failure.detail,
        },
        "case": case.to_dict(),
        "replay": f"repro fuzz --replay {name}",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path


def load_artifact(path: str | os.PathLike) -> tuple[FuzzCase, dict]:
    """Load an artifact; returns ``(case, failure_record)``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: unknown artifact format {payload.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT!r})"
        )
    return FuzzCase.from_dict(payload["case"]), payload.get("failure", {})


def replay_artifact(path: str | os.PathLike, paths=None):
    """Re-run a saved reproducer; returns its :class:`CaseReport`.

    By default only the artifact's recorded failing path runs.  If that
    path is no longer registered (say the artifact came from a retired
    backend such as ``gallop-compiled``), the replay is *skipped with a
    warning* (``report.skipped`` carries the reason) rather than either
    crashing with ``KeyError`` or silently re-running every other path,
    neither of which reproduces anything.  Pass ``paths`` to override the
    path selection explicitly.
    """
    import warnings

    from repro.fuzz import differential

    case, failure = load_artifact(path)
    if paths is None:
        recorded = failure.get("path")
        if recorded is not None:
            if recorded not in differential.registered_paths():
                reason = (
                    f"recorded path {recorded!r} is not runnable on this "
                    f"host (no such registered path); skipping replay "
                    f"of {path}"
                )
                warnings.warn(reason, RuntimeWarning, stacklevel=2)
                return differential.CaseReport(case=case, skipped=reason)
            paths = [recorded]
    return differential.run_case(case, paths=paths)
