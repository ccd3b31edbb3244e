"""Greedy shrinking and the replayable artifact format."""

import json

import numpy as np
import pytest

from repro.fuzz.generators import EditBatch, FuzzCase, generate_case
from repro.fuzz.shrink import (
    ARTIFACT_FORMAT,
    load_artifact,
    replay_artifact,
    save_artifact,
    shrink_case,
)


def _bulky_case() -> FuzzCase:
    # A clique, a star, duplicate rows, spare isolated ids, and edits —
    # everything the shrinker is supposed to strip away.
    clique = [(i, j) for i in range(10, 16) for j in range(i + 1, 16)]
    star = [(20, i) for i in range(21, 30)]
    edges = clique + star + [(0, 1), (0, 1), (1, 0)]
    edits = [
        EditBatch(insert=[(2, 3), (4, 5)], delete=[(20, 21)]),
        EditBatch(insert=[(6, 7)]),
    ]
    return FuzzCase(num_vertices=40, edges=edges, edits=edits, seed=1, index=2)


def test_shrinks_to_single_triggering_edge():
    # Failure fires iff edge (0, 1) is present in the built graph.
    def still_fails(case: FuzzCase) -> bool:
        g = case.graph()
        return 1 in g.neighbors(0).tolist() if g.num_vertices > 1 else False

    shrunk = shrink_case(_bulky_case(), still_fails)
    assert len(shrunk.edges) == 1
    assert sorted(shrunk.edges[0].tolist()) == [0, 1]
    assert shrunk.num_vertices == 2
    assert shrunk.edits == []
    # Provenance survives shrinking.
    assert (shrunk.seed, shrunk.index) == (1, 2)


def test_edge_count_threshold_failure_shrinks_to_threshold():
    def still_fails(case: FuzzCase) -> bool:
        return case.graph().num_edges >= 5

    shrunk = shrink_case(_bulky_case(), still_fails)
    assert shrunk.graph().num_edges == 5


def test_flaky_failure_returns_case_unshrunk():
    case = _bulky_case()
    shrunk = shrink_case(case, lambda c: False)
    assert shrunk is case


def test_crashing_predicate_rejects_that_shrink_step():
    calls = {"n": 0}

    def touchy(case: FuzzCase) -> bool:
        calls["n"] += 1
        if calls["n"] == 1:
            return True  # original case fails
        raise RuntimeError("predicate blew up")

    case = _bulky_case()
    shrunk = shrink_case(case, touchy)
    # Every candidate was rejected, so nothing changed.
    assert np.array_equal(shrunk.edges, case.edges)


def test_predicate_budget_is_respected():
    calls = {"n": 0}

    def counting(case: FuzzCase) -> bool:
        calls["n"] += 1
        return True

    shrink_case(_bulky_case(), counting, max_predicate_calls=25)
    assert calls["n"] <= 25


def test_artifact_roundtrip(tmp_path):
    from repro.fuzz.differential import Failure

    case = generate_case(3, 7)
    failure = Failure("matmul", "mismatch", "got 1, expected 0")
    path = save_artifact(case, failure, tmp_path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == ARTIFACT_FORMAT
    assert "repro fuzz --replay" in payload["replay"]

    loaded, record = load_artifact(path)
    assert loaded.num_vertices == case.num_vertices
    assert np.array_equal(loaded.edges, case.edges)
    assert record["path"] == "matmul"
    assert record["kind"] == "mismatch"


def test_load_artifact_rejects_unknown_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "not-a-fuzz-artifact", "case": {}}))
    with pytest.raises(ValueError, match="unknown artifact format"):
        load_artifact(bad)


def test_replay_runs_recorded_path_and_passes_when_fixed(tmp_path):
    from repro.fuzz.differential import Failure

    case = generate_case(3, 7)
    path = save_artifact(case, Failure("merge", "mismatch", "stale"), tmp_path)
    report = replay_artifact(path)
    # The recorded failure came from a (since fixed) bug: replaying the
    # recorded path on a correct tree passes and runs only that path.
    assert report.ok
    assert report.paths_run == ["merge"]


def test_replay_skips_with_warning_when_recorded_path_is_gone(tmp_path):
    # An artifact whose recorded path no longer exists (a retired backend
    # such as bitmap-compiled) must not crash — or silently re-run
    # unrelated paths.  It skips, says why, and the report carries the
    # reason.
    from repro.fuzz.differential import Failure

    case = generate_case(3, 8)
    for recorded in ("retired-backend", "bitmap-compiled"):
        path = save_artifact(
            case, Failure(recorded, "mismatch", "gone"), tmp_path
        )
        with pytest.warns(RuntimeWarning, match=recorded):
            report = replay_artifact(path)
        assert report.skipped is not None
        assert "not runnable on this host" in report.skipped
        assert report.ok  # a skip is not a reproduced failure
        assert report.paths_run == []
        assert report.failures == []


def test_replay_explicit_paths_override_the_recorded_path(tmp_path):
    from repro.fuzz.differential import Failure

    case = generate_case(3, 8)
    path = save_artifact(
        case, Failure("retired-backend", "mismatch", "gone"), tmp_path
    )
    report = replay_artifact(path, paths=["merge", "bitmap"])
    assert set(report.paths_run) == {"merge", "bitmap"}
    assert report.skipped is None
