"""Smoke test of the benchmark itself, on a reduced case list.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def reduced_cases() -> list[dict]:
    """A few small cases of every kind: generate, solve, forced, easy, crosscheck."""
    keep = {"roundtrip:K2:simple", "roundtrip:P3:bit:H1", "roundtrip:K3:fault:H1:forced"}
    cases = [c for c in workloads.roundtrip_grid(SEED) if c["id"] in keep]
    cases.append(workloads.easy_big_h(SEED)[0])
    batch = workloads.crosscheck_tiny(SEED)[0]
    cases.append(dict(batch, instances=batch["instances"][:6]))
    return cases


def grid_case(case_id: str) -> dict:
    return next(c for c in workloads.roundtrip_grid(SEED) if c["id"] == case_id)


def test_case_lists_are_seeded():
    for make in workloads.WORKLOADS.values():
        assert make(SEED) == make(SEED)
    assert workloads.crosscheck_tiny(1) != workloads.crosscheck_tiny(2)
    assert workloads.easy_big_h(1) != workloads.easy_big_h(2)


def test_end_to_end_metric_names_and_units():
    cases = reduced_cases()
    result, record = run.run("smoke", SEED, 0, False, cases=cases)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 + 6
    assert record["seed"] == SEED and record["cases"] == [c["id"] for c in cases]
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_per_layer_metric_names_and_span_nesting():
    cases = reduced_cases()
    result, record = run.run("smoke", SEED, 0, True, cases=cases)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["solver.solve_exact.states"]["value"] > 0
    assert metrics["solver.solve_brute_force.subsets"]["value"] > 0

    spans = record["spans"]
    by_key = {(s["case"], s["id"]): s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert sorted(s["case"] for s in roots) == sorted(c["id"] for c in cases)
    assert all(s["name"] == "case" for s in roots)
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_key[(s["case"], s["parent"])]
        assert parent["name"] == "case"
        assert s["name"] in run.LAYER_FNS
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_memory_cap_makes_a_counted_failure():
    # Under a 64 MiB address-space cap a small case still runs, while C4
    # `fault` at H=2 (about 120 MB resident) cannot finish its solve.
    assert run.run_case(grid_case("roundtrip:K2:simple"), trace=False, as_mb=64)["failures"] == []
    result = run.run_case(grid_case("roundtrip:C4:fault:H2"), trace=False, as_mb=64)
    assert result["attempted"] == 1
    assert [f["kind"] for f in result["failures"]] in (["memory"], ["killed"])
    summary = run.summarize([[result]], None, 0.0)
    assert summary["correct"] and summary["failed"] == 1
    assert summary["metrics"]["verified_ratio"]["value"] == 0.0


def test_timeout_makes_a_counted_failure():
    case = grid_case("roundtrip:C4:bit:H2")
    result = run.run_case(case, trace=False, timeout=1.0)
    assert [f["kind"] for f in result["failures"]] == ["timeout"]
    assert result["seconds"] >= 1.0


def test_wrong_answer_is_failed_and_incorrect():
    failures: list[dict] = []

    def wrong(gc, tr):
        child.require(False, "planted mismatch")

    package = SimpleNamespace(BudgetExceeded=RuntimeError)
    child.attempt(package, child.Untraced(), failures, "planted", wrong)
    assert failures == [{"item": "planted", "kind": child.WRONG, "detail": "planted mismatch"}]
    result = {"id": "planted", "seconds": 1.0, "attempted": 2,
              "failures": failures, "setup_s": 0.1, "maxrss_kb": 1024}
    summary = run.summarize([[result]], None, 0.0)
    assert not summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["metrics"]["verified_ratio"]["value"] == 0.5
