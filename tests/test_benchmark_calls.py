"""The package calls the benchmark makes, run through the benchmark's own code.

`perfbench/child.py` runs each case from public calls only, and the benchmark
is pinned: a rename or removal in the package would surface there as failed
cases, not as failed tests.  These tests run a few of its cases in this
process, untraced, with the benchmark files loaded by path and left as they are.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

import gencaching

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    """The module `perfbench/<name>.py`, executed from its source (no bytecode is written)."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


child = _load("child")
workloads = _load("workloads")


def _failures(items) -> list[dict]:
    """What `child.attempt` records over (item, body, *inputs) rows."""
    failures: list[dict] = []
    tracer = child.Untraced()
    for item, body, *inputs in items:
        child.attempt(gencaching, tracer, failures, item, body, *inputs)
    return failures


@pytest.mark.parametrize(
    "workload, body, case_ids",
    [
        (
            "roundtrip-grid",
            "run_roundtrip",
            [
                "roundtrip:K2:simple",
                "roundtrip:K3:fault:H1:forced",
                "roundtrip:C5:fault:H2",
                "roundtrip:C4:bit:H2",
            ],
        ),
        ("easy-bigH", "run_easy", ["easy:K2:fault", "easy:K2:bit", "easy:P3:fault"]),
    ],
)
def test_graph_cases_pass(workload, body, case_ids):
    cases = {case["id"]: case for case in workloads.WORKLOADS[workload](1)}
    items = [
        (cid, getattr(child, body), cases[cid], child.build_graph(gencaching, cases[cid]["graph"]))
        for cid in case_ids
    ]
    assert _failures(items) == []


def test_crosscheck_instances_pass():
    specs = [spec for case in workloads.crosscheck_tiny(1) for spec in case["instances"]][:20]
    items = [
        (f"crosscheck#{i}", child.run_crosscheck_one, child.build_instance(gencaching, spec))
        for i, spec in enumerate(specs)
    ]
    assert len(items) == 20
    assert _failures(items) == []
