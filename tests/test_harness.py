"""Corpus graphs, the independent-set oracle, and round-trip verification."""

from __future__ import annotations

import importlib.util
import re
from itertools import combinations

import pytest

from gencaching import (
    BudgetExceeded,
    CORPUS,
    MODEL_SIMPLE,
    MODELS,
    Graph,
    check_properties,
    extract_is,
    generate,
    max_independent_set,
    reports_to_csv,
    reports_to_table,
    round_trip,
    run_corpus,
    Service,
    savings,
)
from gencaching import harness, solver
from gencaching.harness import MAX_ORACLE_VERTICES, REPORT_COLUMNS
from gencaching.solver import _slot_plan, _solve_dense, _solve_packed
from reference_dp import solve_dict

EXPECTED_MIS = {
    "K2": (1, {0}),
    "P3": (2, {0, 2}),
    "K3": (1, {0}),
    "P4": (2, {0, 2}),
    "K1_3": (3, {1, 2, 3}),
    "C4": (2, {0, 2}),
    "C5": (2, {0, 2}),
    "K4": (1, {0}),
}


def test_corpus_contents():
    assert list(CORPUS) == ["K2", "P3", "K3", "P4", "K1_3", "C4", "C5", "K4"]


@pytest.mark.parametrize("name", sorted(EXPECTED_MIS))
def test_independent_set_oracle(name):
    k, vertices = max_independent_set(CORPUS[name])
    want_k, want_set = EXPECTED_MIS[name]
    assert k == want_k
    assert vertices == frozenset(want_set)


def test_independent_set_oracle_edge_cases():
    assert max_independent_set(Graph(0, ())) == (0, frozenset())
    assert max_independent_set(Graph(4, ())) == (4, frozenset({0, 1, 2, 3}))
    with pytest.raises(BudgetExceeded):
        max_independent_set(Graph(25, ()))
    n = MAX_ORACLE_VERTICES
    assert max_independent_set(Graph(n, ())) == (n, frozenset(range(n)))


def test_round_trip_refuses_past_the_oracle_guard_before_generating(monkeypatch):
    # P25's default H is 3,676: generating it first ran out of memory under
    # a 2 GB address-space cap, where the oracle refuses at once.
    def never(*args):
        raise AssertionError("generate ran")

    monkeypatch.setattr(harness, "generate", never)
    with pytest.raises(BudgetExceeded, match="25 vertices exceed the oracle guard of 24"):
        round_trip(Graph(25, tuple((v, v + 1) for v in range(24))), "fault")


def test_round_trip_simple_is_exact():
    report = round_trip(CORPUS["K2"], "simple", graph_id="K2")
    assert report.verdict == "pass"
    assert report.optimal == 16
    assert report.k_caching == report.k_oracle == 1
    assert report.H == 1
    assert report.capacity == 3
    assert report.d == 6


def test_round_trip_fault_uses_sandwich_bounds():
    report = round_trip(CORPUS["K3"], "fault", H=1, graph_id="K3")
    assert report.verdict == "pass"
    assert report.k_caching is not None


def test_round_trip_downgrades_to_easy_direction_on_budget():
    report = round_trip(CORPUS["K3"], "fault", H=3, budget=10, graph_id="K3")
    assert report.verdict == "pass-easy-only"
    assert report.k_caching is None
    assert report.k_oracle == 1
    # d = 4*3*3 + 2; the easy-direction service still earns the threshold.
    assert report.d == 38
    assert report.optimal == 37 * 3 * 3 + 1


def test_round_trip_refuses_k4_at_h3_before_any_sweep(monkeypatch):
    # `fault` K4 at H=3 has 31 slots: at the default budget solve_exact
    # refuses from its slot plan, and the row is the easy direction's.
    used = []
    for name in ("_solve_packed", "_solve_dense"):
        monkeypatch.setattr(solver, name, lambda *args, name=name: used.append(name))
    report = round_trip(CORPUS["K4"], "fault", 3)
    assert report.verdict == "pass-easy-only"
    assert report.k_caching is None and report.k_oracle == 1
    assert used == []


def test_invalid_easy_direction_service_is_a_failed_row(monkeypatch):
    def edge_gap_zero(output, selected):
        # Gap 0 of every edge page: the edges' pages overfill the cache.
        roles = output.page_roles
        return Service({pid: ((0, 0),) for pid, role in roles.items() if role.edge is not None})

    monkeypatch.setattr(harness, "construct_service_from_is", edge_gap_zero)
    report = round_trip(CORPUS["K2"], "fault", 1, budget=1, graph_id="K2")
    assert report.verdict == "fail-easy-only"
    assert report.optimal is None and report.k_caching is None
    row = reports_to_csv([report]).splitlines()[1].split(",")
    assert (row[5], row[8]) == ("-", "fail-easy-only")


def test_run_corpus_simple_all_pass():
    with pytest.raises(TypeError):
        run_corpus(["simple"], 1)  # H is keyword-only
    reports = run_corpus(["simple"])
    assert [r.graph_id for r in reports] == list(CORPUS)
    assert all(r.verdict == "pass" for r in reports)
    optima = {r.graph_id: r.optimal for r in reports}
    assert optima == {
        "K2": 16,
        "P3": 74,
        "K3": 157,
        "P4": 197,
        "K1_3": 198,
        "C4": 342,
        "C5": 632,
        "K4": 751,
    }
    # `simple` takes any valid H and uses 1.
    with_h = run_corpus(["simple"], H=2)
    assert [(r.H, r.optimal, r.verdict) for r in with_h] == [(1, r.optimal, r.verdict) for r in reports]


def test_reports_to_csv_and_table():
    reports = [round_trip(CORPUS["K2"], "simple", graph_id="K2")]
    csv = reports_to_csv(reports)
    lines = csv.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "K2"
    assert cells[8] == "pass"
    assert re.fullmatch(r"\d+\.\d{3}", cells[9])

    table = reports_to_table(reports)
    assert table.splitlines()[0].split() == list(REPORT_COLUMNS)


def test_reports_to_csv_empty():
    assert reports_to_csv([]) == ",".join(REPORT_COLUMNS) + "\n"


def test_easy_only_row_prints_dash_for_k():
    report = round_trip(CORPUS["P3"], "bit", H=2, budget=10, graph_id="P3")
    row = reports_to_csv([report]).splitlines()[1].split(",")
    assert row[6] == "-"
    assert row[8] == "pass-easy-only"


def test_reports_carry_the_excess_over_the_encoded_threshold():
    # K3 fault at H=1 is the corpus's smallest case whose optimum beats the
    # independent set's threshold.
    fault = round_trip(CORPUS["K3"], "fault", H=1, graph_id="K3")
    assert fault.excess == fault.optimal - generate(CORPUS["K3"], "fault", 1).threshold(1) == 1
    simple = round_trip(CORPUS["K3"], "simple", graph_id="K3")
    assert simple.excess == 0
    easy = round_trip(CORPUS["P3"], "bit", H=2, budget=10, graph_id="P3")
    assert easy.excess is None
    lines = reports_to_csv([fault, simple, easy]).splitlines()
    assert lines[0].split(",")[-1] == "excess"
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "0", "-"]


# --- every small labelled graph ----------------------------------------------


def labelled_graphs(max_n: int):
    """Every labelled graph on 1..max_n vertices, isolated vertices included."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))


@pytest.mark.parametrize("model", MODELS)
def test_every_small_labelled_graph_round_trips(model):
    """The 75 graphs with n <= 4 at H=1: checks (a)-(f), the sandwich bounds,
    `simple` exactness, and the reference dict DP, the packed sweep and the
    dense sweep return equal results."""
    dense = importlib.util.find_spec("numpy") is not None
    for graph in labelled_graphs(4):
        out = generate(graph, model, 1)
        inst = out.instance
        assert check_properties(out).all_ok, graph
        k_oracle, _ = max_independent_set(graph)
        plan = _slot_plan(inst)
        result = solve_dict(inst, plan)
        best = result.optimal_savings
        assert savings(inst, result.witness) == best  # raises on an invalid witness
        if model == MODEL_SIMPLE:
            picked = extract_is(out, result.witness)
            assert best == out.threshold(k_oracle) and len(picked) == k_oracle, graph
            assert not any(u in picked and v in picked for u, v in graph.edges), graph
        else:
            assert out.threshold(k_oracle) <= best <= out.threshold(0) + graph.n, graph
        assert _solve_packed(inst, plan) == result, graph
        if dense:
            assert _solve_dense(inst, plan) == result, graph
