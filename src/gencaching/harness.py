"""End-to-end round trips: graph -> instance -> exact solve -> vertex set.

`round_trip` generates the requested reduction, checks the structural
properties, solves exactly, and inverts the threshold to recover an
independent-set size which is compared against a brute-force maximum
independent set.  K_caching = K_oracle is asserted for the simple model
(where the inversion is exact for every H >= 1); fault/bit runs assert the
sandwich threshold(K_oracle) <= optimal <= threshold(0) + n instead.  Every
solved row reports its excess, optimal - threshold(K_oracle): the saving an
optimum finds beyond the one the independent set encodes.  The exact solve
runs at `DEFAULT_STATE_BUDGET` by default.  Where the instance's 2^k slot
masks pass the budget, `solve_exact` refuses from its slot plan before any
sweep, and the run downgrades to constructing and validating the
easy-direction service (verdict suffix `-easy-only`); an invalid service
makes a `fail-easy-only` row with no savings (`optimal` None).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import InvalidServiceError, savings, validate_service
from .properties import check_properties, construct_service_from_is, extract_is
from .reductions import Graph, MODEL_SIMPLE, generate
from .solver import DEFAULT_STATE_BUDGET, BudgetExceeded, solve_exact

MAX_ORACLE_VERTICES = 24

CORPUS: dict[str, Graph] = {
    "K2": Graph(2, ((0, 1),)),
    "P3": Graph(3, ((0, 1), (1, 2))),
    "K3": Graph(3, ((0, 1), (0, 2), (1, 2))),
    "P4": Graph(4, ((0, 1), (1, 2), (2, 3))),
    "K1_3": Graph(4, ((0, 1), (0, 2), (0, 3))),
    "C4": Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "C5": Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "K4": Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}


def max_independent_set(graph: Graph) -> tuple[int, frozenset[int]]:
    """Exhaustive maximum independent set; ties go to the lexicographically
    smallest set.  Refuses graphs with more than MAX_ORACLE_VERTICES vertices."""
    n = graph.n
    if n > MAX_ORACLE_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceed the oracle guard of {MAX_ORACLE_VERTICES}")
    neighbor = [0] * n
    for u, v in graph.edges:
        neighbor[u] |= 1 << v
        neighbor[v] |= 1 << u
    best_size = -1
    best: tuple[int, ...] = ()

    def grow(candidates: int, picked: list[int]) -> None:
        nonlocal best_size, best
        if len(picked) + candidates.bit_count() <= best_size:
            return  # cannot strictly beat; earlier ties are lexicographically smaller
        if not candidates:
            if len(picked) > best_size:
                best_size = len(picked)
                best = tuple(picked)
            return
        v = (candidates & -candidates).bit_length() - 1
        picked.append(v)
        grow(candidates & ~neighbor[v] & ~(1 << v), picked)
        picked.pop()
        grow(candidates & ~(1 << v), picked)

    grow((1 << n) - 1, [])
    return max(best_size, 0), frozenset(best)


@dataclass(frozen=True)
class RoundTripReport:
    graph_id: str
    model: str
    H: int
    capacity: int
    d: int
    optimal: int | None
    k_caching: int | None
    k_oracle: int
    verdict: str
    seconds: float

    @property
    def excess(self) -> int | None:
        """optimal - threshold(k_oracle); threshold(k) is threshold(0) + k in every model."""
        return None if self.k_caching is None else self.k_caching - self.k_oracle


def round_trip(
    graph: Graph,
    model: str,
    H: int | None = None,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    graph_id: str = "",
) -> RoundTripReport:
    started = time.perf_counter()
    # The oracle's guard refuses in O(1), before generate can run out of memory.
    k_oracle, max_set = max_independent_set(graph)
    output = generate(graph, model, H)
    properties_ok = check_properties(output).all_ok
    base = output.threshold(0)
    try:
        result = solve_exact(output.instance, budget=budget)
    except BudgetExceeded:
        service = construct_service_from_is(output, max_set)
        k_caching = None
        try:
            optimal = savings(output.instance, service)
        except InvalidServiceError:
            optimal = None
        ok = properties_ok and optimal == output.threshold(k_oracle)
        verdict = "pass-easy-only" if ok else "fail-easy-only"
    else:
        optimal = result.optimal_savings
        k_caching = optimal - base
        ok = properties_ok and validate_service(output.instance, result.witness).ok
        if model == MODEL_SIMPLE:
            extracted = extract_is(output, result.witness)
            independent = not any(
                u in extracted and v in extracted for u, v in graph.edges
            )
            ok = ok and k_caching == k_oracle and independent and len(extracted) == k_caching
        else:
            ok = ok and output.threshold(k_oracle) <= optimal <= base + graph.n
        verdict = "pass" if ok else "fail"
    return RoundTripReport(
        graph_id=graph_id,
        model=model,
        H=output.H,
        capacity=output.instance.capacity,
        d=output.d,
        optimal=optimal,
        k_caching=k_caching,
        k_oracle=k_oracle,
        verdict=verdict,
        seconds=time.perf_counter() - started,
    )


def run_corpus(
    models: Sequence[str] = (MODEL_SIMPLE,),
    *,
    H: int | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> list[RoundTripReport]:
    """round_trip over every (graph, model) pair, in corpus order."""
    reports = []
    for name, graph in CORPUS.items():
        for model in models:
            reports.append(round_trip(graph, model, H, budget=budget, graph_id=name))
    return reports


REPORT_COLUMNS = (
    "graph",
    "model",
    "H",
    "C",
    "d",
    "optimal",
    "K_caching",
    "K_oracle",
    "verdict",
    "seconds",
    "excess",
)


def _report_row(report: RoundTripReport) -> list[str]:
    return [
        report.graph_id,
        report.model,
        str(report.H),
        str(report.capacity),
        str(report.d),
        "-" if report.optimal is None else str(report.optimal),
        "-" if report.k_caching is None else str(report.k_caching),
        str(report.k_oracle),
        report.verdict,
        f"{report.seconds:.3f}",
        "-" if report.excess is None else str(report.excess),
    ]


def reports_to_csv(reports: Iterable[RoundTripReport]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for report in reports:
        lines.append(",".join(_report_row(report)))
    return "\n".join(lines) + "\n"


def reports_to_table(reports: Iterable[RoundTripReport]) -> str:
    rows = [list(REPORT_COLUMNS)] + [_report_row(r) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
