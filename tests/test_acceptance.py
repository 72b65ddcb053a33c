"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Everything here is deterministic; the only randomness is the fixed-seed
instance generator of criterion 2 (reused by criterion 6).
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from functools import lru_cache

from gencaching import (
    CORPUS,
    FORCED,
    Graph,
    construct_service_from_is,
    check_properties,
    diagnostics,
    diagnostics_to_csv,
    export_interval_packing,
    gap_table,
    instance_to_text,
    make_instance,
    max_independent_set,
    optional_to_forced,
    packing_to_text,
    reduce_bit_optional,
    reduce_fault_optional,
    reduce_simple,
    reduction_to_text,
    reports_to_csv,
    run_corpus,
    savings,
    service_to_text,
    solve_brute_force,
    solve_exact,
    validate_service,
)
from mutations import MUTATIONS, base_output
from randgen import gap_pairs, random_tiny_instance

SIMPLE_SET = ("K2", "P3", "K3", "P4", "K1_3", "C4")
SIMPLE_EXPECTED = {"K2": 16, "P3": 74, "K3": 157, "P4": 197, "K1_3": 198, "C4": 342}
GRID = [(name, None) for name, g in CORPUS.items() if g.n <= 3] + [
    (name, H) for name in CORPUS for H in (1, 2, 3)
]
RANDOM_SEED = 20260814


def _finish(num: int, name: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else "FAIL"
    detail = f" [{'; '.join(problems)}]" if problems else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{detail}")
    assert not problems, f"criterion {num} ({name}): {'; '.join(problems)}"


@lru_cache(maxsize=None)
def _mis(name: str):
    return max_independent_set(CORPUS[name])


@lru_cache(maxsize=None)
def _simple_solved(name: str):
    out = reduce_simple(CORPUS[name])
    return out, solve_exact(out.instance)


@lru_cache(maxsize=None)
def _grid_output(model: str, name: str, H: int | None):
    build = reduce_fault_optional if model == "fault" else reduce_bit_optional
    return build(CORPUS[name], H)


@lru_cache(maxsize=None)
def _easy_service(model: str, name: str, H: int | None):
    output = _grid_output(model, name, H)
    return construct_service_from_is(output, _mis(name)[1])


@lru_cache(maxsize=None)
def _random_instances():
    rng = random.Random(RANDOM_SEED)
    optional = tuple(random_tiny_instance(rng) for _ in range(120))
    forced = tuple(random_tiny_instance(rng, FORCED) for _ in range(120))
    return optional, forced


def _prefix_instance(instance, length: int):
    pages = [(p.id, p.size, p.cost) for p in instance.pages.values()]
    reqs = [(r.page, None) for r in instance.requests[:length]]
    return make_instance(instance.capacity, pages, reqs, (), instance.policy, instance.cost_scale)


def test_criterion_1_simple_reduction_equivalence():
    problems: list[str] = []
    started = time.perf_counter()
    try:
        for name in SIMPLE_SET:
            out, result = _simple_solved(name)
            n, m, d = out.graph.n, out.graph.m, out.d
            k_oracle = _mis(name)[0]
            want = (d - 1) * m * (n + 1) + k_oracle
            if result.optimal_savings != want:
                problems.append(f"{name}: solver {result.optimal_savings} != {want}")
            if result.optimal_savings != SIMPLE_EXPECTED[name]:
                problems.append(f"{name}: expected literal {SIMPLE_EXPECTED[name]}")
            if not validate_service(out.instance, result.witness).ok:
                problems.append(f"{name}: witness invalid")
        # Independent reproduction of the two pinned values.
        k2 = _simple_solved("K2")[0]
        if len(gap_table(k2.instance).starts) > 24:
            problems.append("K2: gap guard unexpectedly blocks brute force")
        elif solve_brute_force(k2.instance).optimal_savings != 16:
            problems.append("K2: brute force disagrees with 16")
        k3 = _simple_solved("K3")[0]
        if len(gap_table(k3.instance).starts) <= 24:
            problems.append("K3: expected the gap guard to apply")
        checked = 0
        for fraction in (6, 4, 3, 2):
            sub = _prefix_instance(k3.instance, len(k3.instance.requests) // fraction)
            if len(gap_table(sub).starts) > 16:
                continue
            if solve_exact(sub).optimal_savings != solve_brute_force(sub).optimal_savings:
                problems.append(f"K3 prefix 1/{fraction}: DP != brute force")
            checked += 1
        if not checked:
            problems.append("K3: no sub-instance small enough to cross-check")
    except Exception as exc:  # surface a verdict line even on a crash
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    if time.perf_counter() - started > 300:
        problems.append("over the 5 minute budget")
    _finish(1, "simple-reduction-equivalence", problems)


def test_criterion_2_solver_oracle_agreement():
    problems: list[str] = []
    started = time.perf_counter()
    try:
        optional, forced = _random_instances()
        for kind, batch in (("optional", optional), ("forced", forced)):
            for idx, inst in enumerate(batch):
                exact = solve_exact(inst)
                brute = solve_brute_force(inst)
                if exact.optimal_savings != brute.optimal_savings:
                    problems.append(
                        f"{kind} #{idx}: {exact.optimal_savings} != {brute.optimal_savings}"
                    )
                    break
                if not validate_service(inst, exact.witness).ok:
                    problems.append(f"{kind} #{idx}: invalid witness")
                    break
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    if time.perf_counter() - started > 120:
        problems.append("over the 2 minute budget")
    _finish(2, "solver-oracle-agreement", problems)


def test_criterion_3_easy_direction_fault():
    problems: list[str] = []
    started = time.perf_counter()
    try:
        for name, H in GRID:
            out = _grid_output("fault", name, H)
            k = _mis(name)[0]
            svc = _easy_service("fault", name, H)
            if not validate_service(out.instance, svc).ok:
                problems.append(f"{name} H={out.H}: service invalid")
                continue
            got = savings(out.instance, svc)
            if got != out.threshold(k):
                problems.append(f"{name} H={out.H}: savings {got} != {out.threshold(k)}")
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    if time.perf_counter() - started > 180:
        problems.append("over the 3 minute budget")
    _finish(3, "easy-direction-fault", problems)


def test_criterion_4_easy_direction_bit():
    problems: list[str] = []
    try:
        for name, H in GRID:
            out = _grid_output("bit", name, H)
            k = _mis(name)[0]
            svc = _easy_service("bit", name, H)
            if not validate_service(out.instance, svc).ok:
                problems.append(f"{name} H={out.H}: service invalid")
                continue
            got = savings(out.instance, svc)
            if got != (out.d - 1) * out.graph.m * out.H + k:
                problems.append(f"{name} H={out.H}: savings {got} != threshold({k})")
        # Per-gap audit: a cached size-2 page crosses each original boundary
        # through 3 gaps costing 2; a size-3 page through 2 gaps costing 3.
        for name, H in GRID:
            fault_counts = Counter(p for p, _ in gap_pairs(_easy_service("fault", name, H)))
            bit = _grid_output("bit", name, H)
            bit_counts = Counter(p for p, _ in gap_pairs(_easy_service("bit", name, H)))
            for pid in set(fault_counts) | set(bit_counts):
                page = bit.instance.pages[pid]
                if page.size == 1:
                    expected = fault_counts[pid]
                elif page.size == 2:
                    expected = 3 * fault_counts[pid]
                else:
                    expected = 2 * fault_counts[pid]
                if bit_counts[pid] != expected or page.cost != page.size:
                    problems.append(f"{name} H={bit.H} {pid}: gap audit failed")
                    break
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(4, "easy-direction-bit", problems)


def test_criterion_5_properties_suite():
    problems: list[str] = []
    try:
        for model in ("fault", "bit"):
            for name, H in GRID:
                report = check_properties(_grid_output(model, name, H))
                if not report.all_ok:
                    bad = sorted(k for k, c in report.checks.items() if not c.ok)
                    problems.append(f"{model} {name} H={H}: failed {bad}")
        for key in sorted(MUTATIONS):
            report = check_properties(MUTATIONS[key](base_output()))
            failed = sorted(k for k, c in report.checks.items() if not c.ok)
            if failed != [key]:
                problems.append(f"mutation {key}: tripped {failed}")
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(5, "properties-suite", problems)


def test_criterion_6_forced_transform():
    problems: list[str] = []
    try:
        optional, _ = _random_instances()
        for idx, inst in enumerate(optional):
            forced = optional_to_forced(inst)
            sizes = [inst.pages[r.page].size for r in inst.requests]
            if forced.capacity != inst.capacity + max(sizes, default=0):
                problems.append(f"random #{idx}: capacity not C+M")
                break
            if len(forced.requests) != 2 * len(inst.requests):
                problems.append(f"random #{idx}: request count not doubled")
                break
            want = solve_exact(inst).optimal_savings
            got = solve_exact(forced).optimal_savings
            if got != want:
                problems.append(f"random #{idx}: forced {got} != optional {want}")
                break
        for name in ("K2", "K3"):
            out, result = _simple_solved(name)
            forced = optional_to_forced(out)
            if forced.capacity != out.instance.capacity + 3:
                problems.append(f"{name}: capacity not C+3")
            got = solve_exact(forced).optimal_savings
            if got != result.optimal_savings:
                problems.append(f"{name}: forced {got} != optional {result.optimal_savings}")
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(6, "forced-transform", problems)


def test_criterion_7_sandwich_fault_h1():
    problems: list[str] = []
    try:
        for name in CORPUS:
            out = _grid_output("fault", name, 1)
            k = _mis(name)[0]
            result = solve_exact(out.instance)
            low, high = out.threshold(k), out.threshold(0) + out.graph.n
            if not low <= result.optimal_savings <= high:
                problems.append(f"{name}: {result.optimal_savings} outside [{low}, {high}]")
            if not validate_service(out.instance, result.witness).ok:
                problems.append(f"{name}: witness invalid")
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(7, "sandwich-fault-h1", problems)


def test_criterion_8_carry_diagnostics():
    problems: list[str] = []

    def check(label, output, service):
        n = output.graph.n
        diag = diagnostics(output, service)
        if sum(diag.delta[1:]) > n:
            problems.append(f"{label}: sum of delta tails {sum(diag.delta[1:])} > {n}")
        for j in range(output.graph.m):
            # Neither terminal block belongs to the summation range: the
            # climb out of the empty initial cache is not "drift".
            total = sum(row[j] for row in diag.gamma_edge[1:])
            if total > 6 * n:
                problems.append(f"{label}: edge {j} gamma total {total} > {6 * n}")
        if any(v > 1 for v in diag.epsilon):
            problems.append(f"{label}: epsilon above 1")

    try:
        for name in SIMPLE_SET:
            out, result = _simple_solved(name)
            check(f"simple {name} witness", out, result.witness)
        for model in ("fault", "bit"):
            for name, H in GRID:
                out = _grid_output(model, name, H)
                check(f"{model} {name} H={out.H}", out, _easy_service(model, name, H))
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(8, "carry-diagnostics", problems)


def test_criterion_9_determinism():
    problems: list[str] = []
    try:
        texts = []
        for _ in range(2):
            wedge = reduce_fault_optional(Graph(3, ((0, 2), (1, 2))), H=2)
            texts.append(
                (
                    reduction_to_text(wedge),
                    reduction_to_text(reduce_bit_optional(CORPUS["K2"], H=2)),
                    reduction_to_text(reduce_simple(CORPUS["K3"])),
                    instance_to_text(optional_to_forced(reduce_simple(CORPUS["K2"]))),
                    service_to_text(construct_service_from_is(wedge, frozenset({0, 1}))),
                    diagnostics_to_csv(
                        diagnostics(wedge, construct_service_from_is(wedge, frozenset({0, 1})))
                    ),
                    packing_to_text(export_interval_packing(wedge.instance)),
                )
            )
        if texts[0] != texts[1]:
            problems.append("regenerated artifacts differ")
        runs = []
        for _ in range(2):
            reports = run_corpus(["simple"])
            runs.append(reports_to_csv(dataclasses.replace(r, seconds=0.0) for r in reports))
        if runs[0] != runs[1]:
            problems.append("corpus reports differ beyond timing")
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")
    _finish(9, "determinism", problems)
