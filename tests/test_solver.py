"""Exact solver vs brute-force oracle, budgets, interval-packing export."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import random
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencaching import (
    CORPUS,
    DEFAULT_STATE_BUDGET,
    BudgetExceeded,
    FORCED,
    IntervalPackingInstance,
    OPTIONAL,
    Service,
    UnsupportedPolicyError,
    export_interval_packing,
    gap_table,
    generate,
    instance_from_text,
    instance_to_text,
    make_instance,
    optional_to_forced,
    packing_to_text,
    reduce_bit_optional,
    request_positions,
    savings,
    solve_brute_force,
    solve_exact,
    validate_service,
)
from gencaching import core, solver
from gencaching.solver import (
    NUMPY_MIN_CELLS,
    _feasible_subsets,
    _slot_plan,
    _solve_dense,
    _solve_packed,
)
from randgen import gap_pairs, gap_rows, random_tiny_instance
from reference_dp import solve_dict


def bare(capacity, pages, reqs, policy=OPTIONAL):
    return make_instance(capacity, pages, [(p, None) for p in reqs], (), policy)


# --- small hand-solved instances ------------------------------------------


def test_repeated_page_saves_its_cost():
    inst = bare(2, [("p", 2, 5)], ["p", "p"])
    assert solve_exact(inst).optimal_savings == 5


def test_interleaved_pair_needs_double_capacity():
    pages = [("p", 2, 1), ("q", 2, 1)]
    tight = bare(2, pages, ["p", "q", "p", "q"])
    roomy = bare(4, pages, ["p", "q", "p", "q"])
    assert solve_exact(tight).optimal_savings == 1
    assert solve_exact(roomy).optimal_savings == 2
    assert solve_brute_force(tight).optimal_savings == 1
    assert solve_brute_force(roomy).optimal_savings == 2


def test_no_gaps_means_no_savings():
    inst = bare(3, [("p", 1, 1), ("q", 1, 1)], ["p", "q"])
    result = solve_exact(inst)
    assert result.optimal_savings == 0
    assert result.witness == Service.of([])


def test_costs_steer_the_choice():
    # Only one of the two overlapping gaps fits; the dearer page wins.
    inst = bare(2, [("p", 2, 1), ("q", 2, 3)], ["p", "q", "p", "q"])
    result = solve_exact(inst)
    assert result.optimal_savings == 3
    assert result.witness == Service.of([("q", 0)])


def test_forced_momentary_fit_limits_savings():
    # Keeping p across q's request would leave no room to load q at all.
    pages = [("p", 2, 1), ("q", 2, 1)]
    optional = bare(3, pages, ["p", "q", "p"])
    forced = bare(3, pages, ["p", "q", "p"], policy=FORCED)
    assert solve_exact(optional).optimal_savings == 1
    assert solve_exact(forced).optimal_savings == 0
    assert solve_brute_force(forced).optimal_savings == 0


# --- guards ---------------------------------------------------------------


def test_exact_budget_exhaustion_raises():
    rng = random.Random(7)
    inst = random_tiny_instance(rng)
    while not gap_table(inst).starts:
        inst = random_tiny_instance(rng)
    with pytest.raises(BudgetExceeded):
        solve_exact(inst, budget=1)


def test_solve_exact_refuses_from_the_slot_plan(monkeypatch):
    # Twelve pages requested twice: k = 12, so the 2^12 masks pass a budget
    # of 2^11 and solve_exact refuses before either sweep runs.  So does
    # `fault` K4 at H=3 (k = 31) at the default budget.
    used = []
    for name in ("_solve_packed", "_solve_dense"):
        monkeypatch.setattr(solver, name, lambda *args, name=name: used.append(name))
    k = 12
    inst = bare(k, [(f"p{i}", 1, 1) for i in range(k)], [f"p{i}" for i in range(k)] * 2)
    want = r"^12 slots give 2\^12 masks, past the budget of 2048 states \(16380 live cells\)$"
    with pytest.raises(BudgetExceeded, match=want):
        solve_exact(inst, budget=1 << (k - 1))
    want = rf"^31 slots give 2\^31 masks, past the budget of {DEFAULT_STATE_BUDGET} states"
    with pytest.raises(BudgetExceeded, match=want):
        solve_exact(generate(CORPUS["K4"], "fault", 3).instance)
    assert used == []


def test_brute_force_gap_guard(monkeypatch):
    inst = bare(2, [("p", 1, 1)], ["p"] * 26)
    assert len(gap_table(inst).starts) == 25
    with pytest.raises(BudgetExceeded):
        solve_brute_force(inst)
    # The guard admits exactly BRUTE_FORCE_GAP_GUARD gaps; 2**24 subsets are
    # too slow to run, so the boundary is checked on a lowered guard.
    small = bare(2, [("p", 1, 1)], ["p"] * 6)
    monkeypatch.setattr(solver, "BRUTE_FORCE_GAP_GUARD", 4)
    with pytest.raises(BudgetExceeded):
        solve_brute_force(small)
    monkeypatch.setattr(solver, "BRUTE_FORCE_GAP_GUARD", 5)
    assert solve_brute_force(small).optimal_savings == 5


def test_brute_force_refuses_before_building_its_gaps():
    # Counting the gaps from the request index allocates nothing per gap;
    # building the 9,699 gaps first took about 1.1 MiB.
    inst = generate(CORPUS["K3"], "bit", 8).instance
    request_positions(inst)  # the index is the instance's, built once for every caller
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^9699 gaps "):
            solve_brute_force(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_brute_force_refuses_a_forced_rule_before_writing_it_out():
    # A flush rule has its base's gaps, so they are counted from the rule;
    # writing out one Page per fresh request first took about 0.8 s on
    # `fault` K3 at default_H.
    out = generate(CORPUS["K3"], "fault", 8)
    forced = optional_to_forced(out)
    gaps = out.instance.num_requests - len(request_positions(out.instance))
    request_positions(forced)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{gaps} gaps "):
            solve_brute_force(forced)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# --- randomized agreement ---------------------------------------------------


@pytest.mark.parametrize("policy", [OPTIONAL, FORCED])
def test_exact_matches_brute_force_on_random_instances(policy):
    rng = random.Random(20260814 if policy == OPTIONAL else 41)
    for _ in range(60):
        inst = random_tiny_instance(rng, policy)
        exact = solve_exact(inst)
        brute = solve_brute_force(inst)
        assert exact.optimal_savings == brute.optimal_savings
        for result in (exact, brute):
            assert validate_service(inst, result.witness).ok
            assert savings(inst, result.witness) == result.optimal_savings


def test_witness_is_deterministic():
    rng = random.Random(99)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        assert solve_exact(inst).witness == solve_exact(inst).witness
        assert solve_brute_force(inst).witness == solve_brute_force(inst).witness


def test_exact_solve_keeps_no_layer_archive():
    # Two layers plus shared witness chains fit well under 256 KiB; keeping
    # every layer of this solve would take about 1.5 MiB.
    inst = reduce_bit_optional(CORPUS["C4"], H=1).instance
    tracemalloc.start()
    try:
        solve_exact(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_savings_monotone_in_capacity():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        pages = [(p.id, p.size, p.cost) for p in inst.pages.values()]
        reqs = [(r.page, r.block) for r in inst.requests]
        bigger = make_instance(inst.capacity + 1, pages, reqs, (), inst.policy)
        assert solve_exact(bigger).optimal_savings >= solve_exact(inst).optimal_savings


def test_forced_never_beats_optional():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_tiny_instance(rng, FORCED)
        pages = [(p.id, p.size, p.cost) for p in inst.pages.values()]
        reqs = [(r.page, r.block) for r in inst.requests]
        optional = make_instance(inst.capacity, pages, reqs, (), OPTIONAL)
        assert solve_exact(inst).optimal_savings <= solve_exact(optional).optimal_savings


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_matches_brute_force_hypothesis(seed):
    inst = random_tiny_instance(random.Random(seed))
    assert solve_exact(inst).optimal_savings == solve_brute_force(inst).optimal_savings


@pytest.mark.parametrize("policy", [OPTIONAL, FORCED])
def test_exact_matches_brute_force_at_14_to_18_gaps(policy):
    rng = random.Random(1418 if policy == OPTIONAL else 1419)
    for _ in range(6):
        inst = random_tiny_instance(rng, policy, gaps=range(14, 19), length=(16, 26))
        exact = solve_exact(inst)
        brute = solve_brute_force(inst)
        assert exact.optimal_savings == brute.optimal_savings
        assert savings(inst, brute.witness) == brute.optimal_savings


# --- the brute-force oracle ---------------------------------------------------


def subsets_by_the_validator(inst):
    """(mask, value) of every subset that validate_service accepts."""
    gaps = gap_rows(inst)
    found = set()
    for mask in range(1 << len(gaps)):
        chosen = [(page, k) for i, (page, k, _, _) in enumerate(gaps) if mask >> i & 1]
        if validate_service(inst, Service.of(chosen)).ok:
            found.add((mask, sum(inst.pages[page].cost for page, _ in chosen)))
    return found


def feasible(inst):
    found = list(_feasible_subsets(inst, gap_table(inst)))
    assert len(found) == len(set(found))  # each subset is judged once
    return set(found)


@pytest.mark.parametrize("policy", [OPTIONAL, FORCED])
def test_feasible_subsets_are_the_valid_services(policy):
    rng = random.Random(808 if policy == OPTIONAL else 809)
    for _ in range(200):
        inst = random_tiny_instance(rng, policy, gaps=range(11))
        assert feasible(inst) == subsets_by_the_validator(inst)


# Gaps are ordered by (page id, ordinal): bit 0 is the first gap of the
# alphabetically first page.
@pytest.mark.parametrize(
    "capacity, pages, reqs, policy, masks",
    [
        # Two adjacent gaps of p fill C exactly; their shared request counts once.
        (2, [("p", 2, 1)], ["p", "p", "p"], OPTIONAL, {0, 1, 2, 3}),
        (2, [("p", 2, 1)], ["p", "p", "p"], FORCED, {0, 1, 2, 3}),
        (3, [("p", 2, 1), ("q", 1, 1)], ["q", "p", "p", "p", "q"], OPTIONAL, set(range(8))),
        # p is larger than C: it is never cached, but its requests are served.
        (1, [("p", 2, 1), ("q", 1, 1)], ["q", "p", "q", "p"], OPTIONAL, {0, 2}),
        # Forced: q must fit next to p when it is served (momentary fit).
        (3, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p"], OPTIONAL, {0, 1}),
        (3, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p"], FORCED, {0}),
        (4, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p"], FORCED, {0, 1}),
        # q is requested once: never cached, but under forced it must fit.
        (2, [("p", 2, 1), ("q", 1, 1)], ["p", "q", "p"], OPTIONAL, {0, 1}),
        (2, [("p", 2, 1), ("q", 1, 1)], ["p", "q", "p"], FORCED, {0}),
        (3, [("p", 2, 1), ("q", 1, 1)], ["p", "q", "p"], FORCED, {0, 1}),
    ],
)
def test_feasible_subsets_hand_made(capacity, pages, reqs, policy, masks):
    inst = bare(capacity, pages, reqs, policy)
    found = feasible(inst)
    assert {mask for mask, _ in found} == masks
    assert found == subsets_by_the_validator(inst)


# Leading 16 hex digits of sha256 over one repr((optimum, sorted witness pairs,
# states, transitions)) line per instance: solve_brute_force on 150 seeded
# random_tiny_instance draws per policy, as it answered when it still ran
# validate_service on every subset.
BRUTE_FORCE_DIGESTS = {OPTIONAL: (8008, "b9c9e667096e843c"), FORCED: (8009, "7408d002ecf13897")}


@pytest.mark.parametrize("policy", sorted(BRUTE_FORCE_DIGESTS))
def test_brute_force_results_pinned(policy):
    seed, want = BRUTE_FORCE_DIGESTS[policy]
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(150):
        result = solve_brute_force(random_tiny_instance(rng, policy))
        row = (
            result.optimal_savings,
            sorted(gap_pairs(result.witness)),
            result.explored.states,
            result.explored.transitions,
        )
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest()[:16] == want


def test_brute_force_counts_subsets_and_valid_ones():
    inst = bare(3, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p", "q"])
    result = solve_brute_force(inst)
    assert (result.explored.states, result.explored.transitions) == (4, 3)
    assert result.witness == Service.of([("p", 0)])  # ties go to the smaller tuple


# --- slot plan, dense backend and dispatch -----------------------------------


HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def assert_backends_agree(inst):
    """The reference dict DP, the packed sweep and (with numpy) the dense
    sweep return equal results: optimum, witness and all four counters."""
    plan = _slot_plan(inst)
    ref = solve_dict(inst, plan)
    others = [_solve_packed(inst, plan)]
    if HAVE_NUMPY:
        others.append(_solve_dense(inst, plan))
    for other in others:
        assert other == ref
        assert all(type(count) is int for count in astuple(other.explored))
        assert type(other.optimal_savings) is int
    assert validate_service(inst, ref.witness).ok
    assert savings(inst, ref.witness) == ref.optimal_savings


@pytest.mark.parametrize("policy", [OPTIONAL, FORCED])
def test_dense_and_dict_backends_agree_on_random_instances(policy):
    rng = random.Random(20260814 if policy == OPTIONAL else 41)
    for _ in range(60):
        assert_backends_agree(random_tiny_instance(rng, policy))
    for _ in range(4):
        inst = random_tiny_instance(rng, policy, gaps=range(14, 19), length=(16, 26))
        assert_backends_agree(inst)


# Page sizes 1-4 and capacities 1-6, so that a page can be larger than C;
# under forced, C holds every page, as the instance requires.  A page
# requested once has no gap, and with no page requested twice k = 0.
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([OPTIONAL, FORCED]),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 3, 4, 2**40 + 1])), min_size=1, max_size=6
    ),
    st.lists(st.integers(0, 5), max_size=16),
)
@example(OPTIONAL, 1, [(2, 1), (1, 1)], [0, 1, 0, 1, 0])  # p0 is larger than C
@example(FORCED, 2, [(1, 3), (2, 2)], [0, 1])  # k = 0
@example(FORCED, 3, [(1, 2**40 + 1), (2, 3), (3, 1)], [0, 1, 0, 2, 1, 0])
# A page moves into the slot freed below it, and its moved gap is chosen:
# p1 from slot 1 to 0; p1, then p0, from 1 to 0; p1 from 2 to 1, then to 0.
@example(OPTIONAL, 2, [(1, 1), (1, 1)], [0, 1, 0, 1])
@example(FORCED, 5, [(1, 1), (2, 2), (4, 1), (1, 1)], [3, 1, 3, 0, 5, 0])
@example(OPTIONAL, 5, [(4, 4), (4, 4), (1, 3)], [0, 2, 4, 2, 3, 1])
def test_packed_and_dict_sweeps_agree_hypothesis(policy, capacity, pages, picks):
    table = [(f"p{i}", size, cost) for i, (size, cost) in enumerate(pages)]
    if policy == FORCED:
        capacity = max([capacity] + [size for size, _ in pages])
    inst = bare(capacity, table, [f"p{i % len(pages)}" for i in picks], policy)
    plan = _slot_plan(inst)
    dict_result = solve_dict(inst, plan)
    assert _solve_packed(inst, plan) == dict_result
    if HAVE_NUMPY:
        assert _solve_dense(inst, plan) == dict_result
    assert savings(inst, dict_result.witness) == dict_result.optimal_savings


# C5 and K4 at H=2 are left out: the reference dict DP takes about 8 s (C5
# fault), 24 s (C5 bit) and 10 minutes (K4) on them.
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dense_and_dict_backends_agree_on_the_corpus(name):
    graph = CORPUS[name]
    cases = [("fault", 1), ("bit", 1)]
    if name not in ("C5", "K4"):
        cases += [("fault", 2), ("bit", 2)]
    for model, H in cases:
        assert_backends_agree(generate(graph, model, H).instance)
    simple = generate(graph, "simple", None)
    assert_backends_agree(simple.instance)
    # The backends sweep the explicit forced instance that solve_exact hands them.
    assert_backends_agree(instance_from_text(instance_to_text(optional_to_forced(simple))))


def test_packed_sweep_reads_a_partly_filled_last_lane():
    # w decisions share one int; here the decisions pass 2w and are no
    # multiple of w, so the last int holds fewer than w of them.
    rng = random.Random(2020)
    table = [("p", 1, 1), ("q", 2, 3), ("r", 1, 2), ("s", 2, 1), ("u", 3, 4)]
    reqs = [rng.choice("pqrsu") for _ in range(40)]
    for policy in (OPTIONAL, FORCED):
        inst = bare(3, table, reqs, policy)
        plan = _slot_plan(inst)
        decisions = sum(1 for _, _, ordinal, _, _ in plan.rows if ordinal)
        w = solver._largest(inst, plan).bit_length() + 1
        assert decisions > 2 * w and decisions % w
        assert _solve_packed(inst, plan) == solve_dict(inst, plan)


# Leading 16 hex digits of sha256 over repr((optimum, sorted witness pairs,
# states, transitions, peak_states, peak_position)) + "\n" of solve_exact on
# each case of the round-trip benchmark grid, all below NUMPY_MIN_CELLS, so
# solved by the packed sweep; as it answered when it kept one int of w bits
# per live mask and decision.  (graph, model, H, forced twin): digest.
EXACT_DIGESTS = {
    ("K2", "simple", None, False): "58ed779ab8893a06",
    ("K2", "fault", 1, False): "259917007160107f",
    ("K2", "fault", 2, False): "f5d259551d3bf65a",
    ("K2", "bit", 1, False): "eb49d3b2d9151a6f",
    ("K2", "bit", 2, False): "ff065f19404b5a2e",
    ("P3", "simple", None, False): "0e6f7f16f6464146",
    ("P3", "fault", 1, False): "d923a5c298bb401a",
    ("P3", "fault", 2, False): "5d2d9e0462bc5c06",
    ("P3", "bit", 1, False): "f19803c6fdd902f7",
    ("P3", "bit", 2, False): "bf664f92f1f1c4cd",
    ("K3", "simple", None, False): "2b1dabe3d8119fba",
    ("K3", "fault", 1, False): "bc924fd72a9443cc",
    ("K3", "fault", 2, False): "fc8a7126da1d3f38",
    ("K3", "bit", 1, False): "084eb77e8907154f",
    ("K3", "bit", 2, False): "7d2371e86c406687",
    ("P4", "simple", None, False): "a685c3d64e3b60ba",
    ("P4", "fault", 1, False): "38e19a3e15bc58e3",
    ("P4", "fault", 2, False): "550f96e885eb5bf5",
    ("P4", "bit", 1, False): "9fb1be1185e76c10",
    ("P4", "bit", 2, False): "4f5ff07180226272",
    ("K1_3", "simple", None, False): "44c7f526f475cb41",
    ("K1_3", "fault", 1, False): "236608674b2ac199",
    ("K1_3", "fault", 2, False): "6d372a3c840e98fa",
    ("K1_3", "bit", 1, False): "46c4df9594312699",
    ("K1_3", "bit", 2, False): "97ec016a9fee4814",
    ("C4", "simple", None, False): "bc457e334120c507",
    ("C4", "fault", 1, False): "283a3a1f42a4a1f6",
    ("C4", "fault", 2, False): "0a7c88ae8075aed4",
    ("C4", "bit", 1, False): "362c0d4ea4ad75fe",
    ("C4", "bit", 2, False): "80ad027cac007d22",
    ("C5", "simple", None, False): "943c40e6adec78c6",
    ("C5", "fault", 1, False): "69b8d09c3499e23f",
    ("C5", "fault", 2, False): "b401044c6911196b",
    ("C5", "bit", 1, False): "460868a0c348d5c5",
    ("K4", "simple", None, False): "f47133325eb7d3e6",
    ("K4", "fault", 1, False): "89cdeca4513f9b1f",
    ("K4", "bit", 1, False): "2fcb37284e03ecd4",
    ("C4", "simple", None, True): "bbdd582c4ba71433",
    ("K4", "simple", None, True): "fa10e5ca88fbd66d",
    ("K3", "fault", 1, True): "e420e4e55fe3af3f",
    ("K3", "fault", 2, True): "b6cc571ce71daa49",
}


@pytest.mark.parametrize("name, model, H, forced", list(EXACT_DIGESTS))
def test_exact_results_pinned(name, model, H, forced):
    out = generate(CORPUS[name], model, H)
    inst = optional_to_forced(out) if forced else out.instance
    result = solve_exact(inst)
    row = (result.optimal_savings, sorted(gap_pairs(result.witness)), *astuple(result.explored))
    digest = hashlib.sha256(repr(row).encode() + b"\n").hexdigest()[:16]
    assert digest == EXACT_DIGESTS[name, model, H, forced]


def most_gaps_open_at_one_boundary(inst):
    delta = [0] * (len(inst.requests) + 1)
    for _, _, start, end in gap_rows(inst):
        delta[start] += 1
        delta[end] -= 1
    return max(itertools.accumulate(delta), default=0)


@pytest.mark.parametrize(
    "name, model, H, slots",
    [
        ("K4", "simple", None, 11),
        ("C4", "fault", 2, 13),
        ("C5", "fault", 2, 15),
        ("K3", "bit", 3, 16),
        ("K4", "fault", 2, 21),
        ("K4", "bit", 2, 21),
        ("K4", "fault", 3, 31),
    ],
)
def test_slot_count_is_the_most_gaps_open_at_one_boundary(name, model, H, slots):
    inst = generate(CORPUS[name], model, H).instance
    plan = _slot_plan(inst)
    assert plan.width == slots == most_gaps_open_at_one_boundary(inst)
    assert len(plan.rows) == len(inst.requests)
    # Gaps open at one boundary hold distinct slots, the live slots are
    # 0..live-1, and only the top slot's page moves, into the slot just freed.
    open_slots: set[int] = set()
    slot_of: dict[str, int] = {}
    for page, (slot, more, ordinal, live, move) in zip(inst.request_pages, plan.rows):
        if ordinal:
            assert slot == slot_of.pop(page)
            open_slots.remove(slot)
        if more:
            assert slot not in open_slots
            open_slots.add(slot)
            slot_of[page] = slot
        if move >= 0:
            assert not more and slot < move == len(open_slots)
            open_slots.remove(move)
            open_slots.add(slot)
            (moved,) = [p for p, s in slot_of.items() if s == move]
            slot_of[moved] = slot
        assert open_slots == set(range(live))
    assert not open_slots


def test_solve_exact_picks_the_backend_by_size(monkeypatch):
    pytest.importorskip("numpy")
    used = []
    for name in ("_solve_packed", "_solve_dense"):

        def spy(*args, real=getattr(solver, name), name=name):
            used.append(name)
            return real(*args)

        monkeypatch.setattr(solver, name, spy)
    solve_exact(bare(2, [("p", 1, 1)], ["p", "p"]))
    assert used == ["_solve_packed"]
    mid = generate(CORPUS["K3"], "fault", 2).instance  # k = 11, 241,404 live cells
    assert _slot_plan(mid).cells < NUMPY_MIN_CELLS
    want = solve_exact(mid)
    assert solve_exact(mid, budget=1 << 11) == want  # 2^k masks within the budget
    assert used[1:] == ["_solve_packed"] * 2
    big = generate(CORPUS["C5"], "bit", 2).instance  # k = 15, 27,783,164 live cells
    assert _slot_plan(big).cells >= NUMPY_MIN_CELLS
    solve_exact(big)
    assert used[3:] == ["_solve_dense"]
    # 2^11 masks pass these budgets, so solve_exact refuses from the plan
    # before any sweep, even where the widest layer (1,696 masks) would fit.
    for budget in (10, (1 << 11) - 1):
        with pytest.raises(BudgetExceeded, match=f"^11 slots .* budget of {budget} states"):
            solve_exact(mid, budget=budget)
    assert used[4:] == []


def test_solve_exact_without_numpy_uses_the_packed_sweep(monkeypatch):
    # Above NUMPY_MIN_CELLS (lowered here so that a small case passes it)
    # the packed sweep runs when numpy cannot be imported.
    inst = generate(CORPUS["K3"], "fault", 2).instance  # 241,404 live cells
    want = solve_exact(inst)
    monkeypatch.setattr(solver, "NUMPY_MIN_CELLS", 1 << 17)
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy raises ImportError
    used = []
    real = solver._solve_packed
    monkeypatch.setattr(solver, "_solve_packed", lambda *args: used.append(args) or real(*args))
    assert solve_exact(inst) == want
    assert len(used) == 1
    with pytest.raises(BudgetExceeded):
        solve_exact(inst, budget=10)
    assert len(used) == 1


def test_packed_solve_leaves_numpy_unloaded():
    # `fault` at H=2 on C4 (1,707,004 live cells) and C5 (10,432,508) runs
    # the packed sweep, which needs no numpy import.
    src = Path(solver.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from gencaching import CORPUS, generate, solve_exact\n"
        "for name, optimum in (('C4', 266), ('C5', 412)):\n"
        "    inst = generate(CORPUS[name], 'fault', 2).instance\n"
        "    assert solve_exact(inst).optimal_savings == optimum\n"
        "sys.exit('numpy' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True)


def packed_sweep_peak(name, model, H):
    """The traced peak of `_solve_packed` on a corpus instance, in bytes."""
    inst = generate(CORPUS[name], model, H).instance
    plan = _slot_plan(inst)
    tracemalloc.start()
    try:
        _solve_packed(inst, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_packed_solve_peaks_near_its_decision_layers():
    # C4 `bit` at H=2: k = 13 and w = 13 bits per field.  1,044 positions
    # keep a decision, one bit per live mask, w decisions to a shared int
    # (0.56 MiB in all; numpy keeps 0.52 MiB).  The sweep adds a few layers
    # and the slot patterns, and peaks at about 1.2 MiB; with one int of w
    # bits per mask and decision it peaked at 8.0 MiB.
    assert packed_sweep_peak("C4", "bit", 2) < 3 * 1024 * 1024


def test_packed_solve_of_the_grids_largest_case_peaks_near_its_decisions():
    # C5 `fault` at H=2, the largest case of the round-trip benchmark grid:
    # k = 15 and w = 11; 529 decisions take 1.24 MiB (numpy: 1.13 MiB).  The
    # sweep peaks at about 3.6 MiB; with one int per decision it was 16.0 MiB.
    assert packed_sweep_peak("C5", "fault", 2) < 8 * 1024 * 1024


def test_package_import_leaves_numpy_unloaded():
    src = Path(solver.__file__).resolve().parent.parent
    code = "import sys, gencaching, gencaching.cli; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True)


# --- interval packing export -------------------------------------------------


def max_packing_value(packing: IntervalPackingInstance) -> int:
    """Reference optimum: try every subset, intervals cover [start, end)."""
    best = 0
    intervals = packing.intervals
    horizon = max((end for _, end, _, _ in intervals), default=0)
    for picks in itertools.product([False, True], repeat=len(intervals)):
        load = [0] * horizon
        value = 0
        for chosen, (start, end, size, cost) in zip(picks, intervals):
            if not chosen:
                continue
            value += cost
            for t in range(start, end):
                load[t] += size
        if all(x <= packing.limit for x in load):
            best = max(best, value)
    return best


def test_packing_mirrors_gaps_verbatim():
    inst = bare(2, [("p", 2, 1), ("q", 2, 3)], ["p", "q", "p", "q"])
    packing = export_interval_packing(inst)
    assert packing.limit == 2
    assert tuple(packing.intervals) == ((0, 2, 2, 1), (1, 3, 2, 3))
    # A view over the columns: length, indices and slices as for a tuple.
    assert len(packing.intervals) == 2
    assert packing.intervals[-1] == (1, 3, 2, 3)
    assert packing.intervals[:1] == [(0, 2, 2, 1)]
    with pytest.raises(IndexError):
        packing.intervals[2]
    assert list(packing.costs) == [1, 3]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_packing_lists_the_gaps_in_order(name):
    for model, H in [("fault", 1), ("fault", 2), ("bit", 1), ("bit", 2), ("simple", None)]:
        inst = generate(CORPUS[name], model, H).instance
        # Each gap from the page column alone: a request ends the gap that
        # opened at the page's previous request.
        previous, gaps = {}, []
        for t, pid in enumerate(inst.request_pages):
            if pid in previous:
                gaps.append((pid, previous[pid], t))
            previous[pid] = t
        pages = inst.pages
        want = tuple((s, e, pages[pid].size, pages[pid].cost) for pid, s, e in sorted(gaps))
        assert tuple(export_interval_packing(inst).intervals) == want


# Leading 16 hex digits of sha256(packing_to_text(export_interval_packing(...)))
# per corpus graph, in the order fault H=1, fault H=2, bit H=1, bit H=2, simple.
PACKING_DIGESTS = {
    "K2": "85536cc31cd8b7e3 1d88155f9b2edfea e498bcbdfb928f98 de280b3fc8ef18c0 e9ffe3828f6b6b43",
    "P3": "ecfe0497e1e43c3b 296f1631c8b2d741 a2705194b360345d 8875f935f33c0adc 2ee62e182ac081a2",
    "K3": "5cd2f491df94caed bf9ab046b752b2af 41d013c6f188a576 2e0b5784999d4c85 b02cdce59460727c",
    "P4": "ca4a5080a43e9a41 d7b1d28badb04af2 010412e03c18200e 699c9c3b281c11f4 71fc0a8e23f5e03f",
    "K1_3": "1a014e15337c49a4 0a611465982bf638 a0008b25a27dbae9 022f38014405b04e 63f346a0c08a9515",
    "C4": "3e751f8a1019e0df 24d33e667bf50522 8549ea7aaffc583a 0d4fdfb44df026e0 819f358423efc69d",
    "C5": "786d3219bfa9d2cf 7d43830be5659c57 e1e634b5ccffdf05 010f680cf566c800 0f7977cbc44ea9a3",
    "K4": "dbfd853b5c9eaa9c 5f39eea5e71873fe bfa1e0a7b2bd575d 39a3bcf515d70eb4 b1443ed8cc1f574d",
}


@pytest.mark.parametrize("name", sorted(PACKING_DIGESTS))
def test_packing_text_pinned(name):
    runs = [("fault", 1), ("fault", 2), ("bit", 1), ("bit", 2), ("simple", None)]
    digests = tuple(
        hashlib.sha256(
            packing_to_text(export_interval_packing(generate(CORPUS[name], *run).instance)).encode()
        ).hexdigest()[:16]
        for run in runs
    )
    assert digests == tuple(PACKING_DIGESTS[name].split())


def test_packing_text_peaks_a_few_bytes_per_gap(monkeypatch):
    # The rows are formatted one slice of `core._CHUNK` rows at a time, here
    # made small so that the 9,699 gaps span ten slices; one str per gap
    # before a single join peaked at about 98 bytes per gap.
    packing = export_interval_packing(generate(CORPUS["K3"], "bit", 8).instance)
    want = packing_to_text(packing)
    monkeypatch.setattr(core, "_CHUNK", 1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = packing_to_text(packing)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(packing.intervals) == 9699 and text == want
    assert peak / len(packing.intervals) < 40


def test_packing_optimum_equals_caching_optimum():
    rng = random.Random(77)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        if len(gap_table(inst).starts) > 10:
            continue
        packing = export_interval_packing(inst)
        assert max_packing_value(packing) == solve_exact(inst).optimal_savings


def test_packing_rejects_forced_instances():
    inst = bare(2, [("p", 2, 1)], ["p", "p"], policy=FORCED)
    with pytest.raises(UnsupportedPolicyError):
        export_interval_packing(inst)
    with pytest.raises(UnsupportedPolicyError):
        export_interval_packing(optional_to_forced(bare(2, [("p", 2, 1)], ["p", "p"])))


def test_packing_text_shape():
    inst = bare(2, [("p", 2, 1), ("q", 2, 3)], ["p", "q", "p", "q"])
    text = packing_to_text(export_interval_packing(inst))
    lines = text.splitlines()
    assert lines[0] == "interval-packing 1"
    assert lines[1] == "limit 2"
    assert lines[2:] == ["0 2 2 1", "1 3 2 3"]
