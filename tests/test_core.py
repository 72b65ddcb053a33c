"""Data model: gaps, occupancy, validation, savings, text formats."""

from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import random
import re
import tracemalloc
from array import array
from itertools import combinations
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencaching import core
from gencaching import (
    CORPUS,
    FORCED,
    MODELS,
    FormatError,
    Graph,
    BudgetExceeded,
    Block,
    Instance,
    InstanceError,
    InvalidServiceError,
    OPTIONAL,
    Page,
    Request,
    Service,
    UnknownGapError,
    construct_service_from_is,
    export_interval_packing,
    gap_table,
    generate,
    graph_from_text,
    graph_to_text,
    instance_from_text,
    instance_to_text,
    make_instance,
    max_independent_set,
    merged_occupancy_runs,
    optional_to_forced,
    reduction_from_text,
    reduction_to_text,
    request_positions,
    savings,
    service_from_text,
    service_to_text,
    solve_exact,
    validate_service,
)
from randgen import gap_pairs, gap_rows
from reference_validator import validate_reference


def bare(capacity, pages, reqs, policy=OPTIONAL, scale=1):
    return make_instance(capacity, pages, [(p, None) for p in reqs], (), policy, scale)


# --- gaps ---------------------------------------------------------------


def test_gaps_ordered_by_page_then_ordinal():
    inst = bare(4, [("a", 1, 1), ("b", 2, 3)], ["b", "a", "b", "a", "b"])
    assert gap_rows(inst) == [
        ("a", 0, 1, 3),
        ("b", 0, 0, 2),
        ("b", 1, 2, 4),
    ]
    table = gap_table(inst)
    assert table.page_ids == ("a", "b") and list(table.pages) == [0, 1, 1]
    assert list(table.sizes) == [1, 2, 2] and list(table.costs) == [1, 3, 3]
    assert [c.typecode for c in (table.pages, table.ordinals, table.starts, table.ends)] == ["i"] * 4
    assert table.sizes.typecode == table.costs.typecode == "q"
    # A later page with more gaps than any before it.
    inst = bare(4, [("a", 1, 1), ("b", 1, 1)], ["a", "a", "b", "b", "b", "b"])
    assert gap_rows(inst) == [("a", 0, 0, 1), ("b", 0, 2, 3), ("b", 1, 3, 4), ("b", 2, 4, 5)]


def test_single_request_yields_no_gap():
    inst = bare(4, [("a", 1, 1), ("b", 1, 1)], ["a", "b"])
    assert gap_rows(inst) == []


def test_adjacent_requests_form_unit_gap():
    inst = bare(4, [("a", 1, 1)], ["a", "a"])
    assert gap_rows(inst) == [("a", 0, 0, 1)]


@pytest.mark.parametrize("size, cost", [(2**63, 1), (1, 2**63)])
def test_gap_table_names_a_page_past_its_64_bit_columns(size, cost):
    inst = bare(2**64, [("a", 1, 1), ("big", size, cost)], ["big", "a", "big", "a"])
    with pytest.raises(InstanceError, match=r"^page big: size and cost must be below 2\^63"):
        gap_table(inst)
    # A page with no gap is in no column.
    assert gap_rows(bare(2**64, [("a", 1, 1), ("big", size, cost)], ["big", "a", "a"])) == [("a", 0, 1, 2)]


# --- request index --------------------------------------------------------


def test_request_index_is_shared_and_read_only():
    inst = bare(4, [("a", 1, 1), ("b", 1, 1)], ["b", "a", "b"])
    index = request_positions(inst)
    assert request_positions(inst) is index
    with pytest.raises(TypeError):
        index["a"] = (0,)
    with pytest.raises(TypeError):
        index["c"] = (0,)
    assert {pid: tuple(pos) for pid, pos in index.items()} == {"b": (0, 2), "a": (1,)}
    # "a" is requested once: one array, the same on every read, like every page.
    assert index["a"] == array("i", [1]) and "a" in index and index.get("c") is None
    assert index["a"] is index["a"] and index.get("a") is index["a"]
    with pytest.raises(KeyError):
        index["c"]
    # The index does not travel with a copy, which builds its own when asked.
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert copied == inst and "_positions" not in vars(copied)
        assert request_positions(copied) == index


def test_slotted_records_survive_pickle_and_deepcopy():
    # Page, Block and PageRole are frozen dataclasses with __slots__.
    out = generate(CORPUS["P3"], "bit", 1)
    assert not hasattr(out.instance.blocks[0], "__dict__")
    for copied in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert copied == out and reduction_to_text(copied) == reduction_to_text(out)


def _fresh_index(inst):
    by_page = {}
    for r in inst.requests:
        by_page.setdefault(r.page, []).append(r.position)
    return [(pid, tuple(pos)) for pid, pos in by_page.items()]


_PAGES = {"a": Page("a", 1, 1), "b": Page("b", 2, 1)}
_BUILT = {
    "Instance": lambda: Instance(3, _PAGES, tuple("abaab"), array("i", [-1]) * 5),
    "make_instance": lambda: bare(3, [("a", 1, 1), ("b", 2, 1)], list("abaab")),
    "instance_from_text": lambda: instance_from_text(
        instance_to_text(generate(CORPUS["P3"], "fault", 1).instance)
    ),
    "optional_to_forced": lambda: optional_to_forced(generate(CORPUS["P3"], "bit", 1)),
}


@pytest.mark.parametrize("route", sorted(_BUILT))
def test_request_index_matches_the_requests(route):
    inst = _BUILT[route]()
    index = request_positions(inst)
    assert [(pid, tuple(pos)) for pid, pos in index.items()] == _fresh_index(inst)


# --- request columns ------------------------------------------------------

_CANONICAL = {
    "generate": lambda: generate(CORPUS["K3"], "bit", 2).instance,
    "reduction_from_text": lambda: reduction_from_text(
        reduction_to_text(generate(CORPUS["P3"], "fault", 2))
    ).instance,
    "make_instance": lambda: bare(3, [("p1", 1, 1), ("p2", 2, 1)], [f"p{i}" for i in (1, 2, 1)]),
    "optional_to_forced": lambda: optional_to_forced(generate(CORPUS["K3"], "fault", 1)),
}


@pytest.mark.parametrize("route", sorted(_CANONICAL))
def test_request_pages_are_the_page_table_keys(route):
    inst = _CANONICAL[route]()
    key = {pid: pid for pid in inst.pages}  # maps each id to the table's own string
    assert inst.num_requests > 0
    assert all(key[pid] is pid for pid in inst.request_pages)


def test_requests_view_reads_the_columns():
    inst = make_instance(
        4,
        [("a", 1, 1), ("b", 1, 1)],
        [("a", 0), ("b", None), ("a", 1)],
        [("initial", None, None), ("final", None, None)],
    )
    assert inst.request_pages == ("a", "b", "a")
    assert list(inst.request_blocks) == [0, -1, 1]
    view = inst.requests
    assert len(view) == 3
    assert list(view) == [Request(0, "a", 0), Request(1, "b", None), Request(2, "a", 1)]
    assert view[-1] == view[2] == Request(2, "a", 1)
    assert view[1:] == [Request(1, "b", None), Request(2, "a", 1)]
    with pytest.raises(IndexError):
        view[3]


@pytest.mark.parametrize(
    "pages, blocks",
    [
        (["a", "b"], array("i", [-1, -1])),  # not a tuple
        (("a", "b"), [-1, -1]),  # not an array
        (("a", "b"), array("l", [-1, -1])),
        (("a", "b"), array("i", [-1])),  # one block id short
        (("a", "c"), array("i", [-1, -1])),  # unknown page
        (("a", "b"), array("i", [-1, 0])),  # a block id, but no blocks
    ],
)
def test_instance_checks_its_columns(pages, blocks):
    with pytest.raises(InstanceError):
        Instance(3, _PAGES, pages, blocks)


@pytest.mark.parametrize("table", [_PAGES, MappingProxyType(_PAGES)])
def test_instance_names_its_first_unknown_request(table):
    # The distinct ids are checked as one set; the error still names the
    # first position that asks for an unknown page.
    with pytest.raises(InstanceError, match=r"^request 2 asks for unknown page 'd'$"):
        Instance(3, table, ("a", "b", "d", "a", "c"), array("i", [-1]) * 5)


_TWO_BLOCKS = (Block(0, "initial"), Block(1, "final"))


@pytest.mark.parametrize(
    "column",
    [
        [0, 1, 0],  # block 0 interleaved with block 1
        [0, -1, 0],  # block 0 interleaved with an out-of-block request
        [1, 0, 0],  # blocks out of order
        [0, 2, 1],  # block id out of range
        [0, -2, 1],
    ],
)
def test_instance_checks_its_block_column(column):
    with pytest.raises(InstanceError):
        Instance(3, _PAGES, tuple("aba"), array("i", column), _TWO_BLOCKS)


def test_spans_agree_across_builders_and_copies():
    inst = generate(CORPUS["P3"], "bit", 1).instance
    built = [
        Instance(inst.capacity, inst.pages, inst.request_pages, inst.request_blocks, inst.blocks),
        make_instance(
            inst.capacity,
            inst.pages.values(),
            [(r.page, r.block) for r in inst.requests],
            [(b.kind, b.vertex, b.slot) for b in inst.blocks],
        ),
        instance_from_text(instance_to_text(inst)),
        pickle.loads(pickle.dumps(inst)),
        copy.deepcopy(inst),
    ]
    assert len(inst.spans) == len(inst.blocks)
    for b, (lo, hi) in enumerate(inst.spans):
        assert inst.request_blocks[lo:hi] == array("i", [b]) * (hi - lo)
    for other in built:
        assert other == inst and other.spans == inst.spans
    assert optional_to_forced(inst).spans == ()


def test_generated_requests_take_a_few_bytes_each():
    # The two columns cost 12 bytes per request; the rest (about 27 bytes per
    # request here) is the page table, the roles and the blocks.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = generate(CORPUS["K3"], "bit", 8)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.instance.num_requests == 9846
    assert retained / out.instance.num_requests < 64


def _retained(build):
    """What `build()` returns, and the bytes it leaves allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_request_index_takes_a_few_bytes_per_request():
    # One array('i') per page: 4 bytes per position plus the array's slack;
    # a tuple of ints took about 36 bytes per request.
    inst = generate(CORPUS["K3"], "bit", 8).instance
    _, retained = _retained(lambda: request_positions(inst))
    assert retained / inst.num_requests < 8


def test_constructed_service_takes_a_few_bytes_per_gap():
    # One ordinal run per cached page; a frozenset of (page, ordinal) pairs
    # took about 127 bytes per chosen gap.
    out = generate(CORPUS["K3"], "bit", 8)
    request_positions(out.instance)  # built before, as by check_properties
    svc, retained = _retained(lambda: construct_service_from_is(out, [0]))
    assert len(svc) == 6961
    assert retained / len(svc) < 4


def _peak(build):
    """What `build()` returns, and the most bytes it had allocated at once (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_reading_a_reduction_peaks_a_few_bytes_per_request():
    # The reader splits one chunk of the text at a time; splitting the whole
    # text at once peaked at about 126 bytes per request.
    out = generate(CORPUS["K3"], "bit", 8)
    text = reduction_to_text(out)
    back, peak = _peak(lambda: reduction_from_text(text))
    assert back == out
    assert peak / out.instance.num_requests < 90


def test_validating_a_service_peaks_a_few_bytes_per_request():
    # The load is a step function read at the runs' ends, so nothing is
    # allocated per position.  A list of steps and a list of loads peaked at
    # about 18 bytes per request.
    out = generate(CORPUS["K3"], "bit", 8)
    svc = construct_service_from_is(out, [0])  # builds the request index, as in the pipeline
    report, peak = _peak(lambda: validate_service(out.instance, svc))
    assert report.ok
    assert peak / out.instance.num_requests < 12


def test_packing_takes_a_few_bytes_per_gap():
    # Four array columns; one (start, end, size, cost) tuple per gap took
    # about 112 bytes.
    inst = generate(CORPUS["K3"], "bit", 8).instance
    request_positions(inst)
    packing, retained = _retained(lambda: export_interval_packing(inst))
    assert len(packing.intervals) == 9699
    assert retained / len(packing.intervals) < 32


def test_forced_index_stores_nothing_per_fresh_page():
    # A rule stores no index until a caller asks for one (the package never
    # does); asked for, it lists the fresh pages too, each at position 2t + 1.
    out = generate(CORPUS["K3"], "bit", 8)
    forced = optional_to_forced(out)
    assert "_positions" not in vars(forced)
    index = request_positions(forced)
    fresh = out.instance.num_requests
    assert len(index) == len(out.instance.pages) + fresh
    assert index[f"q{fresh - 1}"] == array("i", [2 * fresh - 1])


def test_the_pipeline_reads_a_rule_through_its_optional_instance(monkeypatch):
    # The package reads a rule's gaps and runs off the optional instance's
    # index, doubled, and a fresh position's size off the rule.  Reading the
    # forced index doubled every page's whole positions array per lookup, and
    # each fresh position looked up made a new, validated Page.
    fresh_lookups = []
    lookup = core._FlushTable.__getitem__

    def counted(table, pid):
        if table.fresh(pid) >= 0:
            fresh_lookups.append(pid)
        return lookup(table, pid)

    monkeypatch.setattr(core._FlushTable, "__getitem__", counted)
    out = generate(CORPUS["K3"], "bit", 8)
    request_positions(out.instance)  # built before, as by check_properties
    forced = optional_to_forced(out)
    easy = construct_service_from_is(out, [0])
    assert validate_service(forced, easy).ok
    every = Service.of((pid, k) for pid, k, _, _ in gap_rows(out.instance))
    assert validate_service(forced, every).forced_violations  # visits fresh positions
    total, retained = _retained(lambda: savings(forced, easy))
    assert total == savings(out.instance, easy)
    assert retained < 1024
    assert len(gap_table(forced).starts) == len(every)
    assert instance_to_text(forced).count(" -\n") == forced.num_requests
    small = generate(CORPUS["K3"], "bit", 1)
    small_forced = optional_to_forced(small)
    assert solve_exact(small_forced).optimal_savings == solve_exact(small.instance).optimal_savings
    assert "_positions" not in vars(forced) and "_positions" not in vars(small_forced)
    assert fresh_lookups == []


def test_forced_transform_stores_nothing_per_request():
    # The fresh requests are one rule; one slotted Page per fresh request
    # retained about 170 bytes each.
    out = generate(CORPUS["K3"], "fault", 8)
    forced, retained = _retained(lambda: optional_to_forced(out))
    assert forced.num_requests == 2 * out.instance.num_requests
    assert retained * 1000 / out.instance.num_requests < 1024


def test_forced_requests_view_stores_nothing_per_request():
    # The view reads the rule per position; building the page column and a
    # block array on each access peaked at about 39 bytes per forced request.
    forced = optional_to_forced(generate(CORPUS["K3"], "fault", 8))
    n, peak = _peak(lambda: len(forced.requests))
    assert n == forced.num_requests == 6796
    assert peak < 1024
    view = forced.requests
    assert view[-1] == Request(n - 1, f"q{n // 2 - 1}", None)
    assert view[-2] == Request(n - 2, forced.request_pages[-1], None)


# --- garbage collector ----------------------------------------------------

_FAILING_BUILDS = {
    "make_instance": (lambda: bare(1, [("a", 1, 1), ("a", 1, 1)], []), InstanceError),
    "reduction_from_text": (lambda: reduction_from_text("caching-instance 1\ncache x\n"), FormatError),
    "solve_exact": (lambda: solve_exact(bare(2, [("a", 1, 1), ("b", 1, 1)], list("abab")), budget=1),
                    BudgetExceeded),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call", sorted(_FAILING_BUILDS))
def test_failing_bulk_build_restores_the_gc_setting(call, enabled):
    build, error = _FAILING_BUILDS[call]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(error):
            build()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- occupancy ----------------------------------------------------------


def load_profile(inst, svc):
    """The total cached size at every position: the sizes of the pages whose
    merged runs cover it."""
    runs = merged_occupancy_runs(inst, svc)
    return [
        sum(inst.pages[pid].size for pid, rs in runs.items() if any(s <= t <= e for s, e in rs))
        for t in range(inst.num_requests)
    ]


def test_occupancy_covers_closed_span():
    inst = bare(
        5,
        [("p", 2, 1), ("q", 1, 1), ("r", 1, 1), ("s", 1, 1)],
        ["q", "p", "r", "s", "p"],
    )
    profile = load_profile(inst, Service.of([("p", 0)]))
    assert profile == [0, 2, 2, 2, 2]


def test_occupancy_merges_runs_at_shared_request():
    inst = bare(5, [("p", 2, 1), ("x", 1, 1), ("y", 1, 1)], ["p", "x", "p", "y", "p"])
    profile = load_profile(inst, Service.of([("p", 0), ("p", 1)]))
    assert profile == [2, 2, 2, 2, 2]


def test_occupancy_empty_service_is_zero():
    inst = bare(5, [("p", 2, 1)], ["p", "p", "p"])
    assert load_profile(inst, Service.of([])) == [0, 0, 0]


def test_unknown_gap_rejected():
    inst = bare(5, [("p", 2, 1)], ["p", "p"])
    with pytest.raises(UnknownGapError):
        load_profile(inst, Service.of([("p", 5)]))
    with pytest.raises(UnknownGapError):
        load_profile(inst, Service.of([("nope", 0)]))


# --- validation ---------------------------------------------------------


def test_capacity_violations_report_positions():
    inst = bare(2, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p", "q"])
    report = validate_service(inst, Service.of([("p", 0), ("q", 0)]))
    assert not report.ok
    assert report.capacity_violations == (1, 2)
    assert report.forced_violations == ()


@pytest.mark.parametrize("size", [2**30, 2**31, 2**40])
def test_occupancy_holds_sizes_past_32_bits(size):
    inst = bare(size, [("p", size, 1), ("q", size, 1)], ["p", "q", "p", "q"])
    svc = Service.of([("p", 0), ("q", 0)])
    assert load_profile(inst, svc) == [size, 2 * size, 2 * size, size]
    assert validate_service(inst, svc).capacity_violations == (1, 2)


def test_optional_policy_allows_uncovered_requests():
    inst = bare(2, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p"])
    assert validate_service(inst, Service.of([("p", 0)])).ok


def test_forced_policy_requires_momentary_fit():
    inst = bare(2, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p"], policy=FORCED)
    report = validate_service(inst, Service.of([("p", 0)]))
    assert not report.ok
    assert report.forced_violations == (1,)
    # Dropping the cached span leaves room for each request by itself.
    assert validate_service(inst, Service.of([])).ok


def test_forced_rejects_page_larger_than_cache():
    with pytest.raises(InstanceError):
        bare(1, [("p", 2, 1)], ["p"], policy=FORCED)


def test_size_larger_than_cache_is_fine_when_optional():
    inst = bare(1, [("p", 2, 1)], ["p", "p"])
    assert not validate_service(inst, Service.of([("p", 0)])).ok
    assert validate_service(inst, Service.of([])).ok


def _random_validation_case(rng, kind):
    """A random instance of `kind` (optional, explicit forced, or a flush
    rule over an optional one) with sizes scaled by 2^40 in a third of the
    cases, and a random service on its gaps."""
    unit = rng.choice([1, 1, 2**40])
    num_pages = rng.randint(1, 6)
    pages = [
        (f"p{i}", rng.randint(1, 3) * unit + rng.randint(0, 1), rng.randint(1, 4)) for i in range(num_pages)
    ]
    reqs = [f"p{rng.randrange(num_pages)}" for _ in range(rng.randint(0, 14))]
    largest = max((pages[int(pid[1:])][1] for pid in reqs), default=1)
    capacity = rng.randint(1, 2 * largest)
    if kind == "forced":
        inst = bare(max(capacity, largest), pages, reqs, policy=FORCED)
    else:
        inst = bare(capacity, pages, reqs)
        if kind == "rule":
            inst = optional_to_forced(inst)
    keep = rng.random()
    return inst, Service.of((pid, k) for pid, k, _, _ in gap_rows(inst) if rng.random() < keep)


def test_validation_matches_the_definition_on_random_instances():
    rng = random.Random(26)
    seen = {"capacity": 0, "forced": 0, "big": 0, "unknown": 0}
    for i in range(1200):
        kind = ("optional", "forced", "rule")[i % 3]
        inst, svc = _random_validation_case(rng, kind)
        report = validate_service(inst, svc)
        assert report == validate_reference(inst, svc), (kind, inst, svc.runs)
        seen["capacity"] += bool(report.capacity_violations)
        seen["forced"] += bool(report.forced_violations)
        seen["big"] += inst.capacity >= 2**31
        # A gap past the page's last one, or of a page never requested.
        bad = Service.of([*gap_pairs(svc), (rng.choice(["p0", "zz"]), rng.choice([-1, 14]))])
        for validate in (validate_service, validate_reference):
            with pytest.raises(UnknownGapError):
                validate(inst, bad)
        seen["unknown"] += 1
    assert min(seen.values()) >= 100, seen


# --- savings ------------------------------------------------------------


def test_savings_sums_costs_of_chosen_gaps():
    inst = bare(6, [("p", 2, 3), ("q", 1, 2)], ["p", "q", "p", "q", "p"])
    assert savings(inst, Service.of([("p", 0), ("p", 1), ("q", 0)])) == 8
    assert savings(inst, Service.of([("q", 0)])) == 2
    assert savings(inst, Service.of([])) == 0


def test_savings_rejects_invalid_service():
    inst = bare(2, [("p", 2, 1), ("q", 2, 1)], ["p", "q", "p", "q"])
    with pytest.raises(InvalidServiceError):
        savings(inst, Service.of([("p", 0), ("q", 0)]))


def test_service_of_deduplicates():
    assert Service.of([("p", 0), ("p", 0)]) == Service.of([("p", 0)])


def test_service_of_takes_integer_ordinals_only():
    # Any integer type passes; a float is refused, not truncated.
    assert Service.of([("p", array("i", [1])[0]), ("p", True)]).runs == {"p": ((1, 1),)}
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(TypeError):
            Service.of([("p", bad)])


def test_service_of_takes_numpy_ordinals():
    np = pytest.importorskip("numpy")
    svc = Service.of([("p", np.int64(2)), ("q", np.int32(0))])
    assert svc == Service.of([("p", 2), ("q", 0)])
    assert all(type(k) is int for rs in svc.runs.values() for run in rs for k in run)


_PAIRS = st.lists(st.tuples(st.sampled_from("abc"), st.integers(-3, 8) | st.just(2**40)))


@settings(max_examples=150, deadline=None)
@given(_PAIRS, st.randoms(use_true_random=False))
def test_service_of_ignores_order_and_duplicates(pairs, rng):
    svc = Service.of(pairs)
    shuffled = pairs + pairs[: len(pairs) // 2]
    rng.shuffle(shuffled)
    again = Service.of(shuffled)
    assert again == svc and hash(again) == hash(svc)
    assert gap_pairs(svc) == set(pairs) and len(svc) == len(set(pairs))
    # The text is the sorted pairs, one per line, as when a service was a pair set.
    assert service_to_text(svc) == "".join(
        f"{line}\n" for line in ["service 1"] + [f"{p} {k}" for p, k in sorted(set(pairs))]
    )
    for pid, rs in svc.runs.items():  # maximal runs: sorted, neither overlapping nor touching
        assert all(a <= b for a, b in rs)
        assert all(b + 1 < c for (_, b), (c, _) in zip(rs, rs[1:]))


def test_service_merges_overlapping_and_touching_runs():
    svc = Service({"q": [(4, 6)], "p": [(3, 3), (0, 1), (1, 2), (7, 9), (8, 8)]})
    assert svc.runs == {"p": ((0, 3), (7, 9)), "q": ((4, 6),)}
    assert list(svc.runs) == ["p", "q"]
    assert svc == Service.of([("p", k) for k in (0, 1, 2, 3, 7, 8, 9)] + [("q", 4), ("q", 5), ("q", 6)])
    assert Service({"p": []}) == Service() == Service.of([])
    with pytest.raises(InstanceError):
        Service({"p": [(2, 1)]})
    for copied in (pickle.loads(pickle.dumps(svc)), copy.deepcopy(svc)):
        assert copied == svc and hash(copied) == hash(svc)


@pytest.mark.parametrize("ordinal", [-1, 1, 2**40])
def test_unknown_ordinals_fail_at_use_not_at_construction(ordinal):
    inst = bare(5, [("p", 2, 1)], ["p", "p"])
    run = (min(ordinal, 0), max(ordinal, 0))
    for svc in (Service.of([("p", 0), ("p", ordinal)]), Service({"p": [run]})):
        for use in (validate_service, savings):
            with pytest.raises(UnknownGapError, match=f"ordinal {ordinal}"):
                use(inst, svc)


# Leading 16 hex digits of sha256 over the service text of every easy-direction
# service below; the writer's output when a service was a frozenset of pairs.
SERVICE_TEXT_DIGEST = "10080087ff7cc6a2"


def test_service_text_pinned():
    digest = hashlib.sha256()
    for name in ("K2", "P3", "K3", "C4"):
        graph = CORPUS[name]
        _, mis = max_independent_set(graph)
        for model, H in (("fault", 3), ("bit", 2), ("simple", None)):
            out = generate(graph, model, H)
            for w in (mis, frozenset()):
                digest.update(service_to_text(construct_service_from_is(out, w)).encode())
    assert digest.hexdigest()[:16] == SERVICE_TEXT_DIGEST


# --- blocks -------------------------------------------------------------


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: Page("a", v, 1), "page a: size must be a positive int"),
        (lambda v: Page("a", 1, v), "page a: cost must be a positive int"),
        (lambda v: bare(v, [], []), "capacity must be a positive int"),
        (lambda v: bare(1, [], [], scale=v), "cost_scale must be a positive int"),
        (lambda v: Block(0, "phase", vertex=v), "block 0: phase block needs a vertex and no slot"),
        (lambda v: Block(0, "inserted", slot=v), "block 0: inserted block needs slot 1..5 and no vertex"),
    ],
    ids=["page-size", "page-cost", "capacity", "cost-scale", "block-vertex", "block-slot"],
)
def test_integer_fields_refuse_bools_and_floats(build, message, value):
    # The text formats would write True or 1.0, which their readers refuse.
    with pytest.raises(InstanceError, match=re.escape(message)):
        build(value)


def test_block_spans_are_contiguous_and_ordered():
    inst = make_instance(
        4,
        [("a", 1, 1), ("b", 1, 1), ("x", 1, 1)],
        [("a", 0), ("b", 0), ("x", None), ("a", 1), ("x", None)],
        [("initial", None, None), ("phase", 0, None), ("final", None, None)],
    )
    # The final block has no requests of its own; its span is the empty
    # interval at the previous block's end.
    assert inst.spans == ((0, 2), (3, 4), (4, 4))


def test_interleaved_block_requests_rejected():
    with pytest.raises(InstanceError):
        make_instance(
            4,
            [("a", 1, 1), ("b", 1, 1)],
            [("a", 0), ("b", None), ("a", 0)],
            [("initial", None, None), ("final", None, None)],
        )


def test_out_of_order_blocks_rejected():
    with pytest.raises(InstanceError):
        make_instance(
            4,
            [("a", 1, 1), ("b", 1, 1)],
            [("a", 1), ("b", 0)],
            [("initial", None, None), ("final", None, None)],
        )


@pytest.mark.parametrize("pid", ["", "a b", "a\tb", "a\nb", "a\u00a0b", "\u2003"])
def test_page_id_with_whitespace_rejected(pid):
    with pytest.raises(InstanceError, match="bad page id"):
        Page(pid, 1, 1)


@pytest.mark.parametrize("block", [2, -1, 2**31, 2**40])
def test_unknown_block_rejected(block):
    with pytest.raises(InstanceError, match="unknown block"):
        make_instance(
            4,
            [("a", 1, 1)],
            [("a", 0), ("a", block)],
            [("initial", None, None), ("final", None, None)],
        )


def test_unknown_page_rejected():
    with pytest.raises(InstanceError):
        bare(4, [("a", 1, 1)], ["a", "zzz"])


# --- text formats -------------------------------------------------------


def test_instance_text_round_trip():
    inst = make_instance(
        5,
        [("a", 2, 3), ("b", 1, 1)],
        [("a", 0), ("b", None), ("a", 1), ("b", 1)],
        [("initial", None, None), ("inserted", None, 3), ("final", None, None)],
        FORCED,
        4,
    )
    text = instance_to_text(inst)
    again = instance_from_text(text)
    assert again == inst
    assert instance_to_text(again) == text


def test_service_text_round_trip():
    svc = Service.of([("a", 0), ("b", 2)])
    assert service_from_text(service_to_text(svc)) == svc
    assert service_from_text(service_to_text(Service.of([]))) == Service.of([])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "caching-instance 2\n",
        "caching-instance 1\ncache 4\n",
        "caching-instance 1\ncache x\npolicy optional\nscale 1\npages 0\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache 4\npolicy sometimes\nscale 1\npages 0\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache 4\npolicy optional\nscale 1\npages 1\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache 0_3\npolicy optional\nscale 1\npages 0\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache +3\npolicy optional\nscale 1\npages 0\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache \u0663\npolicy optional\nscale 1\npages 0\nblocks 0\nrequests 0\n",
        "caching-instance 1\ncache 4\npolicy optional\nscale 1\npages 0\n"
        "blocks 3\n0 initial\n1 inserted\u00b2\n2 final\nrequests 0\n",
        "caching-instance 1\ncache 4\npolicy optional\nscale 1\npages 1\na 1 1\n"
        "blocks 2\n0 initial\n1 final\nrequests 1\na 1099511627776\n",
    ],
)
def test_malformed_instance_text_rejected(text):
    with pytest.raises(FormatError):
        instance_from_text(text)


def test_single_line_instance_errors_name_their_line():
    head = "caching-instance 1\ncache 4\npolicy optional\nscale 1\npages 0\n"
    for text, where in [
        (head.replace("cache 4", "cache 0") + "blocks 0\nrequests 0\n", "line 2: cache"),
        (head.replace("scale 1", "scale 0") + "blocks 0\nrequests 0\n", "line 4: scale"),
        (head + "blocks 3\n0 initial\n1 inserted0\n2 final\nrequests 0\n", "line 8: block 1: inserted"),
        (head + "blocks 3\n0 initial\n\n1 inserted9\n2 final\nrequests 0\n", "line 9: block 1: inserted"),
    ]:
        with pytest.raises(FormatError, match=where):
            instance_from_text(text)


def test_malformed_service_text_rejected():
    for text, where in [
        ("service 2\n", "line 1"),
        ("service 1\np\n", "line 2"),
        ("service 1\nv0 \u0663\n", "line 2"),
        ("service 1\n\n\nv0 x\n", "line 4"),
        ("service 1\nv0 0\nv0 0\n", "line 3: duplicate"),
    ]:
        with pytest.raises(FormatError, match=where):
            service_from_text(text)


def _parsed(parse, text):
    """("ok", value) or ("error", message): what `parse(text)` gives."""
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "error", str(exc)


def _reader_texts():
    """(parser, text) pairs: each format as written, with other line ends and
    blank-line runs, and broken in a row, cut short and extended."""
    out = generate(CORPUS["K2"], "fault", 1)
    written = [
        (instance_from_text, instance_to_text(out.instance)),
        (service_from_text, service_to_text(construct_service_from_is(out, [0]))),
        (graph_from_text, graph_to_text(CORPUS["C5"])),
        (reduction_from_text, reduction_to_text(out)),
    ]
    for parse, text in written:
        lines = text.splitlines()
        blanks = "".join(
            line + ("\n \r\n\n\t\n" if i % 3 else "\r\n") for i, line in enumerate(lines)
        )
        variants = [text, "\r\n".join(lines) + "\r\n", "\r".join(lines), blanks]
        variants += [text[:-3], text + "\n\n7\n"]  # cut short, content after the end
        for i in (1, len(lines) // 2, len(lines) - 1):  # one row with a field too many
            broken = lines[:i] + [lines[i] + " 7"] + lines[i + 1 :]
            variants += [end.join(broken) + end for end in ("\n", "\r\n")]
        for edited in _odd_request_rows(lines):
            variants += [end.join(edited) + end for end in ("\n", "\r\n")]
        yield from ((parse, v) for v in variants)


def _odd_request_rows(lines):
    """`lines` with one request row, mid-section, that the per-line checks
    take: an unknown page, an unknown block, the token 007, one field; and
    with the last row's block token zero-padded, which reads as the row."""
    head = next((i for i, line in enumerate(lines) if line.startswith("requests ")), None)
    if head is None:
        return
    last = head + int(lines[head].split()[1])
    mid = (head + 1 + last) // 2
    pid, blk = lines[mid].split()
    for row in (f"zzz {blk}", f"{pid} 99", f"{pid} 007", pid):
        yield lines[:mid] + [row] + lines[mid + 1 :]
    pid, blk = lines[last].split()
    yield lines[:last] + [f"{pid} 00{blk}"] + lines[last + 1 :]


@pytest.mark.parametrize("chunk", range(1, 17))
def test_reader_chunk_size_changes_nothing(monkeypatch, chunk):
    texts = list(_reader_texts())
    want = [_parsed(parse, text) for parse, text in texts]
    assert {kind for kind, _ in want} == {"ok", "error"}
    monkeypatch.setattr(core, "_CHUNK", chunk)
    assert [_parsed(parse, text) for parse, text in texts] == want


def test_request_row_errors_name_their_line():
    text = instance_to_text(generate(CORPUS["K2"], "fault", 1).instance)
    lines = text.splitlines()
    mid = len(lines) - 5  # a request row in block 4 of 6
    pid, blk = lines[mid].split()
    assert blk == "4"
    # A blank line goes before the row, which then is line mid + 2.
    for row, message in [
        ("zzz 4", "request for unknown page 'zzz'"),
        (f"{pid} 99", "request references unknown block 99"),
        (f"{pid} 007", "request references unknown block 7"),
        (f"{pid} 4x", "block id must be a non-negative integer, got '4x'"),
        (pid, f"expected '<page-id> <block|->', got '{pid}'"),
        (f"{pid} 4 4", f"expected '<page-id> <block|->', got '{pid} 4 4'"),
    ]:
        edited = lines[:mid] + ["", row] + lines[mid + 1 :]
        with pytest.raises(FormatError, match=f"^{re.escape(f'line {mid + 2}: {message}')}$"):
            instance_from_text("\n".join(edited))
    edited = lines[:mid] + ["", f"{pid} 004"] + lines[mid + 1 :]
    assert instance_from_text("\n".join(edited)) == instance_from_text(text)


def test_written_requests_skip_the_per_line_checks(monkeypatch):
    # The writer's request rows all go through the reader's tight loop; only
    # an odd row, here a blank line, reaches the per-line checks.
    text = reduction_to_text(generate(CORPUS["K3"], "bit", 8))
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("requests "))
    rows = range(head + 2, head + 2 + int(lines[head].split()[1]))  # their line numbers
    assert len(rows) == 9846
    checked = []
    split = core._LineReader.split

    def spy(reader, line, *args):
        checked.append(reader.lineno)
        return split(reader, line, *args)

    monkeypatch.setattr(core._LineReader, "split", spy)
    reduction_from_text(text)
    assert checked and not set(checked).intersection(rows)
    checked.clear()
    reduction_from_text("\n".join(lines[: head + 5] + [""] + lines[head + 5 :]))
    assert set(checked).intersection(range(rows.start, rows.stop + 1)) == {head + 6}


def test_reader_names_a_line_far_past_the_first_chunk():
    text = reduction_to_text(generate(CORPUS["K3"], "bit", 8))
    assert len(text) > 2 * core._CHUNK
    lines = text.splitlines()
    i = lines.index("model bit") - 5  # a request row near the end of the section
    lines[i] += " 7"
    with pytest.raises(FormatError, match=f"^line {i + 1}: expected '<page-id> <block"):
        reduction_from_text("\n".join(lines))
    with pytest.raises(FormatError, match=f"^line {2 * i + 1}: expected '<page-id> <block"):
        reduction_from_text("\r\n\n".join(lines))


# --- property-based invariants -------------------------------------------


@st.composite
def instance_and_service(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num_pages = rng.randint(1, 5)
    pages = [(f"p{i}", rng.randint(1, 3), rng.randint(1, 4)) for i in range(num_pages)]
    reqs = [f"p{rng.randrange(num_pages)}" for _ in range(rng.randint(0, 10))]
    inst = bare(rng.randint(1, 6), pages, reqs)
    gaps = gap_rows(inst)
    chosen = [g for g in gaps if draw(st.booleans())]
    return inst, Service.of((page, k) for page, k, _, _ in chosen)


@settings(max_examples=150, deadline=None)
@given(instance_and_service())
def test_validity_is_monotone_under_gap_removal(pair):
    inst, svc = pair
    if not validate_service(inst, svc).ok:
        return
    for dropped in gap_pairs(svc):
        smaller = Service.of(gap_pairs(svc) - {dropped})
        assert validate_service(inst, smaller).ok


@settings(max_examples=150, deadline=None)
@given(instance_and_service())
def test_forced_validity_implies_optional_validity(pair):
    inst, svc = pair
    sizes = [p.size for p in inst.pages.values()]
    forced = make_instance(
        max([inst.capacity] + sizes),
        [(p.id, p.size, p.cost) for p in inst.pages.values()],
        [(r.page, r.block) for r in inst.requests],
        (),
        FORCED,
    )
    if validate_service(forced, svc).ok:
        report = validate_service(inst, svc)
        assert report.capacity_violations == () or forced.capacity > inst.capacity


@settings(max_examples=150, deadline=None)
@given(instance_and_service())
def test_savings_never_exceed_total_gap_cost(pair):
    inst, svc = pair
    if validate_service(inst, svc).ok:
        total = sum(gap_table(inst).costs)
        assert 0 <= savings(inst, svc) <= total


# --- text format fuzzing ---------------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 5))
    pairs = list(combinations(range(n), 2))
    return Graph(n, tuple(e for e in pairs if draw(st.booleans())))


corpus = st.sampled_from(list(CORPUS.values()))

# Per format: writer, parser, and a strategy for the values it writes.
FORMATS = {
    "instance": (instance_to_text, instance_from_text, instance_and_service().map(lambda p: p[0])),
    "service": (service_to_text, service_from_text, instance_and_service().map(lambda p: p[1])),
    "graph": (graph_to_text, graph_from_text, st.one_of(corpus, graphs())),
    "reduction": (
        reduction_to_text,
        reduction_from_text,
        st.builds(generate, corpus, st.sampled_from(MODELS), st.integers(1, 2)),
    ),
}
NOT_INTEGERS = ["x", "-1", "+1", "1_0", "1.0", "\u0663", "\u00b2"]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_round_trip_is_exact(fmt, data):
    write, parse, values = FORMATS[fmt]
    value = data.draw(values)
    text = write(value)
    again = parse(text)
    assert again == value
    assert write(again) == text


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_garbage_integer_is_a_format_error(fmt, data):
    write, parse, values = FORMATS[fmt]
    lines = [line.split() for line in write(data.draw(values)).splitlines()]
    integers = [(i, j) for i, parts in enumerate(lines) for j, t in enumerate(parts) if t.isdigit()]
    i, j = data.draw(st.sampled_from(integers))
    lines[i][j] = data.draw(st.sampled_from(NOT_INTEGERS))
    with pytest.raises(FormatError):
        parse("\n".join(" ".join(parts) for parts in lines) + "\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_blank_lines_change_nothing(fmt, data):
    write, parse, values = FORMATS[fmt]
    value = data.draw(values)
    lines = write(value).splitlines()
    for _ in range(data.draw(st.integers(1, 5))):
        blank = data.draw(st.sampled_from(["", " ", "\t"]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    assert parse("\n".join(lines) + "\n") == value
