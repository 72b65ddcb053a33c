"""Graph-to-caching reductions: counts, block patterns, models, transforms."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencaching import (
    CORPUS,
    FORCED,
    BudgetExceeded,
    FormatError,
    Graph,
    InstanceError,
    InvalidServiceError,
    MODEL_BIT,
    MODEL_FAULT,
    MODEL_SIMPLE,
    OPTIONAL,
    Service,
    UnknownGapError,
    default_H,
    edge_page_id,
    gap_table,
    generate,
    graph_from_text,
    graph_to_text,
    instance_from_text,
    instance_to_text,
    make_instance,
    optional_to_forced,
    reduce_bit_optional,
    reduce_fault_optional,
    reduce_simple,
    reduction_from_text,
    reduction_to_text,
    request_positions,
    savings,
    solve_brute_force,
    solve_exact,
    validate_service,
    vertex_page_id,
)
from gencaching.reductions import BLOCK_INSERTED, instance_or_reduction_from_text
from randgen import gap_rows

WEDGE = Graph(3, ((0, 2), (1, 2)))  # two edges sharing a vertex
PATH3 = Graph(3, ((0, 1), (1, 2)))
K2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


def by_block(instance):
    table: dict[int | None, list[str]] = {}
    for r in instance.requests:
        table.setdefault(r.block, []).append(r.page)
    return table


# --- graphs -----------------------------------------------------------------


def test_graph_normalizes_edge_orientation():
    assert Graph(3, ((2, 0), (1, 2))).edges == ((0, 2), (1, 2))


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(InstanceError):
        Graph(2, ((1, 1),))
    with pytest.raises(InstanceError):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(InstanceError):
        Graph(2, ((0, 3),))


def test_graph_text_round_trip():
    text = graph_to_text(WEDGE)
    assert graph_from_text(text) == WEDGE
    assert graph_to_text(graph_from_text(text)) == text
    for bad in ["3\n0 2\n", "2 1\n0 +1\n"]:
        with pytest.raises(FormatError):
            graph_from_text(bad)


@pytest.mark.parametrize(
    "text, where",
    [
        ("2 1\n1 1\n", "line 2: self-loop at vertex 1"),
        ("2 1\n0 5\n", r"line 2: edge \(0, 5\) out of range"),
        ("3 2\n0 1\n\n1 0\n", r"line 4: duplicate edge \(0, 1\)"),
    ],
)
def test_graph_errors_name_their_line(text, where):
    with pytest.raises(FormatError, match=where):
        graph_from_text(text)


@pytest.mark.parametrize(
    "edges, what",
    [
        ("edge 1 1\n", "self-loop at vertex 1"),
        ("edge 0 5\n", r"edge \(0, 5\) out of range"),
        ("edge 0 1\nedge 1 0\n", r"duplicate edge \(0, 1\)"),
    ],
)
def test_sidecar_edge_errors_name_their_line(edges, what):
    text = reduction_to_text(reduce_fault_optional(K2, H=1))
    graph_line = text.splitlines().index("graph 2 1") + 1
    m = edges.count("\n")  # the bad edge is the last of the m edge lines
    text = text.replace("graph 2 1\nedge 0 1\n", f"graph 2 {m}\n{edges}")
    with pytest.raises(FormatError, match=f"line {graph_line + m}: {what}"):
        reduction_from_text(text)


# --- group count heuristic ----------------------------------------------------


def test_default_group_count():
    assert default_H(WEDGE) == 6 * 2 * 3 + 3 * 3 + 1 == 46
    assert default_H(K2) == 19
    assert default_H(K3) == 64
    assert default_H(Graph(1, ())) == 4


# --- fault reduction ----------------------------------------------------------


@pytest.mark.parametrize("graph", [K2, PATH3, WEDGE, K3])
@pytest.mark.parametrize("H", [1, 2, 3])
def test_fault_counting_invariants(graph, H):
    out = reduce_fault_optional(graph, H)
    n, m = graph.n, graph.m
    assert out.instance.capacity == 2 * m * H + 1
    assert out.d == 4 * m * H + 2
    assert len(out.instance.pages) == 6 * m * H + n
    assert out.threshold(0) == (out.d - 1) * m * H
    assert out.instance.policy == OPTIONAL
    assert all(p.cost == 1 for p in out.instance.pages.values())
    sizes = {p.size for p in out.instance.pages.values()}
    assert sizes <= {1, 2, 3}


def test_fault_block_contents_pinned():
    out = reduce_fault_optional(WEDGE, H=2)
    table = by_block(out.instance)
    assert table[0] == [
        "e0.1.lead_in",
        "e0.2.lead_in",
        "e1.1.lead_in",
        "e1.2.lead_in",
    ]
    assert table[1] == [
        "e0.1.lead_in",
        "e0.1.wide_front",
        "e0.2.lead_in",
        "e0.1.carry_back",
        "e1.1.lead_in",
        "e1.2.lead_in",
    ]
    assert table[3] == [
        "e0.1.carry_front",
        "e0.2.lead_in",
        "e0.2.wide_front",
        "e0.1.carry_back",
        "e0.2.carry_back",
        "e1.1.lead_in",
        "e1.2.lead_in",
    ]
    assert table[4] == [
        "e0.1.carry_front",
        "e0.2.wide_front",
        "e0.2.carry_front",
        "e0.1.carry_back",
        "e0.2.carry_back",
        "e1.1.lead_in",
        "e1.2.lead_in",
    ]
    # Edge 0 idles between its front and back anchor runs.
    assert table[5][:4] == [
        "e0.1.carry_front",
        "e0.2.carry_front",
        "e0.1.carry_back",
        "e0.2.carry_back",
    ]
    assert table[11] == [
        "e0.2.carry_front",
        "e0.1.lead_out",
        "e0.2.carry_back",
        "e0.2.wide_back",
        "e1.1.carry_front",
        "e1.2.carry_front",
        "e1.1.carry_back",
        "e1.2.carry_back",
    ]
    assert table[12][:4] == [
        "e0.2.carry_front",
        "e0.1.lead_out",
        "e0.2.wide_back",
        "e0.2.lead_out",
    ]
    assert table[17] == [
        "e0.1.lead_out",
        "e0.2.lead_out",
        "e1.1.lead_out",
        "e1.2.lead_out",
    ]


def test_fault_vertex_requests_straddle_their_phase():
    out = reduce_fault_optional(WEDGE, H=2)
    inst = out.instance
    for v in range(3):
        pid = vertex_page_id(v)
        positions = [r.position for r in inst.requests if r.page == pid]
        assert len(positions) == 2
        assert all(r.block is None for r in inst.requests if r.page == pid)
        phase_spans = [span for b, span in zip(inst.blocks, inst.spans) if b.vertex == v]
        first, last = phase_spans[0], phase_spans[-1]
        assert positions[0] == first[0] - 1
        assert positions[1] == last[1]


def test_fault_wide_pages_have_distinct_adjacent_anchor_pairs():
    out = reduce_fault_optional(WEDGE, H=3)
    seen = set()
    for pid, role in out.page_roles.items():
        if role.role not in ("wide_front", "wide_back"):
            continue
        blocks = [r.block for r in out.instance.requests if r.page == pid]
        assert len(blocks) == 2 and blocks[1] == blocks[0] + 1
        assert tuple(blocks) not in seen
        seen.add(tuple(blocks))


def test_fault_trivial_graph():
    out = reduce_fault_optional(Graph(1, ()), H=1)
    assert out.instance.capacity == 1
    assert out.d == 2
    assert len(out.instance.pages) == 1
    assert out.threshold(1) == 1
    assert solve_exact(out.instance).optimal_savings == 1


# Leading 16 hex digits of sha256(reduction_to_text) per corpus graph, in the
# order fault H=1, fault H=2, bit H=1, bit H=2, simple.
GENERATOR_DIGESTS = {
    "K2": "e00a9e0ef9f46b7a 6e24f221ebf15050 dd3fe51018e8eb57 c64a5269cf67ba04 16c9de013a098ffa",
    "P3": "4f2ed4b191273aa0 c22d0c878d293a31 8170b782794c39cc de56d3ff543877e8 305e46123ab042fd",
    "K3": "7c228b2e393985d2 01ed5046400b4837 a9dc0e6a117bd1ea bce9dee45994e55b 2e700ae30fd99c21",
    "P4": "69961e498dbfc95b 644cf5835f9a3d55 5081c7c5d0f7b7a9 dc82807199836688 fcd707fa6f8af7e0",
    "K1_3": "61a187f719f800a8 9976f384d2a18aa1 cc44294f35cdb315 6adbdde54d358b70 803d54228ae604fc",
    "C4": "a4481b9571268937 aeaa14519db7bbb3 472a3021bb3883ae d9c084cfeef6a099 33ca238da9f22a0b",
    "C5": "e059d649719c7818 42fb7a9e8dcd3293 422179ec06c2e25d c75831f3f064edff 51f312cc3187cf57",
    "K4": "bc4d24094d8d7758 4c90238f7728f92d 37a1c145dbd11a8b 27d01ad7bd2ab749 c755bc6c4287beb7",
}


# The same for instance_to_text(optional_to_forced(...)) of simple and fault H=1.
FORCED_DIGESTS = {
    "K2": "8bf939d8a9d443d8 d33d9074dae3defb",
    "P3": "630e049dbc770309 3e846659840a221e",
    "K3": "ccceb644bf4e27ae 78d57a6dad432194",
    "P4": "83b7709ec4e62d70 31c00ac9cb1335e7",
    "K1_3": "b2f2ea0c8b8a6561 fe33caaffbcca42b",
    "C4": "abe8ae4ddb2a74a9 225eb841a05a8e33",
    "C5": "fda70dde2a3757a1 a08d017d00a56f5d",
    "K4": "75531a7536525d07 7abc09cca492c25b",
}


# The same for instance_to_text(optional_to_forced(...)) of bit at H=1 and
# fault at H=2.
FORCED_MORE_DIGESTS = {
    "C4": "1942f626bc433acd c24c6a489e71d10f",
    "C5": "610194cc201896fd 152320273278ee2c",
    "K1_3": "0db8c79578019d2b a7d63a6a3f079aee",
    "K2": "41d3166d2df3bb57 711ae8ef402ef3fd",
    "K3": "4581bb18cd5311c2 a47fd95ef362da6e",
    "K4": "a9ebf484c4da9d03 d6a5e4341fe06d3d",
    "P3": "8697ae422210a0f4 5a20b0468293cd45",
    "P4": "fccf8990c090848c 5d8bb465ec1cfa53",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_pinned(name):
    runs = [(MODEL_FAULT, 1), (MODEL_FAULT, 2), (MODEL_BIT, 1), (MODEL_BIT, 2), (MODEL_SIMPLE, 1)]
    outputs = {run: generate(CORPUS[name], *run) for run in runs}
    texts = [reduction_to_text(out) for out in outputs.values()]
    assert tuple(map(_digest, texts)) == tuple(GENERATOR_DIGESTS[name].split())
    # Parsing and writing again gives the same bytes.
    again = [reduction_to_text(reduction_from_text(text)) for text in texts]
    assert tuple(map(_digest, again)) == tuple(GENERATOR_DIGESTS[name].split())
    forced = [
        instance_to_text(optional_to_forced(outputs[run]))
        for run in [(MODEL_SIMPLE, 1), (MODEL_FAULT, 1)]
    ]
    assert tuple(map(_digest, forced)) == tuple(FORCED_DIGESTS[name].split())
    forced = [
        instance_to_text(optional_to_forced(outputs[run])) for run in [(MODEL_BIT, 1), (MODEL_FAULT, 2)]
    ]
    assert tuple(map(_digest, forced)) == tuple(FORCED_MORE_DIGESTS[name].split())


# --- bit reduction ------------------------------------------------------------


@pytest.mark.parametrize("graph", [K2, PATH3, WEDGE])
@pytest.mark.parametrize("H", [1, 2, 3])
def test_bit_counting_invariants(graph, H):
    fault = reduce_fault_optional(graph, H)
    bit = reduce_bit_optional(graph, H)
    assert bit.d == 6 * fault.d - 5
    assert bit.instance.capacity == fault.instance.capacity
    assert len(bit.instance.pages) == len(fault.instance.pages)
    assert all(p.cost == p.size for p in bit.instance.pages.values())
    assert bit.threshold(0) == 6 * fault.threshold(0)


def test_bit_deleting_inserted_blocks_recovers_fault_stream():
    fault = reduce_fault_optional(WEDGE, H=2)
    bit = reduce_bit_optional(WEDGE, H=2)
    kept = [b for b in bit.instance.blocks if b.kind != BLOCK_INSERTED]
    renumber = {b.id: i for i, b in enumerate(kept)}
    assert [(b.kind, b.vertex) for b in kept] == [
        (b.kind, b.vertex) for b in fault.instance.blocks
    ]
    survivors = [
        (r.page, renumber[r.block] if r.block is not None else None)
        for r in bit.instance.requests
        if r.block is None or r.block in renumber
    ]
    assert survivors == [(r.page, r.block) for r in fault.instance.requests]


def test_bit_inserted_block_contents_pinned():
    bit = reduce_bit_optional(WEDGE, H=2)
    table = by_block(bit.instance)
    inserted = [b for b in bit.instance.blocks if b.kind == BLOCK_INSERTED]
    # First boundary: four shared size-2 pages, no size-3 page in common.
    first_five = inserted[:5]
    assert [b.slot for b in first_five] == [1, 2, 3, 4, 5]
    shared = ["e0.1.lead_in", "e0.2.lead_in", "e1.1.lead_in", "e1.2.lead_in"]
    assert table.get(first_five[0].id, []) == []
    assert table[first_five[1].id] == shared
    assert table.get(first_five[2].id, []) == []
    assert table[first_five[3].id] == shared
    assert table.get(first_five[4].id, []) == []
    # Slot 3 holds the one shared size-3 page, where the boundary has one.
    wide_boundaries = [b.id for b in inserted if b.slot == 3 and table.get(b.id)]
    assert wide_boundaries
    assert all(
        len(table[bid]) == 1 and bit.instance.pages[table[bid][0]].size == 3
        for bid in wide_boundaries
    )


def test_bit_gap_multiplicities_per_page():
    from gencaching import request_positions

    fault = reduce_fault_optional(WEDGE, H=2)
    bit = reduce_bit_optional(WEDGE, H=2)
    fault_counts = {p: len(v) - 1 for p, v in request_positions(fault.instance).items()}
    bit_counts = {p: len(v) - 1 for p, v in request_positions(bit.instance).items()}
    for pid, role in fault.page_roles.items():
        if role.role == "vertex":
            assert bit_counts[pid] == fault_counts[pid]
        elif bit.instance.pages[pid].size == 2:
            assert bit_counts[pid] == 3 * fault_counts[pid]
        else:
            assert bit_counts[pid] == 2 * fault_counts[pid]


# --- simple (two-cost) reduction ----------------------------------------------


def test_simple_counting_and_costs():
    out = reduce_simple(K2)
    assert out.instance.capacity == 3
    assert out.d == 6
    assert len(out.instance.pages) == 8
    assert out.instance.cost_scale == 3
    assert out.H == 1
    for pid, page in out.instance.pages.items():
        assert page.cost == (1 if out.page_roles[pid].role == "vertex" else 3)
    assert out.threshold(1) == 5 * 1 * 3 + 1 == 16


def test_simple_optimum_frozen():
    assert solve_exact(reduce_simple(K2).instance).optimal_savings == 16
    assert solve_exact(reduce_simple(K3).instance).optimal_savings == 157


@pytest.mark.parametrize("model", [MODEL_FAULT, MODEL_BIT, MODEL_SIMPLE])
@pytest.mark.parametrize("H", [0, -1, True, False, 2.0, "x", {}])
def test_generate_validates_H_in_every_model(model, H):
    with pytest.raises(InstanceError, match="H must be a positive int"):
        generate(K2, model, H)


def test_simple_takes_any_valid_H_and_uses_1():
    assert generate(K3, MODEL_SIMPLE, 5) == generate(K3, MODEL_SIMPLE) == reduce_simple(K3)
    assert generate(K3, MODEL_SIMPLE, 5).H == 1


# --- optional-to-forced transform ----------------------------------------------


@pytest.mark.parametrize(
    "model, reduce",
    [
        (MODEL_FAULT, lambda: reduce_fault_optional(K3, H=2)),
        (MODEL_BIT, lambda: reduce_bit_optional(K3, H=2)),
        (MODEL_SIMPLE, lambda: reduce_simple(K3)),
        ("made-up", None),
    ],
)
def test_generate_dispatches_on_model(model, reduce):
    if reduce is None:
        with pytest.raises(ValueError):
            generate(K3, model, 2)
    else:
        assert generate(K3, model, 2) == reduce()


def test_forced_transform_structure():
    inst = make_instance(
        3, [("a", 2, 5), ("b", 1, 1)], [("a", None), ("b", None), ("a", None)], ()
    )
    forced = optional_to_forced(inst)
    assert forced.policy == FORCED
    assert forced.capacity == 5
    assert len(forced.requests) == 6
    fresh = [p for p in forced.pages.values() if p.id not in inst.pages]
    assert len(fresh) == 3
    assert all(p.size == 2 and p.cost == 1 for p in fresh)
    assert [r.page for r in forced.requests] == ["a", "q0", "b", "q1", "a", "q2"]


def test_forced_transform_avoids_id_collisions():
    inst = make_instance(2, [("q0", 1, 1)], [("q0", None), ("q0", None)], ())
    forced = optional_to_forced(inst)
    assert {"qq0", "qq1"} <= set(forced.pages)


def test_forced_transform_preserves_optimum():
    inst = make_instance(
        4,
        [("a", 2, 2), ("b", 2, 1), ("c", 1, 3)],
        [(p, None) for p in ["a", "b", "c", "a", "c", "b", "a"]],
        (),
    )
    want = solve_exact(inst).optimal_savings
    forced = optional_to_forced(inst)
    assert solve_exact(forced).optimal_savings == want
    assert solve_brute_force(forced).optimal_savings == want


def test_forced_transform_bit_cost_rule():
    bit = reduce_bit_optional(K2, H=1)
    forced = optional_to_forced(bit)
    fresh = [p for p in forced.pages.values() if p.id not in bit.instance.pages]
    assert all(p.cost == p.size == 3 for p in fresh)
    fault = reduce_fault_optional(K2, H=1)
    forced_fault = optional_to_forced(fault)
    fresh_fault = [
        p for p in forced_fault.pages.values() if p.id not in fault.instance.pages
    ]
    assert all(p.cost == 1 and p.size == 3 for p in fresh_fault)


def _outcome(fn, *args):
    """What fn(*args) returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (BudgetExceeded, InvalidServiceError, UnknownGapError) as exc:
        return type(exc), str(exc)


def assert_rule_matches_explicit_twin(optional, forced, services, solvers=()):
    """The forced instance, with its fresh requests as a rule, answers as the
    explicit instance read back from its text: requests, request index,
    gaps, validation and savings of each service, and each of `solvers`."""
    twin = instance_from_text(instance_to_text(forced))
    assert forced.num_requests == twin.num_requests == 2 * optional.num_requests
    assert list(forced.requests) == list(twin.requests)
    assert forced.requests[::-3] == twin.requests[::-3]
    assert gap_table(forced) == gap_table(twin)
    assert list(request_positions(forced).items()) == list(request_positions(twin).items())
    assert dict(forced.pages) == dict(twin.pages)
    for service in services:
        assert _outcome(validate_service, forced, service) == _outcome(validate_service, twin, service)
        assert _outcome(savings, forced, service) == _outcome(savings, twin, service)
    for solver in solvers:
        assert _outcome(solver, forced) == _outcome(solver, twin)


def random_services(instance, rng, count):
    """The empty service, two that name gaps the forced instance does not
    have, and `count` random gap subsets of `instance`, dense and sparse."""
    gaps = gap_rows(instance)
    services = [Service(), Service.of([("q0", 0)]), Service.of([(gaps[0][0], 10**6)] if gaps else [])]
    for i in range(count):
        keep = (0.02, 0.1, 0.3, 0.6)[i % 4]
        services.append(Service.of((page, k) for page, k, _, _ in gaps if rng.random() < keep))
    return services


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize(
    "model, H", [(MODEL_FAULT, 1), (MODEL_BIT, 1), (MODEL_SIMPLE, 1), (MODEL_FAULT, 2), (MODEL_BIT, 2)]
)
def test_forced_rule_matches_its_explicit_twin_on_the_corpus(name, model, H):
    out = generate(CORPUS[name], model, H)
    rng = random.Random(f"{name} {model} {H}")
    services = random_services(out.instance, rng, 12)
    index = request_positions(out.instance)
    services.append(Service({pid: ((0, len(pos) - 2),) for pid, pos in index.items() if len(pos) > 1}))
    # The DP's k grows with H and the graph, so only the smaller cases are
    # solved, and their optimal witness validated; brute force is compared
    # on the tiny instances below.
    solvers = ()
    if H == 1 and name not in ("C5", "K4"):
        services.append(solve_exact(out.instance).witness)
        solvers = (solve_exact,)
    assert_rule_matches_explicit_twin(out.instance, optional_to_forced(out), services, solvers)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), max_size=12),
    st.randoms(use_true_random=False),
)
def test_forced_rule_matches_its_explicit_twin_hypothesis(capacity, pages, picks, rng):
    table = [(f"p{i}", size, cost) for i, (size, cost) in enumerate(pages)]
    inst = make_instance(capacity, table, [(f"p{i % len(pages)}", None) for i in picks], ())
    services = random_services(inst, rng, 8)
    solvers = (solve_exact, solve_brute_force)
    assert_rule_matches_explicit_twin(inst, optional_to_forced(inst), services, solvers)


def test_forced_transform_rejects_forced_input():
    inst = make_instance(2, [("p", 1, 1)], [("p", None)], (), FORCED)
    with pytest.raises(InstanceError):
        optional_to_forced(inst)


# --- reduction text format ------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: reduce_fault_optional(WEDGE, H=2),
        lambda: reduce_bit_optional(K2, H=1),
        lambda: reduce_simple(PATH3),
    ],
)
def test_reduction_text_round_trip(make):
    out = make()
    text = reduction_to_text(out)
    again = reduction_from_text(text)
    assert again == out
    assert reduction_to_text(again) == text


def test_a_solver_input_is_an_instance_or_a_reduction_text():
    out = reduce_fault_optional(K2, H=1)
    for inst in (out.instance, optional_to_forced(out)):
        text = instance_to_text(inst)
        assert instance_to_text(instance_or_reduction_from_text(text)) == text
    text = reduction_to_text(out)
    assert instance_to_text(instance_or_reduction_from_text(text)) == instance_to_text(out.instance)
    with pytest.raises(FormatError, match="unknown model"):
        instance_or_reduction_from_text(text.replace("model fault", "model made-up"))


def test_reduction_text_rejects_apocrypha():
    out = reduce_fault_optional(K2, H=1)
    text = reduction_to_text(out)
    with pytest.raises(FormatError):
        reduction_from_text(text + "tail\n")
    with pytest.raises(FormatError):
        reduction_from_text(text.replace("model fault", "model made-up"))
    with pytest.raises(FormatError):
        reduction_from_text(instance_to_text(out.instance))
    with pytest.raises(FormatError):
        reduction_from_text(text.replace("e0.1.lead_in lead_in", "e0.1.lead_in lead_up"))
    with pytest.raises(FormatError):
        reduction_from_text(text.replace("phases 0 1", "phases 0 0 7"))
    line = text.splitlines().index("phases 0 1") + 1
    with pytest.raises(FormatError, match=f"^line {line}: phases must read 0..1"):
        reduction_from_text(text.replace("phases 0 1", "phases 1 0"))
    for h in ["0", "-3"]:
        with pytest.raises(FormatError):
            reduction_from_text(text.replace("\nH 1\n", f"\nH {h}\n"))
    simple = reduction_to_text(reduce_simple(K2))
    with pytest.raises(FormatError):
        reduction_from_text(simple.replace("\nH 1\n", "\nH 2\n"))
