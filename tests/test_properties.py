"""Structural property checks, service construction/extraction, diagnostics."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from gencaching import (
    CORPUS,
    Graph,
    InvalidServiceError,
    MissingRolesError,
    NotIndependentError,
    ReductionOutput,
    Service,
    check_properties,
    construct_service_from_is,
    diagnostics,
    diagnostics_to_csv,
    extract_is,
    generate,
    max_independent_set,
    reduce_bit_optional,
    reduce_fault_optional,
    reduce_simple,
    savings,
    solve_exact,
    validate_service,
    vertex_page_id,
)
from mutations import (
    MUTATIONS,
    base_output,
    interleave_edges,
    repeat_in_last_block,
    shift_bit_request,
)
from randgen import gap_pairs, gap_rows

WEDGE = Graph(3, ((0, 2), (1, 2)))
K2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
ISOLATED = [Graph(3, ((0, 1),)), Graph(2, ())]  # vertex 2 / both vertices isolated


# --- property checks -----------------------------------------------------------


@pytest.mark.parametrize("graph", [K2, WEDGE, K3])
@pytest.mark.parametrize("H", [1, 2])
def test_generated_fault_instances_satisfy_all_properties(graph, H):
    assert check_properties(reduce_fault_optional(graph, H)).all_ok


@pytest.mark.parametrize("graph", [K2, WEDGE, *ISOLATED])
def test_generated_bit_and_simple_instances_satisfy_all_properties(graph):
    assert check_properties(reduce_bit_optional(graph, H=2)).all_ok
    assert check_properties(reduce_simple(graph)).all_ok


def test_property_report_text_shape():
    report = check_properties(reduce_fault_optional(K2, H=1))
    lines = report.to_text().splitlines()
    assert lines == [f"{key} PASS" for key in "abcdef"]


@pytest.mark.parametrize("key", sorted(MUTATIONS))
def test_each_mutation_trips_exactly_its_property(key):
    report = check_properties(MUTATIONS[key](base_output()))
    failed = sorted(k for k, chk in report.checks.items() if not chk.ok)
    assert failed == [key]
    assert report.checks[key].witness  # says what went wrong, not just that


# Leading 16 hex digits of one sha256 over check_properties(out).to_text(), the
# same with the sidecar H raised by one, and diagnostics_to_csv of the
# easy-direction service of a maximum independent set, for every corpus graph
# and both isolated-vertex graphs under fault H=1/H=2, bit H=1 and simple;
# then check_properties(...).to_text() of each single-property mutation.
REPORTS_DIGEST = "603f2b5ff875086a"


def test_reports_and_diagnostics_pinned():
    digest = hashlib.sha256()
    for graph in [*CORPUS.values(), *ISOLATED]:
        _, mis = max_independent_set(graph)
        for model, H in [("fault", 1), ("fault", 2), ("bit", 1), ("simple", None)]:
            out = generate(graph, model, H)
            svc = construct_service_from_is(out, mis)
            for text in (
                check_properties(out).to_text(),
                check_properties(dataclasses.replace(out, H=out.H + 1)).to_text(),
                diagnostics_to_csv(diagnostics(out, svc)),
            ):
                digest.update(text.encode())
    for key in sorted(MUTATIONS):
        digest.update(check_properties(MUTATIONS[key](base_output())).to_text().encode())
    assert digest.hexdigest()[:16] == REPORTS_DIGEST


def test_repeated_request_names_its_block():
    # e0.1.carry_back spans blocks 1..5; the repeat is in block 5, not its first.
    report = check_properties(repeat_in_last_block(base_output()))
    assert sorted(k for k, chk in report.checks.items() if not chk.ok) == ["b"]
    assert report.checks["b"].witness == "page e0.1.carry_back: requested twice in block 5"


def _failed(report) -> dict[str, str]:
    return {k: chk.witness for k, chk in report.checks.items() if not chk.ok}


def test_interleaved_edges_fail_d_but_keep_e():
    # Block 5 riffles edge 0's carry_front/carry_back section with edge 1's
    # lead_in pages: the edges are out of order, but each edge's early
    # requests still come before its late ones.
    mutated = interleave_edges(base_output())
    assert _failed(check_properties(mutated)) == {"d": "block 5: edge 0 follows edge 1"}


def test_bit_spacing_off_by_one_block_names_it():
    # e0.1.lead_in moves from inserted block 4 (slot 4) to block 5 (slot
    # 5): two blocks without it after block 2, where a size-2 page needs one.
    out = reduce_bit_optional(K2, H=1)
    assert _failed(check_properties(shift_bit_request(out))) == {
        "b": "page e0.1.lead_in: separation after block 2 is not 1"
    }


def test_sidecar_H_must_match_the_lead_pages():
    out = reduce_fault_optional(K2, H=1)
    report = check_properties(dataclasses.replace(out, H=out.H + 1))
    assert sorted(k for k, chk in report.checks.items() if not chk.ok) == ["c"]


def test_missing_roles_detected():
    out = reduce_fault_optional(K2, H=1)
    stripped = dict(out.page_roles)
    del stripped[vertex_page_id(0)]
    broken = ReductionOutput(
        instance=out.instance,
        model=out.model,
        graph=out.graph,
        H=out.H,
        page_roles=stripped,
    )
    with pytest.raises(MissingRolesError):
        check_properties(broken)


# --- service construction from an independent set ---------------------------------


def test_bit_encoding_holds_with_isolated_vertices():
    # The cache of 1 holds each vertex page across its own phase: threshold(2) = 2.
    assert solve_exact(reduce_bit_optional(Graph(2, ()), H=1).instance).optimal_savings == 2
    for graph in ISOLATED:
        k, mis = max_independent_set(graph)
        for H in (1, 2):
            out = reduce_bit_optional(graph, H)
            svc = construct_service_from_is(out, mis)
            assert validate_service(out.instance, svc).ok
            assert savings(out.instance, svc) == out.threshold(k)


def test_construct_names_a_missing_role():
    out = reduce_fault_optional(K2, H=1)
    with pytest.raises(MissingRolesError, match=r"\(0, 2, lead_in\)"):
        construct_service_from_is(dataclasses.replace(out, H=7), {0})
    roles = {pid: role for pid, role in out.page_roles.items() if pid != vertex_page_id(1)}
    with pytest.raises(MissingRolesError, match="vertex 1"):
        construct_service_from_is(dataclasses.replace(out, page_roles=roles), {1})


def test_constructed_service_hits_threshold_fault():
    out = reduce_fault_optional(WEDGE, H=2)
    for w, want in [({0, 1}, 70), ({2}, 69), (set(), 68)]:
        svc = construct_service_from_is(out, frozenset(w))
        assert validate_service(out.instance, svc).ok
        assert savings(out.instance, svc) == out.threshold(len(w)) == want


def test_constructed_service_hits_threshold_bit():
    out = reduce_bit_optional(WEDGE, H=2)
    svc = construct_service_from_is(out, frozenset({0, 1}))
    assert validate_service(out.instance, svc).ok
    assert savings(out.instance, svc) == out.threshold(2) == 410


def test_constructed_service_hits_threshold_simple():
    out = reduce_simple(K3)
    svc = construct_service_from_is(out, frozenset({1}))
    assert savings(out.instance, svc) == out.threshold(1) == 157


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_constructed_service_needs_no_normalizing(name):
    # construct_service_from_is writes one ordinal run per cached page, not pairs.
    graph = CORPUS[name]
    _, mis = max_independent_set(graph)
    for model, H in [("fault", 2), ("bit", 1), ("simple", None)]:
        out = generate(graph, model, H)
        for w in (mis, frozenset()):
            svc = construct_service_from_is(out, w)
            assert svc == Service.of(list(gap_pairs(svc)))
            assert all(type(pid) is str and type(ordinal) is int for pid, ordinal in gap_pairs(svc))
            assert all(len(rs) == 1 for rs in svc.runs.values())
            assert all(pid is out.instance.pages[pid].id for pid in svc.runs)
            assert savings(out.instance, svc) == out.threshold(len(w))


def test_construct_rejects_dependent_or_unknown_vertices():
    out = reduce_fault_optional(WEDGE, H=1)
    with pytest.raises(NotIndependentError):
        construct_service_from_is(out, frozenset({0, 2}))
    with pytest.raises(NotIndependentError):
        construct_service_from_is(out, frozenset({5}))


def test_extract_inverts_construct():
    out = reduce_fault_optional(WEDGE, H=2)
    for w in [set(), {0}, {2}, {0, 1}]:
        svc = construct_service_from_is(out, frozenset(w))
        assert extract_is(out, svc) == frozenset(w)


def test_extract_ignores_edge_page_gaps():
    out = reduce_fault_optional(K2, H=1)
    svc = construct_service_from_is(out, frozenset({1}))
    edge_only = Service.of(
        (p, k) for p, k in gap_pairs(svc) if not p.startswith("v")
    )
    assert extract_is(out, edge_only) == frozenset()


# --- diagnostics ------------------------------------------------------------------


def test_diagnostics_of_easy_service():
    out = reduce_fault_optional(WEDGE, H=2)
    svc = construct_service_from_is(out, frozenset({0, 1}))
    diag = diagnostics(out, svc)
    m, H, n = out.graph.m, out.H, out.graph.n
    assert diag.slots == m * H
    assert len(diag.s_edge) == out.d
    assert diag.delta[0] == m * H  # nothing can be carried into the start
    assert all(v == 0 for v in diag.delta[1:])
    assert all(v <= 1 for v in diag.epsilon)
    for j in range(m):
        inner = sum(diag.gamma_edge[b][j] for b in range(1, out.d - 1))
        assert inner <= 6 * n


def test_diagnostics_of_empty_service():
    out = reduce_fault_optional(K2, H=2)
    diag = diagnostics(out, Service.of([]))
    assert all(v == 0 for v in diag.s)
    assert all(v == out.graph.m * out.H for v in diag.delta)
    assert all(v == 0 for v in diag.epsilon)
    assert all(v == 0 for v in diag.phi)


def test_diagnostics_requires_valid_service():
    out = reduce_fault_optional(K2, H=1)
    everything = Service.of((page, k) for page, k, _, _ in gap_rows(out.instance))
    assert not validate_service(out.instance, everything).ok
    with pytest.raises(InvalidServiceError):
        diagnostics(out, everything)


def test_diagnostics_needs_groups_1_to_H_for_every_edge():
    out = reduce_fault_optional(K2, H=1)
    svc = construct_service_from_is(out, frozenset({0}))
    assert diagnostics(out, svc).delta[:3] == (1, 0, 0)
    with pytest.raises(MissingRolesError, match=r"groups 1\.\.7 of edge 0"):
        diagnostics(dataclasses.replace(out, H=7), svc)


@pytest.mark.parametrize("edge", [2, 40, -1])
def test_diagnostics_rejects_a_role_of_an_edge_the_graph_lacks(edge):
    # P3 has edges 0 and 1.  Edges 2 and -1 counted the page in another
    # block's row, and edge 40, past the last block, raised a bare IndexError.
    out = reduce_fault_optional(CORPUS["P3"], H=1)
    svc = construct_service_from_is(out, frozenset({0}))
    roles = dict(out.page_roles)
    roles["e0.1.lead_in"] = dataclasses.replace(roles["e0.1.lead_in"], edge=edge)
    message = rf"'e0\.1\.lead_in' has a role of edge {edge}, but the graph has 2 edges"
    with pytest.raises(MissingRolesError, match=message):
        diagnostics(dataclasses.replace(out, page_roles=roles), svc)


def test_diagnostics_csv_shape():
    out = reduce_fault_optional(K2, H=1)
    svc = construct_service_from_is(out, frozenset({0}))
    text = diagnostics_to_csv(diagnostics(out, svc))
    lines = text.splitlines()
    assert lines[0] == "block,edge,s,delta,gamma,epsilon,phi"
    assert len(lines) == 1 + out.d * out.graph.m
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    last = lines[-1].split(",")
    assert last[4] == ""  # no gamma after the final block
