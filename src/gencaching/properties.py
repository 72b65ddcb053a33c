"""Structural properties, easy-direction services, and block diagnostics.

`check_properties` checks the six properties (a)-(f) that every generated
instance satisfies, each stated on the function that checks it.
`diagnostics` measures the cache carry per block and edge.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import filterfalse
from operator import add
from typing import Iterable, Mapping

from .core import (
    BLOCK_PHASE,
    InvalidServiceError,
    Service,
    merged_occupancy_runs,
    request_positions,
    validate_service,
)
from .reductions import (
    MODEL_BIT,
    FAMILY_WIDE_BACK,
    FAMILY_WIDE_FRONT,
    ROLE_CARRY_BACK,
    ROLE_CARRY_FRONT,
    ROLE_LEAD_IN,
    ROLE_LEAD_OUT,
    ROLE_VERTEX,
    WIDE_ROLES,
    ReductionOutput,
)


class NotIndependentError(ValueError):
    """The given vertex set is not independent in the reduction's graph."""


class MissingRolesError(ValueError):
    """The reduction output lacks role metadata for a requested page."""


@dataclass(frozen=True)
class PropertyCheck:
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class PropertyReport:
    checks: Mapping[str, PropertyCheck]

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self.checks.values())

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.checks):
            check = self.checks[key]
            lines.append(f"{key} PASS" if check.ok else f"{key} FAIL {check.witness}")
        return "\n".join(lines) + "\n"


def _roles_of_requested(output: ReductionOutput) -> None:
    for pid in filterfalse(output.page_roles.__contains__, output.instance.request_pages):
        raise MissingRolesError(f"no role recorded for requested page {pid!r}")


def _check_a(output: ReductionOutput) -> str:
    """(a) Each vertex page is requested exactly twice, outside all blocks, right
    before and right after its phase; a vertex with no phase blocks has its two
    requests adjacent."""
    positions = request_positions(output.instance)
    block_of = output.instance.request_blocks.__getitem__
    vertex_pages = {
        role.vertex: pid for pid, role in output.page_roles.items() if role.role == ROLE_VERTEX
    }
    phase_spans: dict[int, tuple[int, int]] = {}
    for b in output.instance.blocks:
        if b.kind == BLOCK_PHASE:
            lo, hi = phase_spans.get(b.vertex, b.span)
            phase_spans[b.vertex] = (min(lo, b.span[0]), max(hi, b.span[1]))
    for v in range(output.graph.n):
        pid = vertex_pages.get(v)
        if pid is None:
            return f"vertex {v} has no vertex page"
        p = positions.get(pid, ())
        if len(p) != 2 or max(map(block_of, p)) >= 0:
            return f"page {pid}: expected exactly two out-of-block requests"
        span = phase_spans.get(v)
        if span is None:
            if p[1] != p[0] + 1:
                return f"page {pid}: requests must be adjacent when vertex {v} has no phase blocks"
        elif p[0] != span[0] - 1 or p[1] != span[1]:
            return f"page {pid}: requests at {p[0]},{p[1]} do not hug phase span {span}"
    return ""


def _check_b(output: ReductionOutput) -> str:
    """(b) Each edge page is requested once per block over a contiguous block
    segment (fault/simple); under the bit model consecutive requests are
    separated by exactly one block without the page for size 2 and exactly two
    for size 3."""
    positions = request_positions(output.instance)
    block_of = output.instance.request_blocks.__getitem__
    bit = output.model == MODEL_BIT
    for pid, role in output.page_roles.items():
        if role.edge is None:
            continue
        p = positions.get(pid)
        if not p:
            return f"page {pid}: never requested"
        bs = list(map(block_of, p))
        if min(bs) < 0:
            return f"page {pid}: requested outside a block"
        # Spans are contiguous and ordered by id, so bs never decreases.
        steps = list(zip(bs, bs[1:]))
        twice = next((b2 for b1, b2 in steps if b2 == b1), None)
        if twice is not None:
            return f"page {pid}: requested twice in block {twice}"
        want = (1 if output.instance.pages[pid].size == 2 else 2) if bit else 0
        bad = next((b1 for b1, b2 in steps if b2 - b1 - 1 != want), None)
        if bad is not None:
            if bit:
                return f"page {pid}: separation after block {bad} is not {want}"
            return f"page {pid}: gap in block segment after block {bad}"
    return ""


def _check_c(output: ReductionOutput) -> str:
    """(c) The initial block requests exactly the H lead_in pages of every edge,
    the final block exactly the H lead_out pages."""
    inst = output.instance
    roles = output.page_roles
    if not inst.blocks:
        return ""
    for border, role_name in ((inst.blocks[0], ROLE_LEAD_IN), (inst.blocks[-1], ROLE_LEAD_OUT)):
        expected: dict[int | None, list[str]] = {}
        for pid, role in roles.items():
            if role.role == role_name:
                expected.setdefault(role.edge, []).append(pid)
        seen: dict[int | None, list[str]] = {}
        for pid in inst.request_pages[border.span[0] : border.span[1]]:
            seen.setdefault(roles[pid].edge, []).append(pid)
        for j in range(output.graph.m):
            got = seen.get(j, [])
            if len(got) != output.H or sorted(got) != sorted(expected.get(j, [])):
                return (
                    f"block {border.id}: edge {j} requests {sorted(got)} "
                    f"!= its {output.H} {role_name} pages"
                )
    return ""


def _check_d(output: ReductionOutput) -> str:
    """(d) Within a block, requests are grouped by edge in edge order."""
    request_pages = output.instance.request_pages
    for b in output.instance.blocks:
        prev = -1
        for pid in request_pages[b.span[0] : b.span[1]]:
            j = output.page_roles[pid].edge
            if j is None:
                return f"block {b.id}: vertex page {pid} inside a block"
            if j < prev:
                return f"block {b.id}: edge {j} follows edge {prev}"
            prev = j
    return ""


def _check_e(output: ReductionOutput) -> str:
    """(e) Within a block, an edge's carry_front/lead_out requests precede its
    lead_in/carry_back requests."""
    request_pages = output.instance.request_pages
    early = {ROLE_CARRY_FRONT, ROLE_LEAD_OUT}
    late = {ROLE_LEAD_IN, ROLE_CARRY_BACK}
    for b in output.instance.blocks:
        last_early: dict[int, int] = {}
        first_late: dict[int, int] = {}
        lo, hi = b.span
        for t, pid in enumerate(request_pages[lo:hi], lo):
            role = output.page_roles[pid]
            if role.role in early:
                last_early[role.edge] = t
            elif role.role in late and role.edge not in first_late:
                first_late[role.edge] = t
        for j, pos in last_early.items():
            if j in first_late and pos > first_late[j]:
                return f"block {b.id}: edge {j} has a late-group request before position {pos}"
    return ""


def _check_f(output: ReductionOutput) -> str:
    """(f) A wide page's two anchor blocks lie in one phase, and no other size-3
    page of the same edge is requested in or between them."""
    positions = request_positions(output.instance)
    blocks = output.instance.blocks
    block_of = output.instance.request_blocks.__getitem__
    wide_blocks: dict[int, list[tuple[str, list[int]]]] = {}
    for pid, role in output.page_roles.items():
        if role.role in WIDE_ROLES:
            bs = [b for b in map(block_of, positions.get(pid, ())) if b >= 0]
            wide_blocks.setdefault(role.edge, []).append((pid, bs))
    for _, entries in sorted(wide_blocks.items()):
        for pid, bs in entries:
            if not bs:
                return f"page {pid}: never requested in a block"
            first, last = blocks[bs[0]], blocks[bs[-1]]
            if first.kind != BLOCK_PHASE or last.kind != BLOCK_PHASE or first.vertex != last.vertex:
                return f"page {pid}: anchor blocks {bs[0]},{bs[-1]} not in one phase"
            for other, obs in entries:
                if other != pid and any(bs[0] <= b <= bs[-1] for b in obs):
                    return f"page {other}: requested between {pid}'s anchors"
    return ""


_CHECKS = {"a": _check_a, "b": _check_b, "c": _check_c, "d": _check_d, "e": _check_e, "f": _check_f}


def check_properties(output: ReductionOutput) -> PropertyReport:
    """Check properties (a)-(f); each failure carries a human-readable witness."""
    _roles_of_requested(output)
    witnesses = {key: check(output) for key, check in _CHECKS.items()}
    return PropertyReport({key: PropertyCheck(not w, w) for key, w in witnesses.items()})


def construct_service_from_is(output: ReductionOutput, selected: Iterable[int]) -> Service:
    """The easy-direction service for an independent set: savings threshold(|W|).

    Caches, for every edge, the four page families whose size-3 member avoids
    the phases of `selected` (all gaps of each page, one ordinal run), plus
    the single gap of every selected vertex's page.
    """
    w = frozenset(selected)
    n = output.graph.n
    for v in w:
        if not 0 <= v < n:
            raise NotIndependentError(f"vertex {v} out of range")
    for u, v in output.graph.edges:
        if u in w and v in w:
            raise NotIndependentError(f"edge ({u}, {v}) has both endpoints selected")
    positions = request_positions(output.instance)
    by_edge_group: dict[tuple[int, int, str], str] = {}
    vertex_pages: dict[int, str] = {}
    for pid, role in output.page_roles.items():
        if role.role == ROLE_VERTEX:
            vertex_pages[role.vertex] = pid
        else:
            by_edge_group[(role.edge, role.group, role.role)] = pid

    runs: dict[str, list[tuple[int, int]]] = {}
    for j, (u, _) in enumerate(output.graph.edges):
        family = FAMILY_WIDE_BACK if u in w else FAMILY_WIDE_FRONT
        for i in range(1, output.H + 1):
            for role_name in family:
                pid = by_edge_group.get((j, i, role_name))
                if pid is None:
                    raise MissingRolesError(
                        f"no page has (edge, group, role) ({j}, {i}, {role_name})"
                    )
                gaps = len(positions.get(pid, ())) - 1
                if gaps > 0:
                    runs[pid] = [(0, gaps - 1)]
    for v in sorted(w):
        if v not in vertex_pages:
            raise MissingRolesError(f"no page has the role of vertex {v}")
        runs[vertex_pages[v]] = [(0, 0)]
    return Service(runs)


def extract_is(output: ReductionOutput, service: Service) -> frozenset[int]:
    """Vertices whose vertex page is cached across its phase (its gap 0 is chosen)."""
    roles = output.page_roles
    return frozenset(
        roles[pid].vertex
        for pid, rs in service.runs.items()
        if pid in roles and roles[pid].role == ROLE_VERTEX and any(a <= 0 <= b for a, b in rs)
    )


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block / per-edge cache-carry measurements for a valid service.

    Row b of `s_edge`/`epsilon_edge`/`phi_edge` is block b; `gamma_edge` has
    one row per block except the last.  `slots` is m*H.
    """

    slots: int
    s_edge: tuple[tuple[int, ...], ...]
    epsilon_edge: tuple[tuple[int, ...], ...]
    phi_edge: tuple[tuple[int, ...], ...]
    gamma_edge: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.s_edge)

    @property
    def delta(self) -> tuple[int, ...]:
        return tuple(self.slots - value for value in self.s)

    @property
    def epsilon(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.epsilon_edge)

    @property
    def phi(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.phi_edge)


def diagnostics(output: ReductionOutput, service: Service) -> BlockDiagnostics:
    """Measure s, delta, gamma, epsilon, phi for a valid service.

    Per block B and edge e: s^e_B is the number of e's pages carried into B,
    delta_B = mH - s_B the slack, gamma^e_B = |s^e_{B'} - s^e_B| the step to
    the next block B', epsilon_B the count of size-3 pages carried in, and
    phi_B the carried pages that leave through the far side (carry_front and
    lead_out roles).  A page is carried into B when a chosen run covers B's
    start position but opened strictly earlier (the cache state entering the
    block); an empty block's start is where it would begin.  `slots` = m*H is
    read from the sidecar `H`, so a role table without exactly groups 1..H for
    every edge raises MissingRolesError.
    """
    _roles_of_requested(output)
    inst = output.instance
    roles = output.page_roles
    m = output.graph.m
    groups: dict[int, set[int | None]] = {j: set() for j in range(m)}
    for role in roles.values():
        if role.edge in groups:
            groups[role.edge].add(role.group)
    for j, got in groups.items():
        if got != set(range(1, output.H + 1)):
            raise MissingRolesError(
                f"the role table does not hold groups 1..{output.H} of edge {j}"
            )
    if not validate_service(inst, service).ok:
        raise InvalidServiceError("diagnostics requires a valid service")
    runs = merged_occupancy_runs(inst, service)
    d = len(inst.blocks)
    starts = [b.span[0] for b in inst.blocks]
    # Diff tables of s, epsilon and phi, each flat with m entries per block: a
    # list per block would add 3(d + 1) objects for the cyclic GC to scan.
    diff_s, diff_eps, diff_phi = carry = [[0] * ((d + 1) * m) for _ in range(3)]
    for pid, page_runs in runs.items():
        role = roles[pid]
        if role.edge is None:
            continue
        j = role.edge
        wide = role.role in WIDE_ROLES
        crossing = role.role in (ROLE_CARRY_FRONT, ROLE_LEAD_OUT)
        tables = [diff_s] + [diff_eps] * wide + [diff_phi] * crossing
        for s0, e0 in page_runs:
            lo = bisect_right(starts, s0)
            hi = bisect_right(starts, e0)
            if lo < hi:
                for diff in tables:
                    diff[lo * m + j] += 1
                    diff[hi * m + j] -= 1
    prefixed = []
    for diff in carry:
        acc = [0] * m
        rows = []
        for b in range(d):
            acc = list(map(add, acc, diff[b * m:(b + 1) * m]))
            rows.append(tuple(acc))
        prefixed.append(tuple(rows))
    s_edge, eps_edge, phi_edge = prefixed
    gamma_edge = tuple(
        tuple(abs(b - a) for a, b in zip(row, after)) for row, after in zip(s_edge, s_edge[1:])
    )
    return BlockDiagnostics(
        slots=m * output.H,
        s_edge=s_edge,
        epsilon_edge=eps_edge,
        phi_edge=phi_edge,
        gamma_edge=gamma_edge,
    )


def diagnostics_to_csv(diag: BlockDiagnostics) -> str:
    """CSV rows per (block, edge): s/gamma/epsilon/phi are per-edge, delta per-block."""
    lines = ["block,edge,s,delta,gamma,epsilon,phi"]
    d = len(diag.s_edge)
    m = len(diag.s_edge[0]) if d else 0
    delta = diag.delta
    for b in range(d):
        for j in range(m):
            gamma = str(diag.gamma_edge[b][j]) if b < d - 1 else ""
            lines.append(
                f"{b},{j},{diag.s_edge[b][j]},{delta[b]},{gamma},"
                f"{diag.epsilon_edge[b][j]},{diag.phi_edge[b][j]}"
            )
    return "\n".join(lines) + "\n"
