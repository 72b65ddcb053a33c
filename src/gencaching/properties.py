"""Structural properties, easy-direction services, and block diagnostics.

The six properties every generated instance satisfies (checked per edge):

  (a) each vertex page is requested exactly twice, outside all blocks, right
      before and right after its phase;
  (b) each edge page is requested once per block over a contiguous block
      segment (fault/simple); under the bit model consecutive requests are
      separated by exactly one block without the page for size 2 and exactly
      two for size 3;
  (c) the initial block requests exactly the H lead_in pages of every edge,
      the final block exactly the H lead_out pages;
  (d) within a block, requests are grouped by edge in edge order;
  (e) within a block, an edge's carry_front/lead_out requests precede its
      lead_in/carry_back requests;
  (f) a wide page's two anchor blocks lie in one phase, and no other size-3
      page of the same edge is requested in or between them.

Diagnostics measure, per block B and edge e, the number s^e_B of e's pages
carried into B (a chosen gap covers B's start but opened strictly earlier),
the slack delta_B = mH - s_B, the step gamma^e_B = |s^e_{B'} - s^e_B| to the
next block, the count epsilon_B of size-3 pages carried in, and phi_B, the
carried pages that leave through the far side (carry_front/lead_out roles).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import filterfalse, repeat
from typing import Iterable, Iterator, Mapping

from .core import (
    BLOCK_PHASE,
    InvalidServiceError,
    Service,
    _validate_runs,
    merged_occupancy_runs,
    request_positions,
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


def check_properties(output: ReductionOutput) -> PropertyReport:
    """Check properties (a)-(f); each failure carries a human-readable witness."""
    _roles_of_requested(output)
    inst = output.instance
    roles = output.page_roles
    blocks = inst.blocks
    request_pages = inst.request_pages
    block_of = inst.request_blocks.__getitem__  # -1 outside all blocks
    positions = request_positions(inst)

    checks: dict[str, PropertyCheck] = {}

    # (a) vertex pages straddle their phase, outside all blocks.
    witness = ""
    vertex_pages = {
        role.vertex: pid for pid, role in roles.items() if role.role == ROLE_VERTEX
    }
    phase_spans: dict[int, tuple[int, int]] = {}
    for b in blocks:
        if b.kind == BLOCK_PHASE:
            lo, hi = phase_spans.get(b.vertex, (b.span[0], b.span[1]))
            phase_spans[b.vertex] = (min(lo, b.span[0]), max(hi, b.span[1]))
    for v in range(output.graph.n):
        pid = vertex_pages.get(v)
        if pid is None:
            witness = f"vertex {v} has no vertex page"
            break
        p = positions.get(pid, ())
        if len(p) != 2 or max(map(block_of, p)) >= 0:
            witness = f"page {pid}: expected exactly two out-of-block requests"
            break
        span = phase_spans.get(v)
        if span is None:
            if p[1] != p[0] + 1:
                witness = f"page {pid}: requests must be adjacent when vertex {v} has no phase blocks"
                break
        elif p[0] != span[0] - 1 or p[1] != span[1]:
            witness = f"page {pid}: requests at {p[0]},{p[1]} do not hug phase span {span}"
            break
    checks["a"] = PropertyCheck(not witness, witness)

    # (b) once per block, contiguous (fault/simple) or 1/2-block separations (bit).
    witness = ""
    for pid, role in roles.items():
        if role.edge is None:
            continue
        p = positions.get(pid)
        if not p:
            witness = f"page {pid}: never requested"
            break
        bs = list(map(block_of, p))
        if min(bs) < 0:
            witness = f"page {pid}: requested outside a block"
            break
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            witness = f"page {pid}: requested twice in block {bs[0]}" if len(set(bs)) < len(bs) else (
                f"page {pid}: block order regresses"
            )
            break
        if output.model == MODEL_BIT:
            want = 1 if inst.pages[pid].size == 2 else 2
            bad = next((b1 for b1, b2 in zip(bs, bs[1:]) if b2 - b1 - 1 != want), None)
            if bad is not None:
                witness = f"page {pid}: separation after block {bad} is not {want}"
                break
        else:
            bad = next((b1 for b1, b2 in zip(bs, bs[1:]) if b2 - b1 != 1), None)
            if bad is not None:
                witness = f"page {pid}: gap in block segment after block {bad}"
                break
    checks["b"] = PropertyCheck(not witness, witness)

    # (c) the initial/final blocks hold exactly each edge's lead_in/lead_out pages.
    witness = ""
    if blocks:
        for border, role_name in ((blocks[0], ROLE_LEAD_IN), (blocks[-1], ROLE_LEAD_OUT)):
            lo, hi = border.span
            seen: dict[int, list[str]] = {}
            for pid in request_pages[lo:hi]:
                seen.setdefault(roles[pid].edge, []).append(pid)
            for j in range(output.graph.m):
                expected = {
                    pid
                    for pid, role in roles.items()
                    if role.edge == j and role.role == role_name
                }
                got = seen.get(j, [])
                if len(got) != len(set(got)) or set(got) != expected or len(got) != output.H:
                    witness = (
                        f"block {border.id}: edge {j} requests {sorted(got)} "
                        f"!= its {output.H} {role_name} pages"
                    )
                    break
            if witness:
                break
    checks["c"] = PropertyCheck(not witness, witness)

    # (d) requests inside a block are grouped by edge, in edge order.
    witness = ""
    for b in blocks:
        prev = -1
        for pid in request_pages[b.span[0] : b.span[1]]:
            j = roles[pid].edge
            if j is None:
                witness = f"block {b.id}: vertex page {pid} inside a block"
                break
            if j < prev:
                witness = f"block {b.id}: edge {j} follows edge {prev}"
                break
            prev = j
        if witness:
            break
    checks["d"] = PropertyCheck(not witness, witness)

    # (e) per block and edge: carry_front/lead_out before lead_in/carry_back.
    witness = ""
    early = {ROLE_CARRY_FRONT, ROLE_LEAD_OUT}
    late = {ROLE_LEAD_IN, ROLE_CARRY_BACK}
    for b in blocks:
        last_early: dict[int, int] = {}
        first_late: dict[int, int] = {}
        lo, hi = b.span
        for t, pid in enumerate(request_pages[lo:hi], lo):
            role = roles[pid]
            if role.role in early:
                last_early[role.edge] = t
            elif role.role in late and role.edge not in first_late:
                first_late[role.edge] = t
        for j, pos in last_early.items():
            if j in first_late and pos > first_late[j]:
                witness = f"block {b.id}: edge {j} has a late-group request before position {pos}"
                break
        if witness:
            break
    checks["e"] = PropertyCheck(not witness, witness)

    # (f) wide pages anchor inside one phase, exclusively per edge.
    witness = ""
    wide_blocks: dict[int, list[tuple[str, list[int]]]] = {}
    for pid, role in roles.items():
        if role.role in WIDE_ROLES:
            bs = [b for b in map(block_of, positions.get(pid, ())) if b >= 0]
            wide_blocks.setdefault(role.edge, []).append((pid, bs))
    block_by_id = {b.id: b for b in blocks}
    for j, entries in sorted(wide_blocks.items()):
        for pid, bs in entries:
            if not bs:
                witness = f"page {pid}: never requested in a block"
                break
            first, last = block_by_id.get(min(bs)), block_by_id.get(max(bs))
            if (
                first is None
                or last is None
                or first.kind != BLOCK_PHASE
                or last.kind != BLOCK_PHASE
                or first.vertex != last.vertex
            ):
                witness = f"page {pid}: anchor blocks {min(bs)},{max(bs)} not in one phase"
                break
            for other, obs in entries:
                if other != pid and any(min(bs) <= b <= max(bs) for b in obs):
                    witness = f"page {other}: requested between {pid}'s anchors"
                    break
            if witness:
                break
        if witness:
            break
    checks["f"] = PropertyCheck(not witness, witness)

    return PropertyReport(checks)


def construct_service_from_is(output: ReductionOutput, selected: Iterable[int]) -> Service:
    """The easy-direction service for an independent set: savings threshold(|W|).

    Caches, for every edge, the four page families whose size-3 member avoids
    the phases of `selected` (all gaps of each page), plus the single gap of
    every selected vertex's page.
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

    def pairs() -> Iterator[tuple[str, int]]:
        for j, (u, _) in enumerate(output.graph.edges):
            family = FAMILY_WIDE_BACK if u in w else FAMILY_WIDE_FRONT
            for i in range(1, output.H + 1):
                for role_name in family:
                    pid = by_edge_group.get((j, i, role_name))
                    if pid is None:
                        raise MissingRolesError(
                            f"no page has (edge, group, role) ({j}, {i}, {role_name})"
                        )
                    yield from zip(repeat(pid), range(len(positions[pid]) - 1))
        for v in sorted(w):
            if v not in vertex_pages:
                raise MissingRolesError(f"no page has the role of vertex {v}")
            yield vertex_pages[v], 0

    # The ids are the page table's own strings and the ordinals ints, so the
    # pairs go into the frozenset as they are, without a list or Service.of.
    return Service(frozenset(pairs()))


def extract_is(output: ReductionOutput, service: Service) -> frozenset[int]:
    """Vertices whose vertex page is cached across its phase."""
    vertex_gaps = {
        (pid, 0): role.vertex
        for pid, role in output.page_roles.items()
        if role.role == ROLE_VERTEX
    }
    return frozenset(
        vertex_gaps[pair] for pair in service.chosen if pair in vertex_gaps
    )


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block / per-edge cache-carry measurements for a valid service.

    Row b of `s_edge`/`epsilon_edge`/`phi_edge` is block b; `gamma_edge` has
    one row per block except the last.  `slots` is m*H.
    """

    slots: int
    block_starts: tuple[int, ...]
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

    A page counts for block B when a chosen run covers B's start position but
    opened strictly earlier (the cache state entering the block); an empty
    block's start is where it would begin.  `slots` = m*H is read from the
    sidecar `H`, so a role table without exactly groups 1..H for every edge
    raises MissingRolesError.
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
    runs = merged_occupancy_runs(inst, service)
    if not _validate_runs(inst, runs).ok:
        raise InvalidServiceError("diagnostics requires a valid service")
    blocks = inst.blocks
    d = len(blocks)
    starts = [b.span[0] for b in blocks]
    diff_s = [[0] * (d + 1) for _ in range(m)]
    diff_eps = [[0] * (d + 1) for _ in range(m)]
    diff_phi = [[0] * (d + 1) for _ in range(m)]
    for pid, page_runs in runs.items():
        role = roles[pid]
        if role.edge is None:
            continue
        j = role.edge
        wide = role.role in WIDE_ROLES
        crossing = role.role in (ROLE_CARRY_FRONT, ROLE_LEAD_OUT)
        for s0, e0 in page_runs:
            lo = bisect_right(starts, s0)
            hi = bisect_right(starts, e0)
            if lo < hi:
                diff_s[j][lo] += 1
                diff_s[j][hi] -= 1
                if wide:
                    diff_eps[j][lo] += 1
                    diff_eps[j][hi] -= 1
                if crossing:
                    diff_phi[j][lo] += 1
                    diff_phi[j][hi] -= 1

    def prefix(diffs: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        rows = []
        acc = [0] * m
        for b in range(d):
            for j in range(m):
                acc[j] += diffs[j][b]
            rows.append(tuple(acc))
        return tuple(rows)

    s_edge = prefix(diff_s)
    eps_edge = prefix(diff_eps)
    phi_edge = prefix(diff_phi)
    gamma_edge = tuple(
        tuple(abs(s_edge[b + 1][j] - s_edge[b][j]) for j in range(m)) for b in range(d - 1)
    )
    return BlockDiagnostics(
        slots=m * output.H,
        block_starts=tuple(starts),
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
