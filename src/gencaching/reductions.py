"""Graph-to-caching-instance generators.

Each generator turns an undirected graph into a caching instance whose
optimal savings encode the graph's maximum independent set: the instance
admits savings of threshold(K) if and only if the graph has an independent
set of size K.

Layout shared by all three generators: one phase per vertex, in vertex order.
Every edge {u, v} (u < v, the *front* endpoint) owns, per group i in 1..H,
six pages

    lead_in (size 2)    requested from the initial block into the front phase
    wide_front (size 3) two requests, consecutive front-phase blocks
    carry_front (size 2) carries from the front phase to the back phase
    carry_back (size 2)  enters at the front phase, leaves in the back phase
    wide_back (size 3)  two requests, consecutive back-phase blocks
    lead_out (size 2)   requested from the back phase into the final block

and 2H dedicated *anchor* blocks in each endpoint's phase (quarters 1, 2 in
the front phase and 3, 4 in the back phase).  The cache is exactly large
enough for one page per (edge, group) slot plus either one size-3 upgrade or
one vertex page — which is what makes vertex selections compete.

Vertex pages (size 1) are requested twice, outside all blocks: right before
the first block of their phase and right after its last.  A vertex with no
phase blocks (an isolated vertex) has both requests right before the next
block, so they are adjacent.

Models: `fault` charges every page cost 1.  `bit` charges cost = size and
weaves five inserted blocks into every boundary between original blocks B
and B': empty, the size-2 pages requested in both B and B' (in B's order),
the size-3 page requested in both (at most one exists), the size-2 ones
again, and empty.  A size-2 page cached across the boundary then crosses
three gaps worth 2 each, a size-3 page two gaps worth 3 each.  The weave
goes between the vertex requests that follow B and those that precede B',
so vertex requests still hug their phase.  `simple` is the H = 1 gadget with
vertex pages at cost 1 and edge pages at cost n+1 (cost_scale n+1).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .core import (
    BLOCK_FINAL,
    BLOCK_INITIAL,
    BLOCK_INSERTED,
    BLOCK_PHASE,
    FORCED,
    OPTIONAL,
    Block,
    Instance,
    InstanceError,
    Page,
    _FlushTable,
    _instance_text_parts,
    _LineReader,
    _read_instance,
)

MODEL_FAULT = "fault"
MODEL_BIT = "bit"
MODEL_SIMPLE = "simple"
MODELS = (MODEL_FAULT, MODEL_BIT, MODEL_SIMPLE)

ROLE_VERTEX = "vertex"
ROLE_LEAD_IN = "lead_in"
ROLE_WIDE_FRONT = "wide_front"
ROLE_CARRY_FRONT = "carry_front"
ROLE_CARRY_BACK = "carry_back"
ROLE_WIDE_BACK = "wide_back"
ROLE_LEAD_OUT = "lead_out"

EDGE_ROLE_ORDER = (
    ROLE_LEAD_IN,
    ROLE_WIDE_FRONT,
    ROLE_CARRY_FRONT,
    ROLE_CARRY_BACK,
    ROLE_WIDE_BACK,
    ROLE_LEAD_OUT,
)
ROLE_SIZES = {
    ROLE_LEAD_IN: 2,
    ROLE_WIDE_FRONT: 3,
    ROLE_CARRY_FRONT: 2,
    ROLE_CARRY_BACK: 2,
    ROLE_WIDE_BACK: 3,
    ROLE_LEAD_OUT: 2,
}
WIDE_ROLES = frozenset({ROLE_WIDE_FRONT, ROLE_WIDE_BACK})

# Which four of an edge's six page families to cache whole, depending on
# whether the edge's front endpoint is in the selected vertex set.  The
# selected endpoint's phase must stay free of size-3 pages, so the family's
# wide page sits in the other endpoint's phase.
FAMILY_WIDE_FRONT = (ROLE_LEAD_IN, ROLE_WIDE_FRONT, ROLE_CARRY_FRONT, ROLE_LEAD_OUT)
FAMILY_WIDE_BACK = (ROLE_LEAD_IN, ROLE_CARRY_BACK, ROLE_WIDE_BACK, ROLE_LEAD_OUT)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1; edges normalized to (min, max)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise InstanceError("vertex count must be a non-negative int")
        normalized = []
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InstanceError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InstanceError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)


def graph_to_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    for u, v in graph.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _read_edge(r: _LineReader, u_token: str, v_token: str, n: int, seen: set) -> tuple[int, int]:
    """The edge of the line just read, with the `Graph` checks reported at that line;
    `seen` holds the normalized edges read before."""
    u, v = r.integer(u_token, "vertex"), r.integer(v_token, "vertex")
    if u >= n or v >= n:
        raise r.error(f"edge ({u}, {v}) out of range")
    if u == v:
        raise r.error(f"self-loop at vertex {u}")
    e = (min(u, v), max(u, v))
    if e in seen:
        raise r.error(f"duplicate edge {e}")
    seen.add(e)
    return u, v


def graph_from_text(text: str) -> Graph:
    r = _LineReader(text)
    ((n_token, m_token),) = r.rows(1, 2, "<n> <m>")
    n = r.integer(n_token, "n")
    seen: set[tuple[int, int]] = set()
    edges = [_read_edge(r, u, v, n, seen) for u, v in r.rows(r.integer(m_token, "m"), 2, "<u> <v>")]
    r.end("the edge list")
    return Graph(n, tuple(edges))


@dataclass(frozen=True, slots=True)
class PageRole:
    """Gadget role of a page: its role tag plus edge/group or vertex."""

    role: str
    edge: int | None = None
    group: int | None = None
    vertex: int | None = None


@dataclass(frozen=True)
class ReductionOutput:
    """A generated instance together with the bindings back to the graph."""

    instance: Instance
    model: str
    graph: Graph
    H: int
    page_roles: Mapping[str, PageRole]

    @property
    def d(self) -> int:
        return len(self.instance.blocks)

    def threshold(self, k: int) -> int:
        """Savings encoding an independent set of size k."""
        base = (self.d - 1) * self.graph.m
        if self.model == MODEL_SIMPLE:
            return base * (self.graph.n + 1) + k
        return base * self.H + k


def default_H(graph: Graph) -> int:
    """Group count sufficient for the hard direction: 6mn + 3n + 1."""
    return 6 * graph.m * graph.n + 3 * graph.n + 1


def vertex_page_id(v: int) -> str:
    return f"v{v}"


def edge_page_id(edge: int, group: int, role: str) -> str:
    return f"e{edge}.{group}.{role}"


def _skeleton(
    graph: Graph, H: int, vertex_ids: list[str], group_ids: dict[tuple[int, str], list[str]]
):
    """The original blocks, before the `bit` weave, and the vertex requests.

    `vertex_ids[v]` is vertex v's page id and `group_ids[j, role]` the ids of
    edge j's `role` pages for groups 1..H; a block's ids are slices of these
    lists, so no id is formatted per request.  Returns (meta, block_pages,
    before, after): per block its (kind, vertex, slot) triple and its page ids
    in request order; and the vertex pages requested outside all blocks right
    before (a list) and right after (one page) a block, keyed by block id.
    """
    meta: list[tuple[str, int | None, int | None]] = [(BLOCK_INITIAL, None, None)]
    anchors: dict[int, tuple[int, int, int]] = {}
    before: dict[int, list[str]] = {}
    after: dict[int, str] = {}
    waiting: list[str] = []  # vertex requests that go right before the next block
    for v in range(graph.n):
        page = vertex_ids[v]
        waiting.append(page)
        first = len(meta)
        for j, (a, b) in enumerate(graph.edges):
            if v == a:
                quarters = (1, 2)
            elif v == b:
                quarters = (3, 4)
            else:
                continue
            for i in range(1, H + 1):
                for q in quarters:
                    anchors[len(meta)] = (j, i, q)
                    meta.append((BLOCK_PHASE, v, None))
        if len(meta) == first:
            waiting.append(page)
        else:
            before[first] = waiting
            waiting = []
            after[len(meta) - 1] = page
    before[len(meta)] = waiting
    meta.append((BLOCK_FINAL, None, None))

    at = {key: bid for bid, key in anchors.items()}

    def ids(j: int, role: str, lo: int, hi: int) -> list[str]:
        return group_ids[j, role][lo - 1 : hi]

    def edge_section(j: int, bid: int) -> list[str]:
        # The per-block request pattern for edge j, before/inside/between/
        # after its two anchor runs.
        if bid < at[j, 1, 1]:
            return ids(j, ROLE_LEAD_IN, 1, H)
        if bid <= at[j, H, 2]:
            _, i, q = anchors[bid]
            mid = (ROLE_LEAD_IN, ROLE_WIDE_FRONT) if q == 1 else (ROLE_WIDE_FRONT, ROLE_CARRY_FRONT)
            return (
                ids(j, ROLE_CARRY_FRONT, 1, i - 1)
                + [group_ids[j, role][i - 1] for role in mid]
                + ids(j, ROLE_LEAD_IN, i + 1, H)
                + ids(j, ROLE_CARRY_BACK, 1, i)
            )
        if bid < at[j, 1, 3]:
            return ids(j, ROLE_CARRY_FRONT, 1, H) + ids(j, ROLE_CARRY_BACK, 1, H)
        if bid <= at[j, H, 4]:
            _, i, q = anchors[bid]
            mid = (ROLE_CARRY_BACK, ROLE_WIDE_BACK) if q == 3 else (ROLE_WIDE_BACK, ROLE_LEAD_OUT)
            return (
                ids(j, ROLE_CARRY_FRONT, i, H)
                + ids(j, ROLE_LEAD_OUT, 1, i - 1)
                + [group_ids[j, role][i - 1] for role in mid]
                + ids(j, ROLE_CARRY_BACK, i + 1, H)
            )
        return ids(j, ROLE_LEAD_OUT, 1, H)

    block_pages = [
        list(chain.from_iterable(edge_section(j, bid) for j in range(graph.m)))
        for bid in range(len(meta))
    ]
    return meta, block_pages, before, after


def generate(graph: Graph, model: str, H: int | None = None) -> ReductionOutput:
    """The reduction of `graph` in `model` with H groups (default `default_H`).

    `H` is None or a positive int (not a bool) in every model; `simple` then
    uses 1.  The capacity is 2mH+1 in every model.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; have {', '.join(MODELS)}")
    if H is not None and (isinstance(H, bool) or not isinstance(H, int) or H < 1):
        raise InstanceError("H must be a positive int")
    if model == MODEL_SIMPLE:
        H = 1
    elif H is None:
        H = default_H(graph)
    scale = graph.n + 1 if model == MODEL_SIMPLE else 1
    table: dict[str, Page] = {}
    roles: dict[str, PageRole] = {}
    vertex_ids = [vertex_page_id(v) for v in range(graph.n)]
    for v, pid in enumerate(vertex_ids):
        table[pid] = Page(pid, 1, 1)
        roles[pid] = PageRole(ROLE_VERTEX, vertex=v)
    group_ids = {
        (j, role): [edge_page_id(j, i, role) for i in range(1, H + 1)]
        for j in range(graph.m)
        for role in EDGE_ROLE_ORDER
    }
    for j in range(graph.m):
        for i in range(1, H + 1):
            for role in EDGE_ROLE_ORDER:
                pid = group_ids[j, role][i - 1]
                size = ROLE_SIZES[role]
                table[pid] = Page(pid, size, size if model == MODEL_BIT else scale)
                roles[pid] = PageRole(role, edge=j, group=i)
    wide = {pid for pid, role in roles.items() if role.role in WIDE_ROLES}

    # The requests hold the table's own id strings: every id below is one of its keys.
    meta, block_pages, before, after = _skeleton(graph, H, vertex_ids, group_ids)
    blocks: list[Block] = []
    request_pages: list[str] = []
    request_blocks = array("i")

    def emit(pids, block: int) -> None:
        request_pages.extend(pids)
        request_blocks.extend(array("i", (block,)) * len(pids))

    prev: list[str] = []
    for k, row in enumerate(block_pages):
        if model == MODEL_BIT and k > 0:
            shared = set(prev).intersection(row)
            two = list(filter((shared - wide).__contains__, prev))
            three = list(filter((shared & wide).__contains__, prev))
            assert len(three) <= 1, "two size-3 pages may never share a boundary"
            for slot, content in ((1, ()), (2, two), (3, three), (4, two), (5, ())):
                emit(content, len(blocks))
                blocks.append(Block(len(blocks), BLOCK_INSERTED, None, slot))
        emit(before.get(k, ()), -1)
        emit(row, len(blocks))
        blocks.append(Block(len(blocks), *meta[k]))
        if k in after:
            emit([after[k]], -1)
        prev = row
    instance = Instance(
        2 * graph.m * H + 1, table, tuple(request_pages), request_blocks, tuple(blocks),
        OPTIONAL, scale,
    )
    return ReductionOutput(instance, model, graph, H, roles)


def reduce_fault_optional(graph: Graph, H: int | None = None) -> ReductionOutput:
    """Uniform-cost instance: capacity 2mH+1, 4mH+2 blocks, 6mH+n pages."""
    return generate(graph, MODEL_FAULT, H)


def reduce_bit_optional(graph: Graph, H: int | None = None) -> ReductionOutput:
    """Cost-equals-size instance: the `fault` blocks with five woven in per boundary."""
    return generate(graph, MODEL_BIT, H)


def reduce_simple(graph: Graph) -> ReductionOutput:
    """Two-cost instance: the H=1 gadget with edge pages at cost n+1 (scale n+1)."""
    return generate(graph, MODEL_SIMPLE)


def optional_to_forced(source: ReductionOutput | Instance) -> Instance:
    """Make the forced-policy instance with the same optimal savings.

    Capacity grows by M (the largest requested size) and a fresh size-M page
    is requested after every original request, flushing any slack the larger
    cache would otherwise give.  New pages are requested once each, so they
    are never cacheable; their cost is 1 (fault/simple), or M under the bit
    model's cost-equals-size rule.

    The fresh requests are one rule, id prefix, size M and cost (see
    `core._FlushTable`): the forced instance shares the source's two request
    columns and its request index, and stores no page, column entry or index
    entry per fresh request.  Its text is that of the explicit instance.
    """
    model = source.model if isinstance(source, ReductionOutput) else None
    inst = source.instance if isinstance(source, ReductionOutput) else source
    if inst.policy != OPTIONAL:
        raise InstanceError("optional_to_forced expects an optional-policy instance")
    M = max((inst.pages[p].size for p in set(inst.request_pages)), default=0)
    cost = M if model == MODEL_BIT else 1
    base = "q"
    while any(pid.startswith(base) for pid in inst.pages):
        base += "q"
    return Instance(
        inst.capacity + M, _FlushTable(inst, base, M, cost), inst.request_pages,
        inst.request_blocks, (), FORCED, inst.cost_scale,
    )


# --- reduction text format ---------------------------------------------------


def reduction_to_text(output: ReductionOutput) -> str:
    lines = [f"model {output.model}"]
    lines.append(f"H {output.H}")
    lines.append(f"graph {output.graph.n} {output.graph.m}")
    for u, v in output.graph.edges:
        lines.append(f"edge {u} {v}")
    lines.append(" ".join(["phases"] + [str(v) for v in range(output.graph.n)]))
    lines.append(f"roles {len(output.page_roles)}")
    for pid, role in output.page_roles.items():
        dash = "-"
        lines.append(
            f"{pid} {role.role} "
            f"{role.edge if role.edge is not None else dash} "
            f"{role.group if role.group is not None else dash} "
            f"{role.vertex if role.vertex is not None else dash}"
        )
    lines.append("")
    return "".join(_instance_text_parts(output.instance) + ["\n".join(lines)])


def _read_sidecar(r: _LineReader, instance: Instance) -> ReductionOutput:
    """The reduction of `instance` from the sidecar that follows it in `r`."""
    (model,) = r.keyword("model", 1)
    if model not in MODELS:
        raise r.error(f"unknown model {model!r}")
    H = r.value("H")
    if H < 1 or (model == MODEL_SIMPLE and H != 1):
        raise r.error(f"H {H} is not valid for the {model} model")
    n_token, m_token = r.keyword("graph", 2)
    n = r.integer(n_token, "n")
    seen: set[tuple[int, int]] = set()
    edges = [_read_edge(r, *r.keyword("edge", 2), n, seen) for _ in range(r.integer(m_token, "m"))]
    if r.keyword("phases", n) != [str(v) for v in range(n)]:
        raise r.error(f"phases must read 0..{n - 1}, the vertices in order")
    roles: dict[str, PageRole] = {}
    shape = "<page-id> <role> <edge|-> <group|-> <vertex|->"
    for pid, role, *fields in r.rows(r.value("roles"), 5, shape):
        if pid in roles:
            raise r.error(f"duplicate role for page {pid!r}")
        if role != ROLE_VERTEX and role not in EDGE_ROLE_ORDER:
            raise r.error(f"unknown role {role!r}")
        edge, group, vertex = [None if t == "-" else r.integer(t, "role field") for t in fields]
        roles[pid] = PageRole(role, edge, group, vertex)
    r.end("roles section")
    return ReductionOutput(instance, model, Graph(n, tuple(edges)), H, roles)


def reduction_from_text(text: str) -> ReductionOutput:
    r = _LineReader(text)
    return _read_sidecar(r, _read_instance(r))


def instance_or_reduction_from_text(text: str) -> Instance:
    """The instance of an instance text, or of a reduction text (instance, then sidecar)."""
    r = _LineReader(text)
    instance = _read_instance(r)
    return instance if r.at_end() else _read_sidecar(r, instance).instance
