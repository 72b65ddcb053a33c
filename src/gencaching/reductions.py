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
the front phase and 3, 4 in the back phase).  Vertex pages (size 1) are
requested once right before and once right after their phase, outside all
blocks.  The cache is exactly large enough for one page per (edge, group)
slot plus either one size-3 upgrade or one vertex page — which is what makes
vertex selections compete.

Models: `fault` charges every page cost 1; `bit` charges cost = size and
weaves five extra blocks into every block boundary so that size-s crossings
split into gaps worth 6 in total; `simple` is the H = 1 gadget with vertex
pages at cost 1 and edge pages at cost n+1 (cost_scale n+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (
    BLOCK_FINAL,
    BLOCK_INITIAL,
    BLOCK_INSERTED,
    BLOCK_PHASE,
    FORCED,
    OPTIONAL,
    FormatError,
    Instance,
    InstanceError,
    Page,
    _LineReader,
    _read_instance,
    instance_to_text,
    make_instance,
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


def _graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    try:
        return Graph(n, tuple(edges))
    except InstanceError as exc:
        raise FormatError(str(exc)) from exc


def graph_from_text(text: str) -> Graph:
    r = _LineReader(text)
    ((n_token, m_token),) = r.rows(1, 2, "<n> <m>")
    n = r.integer(n_token, "n")
    edges = [
        (r.integer(u, "vertex"), r.integer(v, "vertex"))
        for u, v in r.rows(r.integer(m_token, "m"), 2, "<u> <v>")
    ]
    r.end("the edge list")
    return _graph(n, edges)


@dataclass(frozen=True)
class PageRole:
    """Gadget role of a page: its role tag plus edge/group or vertex."""

    role: str
    edge: int | None = None
    group: int | None = None
    vertex: int | None = None


@dataclass(frozen=True)
class ReductionOutput:
    """A generated instance together with the bindings back to the graph.

    `anchors` maps anchor block id -> (edge index, group, quarter); it is
    generation metadata, not serialized and excluded from equality.
    """

    instance: Instance
    model: str
    graph: Graph
    H: int
    page_roles: Mapping[str, PageRole]
    phase_order: tuple[int, ...]
    anchors: Mapping[int, tuple[int, int, int]] = field(default_factory=dict, compare=False)

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


def _fault_skeleton(graph: Graph, H: int):
    """Block metadata, anchor map, per-block requests, and the item stream.

    The stream is the request order: ("B", block_id) entries interleaved with
    ("V", page_id, "open"|"close") vertex requests hugging their phase.
    """
    n, m = graph.n, graph.m
    blocks_meta: list[tuple[str, int | None, int | None]] = [(BLOCK_INITIAL, None, None)]
    anchors: dict[int, tuple[int, int, int]] = {}
    phase_blocks: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for j, (a, b) in enumerate(graph.edges):
            if v == a:
                quarters = (1, 2)
            elif v == b:
                quarters = (3, 4)
            else:
                continue
            for i in range(1, H + 1):
                for q in quarters:
                    bid = len(blocks_meta)
                    blocks_meta.append((BLOCK_PHASE, v, None))
                    anchors[bid] = (j, i, q)
                    phase_blocks[v].append(bid)
    final_bid = len(blocks_meta)
    blocks_meta.append((BLOCK_FINAL, None, None))

    first_front: dict[int, int] = {}
    last_front: dict[int, int] = {}
    first_back: dict[int, int] = {}
    last_back: dict[int, int] = {}
    for bid, (j, i, q) in anchors.items():
        if q == 1 and i == 1:
            first_front[j] = bid
        elif q == 2 and i == H:
            last_front[j] = bid
        elif q == 3 and i == 1:
            first_back[j] = bid
        elif q == 4 and i == H:
            last_back[j] = bid

    def ids(j: int, role: str, lo: int, hi: int) -> list[str]:
        return [edge_page_id(j, i, role) for i in range(lo, hi + 1)]

    def edge_section(j: int, bid: int) -> list[str]:
        # The per-block request pattern for edge j, before/inside/between/
        # after its two anchor runs.
        if bid < first_front[j]:
            return ids(j, ROLE_LEAD_IN, 1, H)
        if bid <= last_front[j]:
            _, i, q = anchors[bid]
            if q == 1:
                row = ids(j, ROLE_CARRY_FRONT, 1, i - 1)
                row += [edge_page_id(j, i, ROLE_LEAD_IN), edge_page_id(j, i, ROLE_WIDE_FRONT)]
            else:
                row = ids(j, ROLE_CARRY_FRONT, 1, i - 1)
                row += [edge_page_id(j, i, ROLE_WIDE_FRONT), edge_page_id(j, i, ROLE_CARRY_FRONT)]
            row += ids(j, ROLE_LEAD_IN, i + 1, H)
            return row + ids(j, ROLE_CARRY_BACK, 1, i)
        if bid < first_back[j]:
            return ids(j, ROLE_CARRY_FRONT, 1, H) + ids(j, ROLE_CARRY_BACK, 1, H)
        if bid <= last_back[j]:
            _, i, q = anchors[bid]
            row = ids(j, ROLE_CARRY_FRONT, i, H)
            row += ids(j, ROLE_LEAD_OUT, 1, i - 1)
            if q == 3:
                row += [edge_page_id(j, i, ROLE_CARRY_BACK), edge_page_id(j, i, ROLE_WIDE_BACK)]
            else:
                row += [edge_page_id(j, i, ROLE_WIDE_BACK), edge_page_id(j, i, ROLE_LEAD_OUT)]
            return row + ids(j, ROLE_CARRY_BACK, i + 1, H)
        return ids(j, ROLE_LEAD_OUT, 1, H)

    block_requests: list[list[str]] = []
    for bid in range(len(blocks_meta)):
        reqs: list[str] = []
        for j in range(m):
            reqs.extend(edge_section(j, bid))
        block_requests.append(reqs)

    stream: list[tuple] = [("B", 0)]
    for v in range(n):
        stream.append(("V", vertex_page_id(v), "open"))
        for bid in phase_blocks[v]:
            stream.append(("B", bid))
        stream.append(("V", vertex_page_id(v), "close"))
    stream.append(("B", final_bid))
    return blocks_meta, anchors, block_requests, stream


def _page_table(graph: Graph, H: int, edge_cost, vertex_cost: int) -> list[Page]:
    pages = [Page(vertex_page_id(v), 1, vertex_cost) for v in range(graph.n)]
    for j in range(graph.m):
        for i in range(1, H + 1):
            for role in EDGE_ROLE_ORDER:
                size = ROLE_SIZES[role]
                pages.append(Page(edge_page_id(j, i, role), size, edge_cost(size)))
    return pages


def _page_roles(graph: Graph, H: int) -> dict[str, PageRole]:
    roles = {vertex_page_id(v): PageRole(ROLE_VERTEX, vertex=v) for v in range(graph.n)}
    for j in range(graph.m):
        for i in range(1, H + 1):
            for role in EDGE_ROLE_ORDER:
                roles[edge_page_id(j, i, role)] = PageRole(role, edge=j, group=i)
    return roles


def _materialize(
    graph: Graph,
    H: int,
    model: str,
    capacity: int,
    pages: list[Page],
    blocks_meta: list[tuple[str, int | None, int | None]],
    block_requests: list[list[str]],
    stream: list[tuple],
    anchors: dict[int, tuple[int, int, int]],
    cost_scale: int = 1,
) -> ReductionOutput:
    requests: list[tuple[str, int | None]] = []
    for item in stream:
        if item[0] == "B":
            bid = item[1]
            requests.extend((pid, bid) for pid in block_requests[bid])
        else:
            requests.append((item[1], None))
    instance = make_instance(capacity, pages, requests, blocks_meta, OPTIONAL, cost_scale)
    return ReductionOutput(
        instance=instance,
        model=model,
        graph=graph,
        H=H,
        page_roles=_page_roles(graph, H),
        phase_order=tuple(range(graph.n)),
        anchors=anchors,
    )


def _check_H(H: int | None, graph: Graph) -> int:
    if H is None:
        return default_H(graph)
    if not isinstance(H, int) or H < 1:
        raise InstanceError("H must be a positive int")
    return H


def reduce_fault_optional(graph: Graph, H: int | None = None) -> ReductionOutput:
    """Uniform-cost instance: capacity 2mH+1, 4mH+2 blocks, 6mH+n pages."""
    H = _check_H(H, graph)
    blocks_meta, anchors, block_requests, stream = _fault_skeleton(graph, H)
    pages = _page_table(graph, H, edge_cost=lambda size: 1, vertex_cost=1)
    return _materialize(
        graph, H, MODEL_FAULT, 2 * graph.m * H + 1, pages, blocks_meta, block_requests, stream, anchors
    )


def reduce_bit_optional(graph: Graph, H: int | None = None) -> ReductionOutput:
    """Cost-equals-size instance: five blocks woven into every block boundary.

    Between consecutive original blocks B, B' the inserted blocks are: empty,
    the size-2 pages requested in both B and B' (in B's order), the size-3
    page requested in both (at most one exists), the size-2 ones again, and
    empty.  A size-2 page cached across the original boundary then crosses
    three gaps worth 2 each; a size-3 page two gaps worth 3 each.
    """
    H = _check_H(H, graph)
    blocks_meta, anchors, block_requests, stream = _fault_skeleton(graph, H)
    sizes = {
        edge_page_id(j, i, role): ROLE_SIZES[role]
        for j in range(graph.m)
        for i in range(1, H + 1)
        for role in EDGE_ROLE_ORDER
    }

    new_meta: list[tuple[str, int | None, int | None]] = []
    new_requests: list[list[str]] = []
    new_anchors: dict[int, tuple[int, int, int]] = {}
    old_to_new: dict[int, int] = {}
    for k in range(len(blocks_meta)):
        if k > 0:
            shared = set(block_requests[k - 1]) & set(block_requests[k])
            two = [p for p in block_requests[k - 1] if p in shared and sizes[p] == 2]
            three = [p for p in block_requests[k - 1] if p in shared and sizes[p] == 3]
            assert len(three) <= 1, "two size-3 pages may never share a boundary"
            for slot, content in ((1, []), (2, two), (3, three), (4, two), (5, [])):
                new_meta.append((BLOCK_INSERTED, None, slot))
                new_requests.append(list(content))
        old_to_new[k] = len(new_meta)
        new_meta.append(blocks_meta[k])
        new_requests.append(block_requests[k])
        if k in anchors:
            new_anchors[old_to_new[k]] = anchors[k]

    new_stream: list[tuple] = []
    pending_open: list[tuple] = []
    for item in stream:
        if item[0] == "V":
            if item[2] == "open":
                pending_open.append(item)
            else:
                new_stream.append(item)
        else:
            k = item[1]
            if k > 0:
                new_stream.extend(("B", b) for b in range(old_to_new[k] - 5, old_to_new[k]))
            new_stream.extend(pending_open)
            pending_open = []
            new_stream.append(("B", old_to_new[k]))

    pages = _page_table(graph, H, edge_cost=lambda size: size, vertex_cost=1)
    return _materialize(
        graph, H, MODEL_BIT, 2 * graph.m * H + 1, pages, new_meta, new_requests, new_stream, new_anchors
    )


def reduce_simple(graph: Graph) -> ReductionOutput:
    """Two-cost instance: the H=1 gadget with edge pages at cost n+1.

    Costs are integral at scale n+1 (a vertex page costs 1, i.e. 1/(n+1) in
    natural units).  Capacity 2m+1, 4m+2 blocks, 6m+n pages.
    """
    blocks_meta, anchors, block_requests, stream = _fault_skeleton(graph, 1)
    edge_cost = graph.n + 1
    pages = _page_table(graph, 1, edge_cost=lambda size: edge_cost, vertex_cost=1)
    out = _materialize(
        graph,
        1,
        MODEL_SIMPLE,
        2 * graph.m + 1,
        pages,
        blocks_meta,
        block_requests,
        stream,
        anchors,
        cost_scale=graph.n + 1,
    )
    return out


def generate(graph: Graph, model: str, H: int | None = None) -> ReductionOutput:
    """The reduction of `graph` in `model`; `H` is ignored by `simple`."""
    if model == MODEL_SIMPLE:
        return reduce_simple(graph)
    if model == MODEL_FAULT:
        return reduce_fault_optional(graph, H)
    if model == MODEL_BIT:
        return reduce_bit_optional(graph, H)
    raise ValueError(f"unknown model {model!r}; have {', '.join(MODELS)}")


def optional_to_forced(
    source: ReductionOutput | Instance, *, new_page_cost: int | None = None
) -> Instance:
    """Make the forced-policy instance with the same optimal savings.

    Capacity grows by M (the largest requested size) and a fresh size-M page
    is requested after every original request, flushing any slack the larger
    cache would otherwise give.  New pages are requested once each, so they
    are never cacheable; their cost defaults to 1 (fault/simple), M under the
    bit model's cost-equals-size rule, or `new_page_cost` when given.
    """
    model = source.model if isinstance(source, ReductionOutput) else None
    inst = source.instance if isinstance(source, ReductionOutput) else source
    if inst.policy != OPTIONAL:
        raise InstanceError("optional_to_forced expects an optional-policy instance")
    requested = {r.page for r in inst.requests}
    M = max((inst.pages[p].size for p in requested), default=0)
    if new_page_cost is None:
        cost = M if model == MODEL_BIT else 1
    else:
        cost = new_page_cost
    base = "q"
    while any(pid.startswith(base) for pid in inst.pages):
        base += "q"
    pages: list[Page] = list(inst.pages.values())
    requests: list[tuple[str, int | None]] = []
    for k, r in enumerate(inst.requests):
        fresh = f"{base}{k}"
        pages.append(Page(fresh, M, cost))
        requests.append((r.page, None))
        requests.append((fresh, None))
    return make_instance(
        inst.capacity + M, pages, requests, (), FORCED, inst.cost_scale
    )


# --- reduction text format ---------------------------------------------------


def reduction_to_text(output: ReductionOutput) -> str:
    lines = [instance_to_text(output.instance).rstrip("\n")]
    lines.append(f"model {output.model}")
    lines.append(f"H {output.H}")
    lines.append(f"graph {output.graph.n} {output.graph.m}")
    for u, v in output.graph.edges:
        lines.append(f"edge {u} {v}")
    lines.append(("phases " + " ".join(str(v) for v in output.phase_order)).rstrip())
    lines.append(f"roles {len(output.page_roles)}")
    for pid, role in output.page_roles.items():
        dash = "-"
        lines.append(
            f"{pid} {role.role} "
            f"{role.edge if role.edge is not None else dash} "
            f"{role.group if role.group is not None else dash} "
            f"{role.vertex if role.vertex is not None else dash}"
        )
    return "\n".join(lines) + "\n"


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
    edges = []
    for _ in range(r.integer(m_token, "m")):
        u, v = r.keyword("edge", 2)
        edges.append((r.integer(u, "vertex"), r.integer(v, "vertex")))
    phase_order = tuple(r.integer(v, "vertex") for v in r.keyword("phases", n))
    if sorted(phase_order) != list(range(n)):
        raise r.error(f"phases must list each of the {n} vertices once")
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
    return ReductionOutput(instance, model, _graph(n, edges), H, roles, phase_order)


def reduction_from_text(text: str) -> ReductionOutput:
    r = _LineReader(text)
    return _read_sidecar(r, _read_instance(r))
