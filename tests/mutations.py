"""Single-property mutations of a path-graph fault reduction.

Each mutation edits the request stream of `base_output()` (path on three
vertices, fault model, H=2) so that exactly one structural property check
fails while the other five keep passing.
"""

from __future__ import annotations

from itertools import zip_longest

from gencaching import (
    Graph,
    ReductionOutput,
    make_instance,
    reduce_fault_optional,
    request_positions,
    vertex_page_id,
)
from gencaching.reductions import ROLE_LEAD_IN, ROLE_WIDE_BACK, ROLE_WIDE_FRONT, edge_page_id


def base_output() -> ReductionOutput:
    return reduce_fault_optional(Graph(3, ((0, 1), (1, 2))), H=2)


def _anchor(output: ReductionOutput, edge: int, group: int, quarter: int) -> int:
    """The anchor block of (edge, group, quarter): where the group's wide_front
    (quarters 1, 2) or wide_back (3, 4) page is first (odd) or last (even) requested."""
    wide = edge_page_id(edge, group, ROLE_WIDE_FRONT if quarter <= 2 else ROLE_WIDE_BACK)
    positions = request_positions(output.instance)[wide]
    return output.instance.request_blocks[positions[0] if quarter % 2 else positions[-1]]


def _rebuild(output: ReductionOutput, pairs: list[tuple[str, int | None]]) -> ReductionOutput:
    inst = output.instance
    new = make_instance(
        inst.capacity,
        list(inst.pages.values()),
        pairs,
        [(b.kind, b.vertex, b.slot) for b in inst.blocks],
        inst.policy,
        inst.cost_scale,
    )
    return ReductionOutput(
        instance=new,
        model=output.model,
        graph=output.graph,
        H=output.H,
        page_roles=output.page_roles,
    )


def _pairs(output: ReductionOutput) -> list[tuple[str, int | None]]:
    return [(r.page, r.block) for r in output.instance.requests]


def mutate_a(output: ReductionOutput) -> ReductionOutput:
    """A third request for a vertex page, after the final block."""
    pairs = _pairs(output)
    pairs.append((vertex_page_id(0), None))
    return _rebuild(output, pairs)


def mutate_b(output: ReductionOutput) -> ReductionOutput:
    """Drop one mid-segment request, leaving a hole in the block range."""
    pairs = _pairs(output)
    pairs.remove((edge_page_id(0, 2, ROLE_LEAD_IN), _anchor(output, 0, 1, 1)))
    return _rebuild(output, pairs)


def mutate_c(output: ReductionOutput) -> ReductionOutput:
    """Drop a lead-in request from the initial block only."""
    pairs = _pairs(output)
    pairs.remove((edge_page_id(1, 1, ROLE_LEAD_IN), 0))
    return _rebuild(output, pairs)


def mutate_d(output: ReductionOutput) -> ReductionOutput:
    """Swap the two edge sections inside one block."""
    pairs = _pairs(output)
    bid = _anchor(output, 0, 1, 3)
    idxs = [i for i, (_, b) in enumerate(pairs) if b == bid]
    segment = [pairs[i] for i in idxs]
    first = [x for x in segment if output.page_roles[x[0]].edge == 0]
    second = [x for x in segment if output.page_roles[x[0]].edge == 1]
    for i, x in zip(idxs, second + first):
        pairs[i] = x
    return _rebuild(output, pairs)


def mutate_e(output: ReductionOutput) -> ReductionOutput:
    """Move a late-group request ahead of an early-group one."""
    pairs = _pairs(output)
    bid = _anchor(output, 0, 2, 1)
    early = pairs.index((edge_page_id(0, 1, "carry_front"), bid))
    late = pairs.index((edge_page_id(0, 2, ROLE_LEAD_IN), bid))
    pairs[early], pairs[late] = pairs[late], pairs[early]
    return _rebuild(output, pairs)


def mutate_f(output: ReductionOutput) -> ReductionOutput:
    """Slide a wide page's anchor pair across a phase boundary."""
    pairs = _pairs(output)
    wide = edge_page_id(0, 2, "wide_front")
    target = _anchor(output, 0, 1, 3)
    pairs.remove((wide, _anchor(output, 0, 2, 1)))
    last = max(
        i
        for i, (p, b) in enumerate(pairs)
        if b == target and output.page_roles[p].edge == 0
    )
    pairs.insert(last + 1, (wide, target))
    return _rebuild(output, pairs)


def repeat_in_last_block(output: ReductionOutput) -> ReductionOutput:
    """Request e0.1.carry_back a second time in its last block; trips (b)."""
    pairs = _pairs(output)
    pid = edge_page_id(0, 1, "carry_back")
    last = max(i for i, (p, _) in enumerate(pairs) if p == pid)
    pairs.insert(last + 1, pairs[last])
    return _rebuild(output, pairs)


def interleave_edges(output: ReductionOutput) -> ReductionOutput:
    """Riffle the two edge sections of one block, each edge's own order kept;
    trips (d) but not (e)."""
    pairs = _pairs(output)
    bid = _anchor(output, 0, 1, 3)
    idxs = [i for i, (_, b) in enumerate(pairs) if b == bid]
    edge_of = {i: output.page_roles[pairs[i][0]].edge for i in idxs}
    sections = [[pairs[i] for i in idxs if edge_of[i] == j] for j in (0, 1)]
    riffled = [x for both in zip_longest(*sections) for x in both if x is not None]
    for i, x in zip(idxs, riffled):
        pairs[i] = x
    return _rebuild(output, pairs)


def shift_bit_request(output: ReductionOutput) -> ReductionOutput:
    """Move the last request of the first non-empty inserted slot-4 block
    into the empty slot-5 block after it; trips (b) for that page."""
    inst = output.instance
    pairs = _pairs(output)
    slot4 = next(b.id for b, (lo, hi) in zip(inst.blocks, inst.spans) if b.slot == 4 and lo < hi)
    t = inst.spans[slot4][1] - 1
    pairs[t] = (pairs[t][0], slot4 + 1)
    return _rebuild(output, pairs)


MUTATIONS: dict[str, object] = {
    "a": mutate_a,
    "b": mutate_b,
    "c": mutate_c,
    "d": mutate_d,
    "e": mutate_e,
    "f": mutate_f,
}
