"""Single-property mutations of a path-graph fault reduction.

Each mutation edits the request stream of `base_output()` (path on three
vertices, fault model, H=2) so that exactly one structural property check
fails while the other five keep passing.
"""

from __future__ import annotations

from gencaching import (
    Graph,
    ReductionOutput,
    make_instance,
    reduce_fault_optional,
    vertex_page_id,
)
from gencaching.reductions import ROLE_LEAD_IN, edge_page_id


def base_output() -> ReductionOutput:
    return reduce_fault_optional(Graph(3, ((0, 1), (1, 2))), H=2)


def _anchor(output: ReductionOutput, edge: int, group: int, quarter: int) -> int:
    for bid, key in output.anchors.items():
        if key == (edge, group, quarter):
            return bid
    raise LookupError((edge, group, quarter))


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
        phase_order=output.phase_order,
        anchors=output.anchors,
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


MUTATIONS: dict[str, object] = {
    "a": mutate_a,
    "b": mutate_b,
    "c": mutate_c,
    "d": mutate_d,
    "e": mutate_e,
    "f": mutate_f,
}
