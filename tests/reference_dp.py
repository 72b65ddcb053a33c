"""The boundary-state sweep over a dict of reachable masks: the reference the
packed and dense sweeps of `gencaching.solver` are checked against.

It follows the same slot plan but keeps only the masks reached, and carries
each state's chosen gaps forward as a chain instead of reading decision bits
back, so a fault in the sweeps' bit tricks or walk-back does not cancel out.
It has no budget: give it small instances.
"""

from __future__ import annotations

import gc

from gencaching.core import FORCED, Instance, Service
from gencaching.solver import SolveResult, SolveStats, _SlotPlan


def solve_dict(instance: Instance, plan: _SlotPlan) -> SolveResult:
    """Optimum, witness and counters of an explicit instance, by a dict per layer.

    A layer maps mask -> (best savings, cached size, chain) after deciding
    position t.  A chain is None or a cell (t, rest): the gap opened at t was
    chosen.  Cells are shared between states and form no reference cycles, so
    the cyclic collector is paused during the sweep.  A mask has at most two
    predecessors, one holding p and one not; on equal savings the one that
    held p wins, as in the sweeps.  It asserts that every layer holds the
    empty mask.  It reads the instance's own columns, so a forced instance
    must have its fresh requests written out, as one read from text has.
    """
    assert instance._flush is None, "give the reference an explicit instance"
    request_pages = instance.request_pages
    pages = instance.pages
    cap = instance.capacity
    forced = instance.policy == FORCED
    cur: dict[int, tuple] = {0: (0, 0, None)}
    states = transitions = peak = peak_at = 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for t, ((slot, can_open, _, _, move), pid) in enumerate(zip(plan.rows, request_pages)):
            page = pages[pid]
            sizep = page.size
            costp = page.cost
            bit = 1 << slot if slot >= 0 else 0
            nxt: dict[int, tuple] = {}
            for mask, state in cur.items():
                sav, size, chain = state
                if mask & bit:
                    # p is cached, so serving it saves its cost.  Close: evict
                    # p after serving.  Open: keep it for its next gap.
                    gain = sav + costp
                    m2 = mask & ~bit
                    transitions += 1
                    old = nxt.get(m2)
                    if old is None or gain >= old[0]:
                        nxt[m2] = (gain, size - sizep, chain)
                    if can_open:
                        transitions += 1
                        old = nxt.get(mask)
                        if old is None or gain >= old[0]:
                            nxt[mask] = (gain, size, (t, chain))
                else:
                    # Close leaves the state as it is; under forced, serving
                    # the uncovered p must fit next to the current occupancy.
                    # Open must fit p into the cache until its next request.
                    fits = size + sizep <= cap
                    if fits or not forced:
                        transitions += 1
                        old = nxt.get(mask)
                        if old is None or sav > old[0]:
                            nxt[mask] = state
                    if can_open and fits:
                        transitions += 1
                        m3 = mask | bit
                        old = nxt.get(m3)
                        if old is None or sav > old[0]:
                            nxt[m3] = (sav, size + sizep, (t, chain))
            if move >= 0:
                # p's slot is clear in every mask: the top slot's page moves in.
                top = 1 << move
                for mask in [mask for mask in nxt if mask & top]:
                    nxt[mask ^ top | bit] = nxt.pop(mask)
            # The empty mask is reached at every position (see the solver's
            # module docstring), which the sweeps rely on to need no refusal.
            assert 0 in nxt, f"the empty mask is not reached at position {t}"
            reach = len(nxt)
            states += reach
            if reach > peak:
                peak, peak_at = reach, t
            cur = nxt
    finally:
        if was_enabled:
            gc.enable()

    # Every gap has closed after the last position: the empty mask is left.
    best, _, chain = cur[0]
    chosen: list[tuple[str, int]] = []
    while chain is not None:
        t, chain = chain
        chosen.append((request_pages[t], plan.rows[t][2]))
    return SolveResult(best, Service.of(chosen), SolveStats(states, transitions, peak, peak_at))
