"""Exact offline solvers for the savings-maximization view of general caching.

`solve_exact` sweeps the request sequence once, keeping one DP state per set
of pages whose chosen gap crosses the current boundary between positions.  At
a request to page p exactly two decisions exist in a normalized service: close
p's coverage (evict after serving) or keep p until its next request (open the
gap).  States are bitmasks over pages; each layer keeps the best savings per
mask, so the sweep is exponential only in the number of simultaneously "live"
pages, not in the request count.  Each state carries its chosen gaps forward
as a chain of the positions where they open, shared with the states it came
from, so no earlier layer is kept and no backward walk is needed.  Per mask,
the first state reached with the best savings is kept.

`solve_brute_force` enumerates every subset of gaps and validates each one
against the core validator; it is the independent oracle for the DP and is
guarded to small gap counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FORCED,
    OPTIONAL,
    Instance,
    Service,
    _gc_paused,
    enumerate_gaps,
    request_positions,
    validate_service,
)

DEFAULT_STATE_BUDGET = 5_000_000
BRUTE_FORCE_GAP_GUARD = 24


class BudgetExceeded(RuntimeError):
    """The instance is too large for the requested exact solve."""


class UnsupportedPolicyError(ValueError):
    """The operation is defined for the optional policy only."""


@dataclass(frozen=True)
class SolveStats:
    """Exploration counters (diagnostic only)."""

    states: int
    transitions: int


@dataclass(frozen=True)
class SolveResult:
    optimal_savings: int
    witness: Service
    explored: SolveStats


def solve_exact(instance: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Optimal savings plus a witness service, by the boundary-state sweep.

    `budget` caps the number of states in any single layer; exceeding it
    raises BudgetExceeded (never a wrong answer).  Each state carries the
    positions where its chosen gaps open as a cons list shared with the
    states it came from, and the witness is read off the final state.  Only
    the current and the next layer are alive, so the budget bounds memory
    too: two layers of states plus their shared chains.  The witness is
    deterministic: per mask, the first state reached with the best savings
    is kept.
    """
    reqs = instance.requests
    n = len(reqs)
    if n == 0:
        return SolveResult(0, Service.of(()), SolveStats(0, 0))

    pos = request_positions(instance)
    bit_of: dict[str, int] = {}
    for pid in pos:
        bit_of[pid] = 1 << len(bit_of)
    pages = instance.pages
    # Per position: page bit, size, cost, whether a later request exists, occurrence index.
    seen: dict[str, int] = {}
    req_bit = [0] * n
    req_size = [0] * n
    req_cost = [0] * n
    req_open = [False] * n
    req_ord = [0] * n
    for t, r in enumerate(reqs):
        k = seen.get(r.page, 0)
        seen[r.page] = k + 1
        req_bit[t] = bit_of[r.page]
        req_size[t] = pages[r.page].size
        req_cost[t] = pages[r.page].cost
        req_open[t] = k + 1 < len(pos[r.page])
        req_ord[t] = k

    cap = instance.capacity
    forced = instance.policy == FORCED
    # A layer maps mask -> (best savings, cached size, chain) after deciding
    # position t.  A chain is None or a cell (t, rest): the gap opened at t
    # was chosen.  Cells are shared between states and hold only ints, None
    # and other cells, so they form no reference cycles; the cyclic collector
    # is paused during the sweep, since the long-lived cells would otherwise
    # trigger many full collections.
    cur: dict[int, tuple] = {0: (0, 0, None)}
    states = 0
    transitions = 0
    with _gc_paused():
        for t in range(n):
            bit = req_bit[t]
            sizep = req_size[t]
            costp = req_cost[t]
            can_open = req_open[t]
            nxt: dict[int, tuple] = {}
            for mask, state in cur.items():
                sav, size, chain = state
                if mask & bit:
                    # p is cached, so serving it saves its cost.  Close:
                    # evict p after serving.  Open: keep it for its next gap.
                    gain = sav + costp
                    m2 = mask & ~bit
                    transitions += 1
                    old = nxt.get(m2)
                    if old is None or gain > old[0]:
                        nxt[m2] = (gain, size - sizep, chain)
                    if can_open:
                        transitions += 1
                        old = nxt.get(mask)
                        if old is None or gain > old[0]:
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
            if not nxt:
                raise BudgetExceeded(f"no feasible state at position {t}")
            if len(nxt) > budget:
                raise BudgetExceeded(
                    f"layer {t} holds {len(nxt)} states, over the budget of {budget}"
                )
            states += len(nxt)
            cur = nxt

    # No page is requested after the last position, so every gap has closed
    # and the final layer holds the empty mask alone.
    best, _, chain = cur[0]
    chosen: list[tuple[str, int]] = []
    while chain is not None:
        t, chain = chain
        chosen.append((reqs[t].page, req_ord[t]))
    return SolveResult(best, Service.of(chosen), SolveStats(states, transitions))


def solve_brute_force(instance: Instance, *, max_gaps: int = BRUTE_FORCE_GAP_GUARD) -> SolveResult:
    """Exhaustive subset enumeration over all gaps; refuses large instances.

    Ties are broken towards the lexicographically smallest chosen-gap set
    (gaps ordered by page id, then ordinal).
    """
    gaps = enumerate_gaps(instance)
    g = len(gaps)
    if g > max_gaps:
        raise BudgetExceeded(f"{g} gaps exceed the brute-force guard of {max_gaps}")
    costs = [instance.pages[gap.page].cost for gap in gaps]
    best = -1
    best_pairs: tuple[tuple[str, int], ...] = ()
    valid = 0
    for mask in range(1 << g):
        pairs = tuple((gaps[i].page, gaps[i].ordinal) for i in range(g) if mask >> i & 1)
        if not validate_service(instance, Service.of(pairs)).ok:
            continue
        valid += 1
        value = sum(costs[i] for i in range(g) if mask >> i & 1)
        if value > best or (value == best and pairs < best_pairs):
            best = value
            best_pairs = pairs
    return SolveResult(best, Service.of(best_pairs), SolveStats(1 << g, valid))


@dataclass(frozen=True)
class IntervalPackingInstance:
    """Weighted intervals with per-point weight limit `limit`.

    Each interval is (start, end, weight, value) carrying a gap's span
    endpoints verbatim; feasibility is evaluated over the half-open range
    [start, end).  With that reading the feasible interval sets are exactly
    the valid services of the source instance (two adjacent gaps of one page
    share an endpoint but are one cached copy, which the closed reading would
    double-count), so the maximum total value equals the optimal savings.
    """

    limit: int
    intervals: tuple[tuple[int, int, int, int], ...]


def export_interval_packing(instance: Instance) -> IntervalPackingInstance:
    """One interval per gap: weight = page size, value = fault cost.

    Defined for the optional policy only; the forced momentary-fit rule has no
    packing counterpart.
    """
    if instance.policy != OPTIONAL:
        raise UnsupportedPolicyError("interval packing export requires the optional policy")
    pages = instance.pages
    pos = request_positions(instance)
    intervals: list[tuple[int, int, int, int]] = []
    with _gc_paused():
        for pid in sorted(pos):
            p = pos[pid]
            size, cost = pages[pid].size, pages[pid].cost
            intervals.extend((s, e, size, cost) for s, e in zip(p, p[1:]))
        return IntervalPackingInstance(instance.capacity, tuple(intervals))


def packing_to_text(packing: IntervalPackingInstance) -> str:
    lines = ["interval-packing 1", f"limit {packing.limit}"]
    for start, end, weight, value in packing.intervals:
        lines.append(f"{start} {end} {weight} {value}")
    return "\n".join(lines) + "\n"
