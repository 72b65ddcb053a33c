"""Exact offline solvers for the savings-maximization view of general caching.

`solve_exact` sweeps the request sequence once, keeping one DP state per set
of gaps that cross the current boundary between positions.  At a request to
page p exactly two decisions exist in a normalized service: close p's
coverage (evict after serving) or keep p until its next request (open the
gap).  Each gap gets a *slot* in one pass over the requests (`_slot_plan`):
a page keeps its slot from its first request to its last, so the gaps open
at one boundary hold distinct slots and a state is a bitmask over slots.  The
slot count k is the largest number of gaps open at one boundary, far below
the page count, and the sweep is exponential only in k, not in the request
count.

Two backends run the same sweep.  `_solve_dict` keeps a dict of reachable
masks; each state carries its chosen gaps forward as a chain of the positions
where they open, shared with the states it came from, and per mask the first
state reached with the best savings is kept.  `_solve_dense` keeps every
layer as numpy arrays of 2^k entries and one decision bit per mask, and walks
back from the empty mask for the witness.  `solve_exact` picks the dense
backend where the layers are large and numpy is installed (see
`DENSE_MIN_CELLS`); both explore the same reachable masks, so the optimum and
the counters do not depend on the choice.

`solve_brute_force` is the independent oracle for the DP, guarded to small gap
counts.  It judges each of the 2^g subsets of gaps by its own occupancy, from
the normalized-service semantics alone: at position t only page p_t is
requested, every other cached page covers t with the interior of one chosen
gap, and p_t is covered iff a chosen gap ends or starts at t.  So a subset is
valid iff interior(t) + size(p_t) * [p_t covered] <= C at every t under
`optional`, and interior(t) + size(p_t) <= C under `forced`.  The subsets are
visited in Gray-code order with one running occupancy, so each costs a few
int operations instead of a call to the core validator.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

from .core import (
    FORCED,
    OPTIONAL,
    Gap,
    Instance,
    Service,
    _gc_paused,
    enumerate_gaps,
    request_positions,
)

DEFAULT_STATE_BUDGET = 5_000_000
BRUTE_FORCE_GAP_GUARD = 24
# The dense backend runs when n * 2^k reaches this many cells: below it the
# dict DP is as fast, and the numpy import (about 0.15 s) would dominate.
DENSE_MIN_CELLS = 1 << 21
# Brute force precomputes its Gray-code steps through at most this many low
# gaps, so its memory does not grow with the subset count.
_GRAY_ROUND_GAPS = 10


class BudgetExceeded(RuntimeError):
    """The instance is too large for the requested exact solve."""


class UnsupportedPolicyError(ValueError):
    """The operation is defined for the optional policy only."""


@dataclass(frozen=True)
class SolveStats:
    """Exploration counters (diagnostic only).

    For the DP, `states` and `transitions` count the masks reached and the
    moves taken over all layers; `peak_states` is the widest layer and
    `peak_position` the first position after which it occurs.  For the
    brute-force oracle, `states` is the 2^g subsets of the g gaps and
    `transitions` the valid ones; it has no layers and leaves both peaks 0.
    """

    states: int
    transitions: int
    peak_states: int = 0
    peak_position: int = 0


@dataclass(frozen=True)
class SolveResult:
    optimal_savings: int
    witness: Service
    explored: SolveStats


@dataclass(frozen=True)
class _SlotPlan:
    """Per position t: (slot, had an earlier request, has a later request,
    ordinal of the request among its page's).  The slot is -1 for a page
    requested once, which has no gap; `width` is the slot count k."""

    rows: tuple[tuple[int, bool, bool, int], ...]
    width: int


def _slot_plan(instance: Instance) -> _SlotPlan:
    """Give every gap a slot in one sweep over the requests.

    A page's first request takes the smallest free slot, its later requests
    keep it, and its last request frees it, so each request touches at most
    one slot bit and the slot count is the most gaps open at one boundary.
    """
    counts = Counter(instance.request_pages)
    seen: dict[str, int] = {}
    slot_of: dict[str, int] = {}
    free: list[int] = []
    width = 0
    rows = []
    for page in instance.request_pages:
        i = seen.get(page, 0)
        seen[page] = i + 1
        more = i + 1 < counts[page]
        if i:
            slot = slot_of[page]
            if not more:
                heapq.heappush(free, slot)
        elif more:
            if free:
                slot = heapq.heappop(free)
            else:
                slot = width
                width += 1
            slot_of[page] = slot
        else:
            slot = -1
        rows.append((slot, i > 0, more, i))
    return _SlotPlan(tuple(rows), width)


def solve_exact(instance: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Optimal savings plus a witness service, by the boundary-state sweep.

    `budget` caps the number of states in any single layer; exceeding it
    raises BudgetExceeded (never a wrong answer).  With k slots the dense
    backend runs iff 2^k <= budget, n * 2^k >= DENSE_MIN_CELLS and numpy can
    be imported; otherwise the dict DP runs.  A layer never holds more than
    2^k masks, so the dense backend runs only where the dict DP could not
    have hit the budget, and the optimum, the counters and the refusals are
    the same either way.  The witness is deterministic for a given backend.
    """
    plan = _slot_plan(instance)
    cells = 1 << plan.width
    if cells <= budget and len(plan.rows) * cells >= DENSE_MIN_CELLS:
        try:
            import numpy  # noqa: F401  (optional; never imported with the package)
        except ImportError:
            pass
        else:
            return _solve_dense(instance, plan)
    return _solve_dict(instance, plan, budget)


def _solve_dict(instance: Instance, plan: _SlotPlan, budget: int) -> SolveResult:
    """The sweep over a dict of reachable masks, with shared witness chains.

    Only the current and the next layer are alive, and a layer is refused
    as soon as it passes the budget, so the budget bounds memory too: two
    layers of states plus their shared chains.  Per mask, the first state
    reached with the best savings is kept.
    """
    request_pages = instance.request_pages
    pages = instance.pages
    cap = instance.capacity
    forced = instance.policy == FORCED
    # A layer maps mask -> (best savings, cached size, chain) after deciding
    # position t.  A chain is None or a cell (t, rest): the gap opened at t
    # was chosen.  Cells are shared between states and hold only ints, None
    # and other cells, so they form no reference cycles; the cyclic collector
    # is paused during the sweep, since the long-lived cells would otherwise
    # trigger many full collections.
    cur: dict[int, tuple] = {0: (0, 0, None)}
    states = transitions = peak = peak_at = 0
    with _gc_paused():
        for t, ((slot, _, can_open, _), pid) in enumerate(zip(plan.rows, request_pages)):
            page = pages[pid]
            sizep = page.size
            costp = page.cost
            bit = 1 << slot if slot >= 0 else 0
            nxt: dict[int, tuple] = {}
            todo = iter(cur.items())
            left = len(cur)
            while left:
                # A state adds at most two masks to nxt, so a run of
                # (budget - len(nxt)) // 2 states cannot pass the budget
                # unseen, and a refused layer holds at most budget + 2 states.
                run = min(left, max((budget - len(nxt)) // 2, 1))
                left -= run
                for mask, state in islice(todo, run):
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
                if len(nxt) > budget:
                    raise BudgetExceeded(f"layer {t} passes the budget of {budget} states")
            reach = len(nxt)
            if not reach:
                raise BudgetExceeded(f"no feasible state at position {t}")
            states += reach
            if reach > peak:
                peak, peak_at = reach, t
            cur = nxt

    # No page is requested after the last position, so every gap has closed
    # and the final layer holds the empty mask alone.
    best, _, chain = cur[0]
    chosen: list[tuple[str, int]] = []
    while chain is not None:
        t, chain = chain
        chosen.append((request_pages[t], plan.rows[t][3]))
    return SolveResult(best, Service.of(chosen), SolveStats(states, transitions, peak, peak_at))


def _solve_dense(instance: Instance, plan: _SlotPlan) -> SolveResult:
    """The sweep over dense layers: numpy arrays indexed by the slot mask.

    A layer is the best savings per mask (-1 where unreachable) plus the
    cached size per mask.  A request to slot s splits a layer through a
    `reshape(-1, 2, 1 << s)` view into the masks without and with bit s, so
    each request is a few whole-array operations.  Where the page was
    requested before, the new mask's predecessor holds bit s or not; that
    one decision bit per mask is kept packed, and the witness is read by
    walking back from the empty mask.  Memory: two savings layers and one
    size array of 2^k ints (int32 when the totals fit) plus 2^k / 8 bytes per
    such position.  Ties go to the predecessor that held p.
    """
    import numpy as np

    request_pages = instance.request_pages
    pages = instance.pages
    cap = instance.capacity
    forced = instance.policy == FORCED
    cells = 1 << plan.width
    # Savings never exceed the total cost, and a mask's size is at most one
    # page size per slot; p's size is added before comparing with cap.
    largest = max(
        sum(pages[pid].cost for pid in request_pages),
        (plan.width + 1) * max((p.size for p in pages.values()), default=0),
        cap,
    )
    dtype = np.int32 if largest < 2**31 - 1 else np.int64
    sav = np.full(cells, -1, dtype)
    sav[0] = 0
    nxt = np.empty_like(sav)
    size = np.zeros(cells, dtype)
    choice = np.zeros(cells, bool)
    decisions: dict[int, bytes] = {}

    def reached(layer) -> int:
        return int(np.count_nonzero(layer >= 0))

    reach = 1
    states = transitions = peak = peak_at = 0
    for t, (slot, prev, more, _) in enumerate(plan.rows):
        page = pages[request_pages[t]]
        room = cap - page.size
        if slot < 0:
            # A page requested once: close is the only move, and under forced
            # the page must fit next to the current occupancy.
            if forced:
                sav[size > room] = -1
                reach = reached(sav)
            transitions += reach
        else:
            lo = 1 << slot
            cur = sav.reshape(-1, 2, lo)
            new = nxt.reshape(-1, 2, lo)
            held = size.reshape(-1, 2, lo)
            without, with_ = cur[:, 0], cur[:, 1]
            if not prev:
                # The slot was free: p's first request gives it p's size.
                np.add(held[:, 0], page.size, out=held[:, 1])
            fit = held[:, 0] <= room
            load = np.where(fit, without, -1)  # open from an uncached p
            stay = load if forced else without  # close from an uncached p
            transitions += reached(stay)
            if more:
                transitions += reached(load)
            if prev:
                gain = np.where(with_ >= 0, with_ + page.cost, -1)  # from a cached p
                transitions += reached(with_) * (2 if more else 1)
                pick = choice.reshape(-1, 2, lo)
                np.greater_equal(gain, stay, out=pick[:, 0])
                np.maximum(gain, stay, out=new[:, 0])
                if more:
                    np.greater_equal(gain, load, out=pick[:, 1])
                    np.maximum(gain, load, out=new[:, 1])
                else:
                    pick[:, 1] = False
                    new[:, 1] = -1
                decisions[t] = np.packbits(choice, bitorder="little").tobytes()
            else:
                new[:, 0] = stay
                new[:, 1] = load
            sav, nxt = nxt, sav
            reach = reached(sav)
        if not reach:
            raise BudgetExceeded(f"no feasible state at position {t}")
        states += reach
        if reach > peak:
            peak, peak_at = reach, t

    # Walk back from the empty mask: a gap opened at t is chosen iff the
    # mask after t holds its slot bit.
    mask = 0
    chosen: list[tuple[str, int]] = []
    for t in range(len(plan.rows) - 1, -1, -1):
        slot, prev, more, ordinal = plan.rows[t]
        if slot < 0:
            continue
        bit = 1 << slot
        if more and mask & bit:
            chosen.append((request_pages[t], ordinal))
        if prev and decisions[t][mask >> 3] >> (mask & 7) & 1:
            mask |= bit
        else:
            mask &= ~bit
    return SolveResult(
        int(sav[0]), Service.of(chosen), SolveStats(states, transitions, peak, peak_at)
    )


def solve_brute_force(instance: Instance) -> SolveResult:
    """Exhaustive subset enumeration over all gaps; refuses large instances.

    Every one of the 2^g subsets is judged by its own occupancy, with no
    pruning and no call to the core validator: a subset is valid iff at every
    position t, interior(t) + size(p_t) * [p_t covered at t] <= C under
    `optional` and interior(t) + size(p_t) <= C under `forced`, where
    interior(t) sums the sizes of the chosen gaps (s, e) with s < t < e.
    Under `forced` an uncovered p_t must fit next to the occupancy, and a
    covered one is part of it, so both cases give the same sum.  p_t is
    covered iff a chosen gap ends or starts at t; any other cached page
    covers t with the interior of exactly one chosen gap.

    Ties are broken towards the lexicographically smallest chosen-gap tuple
    (gaps ordered by page id, then ordinal).  `states` counts the subsets
    and `transitions` the valid ones.
    """
    # Every request but a page's first ends one gap.
    g = instance.num_requests - len(request_positions(instance))
    if g > BRUTE_FORCE_GAP_GUARD:
        raise BudgetExceeded(f"{g} gaps exceed the brute-force guard of {BRUTE_FORCE_GAP_GUARD}")
    gaps = enumerate_gaps(instance)
    best = best_mask = -1
    valid = 0
    for mask, value in _feasible_subsets(instance, gaps):
        valid += 1
        if value > best or (value == best and _lex_before(mask, best_mask)):
            best, best_mask = value, mask
    pairs = [(gap.page, gap.ordinal) for i, gap in enumerate(gaps) if best_mask >> i & 1]
    return SolveResult(best, Service.of(pairs), SolveStats(1 << g, valid))


def _lex_before(a: int, b: int) -> bool:
    """Whether subset mask `a` lists its gaps, in index order, before `b` does,
    for two masks of equal value.

    Costs are positive, so neither of two such masks is a prefix of the other,
    and the lowest gap in just one of them decides.
    """
    diff = a ^ b
    return bool(a & diff & -diff)


def _feasible_subsets(instance: Instance, gaps: Sequence[Gap]) -> Iterator[tuple[int, int]]:
    """Yield (mask, value) for every valid subset of `gaps`, in Gray-code order.

    Bit i of `mask` chooses `gaps[i]`; `value` is the chosen gaps' total cost.
    Validity is the occupancy rule of `solve_brute_force`.  Two chosen gaps
    of p_t may meet at t, and p_t is still cached once, so under `optional`
    the rule is checked as two sums, one per side of t: interior(t) plus
    size(p_t) if a chosen gap ends at t, and interior(t) plus size(p_t) if
    one starts at t.  Under `forced` both sums are interior(t) + size(p_t).

    Consecutive subsets differ in one gap, so one running occupancy is kept:
    an int with two bit fields per position, each holding its sum plus
    2^top - 1 - C.  2^top exceeds every sum, so a field never carries into
    the next and its top bit is set iff the sum passes C.  Choosing or
    dropping a gap is one add, and a subset is valid iff no top bit is set.
    """
    pages = instance.pages
    cap = instance.capacity
    forced = instance.policy == FORCED
    sizes = [pages[pid].size for pid in instance.request_pages]
    top = (sum(pages[gap.page].size for gap in gaps) + cap + max(sizes, default=0)).bit_length()
    field = top + 1  # position t's fields start at bits 2t * field and (2t + 1) * field
    n = len(sizes)
    unit = (1 << 2 * field * n) // ((1 << 2 * field) - 1)  # a 1 in every field
    occupancy = unit * ((1 << top) - 1 - cap)
    if forced:
        both = 1 + (1 << field)
        occupancy += sum(size * both << 2 * field * t for t, size in enumerate(sizes))
    guard = unit << top

    # Per gap, the moves that choose and drop it: (occupancy change, value
    # change, mask bit).
    flips = []
    for i, gap in enumerate(gaps):
        s, e = gap.start, gap.end
        page = pages[gap.page]
        change = unit >> 2 * field * (n - e + s + 1) << 2 * field * (s + 1)  # s < t < e
        if not forced:
            change += (1 << (2 * s + 1) * field) + (1 << 2 * e * field)  # after s, before e
        change *= page.size
        flips.append(((change, page.cost, 1 << i), (-change, -page.cost, 1 << i)))

    def flip(k: int) -> tuple[int, int, int]:
        """The move of step k of the reflected Gray code."""
        i = (k & -k).bit_length() - 1
        return flips[i][k >> i + 1 & 1]

    # The steps through the low gaps repeat every 2^low subsets, except that
    # gap low-1 runs the other way in odd rounds; a step over a higher gap
    # leads each round.
    g = len(gaps)
    low = min(g // 2, _GRAY_ROUND_GAPS)
    rounds = [[flip(k) for k in range((j << low) + 1, j + 1 << low)] for j in (0, 1)]
    mask = value = 0
    for j in range(1 << g - low):
        lead = flip(j << low) if j else (0, 0, 0)  # round 0 starts at the empty subset
        for d, c, bit in chain((lead,), rounds[j & 1]):
            occupancy += d
            value += c
            mask ^= bit
            if not occupancy & guard:
                yield mask, value


class _Intervals(Sequence[tuple[int, int, int, int]]):
    """A packing's four columns seen as (start, end, weight, value) tuples, each made on access."""

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple[array, array, array, array]) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(column[index] for column in self._columns)))
        return tuple(column[index] for column in self._columns)

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        return zip(*self._columns)


@dataclass(frozen=True)
class IntervalPackingInstance:
    """Weighted intervals with per-point weight limit `limit`.

    Interval i spans `starts[i]`..`ends[i]`, a gap's span endpoints verbatim,
    with weight `sizes[i]` and value `costs[i]`; the four columns are arrays
    (positions `'i'`, sizes and costs `'q'`).  Feasibility is evaluated over
    the half-open range [start, end).  With that reading the feasible
    interval sets are exactly the valid services of the source instance (two
    adjacent gaps of one page share an endpoint but are one cached copy,
    which the closed reading would double-count), so the maximum total value
    equals the optimal savings.
    """

    limit: int
    starts: array
    ends: array
    sizes: array
    costs: array

    @property
    def intervals(self) -> Sequence[tuple[int, int, int, int]]:
        """The intervals as (start, end, weight, value) tuples, made on access."""
        return _Intervals((self.starts, self.ends, self.sizes, self.costs))


def export_interval_packing(instance: Instance) -> IntervalPackingInstance:
    """One interval per gap, in (page id, ordinal) order: weight = page size,
    value = fault cost.

    Defined for the optional policy only; the forced momentary-fit rule has no
    packing counterpart.
    """
    if instance.policy != OPTIONAL:
        raise UnsupportedPolicyError("interval packing export requires the optional policy")
    pages = instance.pages
    pos = request_positions(instance)
    starts, ends, sizes, costs = array("i"), array("i"), array("q"), array("q")
    for pid in sorted(pos):
        p = pos[pid]
        starts += p[:-1]
        ends += p[1:]
        sizes += array("q", (pages[pid].size,)) * (len(p) - 1)
        costs += array("q", (pages[pid].cost,)) * (len(p) - 1)
    return IntervalPackingInstance(instance.capacity, starts, ends, sizes, costs)


def packing_to_text(packing: IntervalPackingInstance) -> str:
    lines = ["interval-packing 1", f"limit {packing.limit}"]
    lines += map("{} {} {} {}".format, packing.starts, packing.ends, packing.sizes, packing.costs)
    return "\n".join(lines) + "\n"
