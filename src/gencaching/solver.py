"""Exact offline solvers for the savings-maximization view of general caching.

`solve_exact` sweeps the request sequence once, keeping one DP state per set
of gaps that cross the current boundary between positions.  At a request to
page p exactly two decisions exist in a normalized service: close p's
coverage (evict after serving) or keep p until its next request (open the
gap).  Each gap gets a *slot* in one pass over the requests (`_slot_plan`):
a page's first request takes the lowest slot not live, and when a last
request frees a slot below the top one, the top slot's page moves into it.
So the gaps open at one boundary hold distinct slots, the L_t slots live at
boundary t are 0..L_t-1, and a state is a bitmask over them.  The slot count
k, the most L_t, is the largest number of gaps open at one boundary, far
below the page count, and the sweep is exponential only in k, not in the
request count.

Two backends run the same sweep.  `_solve_packed` keeps a layer as Python
ints of 2^L_t bit fields, one per live mask; `_solve_dense` keeps it as numpy
arrays of 2^k entries and reads only the first 2^L_t.  Both keep one
decision bit per live mask where the page was requested before, and walk back
from the empty mask for the witness.  `solve_exact` refuses from the plan alone, before any sweep, when
the 2^k masks pass the state budget.  Otherwise it runs numpy's sweep where
the plan's live cells, the sum of 2^L_t, reach `NUMPY_MIN_CELLS` and numpy
imports, and the packed sweep everywhere else.  Both explore the same
reachable masks and give ties to the predecessor that held the requested
page, so the optimum, the witness and the counters do not depend on the
choice.

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

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

from . import core
from .core import (
    FORCED,
    OPTIONAL,
    GapTable,
    Instance,
    Service,
    _explicit,
    _Rows,
    gap_table,
    request_positions,
)

DEFAULT_STATE_BUDGET = 5_000_000
BRUTE_FORCE_GAP_GUARD = 24
# numpy's dense sweep runs when the slot plan's live cells reach this many:
# below it the packed sweep is faster than numpy's import (about 0.15 s) and
# sweep together (`fault` C5 at H=2, 10.4 M cells: 0.20 s against 0.22 s in a
# fresh process; `fault` K3 at H=3, 12.1 M: 0.26 s against 0.24 s).
NUMPY_MIN_CELLS = 11_000_000
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
    """Per position t: (slot, has a later request, ordinal of the request
    among its page's, live slots after t, move); the page had an earlier
    request iff the ordinal is positive.  The slot is -1 for a page requested
    once, which has no gap.  The live slots after t are 0..live-1.  `move` is
    -1, or the top slot whose page moves into the slot freed at t right after
    t.  `width` is the slot count k, the most slots live at once.  `cells`
    counts the live cells, the masks a dense sweep reads: 2^L summed over the
    positions, where L is the larger live count on either side of t."""

    rows: tuple[tuple[int, bool, int, int, int], ...]
    width: int
    cells: int


def _slot_plan(instance: Instance) -> _SlotPlan:
    """Give every gap a slot in one sweep over the requests, keeping the live
    slots compact.

    A page's first request takes slot L, where L slots are live; its later
    requests keep it, and its last request frees it.  The page in the top
    slot L-1 then moves to the freed slot, so the live slots are always
    0..L-1, each request touches at most one slot bit plus one move, and the
    slot count is the most gaps open at one boundary.
    """
    counts = Counter(instance.request_pages)
    seen: dict[str, int] = {}
    slot_of: dict[str, int] = {}
    holder: list[str] = []  # the page in each live slot
    width = cells = 0
    rows = []
    for page in instance.request_pages:
        live = len(holder)
        cells += 1 << live
        i = seen.get(page, 0)
        seen[page] = i + 1
        more = i + 1 < counts[page]
        move = -1
        if i:
            slot = slot_of[page]
            if not more:
                top = holder.pop()
                if top != page:
                    holder[slot] = top
                    slot_of[top] = slot
                    move = len(holder)
        elif more:
            slot = live
            slot_of[page] = slot
            holder.append(page)
            if live == width:
                width += 1
            cells += 1 << live  # the sweep reads the masks with the new slot too
        else:
            slot = -1
        rows.append((slot, more, i, len(holder), move))
    return _SlotPlan(tuple(rows), width, cells)


def solve_exact(instance: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Optimal savings plus a witness service, by the boundary-state sweep.

    `budget` caps the masks of one layer.  With k slots a layer may hold
    2^k, so 2^k > budget raises BudgetExceeded from the slot plan, in O(n)
    and before any sweep (never a wrong answer).  Otherwise numpy's dense
    sweep runs iff the plan's live cells reach NUMPY_MIN_CELLS and numpy
    can be imported, and the packed sweep in every other case.  Without
    numpy the large cases take the packed sweep too.  Both keep about one
    decision bit per live mask at every position whose page was requested
    before, so their decisions grow with the live cells: 45 MiB for `fault`
    K4 at H=2 in the packed sweep, 41 MiB in numpy's.  Both sweeps
    break ties alike, so the result (optimum, witness and counters) and the
    refusals do not depend on which runs.  A forced instance from
    `optional_to_forced` is swept with its fresh requests written out
    (`core._explicit`).
    """
    instance = _explicit(instance)
    plan = _slot_plan(instance)
    if 1 << plan.width > budget:
        raise BudgetExceeded(
            f"{plan.width} slots give 2^{plan.width} masks, past the budget of {budget} states"
            f" ({plan.cells} live cells)"
        )
    if plan.cells >= NUMPY_MIN_CELLS:
        try:
            import numpy  # noqa: F401  (optional; never imported with the package)
        except ImportError:
            pass
        else:
            return _solve_dense(instance, plan)
    return _solve_packed(instance, plan)


def _solve_dense(instance: Instance, plan: _SlotPlan) -> SolveResult:
    """The sweep over dense layers: numpy arrays indexed by the slot mask.

    A layer is the best savings per mask (-1 where unreachable) plus the
    cached size per mask.  With L slots live, a layer is the first 2^L
    entries of arrays of 2^k, and each request reads only that prefix (twice
    it at a first request, whose slot is L).  A request to slot s splits the
    prefix through a `reshape(-1, 2, 1 << s)` view into the masks without and
    with bit s, so each request is a few whole-array operations; a move
    copies the masks with the top bit onto those with bit s.  Where the page
    was requested before, the new mask's predecessor holds bit s or not; that
    one decision bit per live mask is kept packed, and the witness is read by
    walking back from the empty mask.  Memory: two savings layers and one
    size array of 2^k ints (int32 when the totals fit) plus 2^L / 8 bytes
    per such position.  Ties go to the predecessor that held p.
    """
    import numpy as np

    request_pages = instance.request_pages
    pages = instance.pages
    cap = instance.capacity
    forced = instance.policy == FORCED
    cells = 1 << plan.width
    dtype = np.int32 if _largest(instance, plan) < 2**31 - 1 else np.int64
    sav = np.full(cells, -1, dtype)
    sav[0] = 0
    nxt = np.empty_like(sav)
    size = np.zeros(cells, dtype)
    choice = np.zeros(cells, bool)
    decisions: dict[int, bytes] = {}

    def reached(layer) -> int:
        return int(np.count_nonzero(layer >= 0))

    reach = 1
    live = 0
    states = transitions = peak = peak_at = 0
    for t, (slot, more, ordinal, after, move) in enumerate(plan.rows):
        page = pages[request_pages[t]]
        room = cap - page.size
        if slot < 0:
            # A page requested once: close is the only move, and under forced
            # the page must fit next to the current occupancy.
            if forced:
                layer = sav[: 1 << live]
                layer[size[: 1 << live] > room] = -1
                reach = reached(layer)
            transitions += reach
        else:
            span = 1 << max(live, after)
            lo = 1 << slot
            cur = sav[:span].reshape(-1, 2, lo)
            new = nxt[:span].reshape(-1, 2, lo)
            held = size[:span].reshape(-1, 2, lo)
            without, with_ = cur[:, 0], cur[:, 1]
            if not ordinal:
                # The slot was free: p's first request gives it p's size.
                np.add(held[:, 0], page.size, out=held[:, 1])
            fit = held[:, 0] <= room
            load = np.where(fit, without, -1)  # open from an uncached p
            stay = load if forced else without  # close from an uncached p
            transitions += reached(stay)
            if more:
                transitions += reached(load)
            if ordinal:
                gain = np.where(with_ >= 0, with_ + page.cost, -1)  # from a cached p
                transitions += reached(with_) * (2 if more else 1)
                pick = choice[:span].reshape(-1, 2, lo)
                np.greater_equal(gain, stay, out=pick[:, 0])
                np.maximum(gain, stay, out=new[:, 0])
                if more:
                    np.greater_equal(gain, load, out=pick[:, 1])
                    np.maximum(gain, load, out=new[:, 1])
                else:
                    pick[:, 1] = False
                    new[:, 1] = -1
                decisions[t] = np.packbits(choice[:span], bitorder="little").tobytes()
            else:
                new[:, 0] = stay
                new[:, 1] = load
            sav, nxt = nxt, sav
            if move >= 0:
                # Bit s is clear in every mask: the masks with the top bit
                # move onto those with bit s.
                for layer in (sav, size):
                    halves = layer[:span].reshape(2, -1, 2, lo)
                    halves[0, :, 1] = halves[1, :, 0]
            live = after
            reach = reached(sav[: 1 << live])
        if not reach:
            raise BudgetExceeded(f"no feasible state at position {t}")
        states += reach
        if reach > peak:
            peak, peak_at = reach, t

    def held(t: int, mask: int) -> int:
        return decisions[t][mask >> 3] >> (mask & 7) & 1

    witness = _walk_back(instance, plan, held)
    return SolveResult(int(sav[0]), witness, SolveStats(states, transitions, peak, peak_at))


def _largest(instance: Instance, plan: _SlotPlan) -> int:
    """A bound on every number a dense layer holds: savings never exceed the
    total cost, a mask's size is at most one page size per slot, and p's size
    is added to it before comparing with the capacity."""
    pages = instance.pages
    return max(
        sum(pages[pid].cost for pid in instance.request_pages),
        (plan.width + 1) * max((p.size for p in pages.values()), default=0),
        instance.capacity,
    )


def _walk_back(instance: Instance, plan: _SlotPlan, held: Callable[[int, int], int]) -> Service:
    """The witness of a dense sweep, read back from the empty mask.

    A gap opened at t is chosen iff the mask after t holds its slot bit;
    `held(t, mask)` is 1 iff the predecessor of `mask` at a position t whose
    page was requested before held that page.  A move after t is undone
    before t is read.
    """
    mask = 0
    chosen: list[tuple[str, int]] = []
    for t in range(len(plan.rows) - 1, -1, -1):
        slot, more, ordinal, _, move = plan.rows[t]
        if slot < 0:
            continue
        bit = 1 << slot
        if move >= 0 and mask & bit:
            mask ^= bit | 1 << move
        if more and mask & bit:
            chosen.append((instance.request_pages[t], ordinal))
        if ordinal and held(t, mask):
            mask |= bit
        else:
            mask &= ~bit
    return Service.of(chosen)


def _solve_packed(instance: Instance, plan: _SlotPlan) -> SolveResult:
    """`_solve_dense`'s sweep on Python ints, one w-bit field per live mask.

    Field m of `sav` holds mask m's best savings + 1 (0 where unreachable)
    and field m of `held` its cached size; with L slots live, both ints hold
    2^L fields.  Every value stays below 2^top (see `_largest`; savings + 1
    too, as a page's first request costs at least 1 and saves nothing), so
    the top bit of a field is a guard: a field-wise comparison or overflow
    sets it without carrying into the next field, and `flags - (flags >>
    top)` turns a set of guards into a mask of their fields' value bits.  So
    each request is a few whole-int operations.  A request to slot s selects
    the masks without bit s with one periodic pattern per slot and aligns
    the masks with bit s to them by a shift of w * 2^s bits; a move shifts
    the masks with the top bit h onto them by w * (2^h - 2^s) bits.  The
    masks reached are counted from the guards only where the counts already
    known do not give them.

    A decision is the guard bits of the masks whose predecessor held p, at
    a position whose page was requested before.  Decision d is kept in lane
    j = d mod w of int d // w, shifted down j bits, so w decisions share one
    int and a live mask costs one bit per decision.  Memory: a few layers of
    2^L * w bits, the slot patterns (2k ints of 2^k * w bits), and about
    2^L / 8 bytes per decision.  Ties go to the predecessor that held p.
    """
    request_pages = instance.request_pages
    pages = instance.pages
    forced = instance.policy == FORCED
    top = _largest(instance, plan).bit_length()
    w = top + 1
    # Per page size: `held + unit * fit` sets the guard of the fields where a
    # page of that size does not fit beside `held`.
    fits = {page.size: (1 << top) - 1 - instance.capacity + page.size for page in pages.values()}

    # Per live width L: (all bits of its 2^L fields, bit 0 of each, their
    # guards, `low`: `(layer + low & guard).bit_count()` counts the fields
    # reached).  Per slot s: all bits of the fields of masks without bit s,
    # and their guards, over the 2^k fields of the widest layer; every use is
    # an `&` with a layer of 2^L fields, which reads only those.
    widths = []
    keeps: list[int] = []
    unit = 1
    full = (1 << w) - 1
    for width in range(plan.width + 1):
        guard = unit << top
        widths.append((full, unit, guard, guard - unit))
        if width < plan.width:
            shift = w << width
            keeps = [keep | keep << shift for keep in keeps]
            keeps.append(full)  # slot `width` keeps the fields below it
            unit |= unit << shift
            full |= full << shift
    slots = [(keep, keep & guard) for keep in keeps]

    sav, held = 1, 0  # only the empty mask is reached, with no savings
    lanes: list[int] = []  # decision d in lane d % w of lanes[d // w]
    decision: dict[int, int] = {}  # position -> d
    live = 0
    full, unit, guard, low = widths[live]
    reach = 1
    states = transitions = peak = peak_at = 0
    for t, (slot, more, ordinal, after, move) in enumerate(plan.rows):
        page = pages[request_pages[t]]
        fit = unit * fits[page.size]
        if slot < 0:
            # A page requested once: close is the only move, and under forced
            # the page must fit next to the current occupancy.
            if forced:
                over = held + fit & guard
                sav ^= sav & over - (over >> top)
                reach = (sav + low & guard).bit_count()
            transitions += reach
        else:
            keep, keep_guard = slots[slot]
            shift = w << slot
            held0 = held & keep
            if not ordinal:
                # The slot was free: p's first request gives it p's size.
                held = held0 | (held0 + unit * page.size & keep) << shift
            without = sav & keep
            over = held0 + fit & keep_guard
            load = without ^ without & over - (over >> top)  # open from an uncached p
            stay = load if forced else without  # close from an uncached p
            loads = (load + low & guard).bit_count() if forced or more else 0
            if ordinal:
                with_ = sav >> shift & keep
                holds = with_ + low & guard  # the reached masks that hold p
                cached = holds.bit_count()
                gain = with_ + (holds >> top) * page.cost  # from a cached p
                # A guard survives `(gain | guard) - other` iff gain >= other.
                pick = (gain | guard) - stay & keep_guard
                sav = stay ^ (gain ^ stay) & pick - (pick >> top)
                if more:
                    pick_open = (gain | guard) - load & keep_guard
                    sav |= (load ^ (gain ^ load) & pick_open - (pick_open >> top)) << shift
                    pick |= pick_open << shift
                else:
                    held = held0  # the last request drops p's size
                d = decision[t] = len(decision)
                if d % w:
                    lanes[-1] |= pick >> d % w
                else:
                    lanes.append(pick)
            else:
                cached = 0
                sav = stay | load << shift
            # The reached masks split by bit s: reach - cached lack it.
            stays = loads if forced else reach - cached
            transitions += stays + cached
            if more:
                transitions += loads + cached
            if after != live:
                live = after
                full, unit, guard, low = widths[live]
            if move >= 0:
                # The top slot's page moves in: `full` holds the masks below its bit.
                span = w << move
                sav = sav & full | (sav >> span) << shift
                held = held & full | (held >> span) << shift
            # A first request puts stay and load in disjoint fields.
            reach = (sav + low & guard).bit_count() if ordinal else stays + loads
        if not reach:
            raise BudgetExceeded(f"no feasible state at position {t}")
        states += reach
        if reach > peak:
            peak, peak_at = reach, t

    def held_p(t: int, mask: int) -> int:
        d = decision[t]
        return lanes[d // w] >> mask * w + top - d % w & 1

    # Every gap has closed after the last position: only field 0 is left.
    witness = _walk_back(instance, plan, held_p)
    return SolveResult(sav - 1, witness, SolveStats(states, transitions, peak, peak_at))


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
    (the rows of `gap_table`, by page id, then ordinal).  `states` counts the
    subsets and `transitions` the valid ones.  Fresh requests held as a rule
    are written out as in `solve_exact`, once the gap count is within the guard.
    """
    # Every request but a page's first ends one gap, under a flush rule too.
    g = instance.num_requests - len(request_positions(instance))
    if g > BRUTE_FORCE_GAP_GUARD:
        raise BudgetExceeded(f"{g} gaps exceed the brute-force guard of {BRUTE_FORCE_GAP_GUARD}")
    instance = _explicit(instance)
    gaps = gap_table(instance)
    best = best_mask = -1
    valid = 0
    for mask, value in _feasible_subsets(instance, gaps):
        valid += 1
        if value > best or (value == best and _lex_before(mask, best_mask)):
            best, best_mask = value, mask
    pairs = [(gaps.page_ids[gaps.pages[i]], gaps.ordinals[i]) for i in range(g) if best_mask >> i & 1]
    return SolveResult(best, Service.of(pairs), SolveStats(1 << g, valid))


def _lex_before(a: int, b: int) -> bool:
    """Whether subset mask `a` lists its gaps, in index order, before `b` does,
    for two masks of equal value.

    Costs are positive, so neither of two such masks is a prefix of the other,
    and the lowest gap in just one of them decides.
    """
    diff = a ^ b
    return bool(a & diff & -diff)


def _feasible_subsets(instance: Instance, gaps: GapTable) -> Iterator[tuple[int, int]]:
    """Yield (mask, value) for every valid subset of `gaps`, in Gray-code order.

    Bit i of `mask` chooses row i of `gaps`; `value` is the chosen gaps' total cost.
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
    top = (sum(gaps.sizes) + cap + max(sizes, default=0)).bit_length()
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
    for i, (s, e, size, cost) in enumerate(zip(gaps.starts, gaps.ends, gaps.sizes, gaps.costs)):
        change = unit >> 2 * field * (n - e + s + 1) << 2 * field * (s + 1)  # s < t < e
        if not forced:
            change += (1 << (2 * s + 1) * field) + (1 << 2 * e * field)  # after s, before e
        change *= size
        flips.append(((change, cost, 1 << i), (-change, -cost, 1 << i)))

    def flip(k: int) -> tuple[int, int, int]:
        """The move of step k of the reflected Gray code."""
        i = (k & -k).bit_length() - 1
        return flips[i][k >> i + 1 & 1]

    # The steps through the low gaps repeat every 2^low subsets, except that
    # gap low-1 runs the other way in odd rounds; a step over a higher gap
    # leads each round.
    g = len(gaps.starts)
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
        return _Rows(self.starts, self.ends, self.sizes, self.costs)


def export_interval_packing(instance: Instance) -> IntervalPackingInstance:
    """One interval per gap, in (page id, ordinal) order: weight = page size,
    value = fault cost.  The four columns are `gap_table`'s own start, end,
    size and cost arrays, not copies.

    Defined for the optional policy only; the forced momentary-fit rule has no
    packing counterpart.
    """
    if instance.policy != OPTIONAL:
        raise UnsupportedPolicyError("interval packing export requires the optional policy")
    gaps = gap_table(instance)
    return IntervalPackingInstance(instance.capacity, gaps.starts, gaps.ends, gaps.sizes, gaps.costs)


def packing_to_text(packing: IntervalPackingInstance) -> str:
    """The packing's text, one line per interval, formatted `core._CHUNK`
    rows at a time so that no more rows than that are separate strings at once."""
    columns = (packing.starts, packing.ends, packing.sizes, packing.costs)
    step = core._CHUNK
    parts = [f"interval-packing 1\nlimit {packing.limit}\n"]
    for lo in range(0, len(packing.starts), step):
        parts.append("".join(map("{} {} {} {}\n".format, *(c[lo : lo + step] for c in columns))))
    return "".join(parts)
