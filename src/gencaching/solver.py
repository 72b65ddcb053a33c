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
from the empty mask for the witness.  The plan is the only step that
refuses: when the 2^k masks pass the state budget, it raises right after
its pass over the requests, before any sweep.  Otherwise `solve_exact` runs
numpy's sweep where the plan's live cells, the sum of 2^L_t, reach
`NUMPY_MIN_CELLS`, the plan's value bound fits an int64 and numpy imports,
and the packed sweep everywhere else.
A sweep cannot run out of states: the empty mask is reached at every
position.  Under `optional`, closing is always allowed, and from the empty
mask it leaves the empty mask.  Under `forced`, closing an uncached page
needs it to fit beside the cached ones, and beside none it does: `Instance`
rejects a requested page larger than C, and a rule's fresh size is at most
C.  A move takes the top slot's bit, which the empty mask lacks.  Both
sweeps explore the same reachable masks and give ties to the predecessor
that held the requested page, so the optimum, the witness and the counters
do not depend on the choice.  A forced instance from `optional_to_forced`
keeps its fresh requests as one rule: the slot plan reads it and gives the
sweeps each position's page, so nothing is written out per fresh request.

`solve_brute_force` is the independent oracle for the DP, guarded to small gap
counts.  It judges each of the 2^g subsets of gaps by its own occupancy, from
the normalized-service semantics alone: at position t only page p_t is
requested, every other cached page covers t with the interior of one chosen
gap, and p_t is covered iff a chosen gap ends or starts at t.  So a subset is
valid iff the chosen gaps (s, e) with s <= t < e fit in C at every boundary
t|t+1 under `optional`, and interior(t) + size(p_t) <= C at every t under
`forced`.  It shares no code with the DP: the subsets of up to
`_PACKED_SUBSET_GAPS` gaps are the fields of one Python int, one per subset,
whose loads at each boundary or position are a few whole-int additions, and
a guard bit per field marks the overloaded ones; the other gaps are chosen in
an outer loop.  The 2^24 subsets the guard admits (`bit` K2 at H=1) take
about 0.2 s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from . import core
from .core import (
    FORCED,
    OPTIONAL,
    GapTable,
    Instance,
    Page,
    Service,
    _Rows,
    gap_table,
    request_positions,
)

DEFAULT_STATE_BUDGET = 5_000_000
BRUTE_FORCE_GAP_GUARD = 24
# numpy's dense sweep runs when the slot plan's live cells reach this many:
# below it the packed sweep is faster than numpy's import (about 0.15 s) and
# sweep together.  Medians of seven fresh processes: `fault` C5 at H=2, 10.4 M
# cells, 0.13 s against 0.20 s; `fault` K3 at H=3, 12.1 M, 0.10 against
# 0.16 s; `bit` C5 at H=2, 27.8 M, a tie (0.28 against 0.27 s); `bit` K3 at
# H=3, 33.7 M, 0.47 against 0.41 s.
NUMPY_MIN_CELLS = 20_000_000
# Brute force judges the subsets of at most this many gaps at once, as the
# fields of one int (2^14 fields of 7 bits for `bit` K2 at H=1: 14 KiB per
# int).  Of caps 12-17, 14 was fastest on 23 and 24 gaps, that case among them.
_PACKED_SUBSET_GAPS = 14


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


class _SlotPlan(NamedTuple):
    """Per position t: (slot, has a later request, ordinal of the request
    among its page's, live slots after t, move); the page had an earlier
    request iff the ordinal is positive.  The slot is -1 for a page requested
    once, which has no gap.  The live slots after t are 0..live-1.  `move` is
    -1, or the top slot whose page moves into the slot freed at t right after
    t.  `pages` holds the `Page` at each position.  `width` is the slot count
    k, the most slots live at once.  `cells` counts the live cells, the masks
    a dense sweep reads: 2^L summed over the positions, where L is the larger
    live count on either side of t.  `largest` bounds every number a layer
    holds: savings never exceed the total cost, a mask's size is at most one
    page size per slot, and p's size is added to it before comparing with
    the capacity."""

    rows: list[tuple[int, bool, int, int, int]]
    pages: list[Page]
    width: int
    cells: int
    largest: int


def _slot_plan(instance: Instance, budget: int = DEFAULT_STATE_BUDGET) -> _SlotPlan:
    """Give every gap a slot in one sweep over the requests, keeping the live
    slots compact; refuse when the 2^k masks pass `budget`.

    A page's first request takes slot L, where L slots are live; its later
    requests keep it, and its last request frees it.  The page in the top
    slot L-1 then moves to the freed slot, so the live slots are always
    0..L-1, each request touches at most one slot bit plus one move, and the
    slot count is the most gaps open at one boundary.  The width and the
    live cells are final when that sweep ends, so a refusal comes right
    after it, before any `Page` is looked up or built.

    Under a flush rule the plan walks the base's requests and puts a row
    after each for its fresh request.  A fresh page is requested once, so
    it holds no slot, and the width is the base's.  Nothing reads a fresh
    page's id, so one stand-in `Page` of the rule's size and cost is the
    page at every fresh position.
    """
    flush = instance._flush
    base = flush.base if flush is not None else instance
    request_pages = base.request_pages
    last = dict(zip(request_pages, range(len(request_pages))))  # each page's last position
    seen: dict[str, int] = {}
    slot_of: dict[str, int] = {}
    holder: list[str] = []  # the page in each live slot
    width = cells = 0
    # Under a rule the fresh request before t reads the same masks as t.  No
    # fresh request precedes the first, and the one after the last reads the
    # empty mask alone, so the two ends even out.
    reads = 1 if flush is None else 2
    rows = []
    for t, page in enumerate(request_pages):
        live = len(holder)
        cells += reads << live
        i = seen.get(page, 0)
        seen[page] = i + 1
        more = t < last[page]
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
    if 1 << width > budget:
        raise BudgetExceeded(
            f"{width} slots give 2^{width} masks, past the budget of {budget} states ({cells} live cells)"
        )
    table = base.pages
    pages = list(map(table.__getitem__, request_pages))
    cost = sum(table[pid].cost * count for pid, count in seen.items())
    size = max((page.size for page in table.values()), default=0)
    if flush is not None and pages:  # with no requests the rule's size is 0, no page size
        n = len(request_pages)
        cost += n * flush.cost
        size = max(size, flush.size)
        # Fresh request t follows base request t: requested once, it holds no
        # slot and leaves the slots live after t live.  Rows are shared per
        # live count: a tuple per fresh request planned forced `fault` K3 at
        # `default_H` in 0.16 s, against 0.12 s.
        fresh_rows = [(-1, False, 0, live, -1) for live in range(width + 1)]
        rows += [fresh_rows[after] for _, _, _, after, _ in rows]
        pages += [Page(flush.prefix, flush.size, flush.cost)] * n
        # Interleave: base request t at 2t, its fresh request at 2t + 1.
        rows[::2], rows[1::2] = rows[:n], rows[n:]
        pages[::2], pages[1::2] = pages[:n], pages[n:]
    return _SlotPlan(rows, pages, width, cells, max(cost, (width + 1) * size, instance.capacity))


def solve_exact(instance: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Optimal savings plus a witness service, by the boundary-state sweep.

    `budget` caps the masks of one layer.  With k slots a layer may hold
    2^k, so 2^k > budget raises BudgetExceeded from the slot plan, in O(n)
    and before any sweep (never a wrong answer); nothing else refuses.  So
    `solve_exact` is the plan, the choice of sweep and the sweep: numpy's
    dense sweep runs iff the plan's live cells reach NUMPY_MIN_CELLS, its
    value bound `largest` is below 2^63 (int64 holds every number of a
    layer) and numpy can be imported, and the packed sweep in every other
    case, whose Python ints have no bound.
    Without numpy the large cases take the packed sweep too.  Both keep
    about one decision bit per live mask at every position whose page was
    requested before, so their decisions grow with the live cells: 45 MiB
    for `fault` K4 at H=2 in the packed sweep, 41 MiB in numpy's.  Both
    sweeps break ties alike, so the result (optimum, witness and counters)
    does not depend on which runs.  A forced instance from
    `optional_to_forced` keeps its fresh requests as a rule throughout: the
    slot plan reads the rule (see `_slot_plan`), and the refusal, the choice
    of sweep and the result are those of its explicit twin.
    """
    plan = _slot_plan(instance, budget)
    if plan.cells >= NUMPY_MIN_CELLS and plan.largest < 2**63:
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

    cap = instance.capacity
    forced = instance.policy == FORCED
    cells = 1 << plan.width
    dtype = np.int32 if plan.largest < 2**31 - 1 else np.int64
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
    for t, ((slot, more, ordinal, after, move), page) in enumerate(zip(plan.rows, plan.pages)):
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
            loads = reached(load) if forced or more else 0
            cached = reached(with_) if ordinal else 0
            # The reached masks split by bit s: reach - cached lack it.
            stays = loads if forced else reach - cached
            transitions += stays + cached
            if more:
                transitions += loads + cached
            if ordinal:
                gain = np.where(with_ >= 0, with_ + page.cost, -1)  # from a cached p
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
            reach = stays + loads if more else stays  # as in the packed sweep
        states += reach
        if reach > peak:
            peak, peak_at = reach, t

    def held(t: int, mask: int) -> int:
        return decisions[t][mask >> 3] >> (mask & 7) & 1

    witness = _walk_back(plan, held)
    return SolveResult(int(sav[0]), witness, SolveStats(states, transitions, peak, peak_at))


def _walk_back(plan: _SlotPlan, held: Callable[[int, int], int]) -> Service:
    """The witness of either sweep, read back from the empty mask.

    A gap opened at t is chosen iff the mask after t holds its slot bit;
    `held(t, mask)` is 1 iff the predecessor of `mask` at a position t whose
    page was requested before held that page.  A move after t is undone
    before t is read.
    """
    mask = 0
    chosen: dict[str, list[tuple[int, int]]] = {}  # page -> its chosen ordinals, as runs
    for t in range(len(plan.rows) - 1, -1, -1):
        slot, more, ordinal, _, move = plan.rows[t]
        if slot < 0:
            continue
        bit = 1 << slot
        if move >= 0 and mask & bit:
            mask ^= bit | 1 << move
        if more and mask & bit:
            chosen.setdefault(plan.pages[t].id, []).append((ordinal, ordinal))
        if ordinal and held(t, mask):
            mask |= bit
        else:
            mask &= ~bit
    return Service(chosen)


def _solve_packed(instance: Instance, plan: _SlotPlan) -> SolveResult:
    """`_solve_dense`'s sweep on Python ints, one w-bit field per live mask.

    Field m of `sav` holds mask m's best savings + 1 (0 where unreachable)
    and field m of `held` its cached size; with L slots live, both ints hold
    2^L fields.  Every value stays below 2^top (see `_SlotPlan.largest`;
    savings + 1 too, as a page's first request costs at least 1 and saves
    nothing), so the top bit of a field is a guard: a field-wise comparison
    or overflow sets it without carrying into the next field, and `flags -
    (flags >> top)` turns a set of guards into a mask of their fields' value
    bits.  So each request is a few whole-int operations.  A request to slot
    s selects the masks without bit s with one periodic pattern per slot and
    aligns the masks with bit s to them by a shift of w * 2^s bits; a move
    shifts the masks with the top bit h onto them by w * (2^h - 2^s) bits.
    Where p was requested before, the masks with bit s are read in place as
    `sav ^ without` and shifted down once; where it is requested again, both
    halves of the layer take one max: `stay | load << shift` against `gain
    | gain >> shift`.

    The no-fit mask of a page size, the value bits of the fields where such
    a page does not fit beside `held`, is taken over all of `held`: a
    request to slot s reads it only in the fields without bit s, whose sizes
    do not depend on s.  So it is kept per size and recomputed only after
    `held` or the live width changes, at a first request and a last one (a
    move comes with a last request).

    The masks reached follow from counts already taken, under both
    policies.  A valid partial service stays valid without any one of its
    open gaps: the loads across the boundaries only fall, and so does each
    interior(t) + size(p_t) that `forced` keeps within C.  So the reached
    masks are closed downward.  Each also fits its cached pages, since under
    `forced` the load across t|t+1 is at most interior(t) + size(p_t).  So
    every reached mask with bit s has a reached partner without it beside
    which p fits.  After a request to slot s the masks without bit s are
    then the `reach - cached` reached masks that lacked it under `optional`,
    and the `loads` masks that p fits beside under `forced`, where an
    uncovered p must fit too.  The masks with bit s, where p is requested
    again, are the `loads` masks under both.

    A decision is the guard bits of the masks whose predecessor held p, at
    a position whose page was requested before.  At p's last request the
    fields of the masks with bit s get decision bits too; they are never
    read, because `_walk_back` undoes the move first, which leaves bit s
    clear in the mask it reads there.  Decision d is kept in lane j = d mod
    w of int d // w, shifted down j bits, so w decisions share one int and a
    live mask costs one bit per decision.  Memory: a few layers of 2^L * w bits,
    the slot patterns (k ints of 2^k * w bits), and about 2^L / 8 bytes per
    decision.  Ties go to the predecessor that held p.
    """
    forced = instance.policy == FORCED
    top = plan.largest.bit_length()
    w = top + 1
    # `held + unit * (slack + size)` sets the guard of the fields where a page
    # of that size does not fit beside `held`.
    slack = (1 << top) - 1 - instance.capacity

    # Per live width L: (all bits of its 2^L fields, bit 0 of each, their
    # guards, `low`: `(layer + low & guard).bit_count()` counts the fields
    # reached).  Per slot s: all bits of the fields of masks without bit s,
    # over the 2^k fields of the widest layer; every use is an `&` with a
    # layer of 2^L fields, which reads only those.
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

    sav, held = 1, 0  # only the empty mask is reached, with no savings
    lanes: list[int] = []  # decision d in lane d % w of lanes[d // w]
    decision: dict[int, int] = {}  # position -> d
    live = 0
    full, unit, guard, low = widths[live]
    nofits: dict[int, int] = {}  # page size -> the value bits of the fields it does not fit
    reach = 1
    states = transitions = peak = peak_at = 0
    for t, ((slot, more, ordinal, after, move), page) in enumerate(zip(plan.rows, plan.pages)):
        nofit = nofits.get(page.size)
        if nofit is None:
            over = held + unit * (slack + page.size) & guard
            nofit = nofits[page.size] = over - (over >> top)
        if slot < 0:
            # A page requested once: close is the only move, and under forced
            # the page must fit next to the current occupancy.
            if forced:
                sav ^= sav & nofit
                reach = (sav + low & guard).bit_count()
            transitions += reach
        else:
            shift = w << slot
            # At a first request no reached mask holds bit s yet.
            without = sav & keeps[slot] if ordinal else sav
            load = without ^ without & nofit  # open from an uncached p
            stay = load if forced else without  # close from an uncached p
            loads = (load + low & guard).bit_count() if forced or more else 0
            if ordinal:
                gain = sav ^ without  # the masks with bit s, in place
                holds = gain + low & guard  # the reached ones
                cached = holds.bit_count()
                # From a cached p: its cost in every reached field.
                gain += holds >> top if page.cost == 1 else (holds >> top) * page.cost
                # A guard survives `(gain | guard) - other` iff gain >= other.
                # Where p is requested again, the masks with bit s take the
                # better of gain and load in the same operations.
                if more:
                    stay |= load << shift
                    gain |= gain >> shift
                else:
                    gain >>= shift
                    held &= keeps[slot]  # the last request drops p's size
                    nofits.clear()
                pick = (gain | guard) - stay & guard
                sav = stay ^ (gain ^ stay) & pick - (pick >> top)
                d = decision[t] = len(decision)
                if d % w:
                    lanes[-1] |= pick >> d % w
                else:
                    lanes.append(pick)
            else:
                # The slot was free: p's first request gives it p's size.
                held |= held + unit * page.size << shift
                nofits.clear()
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
            reach = stays + loads if more else stays  # from the counts (see above)
        states += reach
        if reach > peak:
            peak, peak_at = reach, t

    def held_p(t: int, mask: int) -> int:
        d = decision[t]
        return lanes[d // w] >> mask * w + top - d % w & 1

    # Every gap has closed after the last position: only field 0 is left.
    witness = _walk_back(plan, held_p)
    return SolveResult(sav - 1, witness, SolveStats(states, transitions, peak, peak_at))


def solve_brute_force(instance: Instance) -> SolveResult:
    """Exhaustive subset enumeration over all gaps; refuses large instances.

    Every one of the 2^g subsets is judged by its own occupancy, with no
    pruning and no call to the core validator.  At position t only p_t is
    requested, every other cached page covers t with the interior of one
    chosen gap, and p_t is covered iff a chosen gap ends or starts at t.
    Two chosen gaps of p_t may meet at t, and p_t is still cached once, so
    under `optional` the occupancy at t is checked as two sums, one per side
    of t: interior(t) plus size(p_t) if a chosen gap ends at t, and
    interior(t) plus size(p_t) if one starts at t.  These are the loads
    across the boundaries t-1|t and t|t+1, so a subset is valid iff at every
    boundary t|t+1 the chosen gaps (s, e) with s <= t < e fit in C.  Under
    `forced` an uncovered p_t must fit next to the occupancy, and a covered
    one is part of it, so a subset is valid iff interior(t) + size(p_t) <= C
    at every t, where interior(t) sums the chosen gaps with s < t < e.  See
    `_packed_subsets` for how the subsets are judged many at a time.

    Ties are broken towards the lexicographically smallest chosen-gap tuple
    (the rows of `gap_table`, by page id, then ordinal).  `states` counts the
    subsets and `transitions` the valid ones.
    """
    # Every request but a page's first ends one gap; a flush rule has its base's gaps.
    base = instance._flush.base if instance._flush else instance
    g = base.num_requests - len(request_positions(base))
    if g > BRUTE_FORCE_GAP_GUARD:
        raise BudgetExceeded(f"{g} gaps exceed the brute-force guard of {BRUTE_FORCE_GAP_GUARD}")
    gaps = gap_table(instance)
    low, top, unit, values, rounds = _packed_subsets(instance, gaps)
    # Gap i is bit g-1-i of a subset's key, h << low | field: of two subsets
    # of equal value, the one whose gap tuple comes first has the larger key.
    planes = [values & unit << b for b in range(top)]  # bit b of every field's value
    best = (-1, -1)  # (value, key)
    valid = 0
    for h, h_value, over in rounds:
        count = (1 << low) - over.bit_count()
        if not count:
            continue
        valid += count
        # The value bits of the valid fields, narrowed one bit at a time, from
        # the top, to the fields that hold the largest value.
        fields = unit << top ^ over
        fields -= fields >> top
        value = 0
        for b in range(top - 1, -1, -1):
            hit = planes[b] & fields
            if hit:
                hit >>= b
                fields &= (hit << top) - hit
                value |= 1 << b
        best = max(best, (h_value + value, h << low | (fields.bit_length() - 1) // (top + 1)))
    value, key = best
    pairs = [(gaps.page_ids[gaps.pages[i]], gaps.ordinals[i]) for i in range(g) if key >> g - 1 - i & 1]
    return SolveResult(value, Service.of(pairs), SolveStats(1 << g, valid))


def _packed_subsets(
    instance: Instance, gaps: GapTable
) -> tuple[int, int, int, int, Iterator[tuple[int, int, int]]]:
    """Judge the subsets of `gaps` 2^low at a time, one w-bit field per subset.

    The last `low` rows of `gaps` (at most `_PACKED_SUBSET_GAPS`) are the low
    gaps: field f of a Python int stands for the subset of them that holds
    row i iff f has bit g-1-i.  The other `high` = g - low rows are chosen in
    an outer loop, one round per mask h, which holds row i iff h has bit
    high-1-i.  Returns (low, top, unit, values, rounds): w = top + 1, `unit`
    has a 1 in every field, field f of `values` is the cost of its low gaps,
    and each round is (h, the cost of h's gaps, `over`), where `over` holds
    the top bit, the guard, of each field whose subset together with h is
    invalid, by the rule of `solve_brute_force`.

    A check is a boundary t|t+1 under `optional` and a position t under
    `forced`; gap (s, e) counts at the checks s <= t < e, or s < t < e.  Each
    check keeps one packed load, built in order from per-gap indicator
    patterns: size * indicator is added where a gap starts counting and
    subtracted where it stops.  Every field also holds 2^top - 1 - C (plus
    size(p_t) under `forced`), and 2^top exceeds every load and cost, so a
    field never carries into the next, and its guard is set iff its load
    passes C.  A round adds, at each check, `unit` times the summed size of
    its high gaps that count there, and ORs the checks' guards together.
    Checks that no chosen set of gaps can overload are left out.
    """
    flush = instance._flush
    base = flush.base if flush else instance
    cap = instance.capacity
    forced = instance.policy == FORCED
    extra = [base.pages[pid].size if forced else 0 for pid in base.request_pages]
    if flush:  # base request t at 2t, a fresh page of the rule's size at 2t + 1
        extra = [x for size in extra for x in (size, flush.size)]
    n = len(extra)
    g = len(gaps.starts)
    low = min(g, _PACKED_SUBSET_GAPS)
    high = g - low
    top = max(sum(gaps.sizes) + cap + max(extra, default=0), sum(gaps.costs)).bit_length()
    # ind[j]: a 1 in each field whose index has bit j; unit: a 1 in every field.
    ind: list[int] = []
    unit = 1
    for j in range(low):
        span = (top + 1) << j
        ind = [x | x << span for x in ind]
        ind.append(unit << span)
        unit |= unit << span
    guard = unit << top

    # Per check: the change of the low gaps' packed load, of the high gaps
    # counted (a mask like h) and of the most that all gaps counted can load.
    packed = [0] * (n + 1)
    covers = [0] * (n + 1)
    most = [0] * (n + 1)
    values = 0
    for i, (s, e, size, cost) in enumerate(zip(gaps.starts, gaps.ends, gaps.sizes, gaps.costs)):
        s += forced
        if i < high:
            covers[s] ^= 1 << high - 1 - i
            covers[e] ^= 1 << high - 1 - i
        else:
            pattern = ind[g - 1 - i]
            packed[s] += size * pattern
            packed[e] -= size * pattern
            values += cost * pattern
        most[s] += size
        most[e] -= size
    checks = []  # (packed load, high gaps counted)
    load = unit * ((1 << top) - 1 - cap)
    cover = bound = 0
    for t in range(n):
        load += packed[t]
        cover ^= covers[t]
        bound += most[t]
        if bound + extra[t] > cap:
            checks.append((load + unit * extra[t], cover))

    # The sizes and costs of the high gaps of each h.
    h_sizes, h_costs = [0], [0]
    for i in range(high - 1, -1, -1):
        h_sizes += [x + gaps.sizes[i] for x in h_sizes]
        h_costs += [x + gaps.costs[i] for x in h_costs]

    def rounds() -> Iterator[tuple[int, int, int]]:
        for h in range(1 << high):
            over = 0
            for at, cover in checks:
                over |= at + unit * h_sizes[h & cover]
            yield h, h_costs[h], over & guard

    return low, top, unit, values, rounds()


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
