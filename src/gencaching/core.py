"""Data model for general caching instances and normalized services.

An instance is a cache capacity, a table of pages (each with an integer size
and a fault cost), a request sequence, and an optional block structure used by
the instance generators.  Time is discrete: position ``t`` means "while the
``t``-th request is served".

A *normalized* service never holds a page except between two of its requests:
for every pair of consecutive requests to a page (a *gap*) it either keeps the
page cached across the whole closed span between them or evicts it right after
the earlier request.  Choosing a gap saves the page's fault cost once.  A
service is valid when, at every position, the sizes of all pages whose chosen
gaps cover that position fit into the capacity; under the ``forced`` policy a
requested page must additionally fit next to the current occupancy at the
moment it is served.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import countOf, gt, index, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

OPTIONAL = "optional"
FORCED = "forced"
POLICIES = (OPTIONAL, FORCED)

BLOCK_INITIAL = "initial"
BLOCK_FINAL = "final"
BLOCK_PHASE = "phase"
BLOCK_INSERTED = "inserted"
BLOCK_KINDS = (BLOCK_INITIAL, BLOCK_FINAL, BLOCK_PHASE, BLOCK_INSERTED)


class FormatError(ValueError):
    """A text artifact does not follow its declared format."""


class InstanceError(ValueError):
    """Instance data violates a structural invariant."""


class UnknownGapError(InstanceError):
    """A service references a (page, ordinal) gap that does not exist."""


class InvalidServiceError(ValueError):
    """An operation that needs a valid service was given an invalid one."""


def _int_at_least(value: object, least: int) -> bool:
    """Whether `value` is an int of at least `least`, and not a bool or other
    subclass of int, whose text need not be its digits (`True`)."""
    return type(value) is int and value >= least


@dataclass(frozen=True, slots=True)
class Page:
    """A page with a positive integer size and fault cost."""

    id: str
    size: int
    cost: int

    def __post_init__(self) -> None:
        if self.id.split() != [self.id]:  # empty, or holds whitespace
            raise InstanceError(f"bad page id {self.id!r}")
        if not _int_at_least(self.size, 1):
            raise InstanceError(f"page {self.id}: size must be a positive int")
        if not _int_at_least(self.cost, 1):
            raise InstanceError(f"page {self.id}: cost must be a positive int")


class Request(NamedTuple):
    """One request: the page asked for at `position`, inside block `block` (or None)."""

    position: int
    page: str
    block: int | None


class _Rows(Sequence):
    """Equal-length columns seen as one tuple per index, made on access.

    Negative indices and IndexError behave as for a tuple, and a slice is a list.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns: Sequence) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(column[index] for column in self._columns)))
        i = range(len(self))[index]
        return tuple(column[i] for column in self._columns)

    def __iter__(self) -> Iterator:
        return zip(*self._columns)


@dataclass(frozen=True, slots=True)
class Block:
    """A block of the generated request sequence; `Instance.spans` holds its positions."""

    id: int
    kind: str
    vertex: int | None = None
    slot: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in BLOCK_KINDS:
            raise InstanceError(f"block {self.id}: unknown kind {self.kind!r}")
        if self.kind == BLOCK_PHASE:
            if not _int_at_least(self.vertex, 0) or self.slot is not None:
                raise InstanceError(f"block {self.id}: phase block needs a vertex and no slot")
        elif self.kind == BLOCK_INSERTED:
            if not (_int_at_least(self.slot, 1) and self.slot <= 5) or self.vertex is not None:
                raise InstanceError(f"block {self.id}: inserted block needs slot 1..5 and no vertex")
        elif self.vertex is not None or self.slot is not None:
            raise InstanceError(f"block {self.id}: {self.kind} block carries no vertex/slot")


def _block_runs(request_blocks: array) -> Iterator[tuple[int, int, int]]:
    """(block, first position, end) of each maximal run of equal block ids.

    A run's length is counted in C (`countOf`), not by a Python step per request.
    """
    t = 0
    for b, run in groupby(request_blocks):
        lo = t
        t += countOf(run, b)
        yield b, lo, t


def _compute_spans(request_blocks: array, num_blocks: int) -> tuple[tuple[int, int], ...]:
    """Derive canonical block spans from the block column (-1: outside all blocks).

    Raises InstanceError when a block's requests are not contiguous, blocks
    interleave or come out of id order, or a request references a block out
    of range.
    """
    if not num_blocks:
        return ()  # the column is one run of -1, which Instance counts with array.count
    spans: list[tuple[int, int]] = []
    cursor = 0  # the end of the last non-empty block's span
    for b, lo, hi in _block_runs(request_blocks):
        if b == -1:
            continue
        if not 0 <= b < num_blocks:
            raise InstanceError(f"request at {lo} references unknown block {b}")
        if b < len(spans):
            raise InstanceError(f"block {b}: requests are not contiguous or not in block order")
        spans += [(cursor, cursor)] * (b - len(spans))  # the empty blocks before b
        spans.append((lo, hi))
        cursor = hi
    return tuple(spans + [(cursor, cursor)] * (num_blocks - len(spans)))


class _FlushTable(Mapping[str, Page]):
    """The page table of a forced instance whose fresh requests are one rule.

    The instance requests the optional instance `base`'s pages in `base`'s
    order, each followed by a fresh page: base request t sits at position
    2t, and page `prefix` + str(t) at 2t + 1.  Every fresh page has size
    `size`, at least every requested size of `base`, and cost `cost`, and is
    requested once.  The table holds `base`'s pages, then the fresh ones in
    request order; a fresh `Page` is made on access, so nothing is stored
    per fresh request.  No page id of `base` starts with `prefix`.
    """

    __slots__ = ("base", "prefix", "size", "cost")

    def __init__(self, base: Instance, prefix: str, size: int, cost: int) -> None:
        self.base, self.prefix, self.size, self.cost = base, prefix, size, cost

    def fresh_ids(self) -> Iterator[str]:
        """The ids of the fresh pages, in request order."""
        return map(self.prefix.__add__, map(str, range(len(self.base.request_pages))))

    def fresh(self, pid: object) -> int:
        """t when `pid` is the id of fresh page t, else -1."""
        if not (isinstance(pid, str) and pid.startswith(self.prefix)):
            return -1
        t = pid[len(self.prefix) :]
        if t.isascii() and t.isdigit() and str(int(t)) == t and int(t) < len(self.base.request_pages):
            return int(t)
        return -1

    def page_at(self, t: int) -> str:
        """The page id at position t (0 <= t < 2 * the base's request count)."""
        u, fresh = divmod(t, 2)
        return self.prefix + str(u) if fresh else self.base.request_pages[u]

    def column(self) -> Iterator[str]:
        """The page id at every position: base request t, then fresh page t."""
        return chain.from_iterable(zip(self.base.request_pages, self.fresh_ids()))

    def __getitem__(self, pid: str) -> Page:
        page = self.base.pages.get(pid)
        if page is not None:
            return page
        if self.fresh(pid) < 0:
            raise KeyError(pid)
        return Page(pid, self.size, self.cost)

    def __len__(self) -> int:
        return len(self.base.pages) + len(self.base.request_pages)

    def __iter__(self) -> Iterator[str]:
        return chain(self.base.pages, self.fresh_ids())


class _RequestView(Sequence):
    """`Instance.requests`: one `Request` per position, made on access.

    Iterating makes each row in C, from the page column, the block column
    (None for -1) and the positions, with no Python frame per row.
    Negative indices and IndexError behave as for a tuple, and a slice is a
    list.
    """

    __slots__ = ("_instance",)

    def __init__(self, instance: Instance) -> None:
        self._instance = instance

    def __len__(self) -> int:
        return self._instance.num_requests

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.__getitem__, range(len(self))[index]))
        t = range(len(self))[index]
        inst = self._instance
        if inst._flush:
            return Request(t, inst._flush.page_at(t), None)
        b = inst.request_blocks[t]
        return Request(t, inst.request_pages[t], None if b < 0 else b)

    def __iter__(self) -> Iterator[Request]:
        inst = self._instance
        column = inst.request_blocks
        blocks = repeat(None) if inst._flush else map({-1: None}.get, column, column)
        return map(tuple.__new__, repeat(Request), zip(count(), _page_column(inst), blocks))


@dataclass(frozen=True)
class Instance:
    """A general caching instance.

    `pages` maps page id to Page and its insertion order is the serialization
    order.  The request sequence is two columns indexed by position:
    `request_pages` holds the page id of each request and `request_blocks`
    (an `array('i')`) its block id, -1 outside all blocks.  The builders
    store each page id as the page table's own key string, so the page
    column costs one pointer per request.  `cost_scale` records how integral
    costs relate to the model's natural unit (1 except for scaled two-cost
    instances); all costs and savings are already expressed in the scaled
    units.

    A forced instance made by `optional_to_forced` holds its fresh requests
    as one rule: its `pages` is a `_FlushTable`, and its two columns are
    those of the optional instance it extends, whose request t sits at
    position 2t (see `_FlushTable`).  `num_requests`, `requests`,
    `request_positions`, validation and the text writer read the rule;
    such an instance has no blocks.
    """

    capacity: int
    pages: Mapping[str, Page]
    request_pages: tuple[str, ...]
    request_blocks: array
    blocks: tuple[Block, ...] = ()
    policy: str = OPTIONAL
    cost_scale: int = 1

    def __post_init__(self) -> None:
        if not _int_at_least(self.capacity, 1):
            raise InstanceError("capacity must be a positive int")
        if self.policy not in POLICIES:
            raise InstanceError(f"unknown policy {self.policy!r}")
        if not _int_at_least(self.cost_scale, 1):
            raise InstanceError("cost_scale must be a positive int")
        flush = self._flush
        if flush is not None:
            base = flush.base
            if (
                self.policy != FORCED
                or self.blocks
                or self.capacity < flush.size
                or self.request_pages is not base.request_pages
                or self.request_blocks is not base.request_blocks
            ):
                raise InstanceError(
                    "a flush table's instance is forced, has no blocks, "
                    "holds its base's columns and fits its fresh pages"
                )
            return  # the base checked its columns, and no requested page is larger than flush.size
        for pid, page in self.pages.items():
            if pid != page.id:
                raise InstanceError(f"page table key {pid!r} != page id {page.id!r}")
        pages, column = self.request_pages, self.request_blocks
        if not isinstance(pages, tuple):
            raise InstanceError("request_pages must be a tuple of page ids")
        if not (isinstance(column, array) and column.typecode == "i"):
            raise InstanceError("request_blocks must be an array('i') of block ids")
        if len(column) != len(pages):
            raise InstanceError(f"{len(pages)} request pages but {len(column)} request blocks")
        if not set(pages) <= self.pages.keys():
            t = next(t for t, pid in enumerate(pages) if pid not in self.pages)
            raise InstanceError(f"request {t} asks for unknown page {pages[t]!r}")
        if self.blocks:
            for i, b in enumerate(self.blocks):
                if b.id != i:
                    raise InstanceError(f"block at index {i} has id {b.id}")
            if self.blocks[0].kind != BLOCK_INITIAL or self.blocks[-1].kind != BLOCK_FINAL:
                raise InstanceError("block list must start with the initial and end with the final block")
            kinds = [b.kind for b in self.blocks]
            if kinds.count(BLOCK_INITIAL) != 1 or kinds.count(BLOCK_FINAL) != 1:
                raise InstanceError("exactly one initial and one final block required")
            self.spans  # derived once here, so a bad block column fails construction
        elif column.count(-1) != len(column):
            raise InstanceError("requests reference blocks but the instance has none")
        if self.policy == FORCED:
            big = {pid for pid, page in self.pages.items() if page.size > self.capacity}
            if not big.isdisjoint(pages):
                pid = next(pid for pid in pages if pid in big)
                raise InstanceError(
                    f"forced policy: requested page {pid} (size {self.pages[pid].size}) "
                    f"exceeds capacity {self.capacity}"
                )

    @property
    def _flush(self) -> _FlushTable | None:
        """The page table when it holds the fresh requests as a rule, else None."""
        pages = self.pages
        return pages if isinstance(pages, _FlushTable) else None

    @property
    def num_requests(self) -> int:
        n = len(self.request_pages)
        return 2 * n if self._flush else n

    @property
    def requests(self) -> Sequence[Request]:
        """The requests as `Request(position, page, block)` tuples, made on access.

        A read-only view for callers that want one record per request; the
        package itself reads the two columns.  Under a flush rule it reads
        the rule per position.
        """
        return _RequestView(self)

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Per block, the half-open position range [start, end) holding exactly
        its requests, derived from `request_blocks`.

        An empty block's span is (x, x) where x is the end of the previous
        non-empty block's span (0 if there is none), i.e. the position where
        the block would begin.
        """
        return _compute_spans(self.request_blocks, len(self.blocks))

    @cached_property
    def _positions(self) -> Mapping[str, array]:
        """One `array('i')` of positions per page behind a read-only proxy,
        built on first use (see `request_positions`)."""
        by_page: defaultdict[str, array] = defaultdict(partial(array, "i"))
        for t, pid in enumerate(_page_column(self)):
            by_page[pid].append(t)
        by_page.default_factory = None  # a missing page raises KeyError
        return MappingProxyType(by_page)

    def __getstate__(self) -> dict:
        """The state without the request index, a proxy that does not pickle."""
        state = dict(vars(self))
        state.pop("_positions", None)
        return state

    def __repr__(self) -> str:  # the default would dump every request
        return (
            f"Instance(C={self.capacity}, pages={len(self.pages)}, requests={self.num_requests}, "
            f"blocks={len(self.blocks)}, policy={self.policy}, scale={self.cost_scale})"
        )


def _page_table(pages: Iterable[Page | tuple[str, int, int]]) -> dict[str, Page]:
    """The page table of Page objects or (id, size, cost) triples, keyed by each Page's id."""
    table: dict[str, Page] = {}
    for p in pages:
        page = p if isinstance(p, Page) else Page(*p)
        if page.id in table:
            raise InstanceError(f"duplicate page id {page.id!r}")
        table[page.id] = page
    return table


def make_instance(
    capacity: int,
    pages: Iterable[Page | tuple[str, int, int]],
    requests: Iterable[tuple[str, int | None]],
    blocks: Iterable[tuple[str, int | None, int | None]] = (),
    policy: str = OPTIONAL,
    cost_scale: int = 1,
) -> Instance:
    """Assemble a validated Instance from plain data.

    `pages`: Page objects or (id, size, cost) triples, in table order.
    `requests`: (page_id, block_id or None) pairs, in request order.
    `blocks`: (kind, vertex, slot) triples in block-id order; spans are
    derived from the requests.
    """
    table = _page_table(pages)
    blocks = tuple(Block(i, *spec) for i, spec in enumerate(blocks))
    request_pages: list[str] = []
    request_blocks = array("i")
    for pid, blk in requests:
        page = table.get(pid)
        if page is None:
            raise InstanceError(f"request {len(request_pages)} asks for unknown page {pid!r}")
        if blk is None:
            blk = -1
        elif not 0 <= blk < len(blocks):
            raise InstanceError(f"request at {len(request_pages)} references unknown block {blk}")
        request_pages.append(page.id)
        request_blocks.append(blk)
    return Instance(
        capacity, table, tuple(request_pages), request_blocks, blocks, policy, cost_scale
    )


@dataclass(frozen=True)
class GapTable:
    """Every gap of an instance as array columns, gaps in (page id, ordinal) order.

    Gap i is the closed span [`starts[i]`, `ends[i]`] between the
    `ordinals[i]`-th and the next request (0-based) of page
    `page_ids[pages[i]]`, whose size is `sizes[i]` and cost `costs[i]`.
    `page_ids` holds the pages with a gap, in id order.  Page indices,
    ordinals and positions are `array('i')`, sizes and costs `array('q')`.
    """

    page_ids: tuple[str, ...]
    pages: array
    ordinals: array
    starts: array
    ends: array
    sizes: array
    costs: array


@dataclass(frozen=True)
class Service:
    """A normalized service: per page, the ordinals of its chosen gaps.

    `runs` maps each page id to its chosen ordinals as maximal runs
    (first, last), both inclusive, in increasing order, pages in id order.
    The constructor takes runs in any order, overlapping or touching, and
    merges them, so equal gap sets make equal services; a page whose every
    gap is chosen costs one run.  Ordinals are checked against an instance
    only when the service is used with it (UnknownGapError).  `runs` is
    shared, so it must not be modified.
    """

    runs: Mapping[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canonical: dict[str, tuple[tuple[int, int], ...]] = {}
        for pid in sorted(self.runs):
            merged: list[tuple[int, int]] = []
            for first, last in sorted(self.runs[pid]):
                if first > last:
                    raise InstanceError(f"page {pid!r}: run ({first}, {last}) holds no ordinal")
                if merged and first <= merged[-1][1] + 1:
                    if last > merged[-1][1]:
                        merged[-1] = (merged[-1][0], last)
                else:
                    merged.append((first, last))
            if merged:
                canonical[pid] = tuple(merged)
        object.__setattr__(self, "runs", canonical)

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, int]]) -> "Service":
        """The service of (page id, ordinal) pairs, in any order; duplicates
        count once.  An ordinal must be an integer (`operator.index`): a float
        raises TypeError rather than being truncated."""
        by_page: dict[str, list[tuple[int, int]]] = {}
        for p, k in pairs:
            k = index(k)
            by_page.setdefault(str(p), []).append((k, k))
        return cls(by_page)

    def __len__(self) -> int:
        return sum(last - first + 1 for rs in self.runs.values() for first, last in rs)

    def __hash__(self) -> int:
        return hash(tuple(self.runs.items()))

    def __repr__(self) -> str:
        return f"Service({len(self)} gaps)"


def request_positions(instance: Instance) -> Mapping[str, array]:
    """Positions of each requested page, in request order; pages in first-request order.

    Each page's positions are one `array('i')`, the same object on every
    read.  The index is a read-only mapping built from the page column on
    first use and shared by every caller, so its arrays may not be modified
    either.  Under a flush rule the package reads only the optional
    instance's index (see `gap_table`), so a rule's own index is built only
    when a caller asks for it.  A copy of the instance builds its own.
    """
    return instance._positions


def _page_column(instance: Instance) -> Iterable[str]:
    """The page id at every position, under a flush rule too."""
    return instance._flush.column() if instance._flush else instance.request_pages


def gap_table(instance: Instance) -> GapTable:
    """The instance's gaps, from one slice of each page's positions.

    Under a flush rule only the base's pages have gaps, since each fresh page
    is requested once, so the table is the base's with every start and end
    doubled.  Raises InstanceError, before the page's entries are written,
    when a page with a gap has a size or cost past the 64-bit columns (2^63
    or more).
    """
    if instance._flush:
        gaps = gap_table(instance._flush.base)
        return replace(gaps, starts=_doubled(gaps.starts), ends=_doubled(gaps.ends))
    by_page = request_positions(instance)
    page_ids: list[str] = []
    pages, ordinals, starts, ends = array("i"), array("i"), array("i"), array("i")
    sizes, costs = array("q"), array("q")
    upto = array("i")  # 0, 1, 2, ...: a page's ordinals are a slice of it, not one int each
    for pid in sorted(by_page):
        pos = by_page[pid]
        g = len(pos) - 1
        if g:
            page = instance.pages[pid]
            if page.size >= 2**63 or page.cost >= 2**63:
                raise InstanceError(f"page {pid}: size and cost must be below 2^63 in a gap table")
            if len(upto) < g:
                upto = array("i", range(2 * g))
            pages += array("i", (len(page_ids),)) * g
            page_ids.append(pid)
            ordinals += upto[:g]
            starts += pos[:-1]
            ends += pos[1:]
            sizes += array("q", (page.size,)) * g
            costs += array("q", (page.cost,)) * g
    return GapTable(tuple(page_ids), pages, ordinals, starts, ends, sizes, costs)


def _doubled(positions: array) -> array:
    """Every position doubled, by one shift of the array's bytes read as an
    int: the doubled positions fit an array('i'), so no bit crosses into the
    next entry."""
    raw = positions.tobytes()
    return array("i", (int.from_bytes(raw, sys.byteorder) << 1).to_bytes(len(raw), sys.byteorder))


def merged_occupancy_runs(
    instance: Instance, service: Service
) -> dict[str, list[tuple[int, int]]]:
    """Per page, the maximal closed position runs covered by its chosen gaps.

    Adjacent chosen gaps of one page share an endpoint, so each of the
    service's ordinal runs (first, last) covers the one position run from
    the page's request `first` to its request `last + 1`, and occupancy is a
    per-page union (a page is cached at most once).  Under a flush rule the
    runs are read off the base's index, and only each run's two endpoints
    are doubled.  Raises UnknownGapError when a chosen ordinal references a
    gap that does not exist.
    """
    flush = instance._flush
    pos = request_positions(flush.base if flush else instance)
    shift = 1 if flush else 0  # under a rule, base request t sits at position 2t
    runs: dict[str, list[tuple[int, int]]] = {}
    for pid, ordinal_runs in service.runs.items():
        p = pos.get(pid)
        if p is None:
            if not (flush and flush.fresh(pid) >= 0):
                raise UnknownGapError(f"page {pid!r} has no requests (or does not exist)")
            p = (0,)  # a fresh page is requested once, so it has no gap
        first, last = ordinal_runs[0][0], ordinal_runs[-1][1]
        if first < 0 or last >= len(p) - 1:
            raise UnknownGapError(f"page {pid!r} has no gap with ordinal {first if first < 0 else last}")
        runs[pid] = [(p[a] << shift, p[b + 1] << shift) for a, b in ordinal_runs]
    return runs


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a service; lists every violating position."""

    ok: bool
    capacity_violations: tuple[int, ...] = ()
    forced_violations: tuple[int, ...] = ()


def validate_service(instance: Instance, service: Service) -> ValidationReport:
    """Check pointwise capacity and, under the forced policy, momentary fit.

    A request to page p at position t where p's chosen gaps do not cover t
    must satisfy size(p) + occupancy(t) <= capacity under `forced`.  The load
    changes only where a merged run starts or ends, so the sorted run ends
    are a step function: each step is a position and the load until the
    next change.  Only the positions of steps whose load passes the capacity,
    or under `forced` the capacity minus the largest requested size (a flush
    rule's fresh size), are visited: below that every request fits.  A
    visited position reads its page by index and finds whether one of the
    page's runs covers it by a bisect.  Under a flush rule a visited odd
    position is a fresh page, requested once and so never covered, of the
    rule's size; an even one 2t reads the base's request t.
    """
    runs = merged_occupancy_runs(instance, service)
    flush = instance._flush
    base = flush.base if flush else instance  # a rule's fresh pages have no gaps
    pages, column = base.pages, base.request_pages
    shift = 1 if flush else 0
    changes: list[tuple[int, int]] = []
    for pid, rs in runs.items():
        size = pages[pid].size
        for s, e in rs:
            changes += ((s, size), (e + 1, -size))
    changes.sort()
    loads = list(accumulate(map(itemgetter(1), changes)))
    cap = instance.capacity
    forced = instance.policy == FORCED
    bar = cap - _largest_request(instance) if forced else cap
    start = itemgetter(0)
    capacity_violations: list[int] = []
    forced_violations: list[int] = []
    # Step i holds loads[i] from change i's position up to change i + 1's;
    # changes at one position make empty steps before the last of them.
    heavy = compress(zip(changes, changes[1:], loads), map(gt, loads, repeat(bar)))
    for (lo, _), (hi, _), load in heavy:
        if load > cap:
            capacity_violations += range(lo, hi)
        if forced:
            for t in range(lo, hi):
                if t & shift:  # a rule's fresh page, which no run covers
                    size = flush.size
                else:
                    pid = column[t >> shift]
                    rs = runs.get(pid, ())
                    i = bisect_right(rs, t, key=start)  # p's runs that start by t
                    if i and rs[i - 1][1] >= t:
                        continue
                    size = pages[pid].size
                if size + load > cap:
                    forced_violations.append(t)
    ok = not capacity_violations and not forced_violations
    return ValidationReport(ok, tuple(capacity_violations), tuple(forced_violations))


def _largest_request(instance: Instance) -> int:
    """The largest size of a requested page."""
    if instance._flush:
        return instance._flush.size
    pages = instance.pages
    return max((pages[pid].size for pid in request_positions(instance)), default=0)


def savings(instance: Instance, service: Service) -> int:
    """Total fault cost avoided by the chosen gaps; rejects invalid services."""
    report = validate_service(instance, service)
    if not report.ok:
        raise InvalidServiceError(
            "invalid service: capacity violations at "
            f"{list(report.capacity_violations)[:5]}, forced violations at "
            f"{list(report.forced_violations)[:5]}"
        )
    pages = instance.pages
    return sum(
        pages[pid].cost * (last - first + 1)
        for pid, rs in service.runs.items()
        for first, last in rs
    )


# --- text formats -----------------------------------------------------------

INSTANCE_HEADER = "caching-instance 1"
SERVICE_HEADER = "service 1"


def _block_kind_token(b: Block) -> str:
    if b.kind == BLOCK_INSERTED:
        return f"inserted{b.slot}"
    return b.kind


def _instance_text_parts(instance: Instance) -> list[str]:
    """The text of `instance_to_text` as parts to concatenate.

    The requests of one run of equal block ids all end in the same block
    token, so a run is one join over its slice of the page column instead of
    one string per request; an instance without blocks is one run.  A flush
    rule's fresh pages are written as the explicit forced instance lists
    them.
    """
    flush = instance._flush
    lines = [
        INSTANCE_HEADER,
        f"cache {instance.capacity}",
        f"policy {instance.policy}",
        f"scale {instance.cost_scale}",
        f"pages {len(instance.pages)}",
    ]
    for page in (flush.base.pages if flush else instance.pages).values():
        lines.append(f"{page.id} {page.size} {page.cost}")
    if flush:
        lines += (f"{pid} {flush.size} {flush.cost}" for pid in flush.fresh_ids())
    lines.append(f"blocks {len(instance.blocks)}")
    for b in instance.blocks:
        if b.kind == BLOCK_PHASE:
            lines.append(f"{b.id} phase {b.vertex}")
        else:
            lines.append(f"{b.id} {_block_kind_token(b)}")
    lines.append(f"requests {instance.num_requests}")
    parts = ["\n".join(lines) + "\n"]
    if not instance.blocks:  # every request is outside all blocks
        if instance.num_requests:
            parts += (" -\n".join(_page_column(instance)), " -\n")
        return parts
    pages = instance.request_pages
    for b, lo, hi in _block_runs(instance.request_blocks):
        end = f" {b}\n" if b >= 0 else " -\n"
        parts += (end.join(pages[lo:hi]), end)
    return parts


def instance_to_text(instance: Instance) -> str:
    return "".join(_instance_text_parts(instance))


# The reader splits the text this many characters at a time (see _LineReader);
# `solver.packing_to_text` formats this many rows at a time.
_CHUNK = 1 << 16


class _LineReader:
    """A strict cursor over the lines of a text artifact; every parser reads through one.

    Blank lines are skipped everywhere, an integer is a non-empty run of ASCII
    digits, and every error names the line's number in the original text.
    `lineno` is the number of the last line read, which is also the index of
    the next one.

    The text is split into lines one chunk at a time, so a parser holds the
    lines of one chunk of about `_CHUNK` characters, never those of the whole
    text.  A chunk ends right after a "\n", which ends a line in every
    reading, so the lines and their numbers are those of `text.splitlines()`.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._cut = 0  # where the next chunk begins in the text
        self._lines: list[str] = []  # the current chunk's lines
        self._base = 0  # the number of lines before the current chunk
        self.lineno = 0

    def _next_chunk(self) -> bool:
        """Move to the next chunk's lines; false when the text is used up."""
        text, cut = self._text, self._cut
        if cut == len(text):
            return False
        end = text.find("\n", cut + _CHUNK - 1) + 1 or len(text)
        self._base += len(self._lines)
        self._lines = text[cut:end].splitlines()
        self._cut = end
        return True

    def error(self, message: str) -> FormatError:
        return FormatError(f"line {self.lineno}: {message}")

    def integer(self, token: str, what: str) -> int:
        if token.isdigit() and token.isascii():
            return int(token)
        raise self.error(f"{what} must be a non-negative integer, got {token!r}")

    def ahead(self, most: int | None = None) -> list[str]:
        """The lines from the cursor to the end of its chunk, at most `most`
        (None: no limit), moving to the next chunk when the cursor's is used
        up; empty at the end of the text.  The cursor does not move."""
        while self.lineno - self._base == len(self._lines):
            if not self._next_chunk():
                return []
        i = self.lineno - self._base
        return self._lines[i : None if most is None else i + most]

    def split(self, line: str, allowed: tuple[int, ...], shape: str) -> list[str]:
        """The fields of `line`, the line just read, which has one of the
        `allowed` field counts; empty for a blank line."""
        parts = line.split()
        if parts and len(parts) not in allowed:
            raise self.error(f"expected '{shape}', got {' '.join(parts)!r}")
        return parts

    def at_end(self) -> bool:
        """Skip blank lines; true when nothing else is left."""
        while lines := self.ahead():
            for line in lines:
                if line.strip():
                    return False
                self.lineno += 1
        return True

    def keyword(self, name: str, argc: int) -> list[str]:
        """The `argc` arguments of the next line, which must read `name arg...`."""
        if self.at_end():
            raise FormatError(f"unexpected end of input, expected '{name} ...'")
        parts = self._lines[self.lineno - self._base].split()
        self.lineno += 1
        if parts[0] != name or len(parts) != argc + 1:
            raise self.error(f"expected '{name}' with {argc} argument(s), got {' '.join(parts)!r}")
        return parts[1:]

    def value(self, name: str, least: int = 0) -> int:
        """The integer of a `name <n>` line; it must be at least `least`."""
        n = self.integer(self.keyword(name, 1)[0], name)
        if n < least:
            raise self.error(f"{name} must be at least {least}, got {n}")
        return n

    def rows(
        self, count: int | None, fields: int | tuple[int, ...], shape: str
    ) -> Iterator[list[str]]:
        """Yield the fields of the next `count` lines (of all remaining lines when
        `count` is None); a row has `fields` fields, or one of the counts in `fields`.

        Rows go out one at a time: holding every split row of a 600 K-line
        section at once makes the cyclic GC rescan them, and made
        `reduction_from_text` 1.2-1.4x slower.
        """
        allowed = (fields,) if isinstance(fields, int) else fields
        left = count
        while left != 0:  # None never reaches 0
            lines = self.ahead(left)
            if not lines:
                if count is None:
                    return
                raise FormatError(f"unexpected end of input, expected '{shape}'")
            for line in lines:  # at most `left` lines, so the count ends with them
                self.lineno += 1
                parts = self.split(line, allowed, shape)
                if parts:
                    yield parts
                    if left is not None:
                        left -= 1

    def end(self, what: str) -> None:
        if not self.at_end():
            self.lineno += 1
            raise self.error(f"trailing content after {what}")


def _read_requests(
    r: _LineReader, table: Mapping[str, Page], num_blocks: int
) -> tuple[tuple[str, ...], array]:
    """The `requests` section: its page column, as the table's own id strings,
    and its block column.

    Each chunk's lines go through one tight loop, which takes a line as the
    writer writes it: a known page id and a block token (`-` or a block id in
    decimal).  Any other line, blank, with another field count, an unknown
    page or a token such as `007`, takes the per-line checks, which skip it,
    read it or report it at its line number.
    """
    shape = "<page-id> <block|->"
    keys = dict(zip(table, table))
    block_ids = {str(i): i for i in range(num_blocks)}
    block_ids["-"] = -1
    pages: list[str] = []
    blocks = array("i")
    add_page, add_block = pages.append, blocks.append
    left = r.value("requests")
    while left:
        lines = r.ahead(left)
        if not lines:
            raise FormatError(f"unexpected end of input, expected '{shape}'")
        # lines[0] follows line `first` and `done` rows; `blank` counts its blank lines so far.
        first, done, blank = r.lineno, len(blocks), 0
        for line in lines:
            try:
                pid, blk = line.split()
                b = block_ids[blk]
                add_page(keys[pid])
                add_block(b)
                continue
            except (ValueError, KeyError):
                pass
            # Each line before this one was a row or blank.
            r.lineno = first + len(blocks) - done + blank + 1
            parts = r.split(line, (2,), shape)
            if not parts:
                blank += 1
                continue
            pid, blk = parts
            if pid not in keys:
                raise r.error(f"request for unknown page {pid!r}")
            b = r.integer(blk, "block id")  # the token is not one the writer writes
            if b >= num_blocks:
                raise r.error(f"request references unknown block {b}")
            add_page(keys[pid])
            add_block(b)
        r.lineno = first + len(lines)
        left -= len(blocks) - done
    return tuple(pages), blocks


def _read_instance(r: _LineReader) -> Instance:
    if r.keyword("caching-instance", 1) != ["1"]:
        raise r.error(f"expected {INSTANCE_HEADER!r}")
    capacity = r.value("cache", 1)
    (policy,) = r.keyword("policy", 1)
    if policy not in POLICIES:
        raise r.error("expected 'policy optional|forced'")
    scale = r.value("scale", 1)
    try:
        table = _page_table(
            (pid, r.integer(size, "size"), r.integer(cost, "cost"))
            for pid, size, cost in r.rows(r.value("pages"), 3, "<id> <size> <cost>")
        )
    except InstanceError as exc:
        raise r.error(str(exc)) from exc
    blocks: list[Block] = []
    for i, (bid, kind, *args) in enumerate(r.rows(r.value("blocks"), (2, 3), "<id> <kind> [<v>]")):
        if r.integer(bid, "block id") != i:
            raise r.error(f"expected block id {i}")
        if kind == BLOCK_PHASE and len(args) == 1:
            spec = (BLOCK_PHASE, r.integer(args[0], "vertex"), None)
        elif kind in (BLOCK_INITIAL, BLOCK_FINAL) and not args:
            spec = (kind, None, None)
        elif kind.startswith(BLOCK_INSERTED) and not args:
            spec = (BLOCK_INSERTED, None, r.integer(kind[len(BLOCK_INSERTED):], "slot"))
        else:
            raise r.error(f"unknown block kind {kind!r} with {len(args)} argument(s)")
        try:
            blocks.append(Block(i, *spec))  # the block's own checks, reported at this line
        except InstanceError as exc:
            raise r.error(str(exc)) from exc
    request_pages, request_blocks = _read_requests(r, table, len(blocks))
    try:
        return Instance(
            capacity, table, request_pages, request_blocks, tuple(blocks), policy, scale
        )
    except InstanceError as exc:
        raise FormatError(f"inconsistent instance: {exc}") from exc


def instance_from_text(text: str) -> Instance:
    r = _LineReader(text)
    instance = _read_instance(r)
    r.end("instance")
    return instance


def service_to_text(service: Service) -> str:
    lines = [SERVICE_HEADER]
    for pid, rs in service.runs.items():  # pages in id order, ordinals increasing
        for first, last in rs:
            lines.extend(f"{pid} {k}" for k in range(first, last + 1))
    return "\n".join(lines) + "\n"


def service_from_text(text: str) -> Service:
    r = _LineReader(text)
    if r.keyword("service", 1) != ["1"]:
        raise r.error(f"expected {SERVICE_HEADER!r}")
    chosen: set[tuple[str, int]] = set()
    for pid, ordinal in r.rows(None, 2, "<page-id> <ordinal>"):
        pair = (pid, r.integer(ordinal, "ordinal"))
        if pair in chosen:
            raise r.error(f"duplicate gap {pid} {pair[1]}")
        chosen.add(pair)
    return Service.of(chosen)
