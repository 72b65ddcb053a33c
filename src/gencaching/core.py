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

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
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


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore the caller's setting on exit.

    For builders of acyclic bulk data: a full collection while hundreds of
    thousands of tuples and dataclasses are alive rescans them all and frees
    nothing, and the allocations trigger one again and again.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Page:
    """A page with a positive integer size and fault cost."""

    id: str
    size: int
    cost: int

    def __post_init__(self) -> None:
        if self.id.split() != [self.id]:  # empty, or holds whitespace
            raise InstanceError(f"bad page id {self.id!r}")
        if not isinstance(self.size, int) or self.size < 1:
            raise InstanceError(f"page {self.id}: size must be a positive int")
        if not isinstance(self.cost, int) or self.cost < 1:
            raise InstanceError(f"page {self.id}: cost must be a positive int")


class Request(NamedTuple):
    """One request: the page asked for at `position`, inside block `block` (or None)."""

    position: int
    page: str
    block: int | None


@dataclass(frozen=True)
class Block:
    """A block of the generated request sequence.

    `span` is the half-open position range [start, end) holding exactly this
    block's requests.  An empty block's span is (x, x) where x is the end of
    the previous non-empty block's span (0 if there is none), i.e. the
    position where the block would begin.
    """

    id: int
    kind: str
    vertex: int | None = None
    slot: int | None = None
    span: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.kind not in BLOCK_KINDS:
            raise InstanceError(f"block {self.id}: unknown kind {self.kind!r}")
        if self.kind == BLOCK_PHASE:
            if self.vertex is None or self.vertex < 0 or self.slot is not None:
                raise InstanceError(f"block {self.id}: phase block needs a vertex and no slot")
        elif self.kind == BLOCK_INSERTED:
            if self.slot is None or not 1 <= self.slot <= 5 or self.vertex is not None:
                raise InstanceError(f"block {self.id}: inserted block needs slot 1..5 and no vertex")
        elif self.vertex is not None or self.slot is not None:
            raise InstanceError(f"block {self.id}: {self.kind} block carries no vertex/slot")


def _compute_spans(requests: Sequence[Request], num_blocks: int) -> list[tuple[int, int]]:
    """Derive canonical block spans from the request stream.

    Raises InstanceError when a block's requests are not contiguous, blocks
    interleave, or a request references a block out of range.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    count: dict[int, int] = {}
    for r in requests:
        b = r.block
        if b is None:
            continue
        if not 0 <= b < num_blocks:
            raise InstanceError(f"request at {r.position} references unknown block {b}")
        if b not in first:
            first[b] = r.position
        last[b] = r.position
        count[b] = count.get(b, 0) + 1
    spans: list[tuple[int, int]] = []
    cursor = 0
    for b in range(num_blocks):
        if b in first:
            lo, hi = first[b], last[b] + 1
            if hi - lo != count[b]:
                raise InstanceError(f"block {b}: requests are not contiguous")
            if lo < cursor:
                raise InstanceError(f"block {b}: overlaps an earlier block")
            spans.append((lo, hi))
            cursor = hi
        else:
            spans.append((cursor, cursor))
    return spans


@dataclass(frozen=True)
class Instance:
    """A general caching instance.

    `pages` maps page id to Page and its insertion order is the serialization
    order.  `cost_scale` records how integral costs relate to the model's
    natural unit (1 except for scaled two-cost instances); all costs and
    savings are already expressed in the scaled units.
    """

    capacity: int
    pages: Mapping[str, Page]
    requests: tuple[Request, ...]
    blocks: tuple[Block, ...] = ()
    policy: str = OPTIONAL
    cost_scale: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise InstanceError("capacity must be a positive int")
        if self.policy not in POLICIES:
            raise InstanceError(f"unknown policy {self.policy!r}")
        if not isinstance(self.cost_scale, int) or self.cost_scale < 1:
            raise InstanceError("cost_scale must be a positive int")
        for pid, page in self.pages.items():
            if pid != page.id:
                raise InstanceError(f"page table key {pid!r} != page id {page.id!r}")
        for i, r in enumerate(self.requests):
            if r.position != i:
                raise InstanceError(f"request {i} has position {r.position}")
            if r.page not in self.pages:
                raise InstanceError(f"request {i} asks for unknown page {r.page!r}")
        if self.blocks:
            for i, b in enumerate(self.blocks):
                if b.id != i:
                    raise InstanceError(f"block at index {i} has id {b.id}")
            if self.blocks[0].kind != BLOCK_INITIAL or self.blocks[-1].kind != BLOCK_FINAL:
                raise InstanceError("block list must start with the initial and end with the final block")
            kinds = [b.kind for b in self.blocks]
            if kinds.count(BLOCK_INITIAL) != 1 or kinds.count(BLOCK_FINAL) != 1:
                raise InstanceError("exactly one initial and one final block required")
            spans = _compute_spans(self.requests, len(self.blocks))
            for b, span in zip(self.blocks, spans):
                if b.span != span:
                    raise InstanceError(f"block {b.id}: span {b.span} != canonical {span}")
        elif any(r.block is not None for r in self.requests):
            raise InstanceError("requests reference blocks but the instance has none")
        if self.policy == FORCED:
            for r in self.requests:
                if self.pages[r.page].size > self.capacity:
                    raise InstanceError(
                        f"forced policy: requested page {r.page} (size {self.pages[r.page].size}) "
                        f"exceeds capacity {self.capacity}"
                    )

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @cached_property
    def _positions(self) -> Mapping[str, tuple[int, ...]]:
        """Read-only page -> positions index, built on first use (see `request_positions`)."""
        by_page: dict[str, list[int]] = {}
        with _gc_paused():
            for r in self.requests:
                by_page.setdefault(r.page, []).append(r.position)
            return MappingProxyType({pid: tuple(pos) for pid, pos in by_page.items()})

    def __getstate__(self) -> dict:
        # A mappingproxy cannot be pickled or deep-copied; a copy rebuilds the index on first use.
        state = self.__dict__.copy()
        state.pop("_positions", None)
        return state

    def __repr__(self) -> str:  # the default would dump every request
        return (
            f"Instance(C={self.capacity}, pages={len(self.pages)}, requests={len(self.requests)}, "
            f"blocks={len(self.blocks)}, policy={self.policy}, scale={self.cost_scale})"
        )


@_gc_paused()
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
    table: dict[str, Page] = {}
    for p in pages:
        page = p if isinstance(p, Page) else Page(*p)
        if page.id in table:
            raise InstanceError(f"duplicate page id {page.id!r}")
        table[page.id] = page
    reqs = tuple(Request(i, pid, blk) for i, (pid, blk) in enumerate(requests))
    block_specs = list(blocks)
    spans = _compute_spans(reqs, len(block_specs))
    blks = tuple(
        Block(i, kind, vertex, slot, spans[i])
        for i, (kind, vertex, slot) in enumerate(block_specs)
    )
    return Instance(capacity, table, reqs, blks, policy, cost_scale)


class Gap(NamedTuple):
    """The closed span [start, end] between a page's consecutive requests.

    `ordinal` k is the gap between the page's k-th and (k+1)-th request
    (0-based).
    """

    page: str
    ordinal: int
    start: int
    end: int


@dataclass(frozen=True)
class Service:
    """A normalized service: the set of chosen gaps, as (page, ordinal) pairs."""

    chosen: frozenset[tuple[str, int]] = frozenset()

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, int]]) -> "Service":
        return cls(frozenset((str(p), int(k)) for p, k in pairs))

    def __len__(self) -> int:
        return len(self.chosen)

    def __repr__(self) -> str:
        return f"Service({len(self.chosen)} gaps)"


def request_positions(instance: Instance) -> Mapping[str, tuple[int, ...]]:
    """Positions of each requested page, in request order; pages in first-request order.

    The index is built once per instance and shared by every caller, so it is
    read-only.
    """
    return instance._positions


@_gc_paused()
def enumerate_gaps(instance: Instance) -> list[Gap]:
    """Every gap of every page, ordered by (page id, ordinal)."""
    by_page = request_positions(instance)
    gaps: list[Gap] = []
    for pid in sorted(by_page):
        pos = by_page[pid]
        for k in range(len(pos) - 1):
            gaps.append(Gap(pid, k, pos[k], pos[k + 1]))
    return gaps


def merged_occupancy_runs(
    instance: Instance, service: Service
) -> dict[str, list[tuple[int, int]]]:
    """Per page, the maximal closed position runs covered by its chosen gaps.

    Adjacent chosen gaps of one page share an endpoint and merge into a single
    run, so occupancy is a per-page union (a page is cached at most once).
    Raises UnknownGapError when a chosen pair references a gap that does not
    exist.
    """
    pos = request_positions(instance)
    by_page: dict[str, list[int]] = {}
    for pid, k in service.chosen:
        by_page.setdefault(pid, []).append(k)
    runs: dict[str, list[tuple[int, int]]] = {}
    for pid, ks in by_page.items():
        p = pos.get(pid)
        if p is None:
            raise UnknownGapError(f"page {pid!r} has no requests (or does not exist)")
        ks.sort()
        if ks[0] < 0 or ks[-1] >= len(p) - 1:
            raise UnknownGapError(f"page {pid!r} has no gap with ordinal {ks[0] if ks[0] < 0 else ks[-1]}")
        out: list[tuple[int, int]] = []
        start = p[ks[0]]
        prev = ks[0]
        for k in ks[1:]:
            if k != prev + 1:
                out.append((start, p[prev + 1]))
                start = p[k]
            prev = k
        out.append((start, p[prev + 1]))
        runs[pid] = out
    return runs


def _occupancy(instance: Instance, runs: Mapping[str, list[tuple[int, int]]]) -> list[int]:
    """Total cached size at every position, from the merged runs."""
    n = len(instance.requests)
    diff = [0] * (n + 1)
    for pid, rs in runs.items():
        size = instance.pages[pid].size
        for s, e in rs:
            diff[s] += size
            diff[e + 1] -= size
    diff.pop()  # the slot past the last position
    return list(accumulate(diff))


def occupancy_profile(instance: Instance, service: Service) -> list[int]:
    """Total cached size at every position (length = number of requests)."""
    return _occupancy(instance, merged_occupancy_runs(instance, service))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a service; lists every violating position."""

    ok: bool
    capacity_violations: tuple[int, ...] = ()
    forced_violations: tuple[int, ...] = ()


def validate_service(instance: Instance, service: Service) -> ValidationReport:
    """Check pointwise capacity and, under the forced policy, momentary fit.

    A request to page p at position t where p's chosen gaps do not cover t
    must satisfy size(p) + occupancy(t) <= capacity under `forced`.
    """
    return _validate_runs(instance, merged_occupancy_runs(instance, service))


def _validate_runs(
    instance: Instance, runs: Mapping[str, list[tuple[int, int]]]
) -> ValidationReport:
    """`validate_service` on a service's merged occupancy runs."""
    profile = _occupancy(instance, runs)
    cap = instance.capacity
    capacity_violations = [t for t, load in enumerate(profile) if load > cap]
    forced_violations: list[int] = []
    if instance.policy == FORCED:
        cursor: dict[str, int] = {}
        for r in instance.requests:
            rs = runs.get(r.page)
            covered = False
            if rs:
                i = cursor.get(r.page, 0)
                while i < len(rs) and rs[i][1] < r.position:
                    i += 1
                cursor[r.page] = i
                covered = i < len(rs) and rs[i][0] <= r.position <= rs[i][1]
            if not covered and instance.pages[r.page].size + profile[r.position] > cap:
                forced_violations.append(r.position)
    ok = not capacity_violations and not forced_violations
    return ValidationReport(ok, tuple(capacity_violations), tuple(forced_violations))


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
    return sum(pages[pid].cost for pid, _ in service.chosen)


# --- text formats -----------------------------------------------------------

INSTANCE_HEADER = "caching-instance 1"
SERVICE_HEADER = "service 1"


def _block_kind_token(b: Block) -> str:
    if b.kind == BLOCK_INSERTED:
        return f"inserted{b.slot}"
    return b.kind


def instance_to_text(instance: Instance) -> str:
    lines = [
        INSTANCE_HEADER,
        f"cache {instance.capacity}",
        f"policy {instance.policy}",
        f"scale {instance.cost_scale}",
        f"pages {len(instance.pages)}",
    ]
    for page in instance.pages.values():
        lines.append(f"{page.id} {page.size} {page.cost}")
    lines.append(f"blocks {len(instance.blocks)}")
    for b in instance.blocks:
        if b.kind == BLOCK_PHASE:
            lines.append(f"{b.id} phase {b.vertex}")
        else:
            lines.append(f"{b.id} {_block_kind_token(b)}")
    lines.append(f"requests {len(instance.requests)}")
    for r in instance.requests:
        lines.append(f"{r.page} {r.block if r.block is not None else '-'}")
    return "\n".join(lines) + "\n"


class _LineReader:
    """A strict cursor over the lines of a text artifact; every parser reads through one.

    Blank lines are skipped everywhere, an integer is a non-empty run of ASCII
    digits, and every error names the line's number in the original text.
    `lineno` is the number of the last line read, which is also the index of
    the next one.
    """

    def __init__(self, text: str) -> None:
        self._lines = text.splitlines()
        self.lineno = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"line {self.lineno}: {message}")

    def integer(self, token: str, what: str) -> int:
        if token.isdigit() and token.isascii():
            return int(token)
        raise self.error(f"{what} must be a non-negative integer, got {token!r}")

    def at_end(self) -> bool:
        """Skip blank lines; true when nothing else is left."""
        lines = self._lines
        while self.lineno < len(lines) and not lines[self.lineno].strip():
            self.lineno += 1
        return self.lineno == len(lines)

    def keyword(self, name: str, argc: int) -> list[str]:
        """The `argc` arguments of the next line, which must read `name arg...`."""
        if self.at_end():
            raise FormatError(f"unexpected end of input, expected '{name} ...'")
        parts = self._lines[self.lineno].split()
        self.lineno += 1
        if parts[0] != name or len(parts) != argc + 1:
            raise self.error(f"expected '{name}' with {argc} argument(s), got {' '.join(parts)!r}")
        return parts[1:]

    def value(self, name: str) -> int:
        """The integer of a `name <n>` line."""
        return self.integer(self.keyword(name, 1)[0], name)

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
        lines = self._lines
        i = self.lineno
        for _ in repeat(None) if count is None else range(count):
            while i < len(lines):
                parts = lines[i].split()
                i += 1
                if parts:
                    break
            else:
                self.lineno = i
                if count is None:
                    return
                raise FormatError(f"unexpected end of input, expected '{shape}'")
            self.lineno = i
            if len(parts) not in allowed:
                raise self.error(f"expected '{shape}', got {' '.join(parts)!r}")
            yield parts

    def end(self, what: str) -> None:
        if not self.at_end():
            self.lineno += 1
            raise self.error(f"trailing content after {what}")


def _read_instance(r: _LineReader) -> Instance:
    if r.keyword("caching-instance", 1) != ["1"]:
        raise r.error(f"expected {INSTANCE_HEADER!r}")
    capacity = r.value("cache")
    (policy,) = r.keyword("policy", 1)
    if policy not in POLICIES:
        raise r.error("expected 'policy optional|forced'")
    scale = r.value("scale")
    pages = [
        (pid, r.integer(size, "size"), r.integer(cost, "cost"))
        for pid, size, cost in r.rows(r.value("pages"), 3, "<id> <size> <cost>")
    ]
    blocks: list[tuple[str, int | None, int | None]] = []
    for i, (bid, kind, *args) in enumerate(r.rows(r.value("blocks"), (2, 3), "<id> <kind> [<v>]")):
        if r.integer(bid, "block id") != i:
            raise r.error(f"expected block id {i}")
        if kind == BLOCK_PHASE and len(args) == 1:
            blocks.append((BLOCK_PHASE, r.integer(args[0], "vertex"), None))
        elif kind in (BLOCK_INITIAL, BLOCK_FINAL) and not args:
            blocks.append((kind, None, None))
        elif kind.startswith(BLOCK_INSERTED) and not args:
            blocks.append((BLOCK_INSERTED, None, r.integer(kind[len(BLOCK_INSERTED):], "slot")))
        else:
            raise r.error(f"unknown block kind {kind!r} with {len(args)} argument(s)")
    requests = [
        (pid, None if blk == "-" else r.integer(blk, "block id"))
        for pid, blk in r.rows(r.value("requests"), 2, "<page-id> <block|->")
    ]
    try:
        return make_instance(capacity, pages, requests, blocks, policy, scale)
    except InstanceError as exc:
        raise FormatError(f"inconsistent instance: {exc}") from exc


@_gc_paused()
def instance_from_text(text: str) -> Instance:
    r = _LineReader(text)
    instance = _read_instance(r)
    r.end("instance")
    return instance


def service_to_text(service: Service) -> str:
    lines = [SERVICE_HEADER]
    for pid, k in sorted(service.chosen):
        lines.append(f"{pid} {k}")
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
    return Service(frozenset(chosen))
