"""Deterministic random tiny instances for solver cross-checks."""

from __future__ import annotations

import random

from gencaching import FORCED, Instance, OPTIONAL, Service, gap_table, make_instance

MAX_ORACLE_GAPS = 13  # keeps the brute-force oracle fast


def gap_pairs(service: Service) -> set[tuple[str, int]]:
    """The chosen gaps of `service` as (page, ordinal) pairs."""
    return {(pid, k) for pid, rs in service.runs.items() for first, last in rs for k in range(first, last + 1)}


def gap_rows(instance: Instance) -> list[tuple[str, int, int, int]]:
    """Every gap of `instance` as (page, ordinal, start, end), in `gap_table` order."""
    table = gap_table(instance)
    return list(zip(map(table.page_ids.__getitem__, table.pages), table.ordinals, table.starts, table.ends))


def random_tiny_instance(
    rng: random.Random,
    policy: str = OPTIONAL,
    gaps: range = range(MAX_ORACLE_GAPS + 1),
    length: tuple[int, int] = (4, 14),
) -> Instance:
    """Up to 8 pages (sizes 1..3, costs 1..4), `length` requests (by default
    4..14), C <= 7, and a gap count in `gaps`."""
    while True:
        num_pages = rng.randint(2, 8)
        pages = [(f"p{i}", rng.randint(1, 3), rng.randint(1, 4)) for i in range(num_pages)]
        n = rng.randint(*length)
        reqs = [f"p{rng.randrange(num_pages)}" for _ in range(n)]
        capacity = rng.randint(1, 7)
        if policy == FORCED:
            sizes = {pid: size for pid, size, _ in pages}
            capacity = max(capacity, max(sizes[r] for r in reqs))
        if n - len(set(reqs)) in gaps:
            return make_instance(capacity, pages, [(r, None) for r in reqs], (), policy)
