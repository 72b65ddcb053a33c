"""Seeded case lists for the benchmark workloads.

Stdlib only: the parent process never imports gencaching, so a case's inputs
reach the program only as plain data, through the child process that runs the
case.  Every case is a JSON-serialisable dict with an `id`.
"""

from __future__ import annotations

import random

# The corpus is copied here rather than read from gencaching.harness so that a
# change to the package's corpus cannot silently change the benchmark inputs.
CORPUS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K2": (2, ((0, 1),)),
    "P3": (3, ((0, 1), (1, 2))),
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "K1_3": (4, ((0, 1), (0, 2), (0, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}

GRID_H_GRAPHS = ("K2", "P3", "K3", "P4", "K1_3", "C4")
EASY_GRAPHS = ("K2", "P3", "K3")

# Brute force enumerates 2**gaps subsets; the crosscheck draws instances until
# their subsets add up to this, so every seed asks for the same work.
CROSSCHECK_SUBSETS = 250_000
CROSSCHECK_BATCH_SUBSETS = 125_000
MAX_ORACLE_GAPS = 13


def graph_input(name: str, rng: random.Random | None) -> dict:
    """A corpus graph, relabelled and with its edges reordered when `rng` is given."""
    n, edges = CORPUS[name]
    if rng is None:
        return {"n": n, "edges": [list(e) for e in edges]}
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [[perm[u], perm[v]] for u, v in edges]
    rng.shuffle(relabelled)
    return {"n": n, "edges": relabelled}


def roundtrip_grid(seed: int) -> list[dict]:
    """Generate, check, solve exactly, verify: the solver-bound workload.

    Only the H=1 and `simple` cases are relabelled.  The DP's state count
    depends on vertex labels and edge order (C4 `fault` at H=2 explores
    1.5 M to 9.1 M states over relabellings), so relabelling the H=2 cases
    would make the workload's cost a property of the seed.
    """
    rng = random.Random(seed)
    cases = []

    def add(name: str, model: str, H: int | None, forced: bool = False) -> None:
        relabel = H is None or H == 1
        suffix = "" if H is None else f":H{H}"
        cases.append({
            "id": f"roundtrip:{name}:{model}{suffix}" + (":forced" if forced else ""),
            "kind": "roundtrip",
            "graph": graph_input(name, rng if relabel else None),
            "model": model,
            "H": H,
            "forced": forced,
        })

    for name in CORPUS:
        add(name, "simple", None)
    for name in GRID_H_GRAPHS:
        for model in ("fault", "bit"):
            for H in (1, 2):
                add(name, model, H)
    for name in ("C5", "K4"):
        for model in ("fault", "bit"):
            add(name, model, 1)
    add("C5", "fault", 2)
    add("C4", "simple", None, forced=True)
    add("K4", "simple", None, forced=True)
    add("K3", "fault", 1, forced=True)
    add("K3", "fault", 2, forced=True)
    return cases


def easy_big_h(seed: int) -> list[dict]:
    """The easy direction at the paper's default_H; never calls the solver."""
    rng = random.Random(seed)
    return [
        {
            "id": f"easy:{name}:{model}",
            "kind": "easy",
            "graph": graph_input(name, rng),
            "model": model,
        }
        for name in EASY_GRAPHS
        for model in ("fault", "bit")
    ]


def random_tiny_instance(rng: random.Random, policy: str) -> dict:
    """Up to 8 pages (sizes 1..3, costs 1..4), up to 14 requests, C <= 7, at
    most MAX_ORACLE_GAPS gaps: the distribution of the package's solver tests."""
    while True:
        num_pages = rng.randint(2, 8)
        pages = [[f"p{i}", rng.randint(1, 3), rng.randint(1, 4)] for i in range(num_pages)]
        length = rng.randint(4, 14)
        requests = [f"p{rng.randrange(num_pages)}" for _ in range(length)]
        capacity = rng.randint(1, 7)
        if policy == "forced":
            sizes = {pid: size for pid, size, _ in pages}
            capacity = max(capacity, max(sizes[r] for r in requests))
        if length - len(set(requests)) <= MAX_ORACLE_GAPS:
            return {"capacity": capacity, "pages": pages, "requests": requests, "policy": policy}


def crosscheck_tiny(seed: int) -> list[dict]:
    """Random tiny instances, alternately optional and forced, each solved by
    the DP and by brute force, in batches of about equal brute-force work."""
    rng = random.Random(seed)
    cases: list[dict] = []
    batch: list[dict] = []
    batch_subsets = total = drawn = 0
    while total < CROSSCHECK_SUBSETS:
        spec = random_tiny_instance(rng, ("optional", "forced")[drawn % 2])
        drawn += 1
        subsets = 1 << (len(spec["requests"]) - len(set(spec["requests"])))
        batch.append(spec)
        batch_subsets += subsets
        total += subsets
        if batch_subsets >= CROSSCHECK_BATCH_SUBSETS or total >= CROSSCHECK_SUBSETS:
            cases.append({
                "id": f"crosscheck:batch{len(cases)}",
                "kind": "crosscheck",
                "instances": batch,
            })
            batch = []
            batch_subsets = 0
    return cases


WORKLOADS = {
    "roundtrip-grid": roundtrip_grid,
    "easy-bigH": easy_big_h,
    "crosscheck-tiny": crosscheck_tiny,
}
