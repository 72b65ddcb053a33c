"""Validation straight from the definition, one position at a time: the
reference `gencaching.core.validate_service` is checked against.

A chosen gap of page p holds p over the closed span from its earlier to its
later request.  The load at position t is the total size of the pages that
one of their chosen gaps holds at t.  t is a capacity violation when its
load passes C; under `forced` it is a momentary-fit violation when the page
requested at t is not held at t and its size plus the load passes C.  The
reference reads only the instance's `requests` view and its page table, so
it shares no step, run or index code with the validator.  It takes time and
memory per position and per chosen gap: give it small instances.
"""

from __future__ import annotations

from gencaching.core import FORCED, Instance, Service, UnknownGapError, ValidationReport


def validate_reference(instance: Instance, service: Service) -> ValidationReport:
    """The report of `validate_service`, from the per-position loads.

    Raises UnknownGapError when a chosen gap does not exist.
    """
    positions: dict[str, list[int]] = {}
    for t, pid, _ in instance.requests:
        positions.setdefault(pid, []).append(t)
    held: dict[str, set[int]] = {}
    for pid, runs in service.runs.items():
        pos = positions.get(pid, [])
        for first, last in runs:
            for k in range(first, last + 1):
                if not 0 <= k < len(pos) - 1:
                    raise UnknownGapError(f"page {pid!r} has no gap with ordinal {k}")
                held.setdefault(pid, set()).update(range(pos[k], pos[k + 1] + 1))
    cap = instance.capacity
    capacity_violations: list[int] = []
    forced_violations: list[int] = []
    for t, pid, _ in instance.requests:
        load = sum(instance.pages[q].size for q, span in held.items() if t in span)
        if load > cap:
            capacity_violations.append(t)
        if instance.policy == FORCED and t not in held.get(pid, ()):
            if instance.pages[pid].size + load > cap:
                forced_violations.append(t)
    ok = not capacity_violations and not forced_violations
    return ValidationReport(ok, tuple(capacity_violations), tuple(forced_violations))
