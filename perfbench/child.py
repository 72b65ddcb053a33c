"""Run one benchmark case in this process and print its result as JSON.

Usage: python3 perfbench/child.py --as-mb N --trace 0|1 < case.json

The process caps its own address space first, so an allocation that goes over
the cap raises MemoryError here instead of exhausting the machine.  It then
imports gencaching from the checkout's src/, builds the case's inputs, and
runs the case's pipeline from public calls only.  Every call into the package
goes through the tracer; with --trace 1 each becomes a span whose parent is the
case span.  The last stdout line is the result: failures are reported there,
never raised.  Exit status 3 means the package could not be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Failure kinds that mean an answer was wrong or the program broke, as opposed
# to running out of a resource (budget, memory, time).
WRONG = "wrong"
ERROR = "error"


class Mismatch(Exception):
    """An output failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Untraced:
    """Calls straight through; the end-to-end runs use this."""

    spans: tuple = ()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, **counts) -> None:
        pass


class Tracer(Untraced):
    """Spans (name, start, end, parent, counts) kept in memory for the case."""

    def __init__(self, case_id: str) -> None:
        self.case_id = case_id
        self.spans = []
        self._open: list[int] = []
        self._last = -1

    def call(self, name, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "case": self.case_id,
            "name": name,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            self._last = span["id"]

    def count(self, **counts) -> None:
        """Attach counts, read from a return value, to the span just closed."""
        self.spans[self._last]["counts"].update(counts)


def build_graph(gc, spec: dict):
    return gc.Graph(spec["n"], tuple(tuple(e) for e in spec["edges"]))


def build_instance(gc, spec: dict):
    return gc.make_instance(
        spec["capacity"],
        [tuple(p) for p in spec["pages"]],
        [(r, None) for r in spec["requests"]],
        (),
        spec["policy"],
    )


def generate(gc, graph, model: str, H):
    if model == "simple":
        return gc.reduce_simple(graph)
    if model == "fault":
        return gc.reduce_fault_optional(graph, H)
    return gc.reduce_bit_optional(graph, H)


def solve(gc, tr, instance):
    result = tr.call("solver.solve_exact", gc.solve_exact, instance, budget=gc.DEFAULT_STATE_BUDGET)
    tr.count(states=result.explored.states, transitions=result.explored.transitions)
    return result


def check_witness(gc, tr, instance, result) -> None:
    require(tr.call("core.validate_service", gc.validate_service, instance, result.witness).ok,
            "witness does not validate")
    require(tr.call("core.savings", gc.savings, instance, result.witness) == result.optimal_savings,
            "savings(witness) differs from the reported optimum")


def run_roundtrip(gc, tr, spec: dict, graph) -> None:
    out = tr.call("reductions.generate", generate, gc, graph, spec["model"], spec["H"])
    require(tr.call("properties.check_properties", gc.check_properties, out).all_ok,
            "structural properties (a)-(f) fail")
    k_oracle, _ = tr.call("harness.max_independent_set", gc.max_independent_set, graph)
    result = solve(gc, tr, out.instance)
    check_witness(gc, tr, out.instance, result)
    extracted = tr.call("properties.extract_is", gc.extract_is, out, result.witness)
    k_caching = result.optimal_savings - out.threshold(0)
    if spec["model"] == "simple":
        require(k_caching == k_oracle, f"K_caching {k_caching} != K_oracle {k_oracle}")
        require(not any(u in extracted and v in extracted for u, v in graph.edges),
                "extracted vertex set is not independent")
        require(len(extracted) == k_caching, "extracted set size differs from K_caching")
    else:
        require(out.threshold(k_oracle) <= result.optimal_savings <= out.threshold(0) + graph.n,
                "optimum outside the sandwich threshold(K_oracle) .. threshold(0) + n")
    tr.call("properties.diagnostics", gc.diagnostics, out, result.witness)
    if spec["forced"]:
        forced = tr.call("reductions.optional_to_forced", gc.optional_to_forced, out)
        forced_result = solve(gc, tr, forced)
        check_witness(gc, tr, forced, forced_result)
        require(forced_result.optimal_savings == result.optimal_savings,
                "forced optimum differs from the optional optimum")


def run_easy(gc, tr, spec: dict, graph) -> None:
    out = tr.call("reductions.generate", generate, gc, graph, spec["model"], gc.default_H(graph))
    instance = out.instance
    require(tr.call("properties.check_properties", gc.check_properties, out).all_ok,
            "structural properties (a)-(f) fail")
    k_oracle, best = tr.call("harness.max_independent_set", gc.max_independent_set, graph)
    service = tr.call("properties.construct_service_from_is", gc.construct_service_from_is, out, best)
    require(tr.call("core.validate_service", gc.validate_service, instance, service).ok,
            "easy-direction service does not validate")
    target = out.threshold(k_oracle)
    require(tr.call("core.savings", gc.savings, instance, service) == target,
            "easy-direction savings differ from threshold(K_oracle)")
    require(tr.call("properties.extract_is", gc.extract_is, out, service) == best,
            "extract_is does not return the independent set the service encodes")
    tr.call("properties.diagnostics", gc.diagnostics, out, service)
    text = tr.call("reductions.to_text", gc.reduction_to_text, out)
    back = tr.call("reductions.from_text", gc.reduction_from_text, text)
    require(tr.call("reductions.to_text", gc.reduction_to_text, back) == text,
            "reduction text round trip is not byte-identical")
    del back, text  # so that the benchmark's own references do not raise peak RSS
    if spec["model"] == "fault":
        forced = tr.call("reductions.optional_to_forced", gc.optional_to_forced, out)
        require(forced.capacity == instance.capacity + 3, "forced capacity is not C + 3")
        require(tr.call("core.savings", gc.savings, forced, service) == target,
                "easy-direction savings differ on the forced instance")
        del forced
    packing = tr.call("solver.export_interval_packing", gc.export_interval_packing, instance)
    gaps = len(instance.requests) - len({r.page for r in instance.requests})
    require(packing.limit == instance.capacity and len(packing.intervals) == gaps,
            "interval packing does not have one interval per gap")


def run_crosscheck_one(gc, tr, instance) -> None:
    exact = solve(gc, tr, instance)
    brute = tr.call("solver.solve_brute_force", gc.solve_brute_force, instance)
    tr.count(subsets=brute.explored.states, valid=brute.explored.transitions)
    require(exact.optimal_savings == brute.optimal_savings,
            f"DP optimum {exact.optimal_savings} != brute force {brute.optimal_savings}")
    check_witness(gc, tr, instance, exact)


def attempt(gc, tr, failures: list[dict], item: str, fn, *inputs) -> None:
    """Run one checked item; record a wrong answer or a refusal as a failure."""
    try:
        fn(gc, tr, *inputs)
    except Mismatch as exc:
        failures.append({"item": item, "kind": WRONG, "detail": str(exc)})
    except gc.BudgetExceeded as exc:
        failures.append({"item": item, "kind": "budget", "detail": str(exc)})
    except MemoryError:
        raise
    except Exception as exc:  # the case's boundary: any program error is a failed item
        traceback.print_exc(file=sys.stderr)
        failures.append({"item": item, "kind": ERROR, "detail": f"{type(exc).__name__}: {exc}"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--as-mb", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are built")
    args = parser.parse_args(argv)
    cap = args.as_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gencaching as gc
    except ImportError as exc:
        print(f"cannot import gencaching from {src}: {exc}", file=sys.stderr)
        return 3
    if Path(gc.__file__).resolve().parent.parent != src:
        print(f"gencaching resolved to {gc.__file__}, not to {src}", file=sys.stderr)
        return 3

    spec = json.load(sys.stdin)
    if spec["kind"] == "crosscheck":
        items = [(f"{spec['id']}#{i}", run_crosscheck_one, build_instance(gc, s))
                 for i, s in enumerate(spec["instances"])]
    else:
        body = run_roundtrip if spec["kind"] == "roundtrip" else run_easy
        items = [(spec["id"], body, spec, build_graph(gc, spec["graph"]))]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"id": spec["id"], "ready": ready}))
        return 0

    tr = Tracer(spec["id"]) if args.trace else Untraced()
    failures: list[dict] = []
    started = time.perf_counter()

    def case() -> None:
        for index, (item, fn, *inputs) in enumerate(items):
            try:
                attempt(gc, tr, failures, item, fn, *inputs)
            except MemoryError:
                failures.extend({"item": rest[0], "kind": "memory", "detail": "MemoryError"}
                                for rest in items[index:])
                return

    tr.call("case", case)
    elapsed = time.perf_counter() - started
    print(json.dumps({
        "id": spec["id"],
        "ready": ready,
        "seconds": elapsed,
        "attempted": len(items),
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tr.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
