"""gencaching benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload roundtrip-grid --seed 1 --seconds 40 --trace 0

Every case runs in a child process of its own (perfbench/child.py) under an
address-space cap and a timeout, one at a time.  A run repeats the workload's
case list while another pass still fits in --seconds (at least one pass); a
case's time is its median over the passes.  With --trace 1 it runs one
untraced and one traced pass and reports per-layer metrics instead.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
`attempted`/`failed` count checked items (a crosscheck case holds many
instances).  A failure is a wrong answer, a program error, BudgetExceeded,
MemoryError, a killed child or a timeout; `correct` is false only for the
first two.  The line before it records the seed, the case list and every
failure; perfbench/results/ keeps the full record, spans included.

Exit status 2: there is no src/gencaching to measure.  Exit status 3: a child
could not import it.  Neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

AS_LIMIT_MB = 2048
CASE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # cases not started by then fail as not-run; runs must end within 180 s
RESOURCE_KINDS = ("budget", "memory", "killed", "timeout", "not-run")
SETUP_PROBES = 10

LAYER_FNS = (
    "reductions.generate",
    "reductions.optional_to_forced",
    "reductions.to_text",
    "reductions.from_text",
    "properties.check_properties",
    "properties.construct_service_from_is",
    "properties.extract_is",
    "properties.diagnostics",
    "core.validate_service",
    "core.savings",
    "solver.solve_exact",
    "solver.solve_brute_force",
    "solver.export_interval_packing",
    "harness.max_independent_set",
)


class SetupError(RuntimeError):
    """The package under test cannot be run at all."""


def items_of(case: dict) -> int:
    return len(case.get("instances", (None,)))


def failed_case(case: dict, kind: str, detail: str, seconds: float) -> dict:
    """The result of a case whose child produced none: every item fails."""
    return {
        "id": case["id"],
        "seconds": seconds,
        "attempted": items_of(case),
        "failures": [{"item": case["id"], "kind": kind, "detail": detail}] * items_of(case),
        "spans": [],
    }


def run_case(case: dict, *, trace: bool, as_mb: int = AS_LIMIT_MB, timeout: float = CASE_TIMEOUT_S,
             setup_only: bool = False) -> dict:
    """Run one case in a fresh child; never raises for a failure of the case."""
    cmd = [sys.executable, str(HERE / "child.py"), "--as-mb", str(as_mb), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(json.dumps(case), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return failed_case(case, "timeout", f"no result after {timeout:.0f} s", time.monotonic() - spawned)
    if proc.returncode == 3:
        raise SetupError(err.strip())
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [""]
        detail = f"exit status {proc.returncode}: {tail[0]}"
        return failed_case(case, "killed", detail, time.monotonic() - spawned)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed_case(case, "error", f"unreadable result: {lines[-1][:80]}", time.monotonic() - spawned)
    result["setup_s"] = result.pop("ready") - spawned
    return result


def run_pass(cases: list[dict], *, trace: bool, deadline: float) -> list[dict]:
    results = []
    for case in cases:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            results.append(failed_case(case, "not-run", "run deadline passed", 0.0))
            continue
        results.append(run_case(case, trace=trace, timeout=min(CASE_TIMEOUT_S, remaining)))
    return results


def pass_wall(results: list[dict]) -> float:
    return sum(r["seconds"] for r in results)


def probe_setup(cases: list[dict], count: int) -> list[dict]:
    """`count` children that build a case's inputs and stop: set-up samples."""
    return [run_case(cases[i % len(cases)], trace=False, setup_only=True) for i in range(count)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Calls, self time and return-value counts per layer function.

    A span's self time is its duration minus that of its child spans.
    """
    child_s: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[(s["case"], s["parent"])] += s["end"] - s["start"]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += s["end"] - s["start"] - child_s[(s["case"], s["id"])]
        for key, value in s["counts"].items():
            counts[f"{name}.{key}"] += value
    metrics: dict[str, float] = {}
    for name in LAYER_FNS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    exact, brute = "solver.solve_exact", "solver.solve_brute_force"
    metrics[f"{exact}.states"] = counts[f"{exact}.states"]
    metrics[f"{exact}.transitions"] = counts[f"{exact}.transitions"]
    metrics[f"{exact}.states_per_s"] = counts[f"{exact}.states"] / self_s[exact] if self_s[exact] else 0.0
    metrics[f"{brute}.subsets"] = counts[f"{brute}.subsets"]
    subsets = counts[f"{brute}.subsets"]
    metrics[f"{brute}.valid_ratio"] = counts[f"{brute}.valid"] / subsets if subsets else 0.0
    return metrics


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(passes: list[list[dict]], traced: list[dict] | None, build_s: float,
              probes: list[dict] = ()) -> dict:
    """The result line.  A case's time is its median over the untraced passes."""
    everything = [r for p in passes for r in p] + (traced or [])
    attempted = sum(r["attempted"] for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    per_case: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for r in p:
            per_case[r["id"]].append(r["seconds"])
    case_s = [statistics.median(v) for v in per_case.values()]
    if traced is None:
        children = list(probes) + everything
        setups = [r["setup_s"] for r in children if "setup_s" in r]
        metrics = {
            "wall_s": sum(case_s),
            "slowest_case_s": max(case_s),
            "peak_rss_mb": max((r["maxrss_kb"] for r in everything if "maxrss_kb" in r), default=0) / 1024,
            "verified_ratio": (attempted - len(failures)) / attempted,
            "setup_s": build_s + (statistics.median(setups) if setups else 0.0),
        }
    else:
        metrics = layer_metrics([s for r in traced for s in r["spans"]])
        metrics["trace.overhead_s"] = pass_wall(traced) - sum(case_s)
    return {
        "correct": not any(f["kind"] not in RESOURCE_KINDS for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        cases: list[dict] | None = None) -> tuple[dict, dict]:
    """One benchmark run: the result line and the full record."""
    built = time.monotonic()
    if cases is None:
        cases = WORKLOADS[workload](seed)
    build_s = time.monotonic() - built
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    probes = [] if trace else probe_setup(cases, SETUP_PROBES)
    passes = []
    while True:
        began = time.monotonic()
        passes.append(run_pass(cases, trace=False, deadline=deadline))
        took = time.monotonic() - began
        if trace or time.monotonic() - start + took > seconds:
            break
    traced = run_pass(cases, trace=True, deadline=deadline) if trace else None
    result = summarize(passes, traced, build_s, probes)
    record = {
        "workload": workload,
        "seed": seed,
        "cases": [c["id"] for c in cases],
        "setup_probes": [r.get("setup_s") for r in probes],
        "passes": [[{k: r[k] for k in ("id", "seconds", "setup_s", "maxrss_kb") if k in r} for r in p]
                   for p in passes],
        "failures": [f for p in passes + [traced or []] for r in p for f in r["failures"]],
        "spans": [s for r in traced or [] for s in r["spans"]],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gencaching benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gencaching" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'gencaching'} is missing", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"cannot run the package: {exc}", file=sys.stderr)
        return 3
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "cases", "failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
