"""Command-line front end: generate, solve, verify, and run corpus round trips."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    FormatError,
    instance_to_text,
    service_from_text,
    service_to_text,
)
from .harness import (
    CORPUS,
    max_independent_set,
    reports_to_csv,
    reports_to_table,
    round_trip,
    run_corpus,
)
from .properties import (
    check_properties,
    construct_service_from_is,
    diagnostics,
    diagnostics_to_csv,
    extract_is,
)
from .reductions import (
    MODELS,
    MODEL_SIMPLE,
    Graph,
    generate,
    graph_from_text,
    instance_or_reduction_from_text,
    optional_to_forced,
    reduction_from_text,
    reduction_to_text,
)
from .solver import (
    BudgetExceeded,
    DEFAULT_STATE_BUDGET,
    export_interval_packing,
    packing_to_text,
    solve_brute_force,
    solve_exact,
)


def _load_graph(spec: str) -> Graph:
    if spec in CORPUS:
        return CORPUS[spec]
    return graph_from_text(Path(spec).read_text())


def _load_reduction(path: str):
    return reduction_from_text(Path(path).read_text())


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    output = generate(graph, args.model, args.H)
    if args.policy == "forced":
        text = instance_to_text(optional_to_forced(output))
    else:
        text = reduction_to_text(output)
    _write_or_print(text, args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = instance_or_reduction_from_text(Path(args.input).read_text())
    if args.brute:
        result = solve_brute_force(instance)
    else:
        result = solve_exact(instance, budget=args.budget)
    print(f"optimal_savings {result.optimal_savings}")
    print(f"states {result.explored.states}")
    print(f"transitions {result.explored.transitions}")
    print(f"peak_states {result.explored.peak_states}")
    print(f"peak_position {result.explored.peak_position}")
    if args.out:
        Path(args.out).write_text(service_to_text(result.witness))
    return 0


def _cmd_verify_properties(args: argparse.Namespace) -> int:
    report = check_properties(_load_reduction(args.input))
    sys.stdout.write(report.to_text())
    return 0 if report.all_ok else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    output = _load_reduction(args.input)
    selected = [int(v) for v in args.vertices.split(",") if v != ""] if args.vertices else []
    service = construct_service_from_is(output, selected)
    _write_or_print(service_to_text(service), args.out)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    output = _load_reduction(args.input)
    service = service_from_text(Path(args.service).read_text())
    vertices = extract_is(output, service)
    print(" ".join(str(v) for v in sorted(vertices)))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    output = _load_reduction(args.input)
    service = service_from_text(Path(args.service).read_text())
    _write_or_print(diagnostics_to_csv(diagnostics(output, service)), args.out)
    return 0


def _cmd_export_packing(args: argparse.Namespace) -> int:
    instance = instance_or_reduction_from_text(Path(args.input).read_text())
    _write_or_print(packing_to_text(export_interval_packing(instance)), args.out)
    return 0


def _cmd_oracle_is(args: argparse.Namespace) -> int:
    k, vertices = max_independent_set(_load_graph(args.graph))
    print(f"K {k}")
    print(" ".join(str(v) for v in sorted(vertices)))
    return 0


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    graph_id = args.graph if args.graph in CORPUS else Path(args.graph).stem
    report = round_trip(graph, args.model, args.H, budget=args.budget, graph_id=graph_id)
    sys.stdout.write(reports_to_table([report]))
    return 0 if report.verdict.startswith("pass") else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    models = [m for m in args.models.split(",") if m]
    for model in models:
        if model not in MODELS:
            raise FormatError(f"unknown model {model!r}")
    reports = run_corpus(models, H=args.H, budget=args.budget)
    sys.stdout.write(reports_to_table(reports))
    if args.out:
        Path(args.out).write_text(reports_to_csv(reports))
    return 0 if all(r.verdict.startswith("pass") for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencaching",
        description="Generate, solve, and verify independent-set caching instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a reduction (or its forced transform)")
    gen.add_argument("--graph", required=True, help="corpus name or graph file")
    gen.add_argument("--model", choices=MODELS, default=MODEL_SIMPLE)
    gen.add_argument("--H", type=int, default=None, help="group count (default: proven value)")
    gen.add_argument("--policy", choices=("optional", "forced"), default="optional")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="exact optimal savings of an instance file")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--brute", action="store_true", help="use the brute-force oracle")
    solve.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET)
    solve.add_argument("--out", default=None, help="write the witness service here")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify-properties", help="check structural properties (a)-(f)")
    verify.add_argument("--in", dest="input", required=True)
    verify.set_defaults(func=_cmd_verify_properties)

    construct = sub.add_parser("construct", help="easy-direction service from a vertex set")
    construct.add_argument("--in", dest="input", required=True)
    construct.add_argument("--vertices", default="", help="comma-separated vertex ids")
    construct.add_argument("--out", default=None)
    construct.set_defaults(func=_cmd_construct)

    extract = sub.add_parser("extract", help="vertex set encoded by a service")
    extract.add_argument("--in", dest="input", required=True)
    extract.add_argument("--service", required=True)
    extract.set_defaults(func=_cmd_extract)

    diagnose = sub.add_parser("diagnose", help="per-block diagnostics CSV for a service")
    diagnose.add_argument("--in", dest="input", required=True)
    diagnose.add_argument("--service", required=True)
    diagnose.add_argument("--out", default=None)
    diagnose.set_defaults(func=_cmd_diagnose)

    packing = sub.add_parser("export-packing", help="interval-packing view of an instance")
    packing.add_argument("--in", dest="input", required=True)
    packing.add_argument("--out", default=None)
    packing.set_defaults(func=_cmd_export_packing)

    oracle = sub.add_parser("oracle-is", help="brute-force maximum independent set")
    oracle.add_argument("--graph", required=True)
    oracle.set_defaults(func=_cmd_oracle_is)

    rt = sub.add_parser("roundtrip", help="one graph through generate/solve/extract")
    rt.add_argument("--graph", required=True)
    rt.add_argument("--model", choices=MODELS, default=MODEL_SIMPLE)
    rt.add_argument("--H", type=int, default=None)
    rt.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET)
    rt.set_defaults(func=_cmd_roundtrip)

    corpus = sub.add_parser("corpus", help="round trips over the built-in corpus")
    corpus.add_argument("--models", default=MODEL_SIMPLE, help="comma-separated models")
    corpus.add_argument("--H", type=int, default=None, help="group count (default: proven value)")
    corpus.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET)
    corpus.add_argument("--out", default=None, help="also write the CSV report here")
    corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
