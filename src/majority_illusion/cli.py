"""Command-line front end.

Subcommands compose through the colored-graph text format on stdin/stdout;
JSON is reserved for reports.  Exit codes: 0 success (or a positive
verdict), 1 negative verdict, 2 usage error, 3 internal-invariant failure
or any other unexpected exception (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import warnings
from fractions import Fraction

from . import __version__
from .analysis import NetworkIllusionReport, agent_statuses, pq_report
from .analysis import classify_network  # noqa: F401  (perfbench traces it here)
from .coloring import (
    ColoredGraph,
    all_red,
    coloring_to_string,
    random_coloring,
    weak_majority_2_coloring,
    illusion_coloring,
)
from .construct import construct_regular_illusion_report, fast_construct_report
from .errors import (
    FormatError,
    FormulaSyntaxError,
    GraphError,
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
)
from .feasibility import regular_exists
from .fileformat import parse_graph_text, write_graph
from .graphs import circulant_graph, complete_graph, cycle_graph
from .logic import (
    FORMULA_KINDS,
    Model,
    UnknownAtomWarning,
    extension,
    illusion_formula,
    model_from_colored_graph,
    parse_formula,
)
from .oracle import DEFAULT_CAP, Objective, best_coloring

SCHEMA_VERSION = 1


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# Fraction expands a decimal exponent into an exact integer, so both the
# text and its exponent are bounded before it is built.
_FRACTION_MAX_CHARS = 100
_FRACTION_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)")


def _fraction(text: str) -> Fraction:
    if len(text) > _FRACTION_MAX_CHARS:
        raise argparse.ArgumentTypeError(
            f"fraction text longer than {_FRACTION_MAX_CHARS} characters"
        )
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent.group(1).replace("_", "")) > _FRACTION_MAX_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"decimal exponent beyond {_FRACTION_MAX_EXPONENT} in {text!r}"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"threshold must lie in [0, 1], got {text!r}")
    return value


def _json_out(payload: dict) -> None:
    payload = {"format_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "cycle":
        g = cycle_graph(args.n)
    elif args.family == "complete":
        g = complete_graph(args.n)
    else:
        if not args.offsets:
            raise PreconditionError("circulant generation needs --offsets")
        offsets = [int(part) for part in args.offsets.split(",")]
        g = circulant_graph(args.n, offsets)
    sys.stdout.write(write_graph(g))
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    graph, colors = parse_graph_text(_read_input(args.file))
    if args.initial == "random":
        rng = random.Random(args.seed)
        initial = random_coloring(graph.n, rng)
    elif args.initial == "as-is":
        if colors is None:
            raise PreconditionError("--initial as-is needs a colored input")
        initial = colors
    else:
        initial = all_red(graph.n)
    if args.mode == "weak":
        out = ColoredGraph(graph, weak_majority_2_coloring(graph, initial))
    else:
        out = illusion_coloring(graph, initial)
    if args.format == "json":
        _json_out(
            {
                "n": graph.n,
                "edges": [list(e) for e in graph.edges],
                "colors": coloring_to_string(out.colors),
                "mode": args.mode,
            }
        )
    else:
        sys.stdout.write(write_graph(graph, out.colors))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph, colors = parse_graph_text(_read_input(args.file))
    derived = False
    if colors is None:
        cg = illusion_coloring(graph)
        derived = True
    else:
        cg = ColoredGraph(graph, colors)
    statuses = agent_statuses(cg)
    report = NetworkIllusionReport.from_statuses(cg, statuses)
    pq = None
    if args.p is not None or args.q is not None:
        p = args.p if args.p is not None else Fraction(1, 2)
        q = args.q if args.q is not None else Fraction(1, 2)
        pq = pq_report(cg, p, q)
    if args.format == "json":
        payload = {
            "colors": coloring_to_string(cg.colors),
            "coloring_derived": derived,
            "network": report.to_json_dict(),
            "agents": [
                {
                    "node": s.node,
                    "color": s.own_color.value,
                    "local_winner": s.local_winner.value,
                    "global_winner": s.global_winner.value,
                    "opposition": s.opposition.value,
                    "illusion": s.illusion.value,
                    "illusion_color": s.illusion_color.value
                    if s.illusion_color
                    else None,
                    "isolated": s.isolated,
                }
                for s in statuses
            ],
        }
        if pq is not None:
            payload["pq"] = pq.to_json_dict()
        _json_out(payload)
    else:
        if derived:
            print("# coloring derived by the illusion-coloring pipeline")
            print(f"colors {coloring_to_string(cg.colors)}")
        print("node color local global opposition illusion witness")
        for s in statuses:
            witness = s.illusion_color.value if s.illusion_color else "-"
            flag = " isolated" if s.isolated else ""
            print(
                f"{s.node} {s.own_color.value} {s.local_winner.value} "
                f"{s.global_winner.value} {s.opposition.value} "
                f"{s.illusion.value} {witness}{flag}"
            )
        print(
            f"counts strict={report.strict_count} "
            f"weak_only={report.weak_only_count} none={report.none_count}"
        )
        for kind_name, value in report.to_json_dict()["flags"].items():
            print(f"flag {kind_name} {'yes' if value else 'no'}")
        print(f"chromaticity {report.chromaticity.value}")
        if pq is not None:
            for name, value in pq.to_json_dict()["flags"].items():
                print(f"pq {name} {'yes' if value else 'no'}")
    return 0


def _cmd_feasible(args: argparse.Namespace) -> int:
    verdict = regular_exists(args.n, args.k)
    if args.format == "json":
        _json_out(verdict.to_json_dict())
    else:
        word = "feasible" if verdict.possible else "infeasible"
        print(f"{args.k}-regular on {args.n} nodes: {word}")
        for code in verdict.failed:
            print(f"reason {code}")
    return 0 if verdict.possible else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.fast:
        cg, report = fast_construct_report(args.n, args.k)
    else:
        cg, report = construct_regular_illusion_report(args.n, args.k)
    if args.format == "json":
        _json_out(
            {
                "n": cg.graph.n,
                "edges": [list(e) for e in cg.graph.edges],
                "colors": coloring_to_string(cg.colors),
                "report": report.to_json_dict(),
            }
        )
    else:
        sys.stdout.write(write_graph(cg.graph, cg.colors))
        print(json.dumps(report.to_json_dict(), sort_keys=True), file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph, _ = parse_graph_text(_read_input(args.file))
    objective = Objective(args.objective)
    colors, score = best_coloring(graph, objective, cap=args.cap)
    if args.format == "json":
        _json_out(
            {
                "objective": objective.value,
                "score": score,
                "colors": coloring_to_string(colors),
            }
        )
    else:
        print(f"objective {objective.value}")
        print(f"score {score}")
        print(f"colors {coloring_to_string(colors)}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    graph, colors = parse_graph_text(_read_input(args.file))
    if args.preset is not None:
        formula = illusion_formula(args.preset, atom=args.atom)
    else:
        formula = parse_formula(args.formula)
    if args.valuation is not None:
        with open(args.valuation, "r", encoding="utf-8") as fh:
            valuation: list[frozenset[str]] = [frozenset() for _ in range(graph.n)]
            atoms: set[str] = set()
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                node = int(parts[0])
                graph.check_node(node)
                valuation[node] = frozenset(parts[1:])
                atoms.update(parts[1:])
            model = Model(graph, tuple(valuation), atoms=frozenset(atoms))
    elif colors is not None:
        model = model_from_colored_graph(ColoredGraph(graph, colors), atom=args.atom)
    else:
        raise PreconditionError(
            "model checking needs a colored graph or --valuation file"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnknownAtomWarning)
        sat = extension(model, formula)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.node is not None:
        graph.check_node(args.node)
        truth = args.node in sat
    else:
        truth = len(sat) == graph.n and graph.n > 0
    if args.format == "json":
        _json_out(
            {
                "truth": truth,
                "nodes_satisfying": sorted(sat),
                "scope": "global" if args.node is None else f"node {args.node}",
            }
        )
    else:
        print("true" if truth else "false")
    return 0 if truth else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="millusion",
        description="Detect, construct, and certify majority illusions "
        "on 2-colored graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gen", help="generate a structured graph")
    p.add_argument("family", choices=("cycle", "complete", "circulant"))
    p.add_argument("n", type=int)
    p.add_argument("--offsets", help="comma-separated circulant offsets")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="compute a weak-majority or illusion coloring")
    p.add_argument("file", nargs="?", help="graph file (default stdin)")
    p.add_argument("--mode", choices=("weak", "illusion"), default="illusion")
    p.add_argument(
        "--initial",
        choices=("all-red", "random", "as-is"),
        default="all-red",
        help="initial coloring fed to the swap loop",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --initial random")
    add_format(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("analyze", help="per-agent table and network report")
    p.add_argument("file", nargs="?")
    p.add_argument("--p", type=_fraction, help="agent-share threshold (fraction)")
    p.add_argument("--q", type=_fraction, help="color-share threshold (fraction)")
    add_format(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("feasible", help="regular-graph illusion feasibility")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("construct", help="build a k-regular majority-majority witness")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--fast", action="store_true", help="complete-bipartite shortcut")
    add_format(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("oracle", help="exhaustive optimum over all colorings")
    p.add_argument("file", nargs="?")
    p.add_argument(
        "--objective",
        choices=[o.value for o in Objective],
        default=Objective.MAX_STRICT_ILLUSION.value,
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mc", help="model-check a formula on a colored graph")
    p.add_argument("file", nargs="?")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--preset", choices=FORMULA_KINDS)
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("--node", type=int)
    scope.add_argument(
        "--global",
        dest="node",
        action="store_const",
        const=None,
        help="true iff the formula holds at every node",
    )
    p.add_argument("--atom", default="p", help="atom encoding 'red' (default p)")
    p.add_argument("--valuation", help="file of 'node atom...' lines")
    add_format(p)
    p.set_defaults(func=_cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        FormatError,
        FormulaSyntaxError,
        GraphError,
        PreconditionError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a bug, not a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
