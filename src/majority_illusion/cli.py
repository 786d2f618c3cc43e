"""Command-line front end.

Subcommands compose through the colored-graph text format on stdin/stdout;
JSON is reserved for reports.  Exit codes: 0 success (or a positive
verdict), 1 negative verdict, 2 any :class:`PreconditionError` (a usage
error: the input's fault), 3 internal-invariant failure or any other
unexpected exception (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    AgentStatus,
    NetworkIllusionReport,
    StatusColumns,
    pq_report,
    status_columns,
)
from .analysis import agent_statuses, classify_network  # noqa: F401  (perfbench traces them here)
from .coloring import (
    ColoredGraph,
    coloring_to_string,
    random_coloring,
    weak_majority_2_coloring,
    illusion_coloring,
)
from .construct import construct_regular_illusion_report, fast_construct_report
from .errors import InfeasibleError, InternalInvariantError, PreconditionError
from .feasibility import regular_exists
from .fileformat import _name_words, parse_graph_text, parse_valuation_text, write_graph
from .graphs import circulant_graph, complete_graph, cycle_graph
from .logic import (
    FORMULA_KINDS,
    Model,
    UnknownAtomWarning,
    _prepared,
    extension,
    illusion_formula,
    model_from_colored_graph,
    parse_formula,
)
from .oracle import DEFAULT_CAP, Objective, best_coloring

SCHEMA_VERSION = 1


def _read_input(path: str | None) -> str:
    return _read_text(None if path == "-" else path)


def _read_text(path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin for ``None``.
    A fault in opening, reading or decoding it is the input's: a
    :class:`PreconditionError` with Python's own message."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise PreconditionError(str(exc)) from None


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


def _offsets(text: str) -> list[int]:
    """``--offsets``: comma-separated integers; the empty text gives none."""
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _json_text(payload: dict) -> str:
    payload = {"format_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_out(payload: dict) -> None:
    print(_json_text(payload))


def _print_spliced(payload: dict, key: str, rendered: str) -> None:
    """Print ``_json_text(payload)`` with ``rendered`` standing for
    ``payload[key]``, which is laid out apart (a large list, from
    templates).  The text before it, it and the text after it are written
    in turn, so no copy of the whole document is made."""
    mark = f"<{key}>"
    head, _, tail = _json_text({**payload, key: mark}).partition(json.dumps(mark))
    sys.stdout.write(head)
    sys.stdout.write(rendered)
    sys.stdout.write(tail + "\n")


def _json_list(rows: list[str]) -> str:
    """``rows``, each ending in ``",\n"``, as ``json.dumps(indent=2)`` lays
    out a list one level deep in the payload, in one join: the brackets go
    in as rows and the last row loses its comma and line end, in place."""
    if not rows:
        return "[]"
    rows[-1] = rows[-1][:-2]
    rows.insert(0, "[\n")
    rows.append("\n  ]")
    return "".join(rows)


def _node_ids(n: int) -> list[str]:
    """The texts of node ids ``0 .. n - 1``, from the edge-list writer's name words."""
    return _name_words(n)[0].tobytes().translate(None, b"\0").decode("ascii").split()


def _json_id_rows(n: int, u: np.ndarray, v: np.ndarray) -> str:
    """The edges ``zip(u, v)`` as :func:`_json_list` rows of ``[u, v]`` lists."""
    if not len(u):
        return "[]"
    ids = _node_ids(n)
    rows = np.empty((len(u), 2), dtype=object)
    rows[:, 0] = np.array([f"    [\n      {i},\n      " for i in ids], dtype=object)[u]
    rows[:, 1] = np.array([f"{i}\n    ],\n" for i in ids], dtype=object)[v]
    return _json_list(rows.ravel().tolist())


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "cycle":
        g = cycle_graph(args.n)
    elif args.family == "complete":
        g = complete_graph(args.n)
    else:
        if not args.offsets:
            raise PreconditionError("circulant generation needs --offsets")
        g = circulant_graph(args.n, args.offsets)
    sys.stdout.write(write_graph(g))
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    graph, colors = parse_graph_text(_read_input(args.file))
    if args.initial == "random":
        initial = random_coloring(graph.n, random.Random(args.seed))
    elif args.initial == "as-is":
        if colors is None:
            raise PreconditionError("--initial as-is needs a colored input")
        initial = colors
    else:
        initial = None  # all red
    if args.mode == "weak":
        out = ColoredGraph(graph, weak_majority_2_coloring(graph, initial))
    else:
        out = illusion_coloring(graph, initial)
    if args.format == "json":
        payload = {"n": graph.n, "colors": coloring_to_string(out.red), "mode": args.mode}
        _print_spliced(payload, "edges", _json_id_rows(graph.n, *graph.edge_arrays()))
    else:
        sys.stdout.write(write_graph(graph, out.red))
    return 0


def _agent_json_row(s: AgentStatus) -> str:
    """An agent's row as ``json.dumps(indent=2)`` lays it out two levels
    deep, inside the payload's ``agents`` list, with the comma and line end
    that follow it there."""
    row = {
        "node": s.node,
        "color": s.own_color.value,
        "local_winner": s.local_winner.value,
        "global_winner": s.global_winner.value,
        "opposition": s.opposition.value,
        "illusion": s.illusion.value,
        "illusion_color": s.illusion_color.value if s.illusion_color else None,
        "isolated": s.isolated,
    }
    return "    " + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    ") + ",\n"


def _agent_text(s: AgentStatus) -> str:
    witness = s.illusion_color.value if s.illusion_color else "-"
    flag = " isolated" if s.isolated else ""
    return (
        f"{s.node} {s.own_color.value} {s.local_winner.value} "
        f"{s.global_winner.value} {s.opposition.value} "
        f"{s.illusion.value} {witness}{flag}\n"
    )


# Row templates render a status with this node id and are split at it: no
# node has it, and no other field of a row holds a digit.
_NODE_MARK = -1


def _agent_rows(columns: StatusColumns, render: Callable[[AgentStatus], str]) -> list[str]:
    """``render(status)`` for every agent as (prefix, id, suffix) pieces, to
    be joined once: each class's status is rendered once, split at the id."""
    templates = [render(replace(s, node=_NODE_MARK)) for s in columns.statuses]
    table = np.array([t.partition(str(_NODE_MARK)) for t in templates], dtype=object)
    rows = table.reshape(-1, 3)[columns.codes]
    rows[:, 1] = _node_ids(len(columns.codes))
    return rows.ravel().tolist()


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph, colors = parse_graph_text(_read_input(args.file))
    derived = False
    if colors is None:
        cg = illusion_coloring(graph)
        derived = True
    else:
        cg = ColoredGraph(graph, colors)
    columns = status_columns(cg)
    report = NetworkIllusionReport.from_columns(cg, columns)
    pq = None
    if args.p is not None or args.q is not None:
        p = args.p if args.p is not None else Fraction(1, 2)
        q = args.q if args.q is not None else Fraction(1, 2)
        pq = pq_report(cg, p, q)
    if args.format == "json":
        payload = {
            "colors": coloring_to_string(cg.red),
            "coloring_derived": derived,
            "network": report.to_json_dict(),
        }
        if pq is not None:
            payload["pq"] = pq.to_json_dict()
        _print_spliced(payload, "agents", _json_list(_agent_rows(columns, _agent_json_row)))
    else:
        if derived:
            print("# coloring derived by the illusion-coloring pipeline")
            print(f"colors {coloring_to_string(cg.red)}")
        print("node color local global opposition illusion witness")
        sys.stdout.write("".join(_agent_rows(columns, _agent_text)))
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
        payload = {
            "n": cg.graph.n,
            "colors": coloring_to_string(cg.red),
            "report": report.to_json_dict(),
        }
        edges = _json_id_rows(cg.graph.n, *cg.graph.edge_arrays())
        _print_spliced(payload, "edges", edges)
    else:
        sys.stdout.write(write_graph(cg.graph, cg.red))
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
    if args.node is not None:
        graph.check_node(args.node)
    if args.preset is not None:
        formula = illusion_formula(args.preset, atom=args.atom)
    else:
        formula = parse_formula(args.formula)
    if args.valuation is not None:
        _, atoms = _prepared(formula)
        model = Model(graph, parse_valuation_text(_read_text(args.valuation), graph.n, atoms))
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
        truth = args.node in sat
    else:
        truth = len(sat) == graph.n and graph.n > 0
    if args.format == "json":
        payload = {
            "truth": truth,
            "scope": "global" if args.node is None else f"node {args.node}",
        }
        nodes = _json_list([f"    {i},\n" for i in sorted(sat)])
        _print_spliced(payload, "nodes_satisfying", nodes)
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
    p.add_argument("--offsets", type=_offsets, help="comma-separated circulant offsets")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError as exc:
        # The reader is gone: send the rest of the output, and the flush
        # at exit, nowhere instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
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
