"""The three benchmark workloads: seeded inputs, timed jobs and output checks.

Each workload turns a seed into a fixed pool of jobs.  A pool is a list of
strata (family, size, options); the seed only picks the instance inside each
stratum (node-count jitter, random edges, relabelling, initial-coloring
seed), so every seed exercises the same mix and the end-to-end figures of
two seeds are comparable.

Jobs reach the library the way a caller does: through ``cli.main`` and
through names looked up on the ``majority_illusion`` package at call time,
which is where the traced run wraps them.  Output checks use the names
imported below instead, so they are never traced and never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import majority_illusion as mi
from majority_illusion import (
    ColoredGraph,
    IllusionKind,
    Objective,
    classify_network,
    cli,
    coloring_from_string,
    construction_plan,
    monochromatic_count,
    parse_graph_text,
    regular_exists,
)

NETWORK_KINDS = (
    IllusionKind.MAJORITY_MAJORITY,
    IllusionKind.WEAK_MAJORITY_MAJORITY,
    IllusionKind.MAJORITY_WEAK_MAJORITY,
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY,
)


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


class ExitCodeError(Exception):
    """A CLI call returned an exit code other than the one expected."""

    def __init__(self, command: str, code: object):
        super().__init__(f"{command} exited with {code!r}")
        self.code = code


@dataclass
class Job:
    """One closed-loop job: ``run`` is timed, ``check`` validates its result.

    ``run`` returns a tuple of strings (the job's outputs), which also feed
    the workload's output digest.
    """

    label: str
    run: Callable[[], tuple[str, ...]]
    check: Callable[[tuple[str, ...]], None]


def invoke(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Run ``millusion argv`` in-process, as a shell pipeline stage would."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def invoke_ok(argv: list[str], stdin: str = "") -> tuple[str, str]:
    """Like :func:`invoke`, but any exit code other than 0 fails the job."""
    code, out, err = invoke(argv, stdin)
    if code != 0:
        raise ExitCodeError(argv[0], code)
    return out, err


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def jitter(rng: random.Random, base: int) -> int:
    """``base`` moved by up to 2%."""
    return base + rng.randint(-base // 50, base // 50)


def gnm_graph(rng: random.Random, n: int, m: int) -> mi.Graph:
    """Uniform random simple graph with ``n`` nodes and ``m`` edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return mi.make_graph(n, sorted(edges))


def relabelled(rng: random.Random, g: mi.Graph) -> mi.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mi.make_graph(g.n, sorted((perm[u], perm[v]) for u, v in g.edges))


def family_graph(rng: random.Random, family: str, n: int, shape) -> mi.Graph:
    if family == "cycle":
        return mi.cycle_graph(n)
    if family == "complete":
        return mi.complete_graph(n)
    if family == "circulant":
        return mi.circulant_graph(n, shape)
    return gnm_graph(rng, n, round(n * shape / 2))


def write_input(workdir: Path, name: str, g: mi.Graph) -> str:
    path = workdir / f"{name}.txt"
    path.write_text(mi.write_graph(g), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# color-pipeline: color FILE | analyze --format json -
#
# The swap loop rescans the node order after every swap and the illusion
# coloring restabilizes from scratch, so the larger sparse graphs set the
# tail.  Sizes run from 1k to 5k nodes.

# (family, nodes, shape, initial coloring, pass --p/--q); a gnm shape is the
# mean degree, a circulant shape its offsets.
#
# Every pool has the same shape: seven costly strata, six middling and
# seven cheap ones, interleaved, and a run makes three passes (see
# PASS_SECONDS).  The 21 costly jobs of a run then straddle the tail
# percentile, which has ten jobs beyond it, and the median falls in the
# middle of the 18 middling ones, so both figures come from a group of
# jobs of about the same cost and not from the edge between two groups.
COLOR_POOL = (
    ("cycle", 3800, None, "all-red", False),
    ("cycle", 1000, None, "all-red", False),
    ("gnm", 3200, 6, "random", False),
    ("gnm", 3400, 10, "all-red", False),
    ("gnm", 1000, 4, "random", False),
    ("circulant", 2300, (2, 3, 7), "all-red", True),
    ("gnm", 3500, 6, "all-red", True),
    ("circulant", 1500, (1, 5), "random", True),
    ("cycle", 2700, None, "all-red", False),
    ("circulant", 3700, (1, 3, 7), "all-red", False),
    ("cycle", 1200, None, "random", False),
    ("gnm", 2300, 8, "all-red", False),
    ("cycle", 3500, None, "all-red", True),
    ("gnm", 1200, 6, "all-red", False),
    ("cycle", 4000, None, "random", False),
    ("circulant", 3700, (2, 5), "all-red", True),
    ("circulant", 1000, (1, 2), "all-red", True),
    ("circulant", 3600, (1, 6), "random", True),
    ("gnm", 3300, 8, "all-red", False),
    ("gnm", 1500, 5, "random", False),
)
TINY_DIVISOR = 50


def color_pipeline(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index, (family, base, shape, initial, pq) in enumerate(COLOR_POOL):
        n = base // TINY_DIVISOR if tiny else jitter(rng, base)
        g = family_graph(rng, family, n, shape)
        path = write_input(workdir, f"color-{index}", g)
        color_argv = ["color", path, "--initial", initial]
        if initial == "random":
            color_argv += ["--seed", str(rng.randrange(1 << 30))]
        analyze_argv = ["analyze", "--format", "json", "-"]
        if pq:
            analyze_argv += ["--p", f"{rng.randint(1, 3)}/4", "--q", f"{rng.randint(1, 3)}/4"]
        jobs.append(
            Job(
                label=f"{family} n={n} m={g.edge_count} {initial}{' pq' if pq else ''}",
                run=_color_run(color_argv, analyze_argv),
                check=_color_check(g.edges, pq),
            )
        )
    return jobs


def _color_run(color_argv: list[str], analyze_argv: list[str]):
    def run() -> tuple[str, ...]:
        colored, _ = invoke_ok(color_argv)
        report, _ = invoke_ok(analyze_argv, stdin=colored)
        return colored, report

    return run


def _color_check(edges: tuple[tuple[int, int], ...], pq: bool):
    def check(outputs: tuple[str, ...]) -> None:
        colored, report = outputs
        g, colors = parse_graph_text(colored)
        require(colors is not None, "color output has no colors line")
        require(g.edges == edges, "colored output does not carry the input's edges")
        doc = json.loads(report)
        require(
            doc["network"]["flags"]["majority-weak-majority"] is True,
            "analyze reports no majority-weak-majority illusion",
        )
        require(("pq" in doc) == pq, "analyze --p/--q report missing or unexpected")

    return check


# --------------------------------------------------------------------------
# construct-regular: construct n k [--fast] | mc - --preset majority-majority
#
# Construction, validation and writing n*k/2 edges dominate.  Eight of the
# twenty strata take the bridge-and-pairing path (n_red or n_blue odd with an
# odd residual degree), ten close with circulants only, and two take the
# complete-bipartite --fast path.  Pairing-path pairs at n >= 4000
# raise RecursionError in the recursive pairing search and stay in the mix;
# the pairing strata keep clear of the n ~ 4000 edge of that failure so a
# pair does not flip between passing and failing with stack depth.

# (path, nodes, degree) of each stratum; the seed moves n by a multiple of 4,
# up to 2%, then takes the nearest pair on the stratum's path (at the base n
# and k for every stratum below).  A pairing-path job costs twice as much at
# n = 0 mod 4 as at n = 1 mod 4, and its cost swings as much with k, so
# neither n mod 4 nor k is drawn.  "fast" takes k = n/2 + 1 instead, even
# and just above n/2 as --fast requires.  The pool has the costly/middling/
# cheap shape of COLOR_POOL; the two failing pairing jobs are costly ones.
CONSTRUCT_POOL = (
    ("pairing", 4500, 12),
    ("pairing", 800, 20),
    ("pairing", 2217, 28),
    ("pairing", 4699, 6),
    ("circulant", 2500, 14),
    ("circulant", 4599, 20),
    ("circulant", 4399, 48),
    ("circulant", 600, 10),
    ("circulant", 3799, 28),
    ("circulant", 2399, 96),
    ("pairing", 600, 7),
    ("pairing", 1344, 40),
    ("pairing", 2900, 12),
    ("circulant", 1000, 30),
    ("circulant", 3199, 36),
    ("circulant", 2099, 108),
    ("fast", 302, None),
    ("fast", 590, None),
    ("pairing", 2700, 12),
    ("circulant", 1199, 8),
)


def construction_path(n: int, k: int) -> str:
    plan = construction_plan(n, k)
    odd_red = plan.k_red % 2 == 1 and plan.n_red % 2 == 1
    odd_blue = plan.k_blue % 2 == 1 and plan.n_blue % 2 == 1
    return "pairing" if odd_red or odd_blue else "circulant"


def _draw_pair(rng: random.Random, path: str, n0: int, k0: int | None) -> tuple[int, int]:
    n_base = n0 + 4 * rng.randint(-(n0 // 200), n0 // 200)
    k_base = n_base // 2 + 1 if path == "fast" else k0
    for n in sorted(range(n_base - 8, n_base + 9), key=lambda x: abs(x - n_base)):
        for k in sorted(range(max(3, k_base - 8), k_base + 9), key=lambda x: abs(x - k_base)):
            if k >= n or (n * k) % 2 or not regular_exists(n, k).possible:
                continue
            if path == "fast":
                if n % 4 == 2 and k % 2 == 0 and n <= 2 * k - 2:
                    return n, k
            elif construction_path(n, k) == path:
                return n, k
    raise ValueError(f"no {path} pair near n={n_base}, k={k_base}")


def construct_regular(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    lines = []
    for path, n0, k0 in CONSTRUCT_POOL:
        if tiny:
            n0, k0 = n0 // 20 + 24, k0 and min(k0, 12)
        n, k = _draw_pair(rng, path, n0, k0)
        argv = ["construct", str(n), str(k)] + (["--fast"] if path == "fast" else [])
        lines.append(" ".join(argv[1:]))
        jobs.append(
            Job(label=f"{path} n={n} k={k}", run=_construct_run(argv), check=_construct_check(n, k))
        )
    (workdir / "construct-pairs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return jobs


def _construct_run(argv: list[str]):
    mc_argv = ["mc", "-", "--preset", IllusionKind.MAJORITY_MAJORITY.value, "--global"]

    def run() -> tuple[str, ...]:
        witness, report = invoke_ok(argv)
        verdict, _ = invoke_ok(mc_argv, stdin=witness)
        return witness, report, verdict

    return run


def _construct_check(n: int, k: int):
    def check(outputs: tuple[str, ...]) -> None:
        witness, report, verdict = outputs
        g, colors = parse_graph_text(witness)
        require(colors is not None, "witness has no colors line")
        require(g.n == n and g.is_regular(k), f"witness is not {k}-regular on {n} nodes")
        cg = ColoredGraph(g, colors)
        require(cg.color_counts[0] == n // 2 + 1, "witness does not have n//2+1 red nodes")
        require(classify_network(cg).majority_majority, "witness is not majority-majority")
        require(json.loads(report)["validated"] is True, "construction report not validated")
        require(verdict.strip() == "true", "mc did not confirm the witness")

    return check


# --------------------------------------------------------------------------
# exhaustive-certify: oracle over all colorings, logic vs oracle verdicts,
# the illusion coloring against the oracle, and regular enumeration.
#
# The vectorized oracle (2^n colorings per objective) sets the cost at
# n >= 16 and the frozenset logic evaluator at n = 10..12.  Graphs that get
# the logic cross-check are relabelled structured graphs or small random
# ones, so the full scans of unsatisfiable kinds cost the same for every
# seed.

# (family, nodes, shape, logic cross-check, regular enumeration (n, k)).
# The pool has the costly/middling/cheap shape of COLOR_POOL: the costly
# jobs are oracle-only graphs at n = 21 and logic cross-checks at n = 11.
EXHAUSTIVE_POOL = (
    ("gnm", 21, 5, False, None),
    ("gnm", 6, 2.5, True, (6, 3)),
    ("complete", 10, None, True, (8, 5)),
    ("circulant", 11, (1, 3), True, None),
    ("gnm", 14, 5, False, None),
    ("gnm", 8, 3, True, (8, 2)),
    ("circulant", 11, (1, 2), True, None),
    ("cycle", 7, None, True, (7, 4)),
    ("gnm", 20, 5, False, None),
    ("cycle", 11, None, True, None),
    ("circulant", 16, (1, 3), False, None),
    ("circulant", 10, (1, 2), True, (7, 2)),
    ("circulant", 11, (2, 5), True, None),
    ("gnm", 18, 5, False, None),
    ("cycle", 10, None, True, None),
    ("complete", 11, None, True, None),
    ("gnm", 9, 3, True, (6, 3)),
    ("gnm", 20, 6, False, None),
    ("gnm", 21, 4, False, None),
    ("gnm", 16, 5, False, None),
)


def exhaustive_certify(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index, (family, n, shape, logic, enum) in enumerate(EXHAUSTIVE_POOL):
        if tiny:
            n = min(n, 8)
            enum = enum and (6, 3)
            if family == "circulant":
                shape = tuple(d for d in shape if d <= n // 2)
        g = family_graph(rng, family, n, shape)
        if family != "gnm":
            g = relabelled(rng, g)
        path = write_input(workdir, f"exhaustive-{index}", g)
        jobs.append(
            Job(
                label=f"{family} n={n} m={g.edge_count}"
                f"{' logic' if logic else ''}{f' enum{enum}' if enum else ''}",
                run=_exhaustive_run(path, g, logic, enum),
                check=_exhaustive_check(g, logic, enum),
            )
        )
    return jobs


def _exhaustive_run(path: str, g: mi.Graph, logic: bool, enum):
    def run() -> tuple[str, ...]:
        outputs = [invoke_ok(["oracle", path, "--objective", o.value])[0] for o in Objective]
        verdicts = {}
        if logic:
            for kind in NETWORK_KINDS:
                verdicts[kind.value] = [
                    mi.illusion_possible(g, kind),
                    mi.formula_possible(g, mi.illusion_formula(kind)),
                ]
        colored = mi.illusion_coloring(g)
        report = mi.classify_network(colored)
        result = {
            "verdicts": verdicts,
            "coloring": mi.coloring_to_string(colored.colors),
            "majority_weak_majority": report.majority_weak_majority,
        }
        if enum:
            n, k = enum
            found = any(
                mi.illusion_possible(h, IllusionKind.MAJORITY_MAJORITY)
                for h in mi.enumerate_regular(n, k)
            )
            result["enumerated"] = [found, mi.regular_exists(n, k).possible]
        return (*outputs, json.dumps(result, sort_keys=True))

    return run


def _oracle_answer(text: str) -> tuple[int, str]:
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    return int(fields["score"]), fields["colors"]


def _exhaustive_check(g: mi.Graph, logic: bool, enum):
    def check(outputs: tuple[str, ...]) -> None:
        *oracle_texts, summary = outputs
        scores = {}
        for objective, text in zip(Objective, oracle_texts):
            score, colors = _oracle_answer(text)
            cg = ColoredGraph(g, coloring_from_string(colors))
            if objective is Objective.MIN_MONOCHROMATIC:
                recount = monochromatic_count(cg)[0]
            else:
                report = classify_network(cg)
                strict = objective is Objective.MAX_STRICT_ILLUSION
                recount = report.strict_count if strict else report.weak_count
            require(score == recount, f"oracle {objective.value} score {score} != recount {recount}")
            scores[objective] = score
        strict = scores[Objective.MAX_STRICT_ILLUSION]
        weak = scores[Objective.MAX_WEAK_ILLUSION]
        n = g.n
        oracle_says = {
            IllusionKind.MAJORITY_MAJORITY.value: 2 * strict > n,
            IllusionKind.WEAK_MAJORITY_MAJORITY.value: 2 * strict >= n,
            IllusionKind.MAJORITY_WEAK_MAJORITY.value: 2 * weak > n,
            IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY.value: 2 * weak >= n,
        }
        result = json.loads(summary)
        require(bool(result["verdicts"]) == logic, "logic cross-check missing or unexpected")
        for kind, (scan, formula) in result["verdicts"].items():
            require(scan == formula, f"{kind}: oracle scan says {scan}, logic says {formula}")
            require(scan == oracle_says[kind], f"{kind}: scan disagrees with the oracle optimum")
        colored = ColoredGraph(g, coloring_from_string(result["coloring"]))
        classified = classify_network(colored).majority_weak_majority
        require(
            classified and result["majority_weak_majority"],
            "illusion coloring is not majority-weak-majority",
        )
        require(
            oracle_says[IllusionKind.MAJORITY_WEAK_MAJORITY.value],
            "oracle finds no majority-weak-majority coloring the classifier accepts",
        )
        if enum:
            found, exists = result["enumerated"]
            require(found == exists, f"enumerate_regular{enum} finds {found}, regular_exists says {exists}")

    return check


WORKLOADS: dict[str, Callable[[int, Path, bool], list[Job]]] = {
    "color-pipeline": color_pipeline,
    "construct-regular": construct_regular,
    "exhaustive-certify": exhaustive_certify,
}

# Nominal time of one pass over each pool, in scaled seconds (see run.py).
# A run makes ``--seconds`` over this many passes, at least one, so the jobs
# a seed runs never depend on the host's speed.
PASS_SECONDS = {
    "color-pipeline": 5.9,
    "construct-regular": 5.8,
    "exhaustive-certify": 4.8,
}


def passes(workload: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return 1
    return max(1, round(seconds / PASS_SECONDS[workload]))
