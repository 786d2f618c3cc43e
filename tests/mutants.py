"""A standing table of mutants: each row plants one small fault in a copy of
``src/`` and runs the test files that should catch it.  A mutant that
every listed test survives fails the script.

    python tests/mutants.py

Standard library only (the tests themselves need pytest), and pytest does
not collect this file.  Each row's snippet must occur exactly once in its
file, so a row left stale by a refactor fails loudly instead of planting
nothing.  A row that runs past the timeout counts as killed, slowly, and
is reported so.  The rows run on ``min(4, os.cpu_count())`` workers, each
in a fresh temporary directory, so no hypothesis example or pytest cache
of a mutant reaches the checkout or another row, and with a fixed
hypothesis seed, so a row that is killed is killed on every run, in any
order.  The rows print in table order, then the summed and wall times.
(Mutation testing: DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer 1978.)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    file: str  # under src/majority_illusion/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # files or test ids under tests/


# the oracle digest first: it kills all but the cap row in a few seconds
ORACLE = ("test_digests.py::test_oracle_digest", "test_oracle.py")
COLORING = ("test_coloring.py",)
ANALYSIS = ("test_analysis.py",)
FILEFORMAT = ("test_fileformat.py",)
LOGIC = ("test_logic.py", "test_digests.py::test_logic_digest")
TOP_UP = ("test_construct.py::test_blue_top_up_matches_the_set_based_top_up",)
PAIRING = (
    "test_construct.py::test_bulk_pairing_matches_the_search",
    "test_construct.py::test_builder_shaped_pairings_never_raise",
)

MUTANTS = [
    # the byte-lane start: a lane's bit 7 sets where its count reaches the threshold
    Mutant("oracle.py", "(128 - least(n)) * lanes", "(127 - least(n)) * lanes", ORACLE),
    Mutant("oracle.py", "(128 - least(n)) * lanes", "(129 - least(n)) * lanes", ORACLE),
    # the illusion rules, stated once
    Mutant("oracle.py", "c < (deg + 1) // 2 if strict", "c <= (deg + 1) // 2 if strict", ORACLE),
    Mutant("oracle.py", "else c <= deg // 2", "else c < deg // 2", ORACLE),
    Mutant("oracle.py", "(c + c != deg) & (not strict)", "(c + c == deg) & (not strict)", ORACLE),
    # the majority-majority threshold
    Mutant(
        "oracle.py",
        "MAJORITY_MAJORITY: (True, lambda n: n // 2 + 1)",
        "MAJORITY_MAJORITY: (True, lambda n: n // 2)",
        ORACLE,
    ),
    # an objective is read by value or refused, never scored as weak
    Mutant(
        "oracle.py",
        "    objective = Objective.parse(objective)\n",
        "",
        ("test_oracle.py::test_objectives_and_kinds_are_read_by_value_and_nothing_else",),
    ),
    # the byte-lane verdict's gate, without the cap
    Mutant("oracle.py", "if 0 < n <= _TABLE_NODES and n <= cap:", "if 0 < n <= _TABLE_NODES:", ORACLE),
    # the swap loop's four lead compares, each shifted by one either way
    Mutant("coloring.py", "if m <= 0:", "if m <= -1:", COLORING),
    Mutant("coloring.py", "if m <= 0:", "if m <= 1:", COLORING),
    Mutant("coloring.py", "elif m < 0:", "elif m < -1:", COLORING),
    Mutant("coloring.py", "elif m < 0:", "elif m < 1:", COLORING),
    Mutant("coloring.py", "if m > 0:", "if m > -1:", COLORING),
    Mutant("coloring.py", "if m > 0:", "if m > 1:", COLORING),
    Mutant("coloring.py", "elif m >= 0:", "elif m >= -1:", COLORING),
    Mutant("coloring.py", "elif m >= 0:", "elif m >= 1:", COLORING),
    # the bit-sliced kernel: the tree adder's odd row and the flag words' lead
    Mutant("oracle.py", "if odd:", "if False:", ORACLE),
    Mutant("oracle.py", "_words(lead > 0)", "_words(lead >= 0)", ORACLE),
    # the tie-break, stated once: the relabelling that makes ascending masks
    # ascending strings, and each scan's first optimum in mask order
    Mutant("oracle.py", "(n - node) % n", "node", ORACLE),
    Mutant("oracle.py", "scores == top], n).min())", "scores == top], n).max())", ORACLE),
    Mutant("oracle.py", "(word & -word).bit_length()", "word.bit_length()", ORACLE),
    # a later block wins only on a larger score, in best_coloring's merge
    Mutant(
        "oracle.py",
        "if top > best:\n                best, mask = top, first",
        "if top >= best:\n                best, mask = top, first",
        ORACLE,
    ),
    # the cut scan: a later block wins only on a larger count, a block's
    # first row at its maximum wins, and the doubling takes column node
    # 1 + j at step j
    Mutant("oracle.py", "if top > best:\n            row =", "if top >= best:\n            row =", ORACLE),
    Mutant(
        "oracle.py",
        "row = int(t.max(axis=0).argmax())",
        "row = rows - 1 - int(t.max(axis=0)[::-1].argmax())",
        ORACLE,
    ),
    Mutant("oracle.py", "enumerate(twice)", "enumerate(twice[::-1])", ORACLE),
    # the classifier's class key, the q-window and the majority flag
    Mutant(
        "analysis.py",
        "key = cg.red + 2 * cg.local_winner_codes + 6 * isolated",
        "key = cg.red + 2 * cg.local_winner_codes",
        (
            "test_analysis.py::test_one_tally_matches_the_per_node_definitions",
            "test_analysis.py::test_status_columns_match_the_definition",
        ),
    ),
    Mutant("analysis.py", "return over > 0 and under > 0", "return over >= 0 and under > 0", ANALYSIS),
    Mutant(
        "analysis.py",
        '"pq": strict * p.denominator > p.numerator * n',
        '"pq": strict * p.denominator >= p.numerator * n',
        ANALYSIS,
    ),
    # the majority winner, stated once for ints and arrays
    Mutant("coloring.py", "2 * red > total", "2 * red >= total", COLORING),
    # the illusion level: a strict witness at q = 1/2
    Mutant(
        "analysis.py",
        "_q_witness(cg, red, d, _HALF, strict=True)",
        "_q_witness(cg, red, d, _HALF, strict=False)",
        ANALYSIS,
    ),
    # the counting thresholds, and And's expansion
    Mutant("logic.py", "min(bound, n) + 1", "min(bound, n)", LOGIC),
    Mutant("logic.py", "(total + 1) // 2", "total // 2", LOGIC),
    Mutant(
        "logic.py",
        "And: lambda a, b: Not(Or(Not(a), Not(b)))",
        "And: lambda a, b: Or(Not(a), Not(b))",
        LOGIC,
    ),
    # a program step's key holds its bound: <>0 p and <>1 p stay two steps
    Mutant(
        "logic.py",
        '(type(node), getattr(node, "bound", None), args)',
        "(type(node), args)",
        ("test_logic.py::test_program_keeps_subformulas_apart_by_their_bound",),
    ),
    # the program folds double negations, and the satisfiability scan's
    # threshold tables are keyed by the threshold, bound included
    Mutant(
        "logic.py",
        "while isinstance(f, Not) and isinstance(f.sub, Not):",
        "while False:",
        ("test_logic.py::test_programs_fold_double_negations",),
    ),
    Mutant(
        "logic.py",
        "key = least.tobytes()",
        "key = type(node)",
        ("test_logic.py::test_program_keeps_subformulas_apart_by_their_bound",),
    ),
    # the one negation step, shared by the bool columns and the bitsets
    Mutant("logic.py", "args[0] ^ top", "args[0] | top", LOGIC),
    # the edge-key width: uint32 keys overflow from 65 537 nodes on
    Mutant(
        "graphs.py",
        "_NARROW_KEYS_BELOW = 1 << 16",
        "_NARROW_KEYS_BELOW = 1 << 17",
        (
            "test_construct.py::test_initial_edges_round_robin_spread",
            "test_cli.py::test_every_pin_replays_in_process[construct 65537 6]",
        ),
    ),
    # the report's one rule: a stage that adds no edge is no row
    Mutant(
        "construct.py",
        "        if not len(fresh):\n            return keys\n",
        "",
        ("test_construct.py::test_every_stage_returns_only_new_keys_and_the_report_adds_them_up",),
    ),
    # the bridge takes an open red node only
    Mutant(
        "construct.py",
        "open_red = red[deg[red] < k]\n",
        "open_red = red[deg[red] <= k]\n",
        ("test_construct.py::test_bridge_names_the_blue_node_no_red_node_can_reach",),
    ),
    # the blue top-up's order, which the blue circulant reuses: degree, then id
    Mutant(
        "construct.py",
        "np.lexsort((blue, deg[blue]))",
        "np.lexsort((deg[blue], blue))",
        ("test_construct.py",),
    ),
    # the blue top-up in closed form: a node the pair before it filled
    # takes another pair only with room 2, and the last pair wraps to the
    # first node, which pair 0 may have filled
    Mutant("construct.py", "| (room >= 2)", "| (room >= 1)", TOP_UP),
    Mutant("construct.py", "room[0] - taken[0] >= 1", "room[0] >= 1", TOP_UP),
    # a top-up pair needs room at its second node too
    Mutant("construct.py", "(np.roll(room, -1) >= 1)", "(np.roll(room, -1) >= 0)", TOP_UP),
    # the circulant's collision check, which names the smallest colliding edge
    Mutant(
        "construct.py",
        "if hit.any():",
        "if False:",
        ("test_construct.py::test_circulant_collision_raises",),
    ),
    # the pairing in closed form: block starts by run parity, counted from
    # before the first slot; the last pair's swap with the pair before it;
    # the head takes the lowest open id
    Mutant("construct.py", "np.append(-1, last_free[:-1])", "np.append(0, last_free[:-1])", PAIRING),
    Mutant("construct.py", "at[-1] -= 2", "at[-1] -= 1", PAIRING),
    Mutant("construct.py", "np.append(v, ids[0])", "np.append(v, ids[1])", PAIRING),
    # the JSON edge lists' indent, one space too many
    Mutant(
        "cli.py",
        'f"    [\\n      {i}',
        'f"     [\\n      {i}',
        ("test_cli.py::test_construct_json_is_laid_out_as_json_dumps",),
    ),
    # the canonical reader's id range and edge cap, and the writer's digit places
    Mutant(
        "fileformat.py",
        "int(ids.max()) >= n",
        "int(ids.max()) > n",
        ("test_fileformat.py::test_array_path_edge_cases_match_the_line_reader",),
    ),
    Mutant(
        "fileformat.py",
        "if lines > MAX_EDGES:",
        "if lines > MAX_EDGES + 1:",
        ("test_cli.py::test_canonical_text_past_the_edge_cap_is_refused_before_it_is_read",),
    ),
    Mutant("fileformat.py", "top = max(10 * low, 10)", "top = max(10 * low, 1)", FILEFORMAT),
    # a path that cannot be opened, and a digit run int cannot read, in a
    # graph header (both readers' one guard) or a counting index, is the
    # input's fault: exit 2, not 3
    Mutant(
        "cli.py",
        "except (OSError, ValueError) as exc:",
        "except ValueError as exc:",
        ("test_cli.py::test_a_fault_that_open_or_int_raises_exits_two_in_one_line",),
    ),
    Mutant(
        "fileformat.py",
        "text.isdigit() else None\n    except ValueError:",
        "text.isdigit() else None\n    except TypeError:",
        ("test_cli.py::test_a_fault_that_open_or_int_raises_exits_two_in_one_line",),
    ),
    Mutant(
        "logic.py",
        "return int(digits)\n    except ValueError:",
        "return int(digits)\n    except TypeError:",
        ("test_logic.py::test_a_counting_index_int_cannot_read_is_a_syntax_error_at_the_index",),
    ),
    # a node id int cannot read for its length is out of range, not a non-integer
    Mutant(
        "fileformat.py",
        "if not digits.isdecimal():",
        "if digits:",
        ("test_fileformat.py::test_a_node_id_too_long_for_int_is_outside_the_graph_in_every_reader",),
    ),
]


def run(mutant: Mutant, work: Path) -> str:
    """Plant ``mutant`` in a copy of ``src/`` under ``work`` and run its
    tests with ``-x``: "killed", "killed, slowly", "survived", or what
    else went wrong."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "majority_illusion" / mutant.file
    text = path.read_text()
    if (count := text.count(mutant.snippet)) != 1:
        return f"stale: the snippet occurs {count} times"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    # pyproject's ``pythonpath`` would put the checkout's ``src`` first on
    # the path: ``-o`` points it, and PYTHONPATH, at the copy
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    options = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "-o", f"pythonpath={src}"]
    command = [sys.executable, "-m", "pytest", *options, *(str(ROOT / "tests" / t) for t in mutant.tests)]
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed, slowly"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exit {done.returncode}")


def timed(mutant: Mutant) -> tuple[str, float]:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        verdict = run(mutant, Path(work))
    return verdict, time.perf_counter() - start


def main() -> int:
    start, failed, summed = time.perf_counter(), 0, 0.0
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        for mutant, (verdict, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            failed += not verdict.startswith("killed")
            summed += seconds
            print(
                f"{verdict:<16} {seconds:6.1f} s  {mutant.file}: "
                f"{mutant.snippet!r} -> {mutant.replacement!r}",
                flush=True,
            )
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    print(f"rows {summed:.1f} s summed, {time.perf_counter() - start:.1f} s wall")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
