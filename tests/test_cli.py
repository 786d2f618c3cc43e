import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import majority_illusion.cli as cli
import majority_illusion.fileformat as fileformat
from majority_illusion import (
    ColoredGraph,
    __version__,
    InternalInvariantError,
    Objective,
    PreconditionError,
    agent_status,
    circulant_graph,
    classify_network,
    coloring_from_string,
    construct_regular_illusion,
    cycle_graph,
    extension,
    illusion_coloring,
    is_weak_majority_coloring,
    make_graph,
    model_from_colored_graph,
    parse_colored_graph,
    parse_formula,
    parse_graph,
    parse_graph_text,
    pq_report,
    write_graph,
)
from majority_illusion.coloring import coloring_to_string, random_coloring
from majority_illusion.graphs import MAX_EDGES, MAX_NODES, check_size
from majority_illusion.logic import FORMULA_KINDS

import pins
from conftest import colored_graphs, random_graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    g = parse_graph(out)
    assert g.degrees() == (2,) * 5


def test_gen_complete_of_no_nodes_is_a_usage_error(capsys):
    code, out, err = run(capsys, "gen", "complete", "0")
    assert (code, out, err) == (2, "", "error: a complete graph needs at least 1 node, got 0\n")


def test_gen_circulant_requires_offsets(capsys):
    code, _, err = run(capsys, "gen", "circulant", "6")
    assert code == 2
    assert "offsets" in err


def test_gen_circulant_names_a_malformed_offsets_list(capsys):
    code, _, err = run(capsys, "gen", "circulant", "5", "--offsets", "1,,2")
    assert code == 2
    assert "argument --offsets: not a comma-separated list of integers: '1,,2'" in err


def test_gen_circulant(capsys):
    code, out, _ = run(capsys, "gen", "circulant", "6", "--offsets", "1,3")
    assert code == 0
    assert parse_graph(out).is_regular(3)


def test_color_pipeline_produces_weak_coloring(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "6")
    path = tmp_path / "g.txt"
    path.write_text(graph_text)
    code, out, _ = run(capsys, "color", str(path), "--mode", "weak")
    assert code == 0
    cg = parse_colored_graph(out)
    assert is_weak_majority_coloring(cg.graph, cg.colors)


def test_color_random_seed_is_deterministic(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "complete", "6")
    path = tmp_path / "g.txt"
    path.write_text(graph_text)
    _, out1, _ = run(capsys, "color", str(path), "--initial", "random", "--seed", "9")
    _, out2, _ = run(capsys, "color", str(path), "--initial", "random", "--seed", "9")
    assert out1 == out2


def test_analyze_reports_flags(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "flag unanimity-weak-majority yes" in out
    assert "flag majority-majority no" in out


def test_analyze_json_schema(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["network"]["flags"]["unanimity-weak-majority"] is True
    assert len(payload["agents"]) == 4


def test_analyze_derives_coloring_when_missing(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "5")
    path = tmp_path / "c5.txt"
    path.write_text(graph_text)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "derived" in out
    assert "flag majority-weak-majority yes" in out


def test_analyze_pq_flags(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path), "--p", "1", "--q", "1/2")
    assert code == 0
    assert "pq weak-p-weak-q yes" in out


def test_analyze_json_carries_the_pq_report(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(
        capsys, "analyze", str(path), "--format", "json", "--p", "1/3", "--q", "1/2"
    )
    assert code == 0
    assert json.loads(out)["pq"] == {
        "chromaticity": {"strict": "monochromatic", "weak": "polychromatic"},
        "counts": {"strict": 0, "weak": 4},
        "flags": {"p-q": False, "p-weak-q": True, "weak-p-q": False, "weak-p-weak-q": True},
        "n": 4,
        "p": "1/3",
        "q": "1/2",
    }


def test_color_as_is_needs_a_colored_input(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    code, out, err = run(capsys, "color", str(path), "--initial", "as-is")
    assert code == 2
    assert out == ""
    assert err == "error: --initial as-is needs a colored input\n"


def test_color_as_is_starts_the_swap_loop_from_the_input_colors(capsys, tmp_path):
    """``--initial as-is`` feeds the file's colors to the swap loop; here
    they lead to another coloring than the default all-red start."""
    text = "n 6\ncolors RRBBRR\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
    path = tmp_path / "c6.txt"
    path.write_text(text)
    graph, colors = parse_graph_text(text)
    code, out, err = run(capsys, "color", str(path), "--initial", "as-is")
    assert (code, err) == (0, "")
    assert out == write_graph(graph, illusion_coloring(graph, colors).red)
    _, default, _ = run(capsys, "color", str(path))
    assert out != default


def test_feasible_negative_verdict_cites_reason(capsys):
    code, out, _ = run(capsys, "feasible", "6", "4")
    assert code == 1
    assert "infeasible" in out
    assert "minority-pool" in out


def test_feasible_positive(capsys):
    code, out, _ = run(capsys, "feasible", "12", "6")
    assert code == 0
    assert "feasible" in out


def test_feasible_json_matches_text_verdict(capsys):
    code, out, _ = run(capsys, "feasible", "6", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["possible"] is False
    assert "minority-edge-capacity" in payload["failed"]


def test_construct_pipes_into_analyze(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "12", "6")
    assert code == 0
    report = json.loads(err)
    assert report["validated"] is True
    path = tmp_path / "witness.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "flag majority-majority yes" in out2


def test_construct_fast_variant(capsys):
    code, out, err = run(capsys, "construct", "10", "6", "--fast")
    assert code == 0
    cg = parse_colored_graph(out)
    assert cg.graph.is_regular(6)
    assert classify_network(cg).majority_majority


def test_construct_infeasible_exits_one(capsys):
    # (7, 2) is outside the plan's domain too: infeasible, not a defect
    for n, k, reason in (("6", "4", "minority-pool"), ("7", "2", "two-regular")):
        code, _, err = run(capsys, "construct", n, k)
        assert code == 1
        assert reason in err


def test_oracle_min_monochromatic(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(
        capsys, "oracle", str(path), "--objective", "min-monochromatic"
    )
    assert code == 0
    assert "score 1" in out


@pytest.mark.parametrize("objective", [o.value for o in Objective])
def test_oracle_json_reports_what_the_text_form_does(capsys, tmp_path, objective):
    path = tmp_path / "c7.txt"
    path.write_text(write_graph(circulant_graph(7, (1, 2))))
    code, text, _ = run(capsys, "oracle", str(path), "--objective", objective)
    assert code == 0
    code, out, _ = run(capsys, "oracle", str(path), "--objective", objective, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("format_version") == cli.SCHEMA_VERSION
    assert text == "objective {objective}\nscore {score}\ncolors {colors}\n".format(**payload)


def _pipe(monkeypatch, stages, stdin, merged=False):
    """Run ``millusion`` stages in process, each reading the one before's
    stdout; every stage but the last must exit 0.  Returns the last one's
    exit code, stdout and stderr (its stderr in its stdout where ``merged``)."""
    for argv in stages:
        last = argv is stages[-1]
        out = io.StringIO()
        err = out if merged and last else io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert last or code == 0, argv
        stdin = out.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("pin", pins.PINS, ids=[pin.id for pin in pins.PINS])
def test_every_pin_replays_in_process(monkeypatch, tmp_path, pin):
    """Each row of the pin table, every stage in process, byte for byte."""
    monkeypatch.chdir(tmp_path)
    _, graph, _ = _pipe(monkeypatch, pins.stages(pins.GRAPH), "")
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "v.txt").write_text(pins.VALUATION)
    stages = pins.stages(pin.pipeline)
    code, out, err = _pipe(monkeypatch, stages, pins.INPUTS[pin.stdin], pin.stream == "both")
    assert pins.verdict(pin, code, out.encode(), err.encode()) is None


def _oracle_pins():
    """The oracle rows of the pin table as (gen arguments, the objective and
    any further oracle options, score and colors, or the sha256 of the JSON
    report)."""
    rows = []
    for pin in pins.PINS:
        match = re.fullmatch(r"gen (.+) \| oracle --objective (.+?)( --format json)?", pin.pipeline)
        if match:
            graph, options, as_json = match.groups()
            answer = pin.expect if as_json else " ".join(
                line.split()[1] for line in pin.expect.splitlines()[1:])
            rows.append((graph, options, answer))
    return rows


ORACLE_PINS = _oracle_pins()


@pytest.mark.parametrize("graph, options, answer", ORACLE_PINS)
def test_oracle_replays_the_ci_pins(capsys, tmp_path, graph, options, answer):
    """The oracle rows of the pin table, with the graph read from a file
    path rather than stdin, byte for byte."""
    _, text, _ = run(capsys, "gen", *graph.split())
    path = tmp_path / "g.txt"
    path.write_text(text)
    objective = options.split()[0]
    argv = ["oracle", str(path), "--objective", *options.split()]
    if " " in answer:
        score, colors = answer.split()
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, f"objective {objective}\nscore {score}\ncolors {colors}\n")
    else:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, answer)


def test_the_workflow_replays_the_pin_table_and_restates_no_pin():
    """CI checks outputs through ``python tests/pins.py`` alone: a digest or
    an exact answer written into the workflow would be a second copy of a
    pin that nothing keeps in step with the table."""
    workflow = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "python tests/pins.py" in workflow
    assert "sha256sum" not in workflow
    assert not re.search(r"^\s*check\b", workflow, re.MULTILINE)


def test_the_workflow_pins_no_thread_count():
    """CI runs with the thread counts a user's shell has: the oracle calls
    no BLAS routine, so no step needs a pin, and none may hide one."""
    workflow = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert name not in workflow, name


def test_the_readme_lists_every_script_the_workflow_runs():
    """Each ``tests/`` or ``perfbench/`` script that a CI step runs is one
    of the commands in README's Tests block."""
    root = Path(__file__).parent.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    scripts = set(re.findall(r"\brun: python3? ((?:tests|perfbench)/\w+\.py)\b", workflow))
    readme = (root / "README.md").read_text()
    block = readme.split("## Tests", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^python3? ((?:tests|perfbench)/\w+\.py)\b", block, re.M))
    assert "tests/pins.py" in scripts  # the pattern reads the workflow's steps
    assert scripts <= listed, scripts - listed


def test_oracle_cap_usage_error(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, _, err = run(capsys, "oracle", str(path), "--cap", "4")
    assert code == 2
    assert "cap" in err


def test_mc_preset_on_witness(capsys, tmp_path):
    _, witness, _ = run(capsys, "construct", "12", "6")
    path = tmp_path / "witness.txt"
    path.write_text(witness)
    code, out, _ = run(
        capsys, "mc", str(path), "--preset", "majority-majority", "--global"
    )
    assert code == 0
    assert out.strip() == "true"


def test_mc_needs_colors_or_a_valuation(capsys, tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    code, out, err = run(capsys, "mc", str(path), "--formula", "p", "--global")
    assert (code, out) == (2, "")
    assert err == "error: model checking needs a colored graph or --valuation file\n"


def test_mc_formula_false_exits_one(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "mc", str(path), "--formula", "GM p", "--node", "0")
    assert code == 1
    assert out.strip() == "false"


def test_mc_valuation_file(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n1 2\n")
    vpath = tmp_path / "v.txt"
    vpath.write_text("0 p\n1 p q\n2\n")
    code, out, _ = run(
        capsys, "mc", str(gpath), "--formula", "E_1 p & ~E_2 p",
        "--node", "0", "--valuation", str(vpath),
    )
    assert code == 0
    vpath.write_text("# node atoms\n\n0 p  # first\n   \n1 p q\n")
    code, out, err = run(
        capsys, "mc", str(gpath), "--formula", "E_1 p & ~E_2 p",
        "--node", "0", "--valuation", str(vpath),
    )
    assert (code, out, err) == (0, "true\n", "")


@pytest.mark.parametrize(
    "valuation, message",
    [
        ("0 p\nx q\n", "error: line 2: non-integer node id\n"),
        # a second line for node 0 would silently replace 'p' by 'q'
        ("0 p\n1\n0 q\n", "error: line 3: duplicate node 0\n"),
        ("# atoms\n3 p\n", "error: line 2: node id 3 out of range for graph on 3 nodes\n"),
    ],
)
def test_mc_valuation_faults_name_the_line(capsys, tmp_path, valuation, message):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n1 2\n")
    vpath = tmp_path / "v.txt"
    vpath.write_text(valuation)
    code, out, err = run(
        capsys, "mc", str(gpath), "--formula", "p", "--node", "0", "--valuation", str(vpath)
    )
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("valuation", ["0 p\n", "x p\n"])
def test_mc_checks_the_node_before_the_valuation_and_the_formula(capsys, tmp_path, valuation):
    """An out-of-range ``--node`` is the one error: no valuation fault and
    no unknown-atom warning comes before it."""
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n1 2\n")
    vpath = tmp_path / "v.txt"
    vpath.write_text(valuation)
    code, out, err = run(
        capsys, "mc", str(gpath), "--formula", "p | s", "--node", "99", "--valuation", str(vpath)
    )
    assert (code, out, err) == (2, "", "error: node id 99 out of range for graph on 3 nodes\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_pipe_is_an_io_error(tmp_path, fmt):
    """A reader that has gone (``millusion analyze ... | head -1``) makes a
    usage-class exit with one error line: no internal error, no traceback,
    and no second failure when the interpreter flushes stdout at exit."""
    path = tmp_path / "g.txt"
    path.write_text("n 3\ncolors RBB\n0 1\n1 2\n")
    # stdout block-buffered, as from a shell: a short output meets the
    # closed pipe only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "majority_illusion.cli", "analyze", str(path), "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.decode() == "error: [Errno 32] Broken pipe\n"


def test_mc_json_lists_the_satisfying_nodes(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run(
        capsys, "mc", str(path), "--formula", "M ~p", "--global", "--format", "json"
    )
    assert code == 1
    assert err == ""
    assert out == (
        '{\n  "format_version": 1,\n  "nodes_satisfying": [\n    0,\n    1\n  ],\n'
        '  "scope": "global",\n  "truth": false\n}\n'
    )


def test_mc_json_lists_the_satisfying_nodes_without_the_name_table(capsys, tmp_path, monkeypatch):
    """``mc`` lays out the few ids it prints one by one; ``color`` still
    reads the writer's name table for its edge list."""
    built = []

    def name_words(n):
        built.append(n)
        return fileformat._name_words(n)

    monkeypatch.setattr(cli, "_name_words", name_words)
    path = tmp_path / "c6.txt"
    path.write_text(write_graph(cycle_graph(6), coloring_from_string("RRBRBB")))
    code, out, err = run(capsys, "mc", str(path), "--formula", "p", "--global", "--format", "json")
    assert (code, err, built) == (1, "", [])
    assert json.loads(out)["nodes_satisfying"] == [0, 1, 3]
    code, _, _ = run(capsys, "color", str(path), "--mode", "weak", "--format", "json")
    assert (code, built) == (0, [6])


def test_mc_syntax_error_is_usage_error(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, _, err = run(capsys, "mc", str(path), "--formula", "(p", "--node", "0")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("formula", [" | ".join(["p"] * 3000), "~" * 1000 + "p"])
def test_mc_deeply_nested_formula_is_usage_error(capsys, tmp_path, formula):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, _, err = run(capsys, "mc", str(path), "--formula", formula, "--global")
    assert code == 2
    assert err.startswith("error: formula nested too deep")
    assert err.count("\n") == 1


def test_mc_unknown_atom_warns_on_one_line(capsys, tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, out, err = run(capsys, "mc", str(path), "--formula", "q", "--global")
    assert code == 1
    assert out == "false\n"
    assert err == "warning: atom 'q' is not part of the model; treated as false\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (["analyze", "GRAPH"], MAX_NODES + 1),
        (["gen", "cycle", str(MAX_NODES + 1)], MAX_NODES + 1),
        (["gen", "complete", str(MAX_NODES + 1)], MAX_NODES + 1),
        (["construct", str(MAX_NODES + 2), "8"], MAX_NODES + 2),
    ],
)
def test_node_counts_above_the_cap_are_usage_errors(capsys, tmp_path, argv, n):
    path = tmp_path / "huge.txt"
    path.write_text(f"n {MAX_NODES + 1}\n0 1\n")
    code, out, err = run(capsys, *[str(path) if a == "GRAPH" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: node count {n} exceeds the limit of {MAX_NODES}\n"


@pytest.mark.parametrize(
    "argv, edges",
    [
        (["gen", "complete", "2897"], 2897 * 2896 // 2),
        (["construct", "200000", "150000"], 200000 * 150000 // 2),
        (["construct", "262142", "131072", "--fast"], 262142 * 131072 // 2),
    ],
)
def test_edge_counts_above_the_budget_are_usage_errors(capsys, argv, edges):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"error: edge count {edges} exceeds the limit of {MAX_EDGES}\n"
    assert peak < 1 << 16


def test_documented_sizes_fit_the_edge_budget():
    # gen complete 2000, and the (100000, 8) and (100000, 50) witnesses
    for n, edges in ((2000, 2000 * 1999 // 2), (100000, 100000 * 8 // 2),
                     (100000, 100000 * 50 // 2)):
        check_size(n, edges)


def test_feasible_stays_unbounded(capsys):
    code, out, _ = run(capsys, "feasible", str(MAX_NODES + 2), "8")
    assert code == 0
    assert "feasible" in out


@pytest.mark.parametrize(
    "text, value",
    [("1/2", Fraction(1, 2)), ("0.25", Fraction(1, 4)), ("2.5e-1", Fraction(1, 4))],
)
def test_threshold_texts_parse(text, value):
    assert cli._fraction(text) == value


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "1" * 101])
def test_threshold_texts_bounded_before_fraction(capsys, tmp_path, text):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", str(path), "--p", text)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "argument --p" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("abc", "not a fraction: 'abc'"),
        ("1/0", "not a fraction: '1/0'"),
        ("3/2", "threshold must lie in [0, 1], got '3/2'"),
        ("1e1000", "threshold must lie in [0, 1], got '1e1000'"),
    ],
)
def test_bad_threshold_texts_are_named_in_one_short_line(capsys, tmp_path, text, message):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, out, err = run(capsys, "analyze", str(path), "--p", text)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"millusion analyze: error: argument --p: {message}"
    assert len(err.encode()) < 300


def test_internal_invariant_maps_to_exit_three(capsys, monkeypatch):
    def boom(n, k):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "construct_regular_illusion_report", boom)
    code, _, err = run(capsys, "construct", "12", "6")
    assert code == 3
    assert "synthetic" in err


def test_unexpected_exception_maps_to_exit_three(capsys, monkeypatch):
    def boom(n, k):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "construct_regular_illusion_report", boom)
    code, _, err = run(capsys, "construct", "12", "6")
    assert code == 3
    assert err == "internal error: RuntimeError: synthetic crash\n"


def test_a_defect_under_the_reader_maps_to_exit_three(capsys, monkeypatch, tmp_path):
    """The reader turns only the graph's own input faults into format
    errors: any other exception from ``make_graph`` is a bug, exit 3."""
    def boom(n, edges):
        raise IndexError("synthetic index fault")

    monkeypatch.setattr(fileformat, "make_graph", boom)
    path = tmp_path / "p2.txt"
    path.write_text("n 2\n0 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == "internal error: IndexError: synthetic index fault\n"


def test_a_bare_value_error_is_a_defect(capsys, monkeypatch, tmp_path):
    """Only the package's own input errors exit 2: a plain ``ValueError``,
    which numpy raises on a shape bug, is a defect, exit 3."""
    def boom(cg):
        raise ValueError("synthetic")

    monkeypatch.setattr(cli, "status_columns", boom)
    path = tmp_path / "p2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: synthetic\n"


@pytest.mark.parametrize("where", ["graph", "valuation"])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, where):
    good = tmp_path / "g.txt"
    good.write_text("n 2\ncolors RB\n0 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"n 2\n0 1\n\xff\n")
    graph, valuation = (bad, good) if where == "graph" else (good, bad)
    code, out, err = run(
        capsys, "mc", str(graph), "--formula", "p", "--global", "--valuation", str(valuation)
    )
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"


@pytest.mark.parametrize("where", ["graph", "valuation"])
def test_a_path_with_a_nul_byte_is_a_usage_error(capsys, tmp_path, where):
    good = tmp_path / "g.txt"
    good.write_text("n 2\ncolors RB\n0 1\n")
    graph, valuation = (f"{tmp_path}/g\0.txt", good) if where == "graph" else (good, "v\0.txt")
    code, out, err = run(
        capsys, "mc", str(graph), "--formula", "p", "--global", "--valuation", str(valuation)
    )
    assert (code, out, err) == (2, "", "error: embedded null byte\n")


_LONG_RUN = "9" * 5000  # beyond int's default limit of 4300 digits


@pytest.mark.parametrize(
    "fault, where",
    [(fault, where) for fault in ("name too long", "symlink loop") for where in ("graph", "valuation")]
    + [("long header", "canonical"), ("long header", "commented"), ("long index", "<>"),
       ("long index", "E_"), ("long id", "graph"), ("long id", "valuation")],
)
def test_a_fault_that_open_or_int_raises_exits_two_in_one_line(capsys, tmp_path, fault, where):
    """Input faults that Python's ``open`` or ``int`` finds, not the
    package: a path it cannot open, read as a graph or as a valuation, and
    a digit run beyond ``int``'s limit, in a header that each graph reader
    reads, in either counting index and as a node id in either file.
    Each is the input's, exit 2."""
    good = tmp_path / "g.txt"
    good.write_text("n 2\ncolors RB\n0 1\n")
    files, formula = {"graph": good, "valuation": good}, "p"
    if fault in ("name too long", "symlink loop"):
        number = errno.ENAMETOOLONG if fault == "name too long" else errno.ELOOP
        bad = files[where] = tmp_path / ("x" * 300 if number == errno.ENAMETOOLONG else "loop")
        if number == errno.ELOOP:
            bad.symlink_to(bad.name)
        message = f"[Errno {number}] {os.strerror(number)}: {str(bad)!r}"
    elif fault == "long header":
        lines = ["n " + _LONG_RUN] if where == "canonical" else ["# c", "n " + _LONG_RUN]
        files["graph"] = tmp_path / "h.txt"
        files["graph"].write_text("\n".join(lines) + "\n")
        message = f"line {len(lines)}: expected 'n <count>'"
    elif fault == "long id":
        lines = ["n 2", "colors RB", f"0 {_LONG_RUN}"] if where == "graph" else [f"{_LONG_RUN} p"]
        files[where] = tmp_path / "id.txt"
        files[where].write_text("\n".join(lines) + "\n")
        line = len(lines)
        message = f"line {line}: node id of 5000 digits out of range for graph on 2 nodes"
    else:
        formula = f"p & {where}{_LONG_RUN} p"
        message = "counting index of 5000 digits is too long (at position 6)"
    code, out, err = run(
        capsys, "mc", str(files["graph"]), "--formula", formula, "--global",
        "--valuation", str(files["valuation"]),
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_every_package_error_but_a_verdict_or_a_defect_is_a_precondition_error():
    """``main`` exits 2 on a :class:`PreconditionError` and names no
    subclass of it, so every refusal of input must be one."""
    import majority_illusion

    errors = {
        value
        for info in pkgutil.iter_modules(majority_illusion.__path__, "majority_illusion.")
        for value in vars(__import__(info.name, fromlist=["_"])).values()
        if isinstance(value, type) and issubclass(value, Exception)
        and not issubclass(value, Warning) and value.__module__.startswith("majority_illusion")
    }
    outside = {e.__name__ for e in errors if not issubclass(e, PreconditionError)}
    assert outside == {"InfeasibleError", "InternalInvariantError"}
    assert {"FormatError", "FormulaSyntaxError", "GraphError"} <= {e.__name__ for e in errors}


def test_canonical_text_past_the_edge_cap_is_refused_before_it_is_read(
    capsys, monkeypatch, tmp_path
):
    """A text in the writer's layout with ``MAX_EDGES + 1`` edge lines exits 2,
    naming the cap, and ``np.fromstring`` is never called on it."""
    calls = []
    fromstring = fileformat.np.fromstring

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(fileformat.np, "fromstring", spy)
    path = tmp_path / "wide.txt"
    path.write_text("n 2\n" + "0 1\n" * (MAX_EDGES + 1))
    code, out, err = run(capsys, "color", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {MAX_EDGES + 1} edge lines exceed the limit of {MAX_EDGES}\n"
    assert calls == []
    path.write_text("n 2\n" + "0 1\n" * 3)
    assert run(capsys, "color", str(path))[0] == 0
    assert calls == [12]


def test_line_reader_stops_at_the_line_past_the_edge_cap(capsys, monkeypatch, tmp_path):
    """The line reader counts edge lines as it appends them and names the
    first one past the cap; a text of exactly the cap is read."""
    monkeypatch.setattr(fileformat, "MAX_EDGES", 3)
    path = tmp_path / "wide.txt"
    path.write_text("# four edges\nn 3\n0 1\n1 2\n\n0 2\n1 0\n")
    code, out, err = run(capsys, "color", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 7: edge lines exceed the limit of 3\n"
    path.write_text("# three edges\nn 3\n0 1\n1 2\n\n0 2\n")
    assert run(capsys, "color", str(path))[0] == 0


def test_oracle_rejects_graphs_wider_than_the_masks(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "33")
    path = tmp_path / "c33.txt"
    path.write_text(graph_text)
    code, _, err = run(capsys, "oracle", str(path), "--cap", "40")
    assert code == 2
    assert "32-bit" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.txt")
    assert code == 2


def test_directory_as_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_analyze_text_and_json_agree_on_flags(capsys, tmp_path):
    samples = {
        "k4.txt": "n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
        "c4.txt": "n 4\ncolors RBRB\n0 1\n0 3\n1 2\n2 3\n",
        "path.txt": "n 3\ncolors RBR\n0 1\n1 2\n",
    }
    for name, text in samples.items():
        path = tmp_path / name
        path.write_text(text)
        _, text_out, _ = run(capsys, "analyze", str(path))
        _, json_out, _ = run(capsys, "analyze", str(path), "--format", "json")
        flags = json.loads(json_out)["network"]["flags"]
        for flag_name, value in flags.items():
            word = "yes" if value else "no"
            assert f"flag {flag_name} {word}" in text_out


def test_bad_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == 2


# --- analyze against the per-agent renderer --------------------------------


def _reference_analyze(text, fmt, p, q):
    """``millusion analyze`` as it rendered one agent at a time: the rows of
    ``agent_status``, one dict each through ``json.dumps(indent=2,
    sort_keys=True)``, or one printed line each; ``(exit code, stdout)``."""
    graph, colors = parse_graph_text(text)
    derived = colors is None
    try:
        cg = illusion_coloring(graph) if derived else ColoredGraph(graph, colors)
    except PreconditionError:  # no coloring to derive on 0 nodes
        return 2, ""
    statuses = [agent_status(cg, i) for i in range(graph.n)]
    report = classify_network(cg)
    pq = None
    if p is not None or q is not None:
        pq = pq_report(cg, Fraction(p or "1/2"), Fraction(q or "1/2"))
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "format_version": cli.SCHEMA_VERSION,
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
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0, out.getvalue()
    if derived:
        print("# coloring derived by the illusion-coloring pipeline", file=out)
        print(f"colors {coloring_to_string(cg.colors)}", file=out)
    print("node color local global opposition illusion witness", file=out)
    for s in statuses:
        witness = s.illusion_color.value if s.illusion_color else "-"
        flag = " isolated" if s.isolated else ""
        print(
            f"{s.node} {s.own_color.value} {s.local_winner.value} "
            f"{s.global_winner.value} {s.opposition.value} "
            f"{s.illusion.value} {witness}{flag}",
            file=out,
        )
    print(
        f"counts strict={report.strict_count} "
        f"weak_only={report.weak_only_count} none={report.none_count}",
        file=out,
    )
    for kind_name, value in report.to_json_dict()["flags"].items():
        print(f"flag {kind_name} {'yes' if value else 'no'}", file=out)
    print(f"chromaticity {report.chromaticity.value}", file=out)
    if pq is not None:
        for name, value in pq.to_json_dict()["flags"].items():
            print(f"pq {name} {'yes' if value else 'no'}", file=out)
    return 0, out.getvalue()


def _analyze(text, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        saved, cli.sys.stdin = cli.sys.stdin, io.StringIO(text)
        try:
            code = cli.main(["analyze", "-", *argv])
        finally:
            cli.sys.stdin = saved
    return code, out.getvalue()


_THRESHOLDS = [None, "0", "1", "1/2", "1/3", "3/4", "1e-1000"]


def _check_analyze(text, fmt, p, q):
    argv = ["--format", fmt]
    argv += ["--p", p] if p is not None else []
    argv += ["--q", q] if q is not None else []
    assert _analyze(text, argv) == _reference_analyze(text, fmt, p, q)


@settings(max_examples=300, deadline=None)
@given(
    colored_graphs(max_n=10, min_n=0),
    st.booleans(),
    st.sampled_from(["text", "json"]),
    st.sampled_from(_THRESHOLDS),
    st.sampled_from(_THRESHOLDS),
)
def test_analyze_renders_as_the_per_agent_reference(cg, colored, fmt, p, q):
    """Text and JSON, colored or derived, with and without ``--p``/``--q``
    (0, 1, 1/2, 1/3, 3/4 and 1e-1000): the same bytes as the reference."""
    _check_analyze(write_graph(cg.graph, cg.colors if colored else None), fmt, p, q)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p, q", [(None, None), ("1/4", "3/4"), ("1/2", "1/3"), ("0", "1e-1000")])
@pytest.mark.parametrize(
    "graph",
    [
        make_graph(0, []),
        random_graph(random.Random(3), 300, 0.013),
        cycle_graph(301),
        circulant_graph(400, [1, 3, 7]),
    ],
)
def test_analyze_renders_larger_graphs_as_the_reference(graph, fmt, p, q):
    """A random coloring, the illusion coloring and a derived one (no
    colors line) of graphs of a few hundred nodes."""
    rng = random.Random(graph.n)
    colorings = [random_coloring(graph.n, rng), None]
    if graph.n:
        colorings.append(illusion_coloring(graph).colors)
    for colors in colorings:
        _check_analyze(write_graph(graph, colors), fmt, p, q)


class _Tally:
    """A stdout that counts the characters written to it and keeps none."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_analyze_json_peaks_below_two_and_a_half_documents(monkeypatch):
    """``analyze --format json`` on an illusion-coloured 4000-node cycle,
    an 879 408-character document, joins its agents list once and copies
    no whole document after it: the traced peak stays below 2.5 times the
    document (3.4 times when the list was spliced into one string)."""
    cg = illusion_coloring(cycle_graph(4000))
    text = write_graph(cg.graph, cg.red)
    for traced in (False, True):  # the first call builds the parser
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out = _Tally()
        if traced:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert cli.main(["analyze", "--format", "json", "-"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.chars == 879_408
    assert peak < 2.5 * out.chars


def test_an_empty_graph_goes_through_color_and_analyze():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        saved, cli.sys.stdin = cli.sys.stdin, io.StringIO("n 0\n")
        try:
            assert cli.main(["color", "--mode", "weak", "-"]) == 0
        finally:
            cli.sys.stdin = saved
    colored = out.getvalue()
    assert colored == "n 0\ncolors \n"
    for fmt in ("text", "json"):
        _check_analyze(colored, fmt, None, None)
    code, report = _analyze(colored, ["--format", "json"])
    assert json.loads(report)["agents"] == []
    assert '\n  "agents": [],\n' in report


# --- exit-code contract under fuzzing ---------------------------------------


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_junk = st.text(max_size=6).filter(_not_an_int)


def _mostly(valid, other=_junk, odds=9):
    """``valid`` ``odds`` times in ``odds + 1``, else ``other``."""
    return st.tuples(st.integers(0, odds), valid, other).map(
        lambda t: t[2] if t[0] == 0 else t[1]
    )


def _choice(values):
    return _mostly(st.sampled_from(values))


# Node counts are at most 64 or above MAX_NODES, never in between.
_huge = st.integers(MAX_NODES + 1, 10**30)
_count = _mostly(st.integers(-3, 64).map(str), _huge.map(str) | _junk)
_anyint = _mostly(st.integers(-3, 70).map(str) | st.integers().map(str))
_small = st.integers(0, 12) | st.integers(0, 64)
_nodes = _mostly(_small, _huge)


def _header_free(line):
    tokens = line.split("#", 1)[0].split()
    return not tokens or tokens[0] != "n"


@st.composite
def _well_formed_graph_texts(draw):
    n = draw(_nodes)
    m = min(n, 64)  # above the cap: a short colors line, edges among 64 nodes
    lines = [f"n {n}"]
    if draw(st.booleans()):
        lines.append("colors " + draw(st.text(alphabet="RB", min_size=m, max_size=m)))
    if m > 1:
        node = st.integers(0, m - 1)
        edges = st.tuples(node, node).filter(lambda e: e[0] < e[1])
        drawn = draw(st.lists(edges, unique=True, max_size=3 * m))
        lines += [f"{u} {v}" for u, v in drawn]
    return "\n".join(lines) + "\n"


@st.composite
def _noisy_graph_texts(draw):
    n = draw(_small)
    node = st.integers(-2, n + 2)
    line = st.one_of(
        st.just(f"n {n}"),
        _huge.map("n {}".format),
        st.sampled_from(["n", "n -1", "n x", f"n {n} {n}", "colors", "# c", f"n {_LONG_RUN}"]),
        st.text(alphabet="RBx", max_size=n + 2).map(lambda c: f"colors {c}"),
        st.tuples(node, node).map(lambda e: f"{e[0]} {e[1]}"),
        st.text(max_size=12).filter(_header_free),
    )
    return "\n".join(draw(st.lists(line, max_size=3 * n + 4)))


# Decimal texts, some with exponents far beyond what Fraction can expand.
_exponent_texts = st.tuples(
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["e", "E", "e-", "e+"]),
    (st.integers(0, 12) | st.integers(0, 10**12)).map(str),
).map("".join)


_graph_texts = _mostly(_well_formed_graph_texts(), _noisy_graph_texts(), odds=3)

_formula = _mostly(
    st.recursive(
        st.sampled_from(["p", "q"]),
        lambda f: st.one_of(
            f.map("~{}".format),
            st.tuples(st.sampled_from(["<>2 ", "E_3 ", "<>0 ", "E_99999999999999999999 ",
                                       f"<>{_LONG_RUN} ", f"E_{_LONG_RUN} ",
                                       "W ", "M ", "GW ", "GM "]), f).map("".join),
            st.tuples(f, st.sampled_from([" & ", " | ", " -> "]), f).map(
                lambda t: f"({''.join(t)})"
            ),
        ),
        max_leaves=6,
    ),
    st.text(max_size=20),
    odds=3,
)
_valuation = st.lists(
    _mostly(
        st.tuples(st.integers(-2, 66), st.lists(st.sampled_from(["p", "q", "#"]), max_size=2)).map(
            lambda row: " ".join([str(row[0]), *row[1]])
        )
    ),
    max_size=6,
).map("\n".join)


def _flags(draw, options):
    """A random subset of ``options`` (flag -> value strategy, or None for
    a bare switch), in random order."""
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    argv = []
    for flag in chosen:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    return argv


@st.composite
def _invocations(draw):
    """An argv for one subcommand (or a soup of tokens), the graph text
    behind the file argument and stdin, and a valuation file's text."""
    fmt = _choice(["text", "json"])
    commands = ["gen", "color", "analyze", "feasible", "construct", "oracle", "mc", "soup"]
    command = draw(st.sampled_from(commands))
    if command == "gen":
        argv = ["gen", draw(_choice(["cycle", "complete", "circulant"])), draw(_count)]
        offsets = st.lists(_mostly(st.integers(-3, 70).map(str)), max_size=4).map(",".join)
        argv += _flags(draw, {"--offsets": offsets})
    elif command == "feasible":
        argv = ["feasible", draw(_count), draw(_anyint)] + _flags(draw, {"--format": fmt})
    elif command == "construct":
        argv = ["construct", draw(_count), draw(_anyint)]
        argv += _flags(draw, {"--fast": None, "--format": fmt})
    elif command == "soup":
        vocab = ["gen", "color", "analyze", "feasible", "construct", "oracle", "mc", "cycle",
                 "--format", "json", "--fast", "--global", "--node", "--help", "--version",
                 "-", "GRAPH"]
        argv = draw(st.lists(_mostly(st.sampled_from(vocab), _count, odds=1), max_size=8))
    else:
        faults = ["MISSING", "DIR", "LONGNAME", "LOOP"]
        file = _mostly(st.just("GRAPH"), st.sampled_from(["-", *faults]), odds=3)
        argv = [command, draw(file)]
        if command == "color":
            argv += _flags(draw, {
                "--mode": _choice(["weak", "illusion"]),
                "--initial": _choice(["all-red", "random", "as-is"]),
                "--seed": _anyint,
                "--format": fmt,
            })
        elif command == "analyze":
            fraction = _mostly(
                st.fractions().map(str), st.floats().map(str) | _exponent_texts | _junk
            )
            argv += _flags(draw, {"--p": fraction, "--q": fraction, "--format": fmt})
        elif command == "oracle":
            objectives = [o.value for o in Objective]
            cap = st.integers(-3, 16) | st.integers(max_value=16)
            argv += ["--cap", draw(_mostly(cap.map(str)))]
            argv += _flags(draw, {"--objective": _choice(objectives), "--format": fmt})
        else:
            presets = _choice(list(FORMULA_KINDS))
            flag, value = draw(st.sampled_from([("--formula", _formula), ("--preset", presets)]))
            argv += [flag, draw(value)]
            argv += draw(st.sampled_from([["--global"], ["--node", draw(_anyint)]]))
            argv += _flags(draw, {
                "--atom": _mostly(st.sampled_from(["p", "q"])),
                "--valuation": _mostly(st.just("VALUATION"), st.sampled_from(faults), odds=3),
                "--format": fmt,
            })
    return argv, draw(_graph_texts), draw(_valuation)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_every_invocation_keeps_the_exit_code_contract(invocation):
    """``main`` returns 0, 1 or 2 and never raises, whatever the
    subcommand, graph text, formula text and argument values: no input is
    a defect, which would exit 3.  Node counts
    (graph headers, ``gen``/``construct``/``feasible`` sizes) are at most 64
    or above ``MAX_NODES``, which is rejected before anything is allocated;
    counts in between would only make the run slow.  A header or a
    counting index may also be a 5000-digit run, beyond what ``int``
    reads, and a file argument or ``--valuation`` a path that cannot be
    opened: missing, a directory, a 300-character name or a symlink
    loop.  ``--p``/``--q`` texts
    include decimal exponents up to 10^12, which are rejected before
    ``Fraction`` expands them.  Oracle caps stay at most 16 (token soups
    keep the default, 22), so a scan covers at most 2^21 colorings."""
    argv, graph_text, valuation_text = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "GRAPH": os.path.join(tmp, "graph.txt"),
            "VALUATION": os.path.join(tmp, "valuation.txt"),
            "MISSING": os.path.join(tmp, "missing.txt"),
            "DIR": tmp,
            "LONGNAME": os.path.join(tmp, "x" * 300),
            "LOOP": os.path.join(tmp, "loop"),
        }
        os.symlink("loop", paths["LOOP"])
        with open(paths["GRAPH"], "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(paths["VALUATION"], "w", encoding="utf-8") as fh:
            fh.write(valuation_text)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(graph_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            saved, cli.sys.stdin = cli.sys.stdin, stdin
            try:
                code = cli.main(argv)
            finally:
                cli.sys.stdin = saved
    assert code in (0, 1, 2), (argv, code, err.getvalue())


def test_star_import_binds_only_the_api():
    """Every name in ``__all__`` imports, and none is a submodule or the
    ``__future__`` feature ``annotations``."""
    import majority_illusion

    namespace = {}
    exec("from majority_illusion import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(majority_illusion.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert "annotations" not in namespace
    assert {"ColoredGraph", "parse_formula", "illusion_possible"} <= set(namespace)


def test_one_parser_serves_successive_calls_like_fresh_ones(capsys, monkeypatch, tmp_path):
    """main builds its parser once per process; a usage error, then
    --formula and --preset checks, then --version give the output and exit
    code of a parser built for each call."""
    path = tmp_path / "c5.txt"
    path.write_text(write_graph(cycle_graph(5), coloring_from_string("RRBBB")))
    calls = [
        ["mc", str(path), "--formula", "p", "--preset", "majority-majority", "--global"],
        ["mc", str(path), "--formula", "p", "--node", "0", "--format", "json"],
        ["mc", str(path), "--preset", "majority-majority", "--node", "2"],
        ["analyze", "--p", "2"],
        ["--version"],
    ]

    def outputs():
        results = []
        for argv in calls:
            code = cli.main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    assert cli._parser() is cli._parser()
    shared = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [2, 0, 1, 2, 0]
    assert "not allowed with argument" in shared[0][2]
    assert shared[-1][1] == f"{__version__}\n"



# --- JSON lists from templates, header digits, the model checker's graph ----


_JSON_GRAPHS = [
    make_graph(0, []),
    make_graph(5, []),
    make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    random_graph(random.Random(7), 2000, 0.003),
]


def _assert_dumped(out):
    """``out`` is byte for byte what ``json.dumps(indent=2, sort_keys=True)``
    prints for the payload it holds; returns the payload.  A mismatch names
    its first differing line: pytest's diff of two reports of about 100 KB
    runs for minutes."""
    payload = json.loads(out)
    dumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out != dumped:
        lines = itertools.zip_longest(out.split("\n"), dumped.split("\n"))
        number, (got, want) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
        pytest.fail(f"line {number} reads {got!r}, json.dumps prints {want!r}")
    return payload


@pytest.mark.parametrize("graph", _JSON_GRAPHS, ids=lambda g: f"n{g.n}-m{g.edge_count}")
def test_color_and_mc_json_lists_are_laid_out_as_json_dumps(capsys, tmp_path, graph):
    """Edge lists of ``color`` and node lists of ``mc``, empty, one item
    and many, rendered from templates."""
    path = tmp_path / "g.txt"
    path.write_text(write_graph(graph))
    code, out, err = run(capsys, "color", str(path), "--mode", "weak", "--format", "json")
    assert (code, err) == (0, "")
    payload = _assert_dumped(out)
    assert payload["edges"] == [list(e) for e in graph.edges]
    path.write_text(write_graph(graph, coloring_from_string(payload["colors"])))
    model = model_from_colored_graph(parse_colored_graph(path.read_text()))
    for formula in ("p", "p & ~p", "p | ~p", "M ~p"):
        code, out, err = run(
            capsys, "mc", str(path), "--formula", formula, "--global", "--format", "json"
        )
        assert code in (0, 1) and err == ""
        nodes = _assert_dumped(out)["nodes_satisfying"]
        assert nodes == sorted(extension(model, parse_formula(formula)))


@pytest.mark.parametrize(
    "n, k, fast", [(10, 6, True), (12, 6, False), (16, 8, False), (2000, 10, False)]
)
def test_construct_json_is_laid_out_as_json_dumps(capsys, n, k, fast):
    extra = ["--fast"] if fast else []
    code, out, err = run(capsys, "construct", str(n), str(k), "--format", "json", *extra)
    assert (code, err) == (0, "")
    payload = _assert_dumped(out)
    code, text, _ = run(capsys, "construct", str(n), str(k), *extra)
    graph, colors = parse_graph_text(text)
    assert payload["edges"] == [list(e) for e in graph.edges]
    assert (payload["n"], payload["colors"]) == (n, coloring_to_string(colors))


@pytest.mark.parametrize(
    "text, line",
    [("n ²\n", 1), ("n ²\n0 1\n", 1), ("n ٣\n0 1\n", 1), ("# a comment\nn ٣\n", 2)],
)
def test_non_ascii_digits_in_the_header_are_a_format_error(capsys, tmp_path, text, line):
    """Both readers take ASCII digits only: ``n ²`` used to fail in ``int``
    (a raw message) and ``n ٣`` read as 3 nodes."""
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    message = f"error: line {line}: expected 'n <count>'\n"
    for command in ("analyze", "color"):
        assert run(capsys, command, str(path)) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["--preset", "majority-majority", "--global"],
    ["--preset", "weak-majority-illusion", "--node", "3", "--format", "json"],
    ["--formula", "<>2 p | E_3 W ~p | M q", "--global", "--format", "json"],
])
def test_mc_leaves_the_adjacency_sets_unbuilt(capsys, monkeypatch, tmp_path, argv):
    cg = construct_regular_illusion(60, 9)
    path = tmp_path / "w.txt"
    path.write_text(write_graph(cg.graph, cg.colors))
    parsed = []

    def parse(text):
        parsed.append(parse_graph_text(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_graph_text", parse)
    code, _, _ = run(capsys, "mc", str(path), *argv)
    assert code in (0, 1)
    [(graph, _)] = parsed
    assert "adj" not in graph.__dict__


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_color_and_analyze_leave_the_color_tuple_unbuilt(capsys, monkeypatch, tmp_path, fmt):
    """``color | analyze``, with ``--p/--q``, reads and writes the red
    column only: no colored graph the CLI makes, from a colors line or by
    the illusion coloring, builds its ``colors`` tuple view."""
    made = []

    def recorded(make):
        def wrapper(*args):
            made.append(make(*args))
            return made[-1]

        return wrapper

    monkeypatch.setattr(cli, "ColoredGraph", recorded(ColoredGraph))
    monkeypatch.setattr(cli, "illusion_coloring", recorded(illusion_coloring))
    plain, colored = tmp_path / "g.txt", tmp_path / "c.txt"
    plain.write_text(write_graph(circulant_graph(60, [1, 3, 7])))
    for argv in (["--initial", "random", "--seed", "7"], ["--mode", "weak"]):
        code, out, _ = run(capsys, "color", str(plain), *argv)
        assert code == 0
        colored.write_text(out)
        for path in (colored, plain):
            code, _, _ = run(capsys, "analyze", str(path), "--format", fmt, "--p", "1/4", "--q", "3/4")
            assert code == 0
        assert run(capsys, "color", str(plain), *argv, "--format", fmt)[0] == 0
    assert len(made) == 8
    assert all("colors" not in cg.__dict__ for cg in made)
