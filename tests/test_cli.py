import contextlib
import io
import json
import os
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import majority_illusion.cli as cli
from majority_illusion import (
    InternalInvariantError,
    Objective,
    classify_network,
    is_weak_majority_coloring,
    parse_colored_graph,
    parse_graph,
)
from majority_illusion.graphs import MAX_EDGES, MAX_NODES, check_size
from majority_illusion.logic import FORMULA_KINDS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    g = parse_graph(out)
    assert g.degrees() == (2,) * 5


def test_gen_circulant_requires_offsets(capsys):
    code, _, err = run(capsys, "gen", "circulant", "6")
    assert code == 2
    assert "offsets" in err


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
    code, _, err = run(capsys, "construct", "6", "4")
    assert code == 1
    assert "minority-pool" in err


def test_oracle_min_monochromatic(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(
        capsys, "oracle", str(path), "--objective", "min-monochromatic"
    )
    assert code == 0
    assert "score 1" in out


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
        st.sampled_from(["n", "n -1", "n x", f"n {n} {n}", "colors", "# c"]),
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
        file = _mostly(st.just("GRAPH"), st.sampled_from(["-", "MISSING", "DIR"]), odds=3)
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
                "--valuation": st.just("VALUATION"),
                "--format": fmt,
            })
    return argv, draw(_graph_texts), draw(_valuation)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_every_invocation_keeps_the_exit_code_contract(invocation):
    """``main`` returns 0, 1, 2 or 3 and never raises, whatever the
    subcommand, graph text, formula text and argument values.  Node counts
    (graph headers, ``gen``/``construct``/``feasible`` sizes) are at most 64
    or above ``MAX_NODES``, which is rejected before anything is allocated;
    counts in between would only make the run slow.  ``--p``/``--q`` texts
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
        }
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
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
