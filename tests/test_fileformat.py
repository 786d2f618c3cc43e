import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majority_illusion import (
    FormatError,
    Graph,
    GraphError,
    coloring_from_string,
    cycle_graph,
    make_graph,
    parse_colored_graph,
    parse_graph,
    parse_graph_text,
    write_colored_graph,
    write_graph,
)

from majority_illusion.coloring import coloring_to_string
from majority_illusion.fileformat import _parse_canonical, parse_valuation_text
from majority_illusion.graphs import MAX_NODES

from conftest import as_coloring, colored_graphs, graphs, reference_make_graph


def test_parse_basic_graph():
    g = parse_graph("n 3\n0 1\n1 2\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nn 2\n0 1  # trailing\n"
    g = parse_graph(text)
    assert g.edges == ((0, 1),)


def test_colored_graph_round_trip():
    text = "n 4\ncolors RBRB\n0 1\n0 3\n1 2\n2 3\n"
    cg = parse_colored_graph(text)
    assert write_colored_graph(cg) == text


def test_writer_canonicalizes_edge_order():
    cg = parse_colored_graph("n 4\ncolors RBRB\n3 0\n2 3\n1 2\n0 1\n")
    assert write_colored_graph(cg) == "n 4\ncolors RBRB\n0 1\n0 3\n1 2\n2 3\n"


def test_missing_header_rejected():
    with pytest.raises(FormatError, match="header"):
        parse_graph("0 1\n")


def test_bad_colors_length_rejected():
    with pytest.raises(FormatError, match="colors"):
        parse_colored_graph("n 3\ncolors RB\n0 1\n")


def test_missing_colors_rejected_for_colored_parse():
    with pytest.raises(FormatError, match="colors"):
        parse_colored_graph("n 2\n0 1\n")


def test_colors_survive_anywhere_after_header():
    g, colors = parse_graph_text("n 2\n0 1\ncolors RB\n")
    assert colors is not None


@pytest.mark.parametrize(
    "text, message",
    [
        ("n x\n", "line 1: expected 'n <count>'"),
        ("n 2\ncolors RB\ncolors RB\n", "line 3: duplicate 'colors' line"),
        ("n 2\ncolors\n", "line 2: expected 'colors <RB string>'"),
        ("n 2\n0 a\n", "line 2: non-integer node id"),
    ],
)
def test_malformed_lines_are_named(text, message):
    with pytest.raises(FormatError) as err:
        parse_graph_text(text)
    assert str(err.value) == message


def test_self_loop_reported_as_format_error():
    with pytest.raises(FormatError, match="self-loop"):
        parse_graph("n 2\n1 1\n")


@given(graphs())
def test_write_parse_identity_on_structure(g):
    parsed = parse_graph(write_graph(g))
    assert parsed.n == g.n
    assert parsed.edges == g.edges


def _reference_write(graph, colors=None):
    """The writer the name words replaced, as a reference: a table of
    f-string names per node and end, joined once."""
    head = f"n {graph.n}\n"
    if colors is not None:
        head += f"colors {coloring_to_string(colors)}\n"
    left = np.array([f"{i} " for i in range(graph.n)], dtype=object)
    right = np.array([f"{i}\n" for i in range(graph.n)], dtype=object)
    u, v = graph.edge_arrays()
    body = np.empty((len(u), 2), dtype=object)
    body[:, 0] = left[u]
    body[:, 1] = right[v]
    return head + "".join(body.ravel().tolist())


# 0 and 1 nodes, each side of every power of ten up to 10^5, and the cap:
# every name width a word holds
_WRITER_NODE_COUNTS = sorted(
    {0, 1, MAX_NODES} | {10**p + d for p in range(1, 6) for d in (-1, 0, 1)}
)


@st.composite
def _wide_graphs(draw):
    """A graph on one of the counts above, its edges between random ids and
    the ids near 0, the powers of ten and the top, always with an edge at
    the highest id, and maybe a seeded coloring."""
    n = draw(st.sampled_from(_WRITER_NODE_COUNTS))
    if n < 2:
        return make_graph(n, []), draw(st.sampled_from([None, np.ones(n, dtype=bool)]))
    near = sorted({0, 1, n - 2, n - 1} | {i for p in range(1, 6) for i in (10**p - 1, 10**p) if i < n})
    ids = st.integers(0, n - 1) | st.sampled_from(near)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    top = draw(st.integers(0, n - 2))
    edges = [(u, v) for u, v in pairs if u != v] + [(top, n - 1)]
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    colors = None if seed is None else np.random.default_rng(seed).random(n) < 0.5
    return make_graph(n, edges), colors


@settings(max_examples=60, deadline=None)
@given(_wide_graphs())
def test_writer_matches_the_name_table_writer(case):
    graph, colors = case
    assert write_graph(graph, colors) == _reference_write(graph, colors)


def test_writer_writes_the_widest_names():
    text = write_graph(make_graph(MAX_NODES, [(0, MAX_NODES - 1)]))
    assert text == f"n {MAX_NODES}\n0 {MAX_NODES - 1}\n"


def test_every_name_and_its_separator_fit_in_a_word():
    assert len(str(MAX_NODES - 1)) <= 7


def test_writer_refuses_a_node_count_above_the_cap():
    """A bare graph skips make_graph's cap, so the writer checks it: the
    cap is what bounds a name and its separator to one 8-byte word."""
    graph = Graph(MAX_NODES + 1, np.zeros(MAX_NODES + 2, dtype=np.int64), np.empty(0, dtype=np.int64))
    with pytest.raises(GraphError, match="exceeds the limit"):
        write_graph(graph)


def test_writer_peak_memory_is_a_few_times_its_text():
    graph = cycle_graph(200000)
    tracemalloc.start()
    try:
        text = write_graph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text)


@given(colored_graphs(min_n=0))
def test_canonical_writer_is_bit_exact(cg):
    text = write_colored_graph(cg)
    again = write_colored_graph(parse_colored_graph(text))
    assert again == text


def _reference_parse(text):
    """The line-by-line reader as it stood before the array path, on the
    set-based builder: ``(n, adj, colors)``, or a FormatError.  A bare
    ``colors`` line is the empty coloring of a 0-node graph, as the writer
    emits it, and a node count is ASCII digits (``n ٣`` was read as 3 and
    ``n ²`` failed in ``int``)."""
    n = None
    colors = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate 'n' header")
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise FormatError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
        elif parts[0] == "colors":
            if n is None:
                raise FormatError(f"line {lineno}: 'colors' before 'n' header")
            if colors is not None:
                raise FormatError(f"line {lineno}: duplicate 'colors' line")
            if len(parts) != 2 and not (len(parts) == 1 and n == 0):
                raise FormatError(f"line {lineno}: expected 'colors <RB string>'")
            word = parts[1] if len(parts) == 2 else ""
            if len(word) != n or any(ch not in "RB" for ch in word):
                raise FormatError(
                    f"line {lineno}: colors must be {n} characters from {{R,B}}"
                )
            colors = coloring_from_string(word)
        else:
            if n is None:
                raise FormatError(f"line {lineno}: edge before 'n' header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'u v' edge pair")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer node id") from None
            edges.append((u, v))
    if n is None:
        raise FormatError("missing 'n <count>' header")
    try:
        adj = reference_make_graph(n, edges)
    except Exception as exc:
        raise FormatError(str(exc)) from exc
    return n, adj, colors


# Ids of 19 digits and more: in int64 (10**18, 2**63 - 1) and past it, where
# text-mode np.fromstring saturates; leading zeros, long and short.
_LONG_IDS = [str(10**18), str(2**63 - 1), str(2**63), "9" * 19, "9" * 20, "9" * 40,
             "0" * 19 + "1", "0" * 25]
_TOKENS = ["+1", "1_0", "٣", "²", "007", "00", str(2**63 + 1), "9" * 25, "-1", "x", *_LONG_IDS]


@st.composite
def _graph_texts(draw):
    """Mostly writer layout (the array path), then edited: comments, blank
    lines, CRLF ends, tabs and double spaces, odd tokens ('+1', '1_0', an
    Arabic-Indic digit, leading zeros, ids of 2^63 and above), lines of one
    or three tokens, and colors lines that are misplaced, repeated or wrong."""
    n = draw(st.integers(0, 9))
    ids = list(range(n))
    bad = not draw(st.integers(0, 3))
    if bad:  # self-loops, ids past the end, in int64 and beyond it
        ids += [n, 10**18, 2**63 - 1, 2**63, 10**25]
    pairs = [(u, v) for u in ids for v in ids if bad or u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    letters = draw(st.sampled_from(["RB", "RB", "RBX"]))
    colors = draw(st.none() | st.text(letters, min_size=n, max_size=n))
    lines = [f"n {n}"]
    if colors is not None:
        lines.append(f"colors {colors}")
    lines += [f"{u} {v}" for u, v in chosen]
    edits = draw(st.just([]) | st.lists(st.integers(0, 11), max_size=3))
    for edit in edits:
        at = draw(st.integers(0, len(lines)))
        token = draw(st.sampled_from(_TOKENS) | st.integers(0, n + 1).map(str))
        if edit == 0:
            lines.insert(at, "# a comment")
        elif edit == 1:
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == 2 and at < len(lines):
            lines[at] += "  # trailing"
        elif edit == 3:
            lines.insert(at, f"{token} {draw(st.integers(0, n + 1))}")
        elif edit == 4:
            lines.insert(at, draw(st.sampled_from([token, f"0 1 {token}", f"{token} 1 2 3"])))
        elif edit == 5:
            lines.insert(at, f"colors {draw(st.text('RBX', max_size=n + 1))}")
        elif edit == 6 and at < len(lines):
            lines[at] = lines[at].replace(" ", draw(st.sampled_from(["\t", "  ", " \t "])), 1)
        elif edit == 7 and at < len(lines):
            lines[at] = draw(st.sampled_from([" ", "\t"])) + lines[at]
        elif edit == 8 and at < len(lines):
            lines[at] += draw(st.sampled_from([" ", "\t", "\r"]))
        elif edit == 9:
            lines.insert(at, draw(st.sampled_from(["n 3", "n 05", f"n {n}", "n", "n ٣"])))
        elif edit == 10 and lines:
            lines[0] = draw(st.sampled_from(
                ["n 0" + str(n), f"n  {n}", f"n {n} ", f"#x\nn {n}", "n ٣", "n ²", "n " + "0" * 20 + "3"]
            ))
        elif edit == 11:
            lines.insert(at, f"{2**63 + at} {token}")
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, end, "", end + end]))


@st.composite
def _token_soups(draw):
    """A header, then digit runs (some empty) each followed by a space or a
    line end, and maybe a last run with no line end: texts whose breaks fall
    between the wrong tokens."""
    n = draw(st.integers(0, 4))
    runs = st.sampled_from(["", "0", "1", "2", "3", "12"])
    body = draw(st.lists(st.tuples(runs, st.sampled_from([" ", "\n"])), max_size=8))
    return f"n {n}\n" + "".join(a + b for a, b in body) + draw(runs)


@settings(max_examples=500)
@given(_graph_texts() | _token_soups())
def test_array_path_matches_the_line_reader(text):
    _assert_read_as_the_line_reader_reads(text)


def _assert_read_as_the_line_reader_reads(text):
    """Same graph and colors, or the same FormatError message, as the line
    reader on the set-based builder."""
    try:
        n, adj, colors = _reference_parse(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            parse_graph_text(text)
        assert str(err.value) == str(exc)
        return
    graph, got_colors = parse_graph_text(text)
    assert (graph.n, graph.adj, as_coloring(got_colors)) == (n, adj, colors)


# Edge cases of the array path, each in the writer's layout unless noted,
# with whether that path reads it (True) or hands it to the line reader.
_EDGE_CASES = [
    ("n 3\n", True),  # empty body
    ("n 3\ncolors RBR\n", True),  # colors-only body
    ("n 0\ncolors \n", True),
    ("n 3", True),  # a header with no line end
    ("n 3\ncolors RBR", True),  # a colors line with no line end
    ("n 3\ncolors RB\n", False),
    ("n 3\ncolors RBX\n0 1\n", False),
    ("n 2\ncolors RB\ncolors RB\n", False),
    ("n 3\n\n", False),
    ("n 3\n0 1\n1 2", False),  # no final newline
    ("n 3\n0 1\n1 2 \n", False),  # trailing space
    ("n 3\n0 1 \n", False),
    ("n 3\n 1\n", False),
    ("n 3\n \n", False),  # separators alone read as one 0
    ("n 3\n \n \n", False),
    ("n 9\n007 0002\n", True),  # leading zeros, as int() reads them
    ("n 3\n" + "0" * 30 + "1 2\n", True),
    ("n 3\n0 3\n", False),  # ids >= n
    ("n 0\n0 1\n", False),
    (f"n 3\n0 {10**18}\n", False),  # 19 digits, in int64
    (f"n 3\n0 {2**63 - 1}\n", False),
    (f"n 3\n0 {2**63}\n", False),  # past int64: saturates in fromstring
    ("n 3\n0 1\n" + "9" * 20 + " 1\n", False),
    ("n 3\n1 " + "9" * 40 + "\n", False),
    ("n 3\n" + "1" * 25 + " " + "1" * 25 + "\n", False),
    ("n ٣\n0 1\n", False),  # non-ASCII digits in the count
    ("n ²\n0 1\n", False),
]


@pytest.mark.parametrize("text, fast", _EDGE_CASES)
def test_array_path_edge_cases_match_the_line_reader(text, fast):
    """The path each edge case takes, and the line reader's graph or
    FormatError, with every warning an error: text-mode fromstring warns
    on none of them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_parse_canonical(text) is not None) == fast
        _assert_read_as_the_line_reader_reads(text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("n 4\n0 ٣\n1 2\n", ((0, 3), (1, 2))),  # int() reads ٣ as 3
        ("n 4\ncolors RRBB\n٣ 1\n", ((1, 3),)),
        ("n 3\n0 ٣\n", "edge (0, 3) uses a node id outside 0..2"),
    ],
)
def test_a_non_ascii_digit_in_the_body_goes_to_the_line_reader(text, outcome):
    """The byte layout check sends a body that is not ASCII to the line
    reader, which reads it as it did before that check: the same edges,
    or the same message."""
    assert _parse_canonical(text) is None
    if isinstance(outcome, str):
        with pytest.raises(FormatError) as exc:
            parse_graph_text(text)
        assert str(exc.value) == outcome
    else:
        assert parse_graph_text(text)[0].edges == outcome


@given(colored_graphs(max_n=12, min_n=0), st.booleans())
def test_writer_output_takes_the_array_path(cg, with_colors):
    text = write_graph(cg.graph, cg.colors if with_colors else None)
    parsed = _parse_canonical(text)
    assert parsed is not None
    n, colors, edges = parsed
    assert (n, as_coloring(colors)) == (cg.graph.n, cg.colors if with_colors else None)
    assert edges.tolist() == [list(e) for e in cg.graph.edges]


@pytest.mark.parametrize("prefix", ["", "# through the line reader\n"])
def test_a_zero_node_coloring_round_trips(prefix):
    """The writer's "colors " line for a 0-node graph reads back as the
    empty coloring, on both readers; on more nodes it stays an error."""
    g = make_graph(0, [])
    text = write_graph(g, ())
    assert text == "n 0\ncolors \n"
    for graph, colors in (parse_graph_text(prefix + text), parse_graph_text(prefix + "n 0\ncolors\n")):
        assert (graph, as_coloring(colors)) == (g, ())
    assert (_parse_canonical(prefix + text) is None) == bool(prefix)
    with pytest.raises(FormatError, match="line 2: expected 'colors <RB string>'"):
        parse_graph_text("n 2\ncolors \n")
    with pytest.raises(FormatError, match="line 2: expected 'colors <RB string>'"):
        parse_graph_text("n 2\ncolors\n0 1\n")


@pytest.mark.parametrize("digits", [4301, 5000])
@pytest.mark.parametrize("sign", ["", "-"])
def test_a_node_id_too_long_for_int_is_outside_the_graph_in_every_reader(digits, sign):
    """``int`` refuses a digit run past its 4300-digit limit.  Each reader
    (the canonical one hands the text on) names such an id out of range,
    by its line and digit count, and none of its digits; a token of other
    characters stays a non-integer."""
    token = sign + "1" * digits
    message = f"line 2: node id of {digits} digits out of range for graph on 2 nodes"
    for text in (f"n 2\n0 {token}\n", f"n 2\n{token} 1 # line reader\n"):
        with pytest.raises(FormatError) as err:
            parse_graph_text(text)
        assert str(err.value) == message
    with pytest.raises(FormatError) as err:
        parse_valuation_text(f"# c\n{token} p\n", 2, ("p",))
    assert str(err.value) == message
    for text in (f"n 2\n0 {token}x\n", f"n 2\n0 +-{token}\n"):
        with pytest.raises(FormatError, match="^line 2: non-integer node id$"):
            parse_graph_text(text)
    with pytest.raises(FormatError, match="^line 1: non-integer node id$"):
        parse_valuation_text(f"{token}x p\n", 2, ("p",))


@st.composite
def _valuation_texts(draw):
    """A node count of 0..8, the lines of a valuation file and the atoms
    asked for: a line for some of the nodes, in any order, naming atoms
    from p, q and r, repeats allowed and none at all too, between blank and
    comment lines and with or without a trailing comment; and a subset of
    p, q, r and s."""
    n = draw(st.integers(0, 8))
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    lines = []
    for node in nodes:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# comment 0 p"]), max_size=2))
        atoms = draw(st.lists(st.sampled_from("pqr"), max_size=5))
        tail = draw(st.sampled_from(["", "  # two", "#q"]))
        lines.append(" ".join([str(node), *atoms]) + tail)
    return n, lines, draw(st.lists(st.sampled_from("pqrs"), unique=True))


def _reference_valuation(n, lines, atoms):
    """Each node's atoms as the set its line names, then each atom asked
    for and named anywhere as the list of its truth values at the nodes."""
    sets = [frozenset()] * n
    for line in lines:
        words = line.split("#")[0].split()
        if words:
            sets[int(words[0])] = frozenset(words[1:])
    named = frozenset().union(*sets) & frozenset(atoms)
    return {a: [a in s for s in sets] for a in named}


@settings(max_examples=300)
@given(_valuation_texts())
@example((3, ["# atoms", "2 q p q", "", "0"], ["p", "q", "r"]))
@example((3, ["# atoms", "2 q p q", "", "0"], ["q"]))
def test_valuation_columns_match_the_per_line_sets(case):
    n, lines, atoms = case
    columns = parse_valuation_text("\n".join(lines), n, tuple(atoms))
    assert all(c.dtype == bool and c.shape == (n,) for c in columns.values())
    assert {a: c.tolist() for a, c in columns.items()} == _reference_valuation(n, lines, atoms)


def test_a_valuation_builds_columns_only_for_the_atoms_asked_for():
    """A 29 KB line naming 5000 atoms on 20 000 nodes would make 100 MB of
    columns; asked for one atom, the parse makes one column of 20 kB, and
    still checks every line."""
    n = 20000
    text = "0 " + " ".join(f"a{i}" for i in range(5000)) + "\n1 a7\n"
    tracemalloc.start()
    try:
        columns = parse_valuation_text(text, n, ("a7", "p"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(columns) == ["a7"]
    assert np.flatnonzero(columns["a7"]).tolist() == [0, 1]
    assert peak < 10 * 2**20
    with pytest.raises(FormatError, match="line 3: duplicate node 0"):
        parse_valuation_text(text + "0 b\n", n, ())
