import pytest
from hypothesis import given

from majority_illusion import (
    FormatError,
    parse_colored_graph,
    parse_graph,
    parse_graph_text,
    write_colored_graph,
    write_graph,
)

from conftest import colored_graphs, graphs


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


@given(colored_graphs())
def test_canonical_writer_is_bit_exact(cg):
    text = write_colored_graph(cg)
    again = write_colored_graph(parse_colored_graph(text))
    assert again == text
