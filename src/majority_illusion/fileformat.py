"""Edge-list text format for graphs and colored graphs.

Layout::

    # comments run to end of line, blank lines are ignored
    n 4
    colors RBRB        # only for colored graphs, written right after the header
    0 1
    1 2

Writers emit a canonical form (header, optional colors line, edges sorted
with ``u < v``), so write/read/write round-trips are byte-identical.  The
colors line is read into a bool column (:attr:`ColoredGraph.red`) by one
byte compare.  The reader takes a text in the canonical layout (one space
inside each edge line, no comments or blank lines, every id below ``n``) as
one int64 array: one ``bytes.translate`` checks the layout and one
text-mode ``np.fromstring`` reads the ids.  Any other text goes through a
line-by-line reader, which names the line of the first fault.  Node
counts are ASCII digits.  Both readers refuse a text of more than
:data:`~majority_illusion.graphs.MAX_EDGES` edge lines before they build
its edge array: the canonical one from its line count, the line reader at
the line past the cap.  The writer lays out the edge lines from two
tables of 8-byte words, one per node and separator (the name, then ``" "``
or ``"\n"``, zero-padded): one gather per column of the edge pairs, then
one ``translate`` that drops the padding.
"""

from __future__ import annotations

import numpy as np

from .coloring import AnyColoring, ColoredGraph, coloring_to_string, red_from_word
from .errors import FormatError, GraphError
from .graphs import MAX_EDGES, Graph, check_size, make_graph


def parse_graph_text(text: str) -> tuple[Graph, np.ndarray | None]:
    """Parse the text format, returning the graph and, if present, its
    colors as a read-only bool column (``True`` at the red nodes)."""
    parsed = _parse_canonical(text)
    if parsed is None:
        n, colors, edges = _parse_lines(text)
    else:
        n, colors, edges = parsed
    try:
        graph = make_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    return graph, colors


def _parse_canonical(text: str) -> tuple[int, np.ndarray | None, np.ndarray] | None:
    """Header, colors and edge pairs of a text in the writer's layout;
    ``None`` for any other text, valid or not."""
    # The header and colors lines are found by offset, so the body is
    # copied out of the text once, as bytes.  A text with any non-ASCII
    # character (a digit such as ``٣`` among them) goes to the line reader;
    # ``str.isascii`` reads a flag of the string, not its characters.
    if not (text.isascii() and text.startswith("n ")):
        return None
    end = _line_end(text, 0)
    n = _count(text[2:end])
    if n is None:
        return None
    start = end + 1
    colors = None
    if text.startswith("colors ", start):
        end = _line_end(text, start)
        word = text[start + 7 : end]
        if len(word) != n or word.strip("RB"):
            return None
        colors = red_from_word(word)
        start = end + 1
    body = text[start:].encode("ascii")
    # Without its digits the body reads " \n" once per line, and it ends at
    # a line end: then two ids a line leave no line short.
    separators = body.translate(None, b"0123456789")
    lines = len(separators) // 2
    if separators != b" \n" * lines or body[-1:] not in (b"", b"\n"):
        return None
    if lines > MAX_EDGES:
        raise FormatError(f"{lines} edge lines exceed the limit of {MAX_EDGES}")
    # Text-mode fromstring reads a digit run beyond int64 as its largest
    # value and a body of separators alone as one 0: the length and range
    # checks send both to the line reader, which names the line.
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(ids) != 2 * lines or lines and int(ids.max()) >= n:
        return None
    return n, colors, ids.reshape(lines, 2)


def _line_end(text: str, start: int) -> int:
    """Offset of the first line end from ``start`` on, or the text's end."""
    end = text.find("\n", start)
    return len(text) if end < 0 else end


def _count(text: str) -> int | None:
    """The count ``text`` names if it is a run of ASCII digits, else ``None``:
    ``str.isdigit`` also takes digits ``int`` reads (``٣``) and digits it
    rejects (``²``), and ``int`` refuses a run past its limit (4300 digits)."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


def _parse_lines(text: str) -> tuple[int, np.ndarray | None, list[tuple[int, int]]]:
    n: int | None = None
    colors: np.ndarray | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate 'n' header")
            n = _count(parts[1]) if len(parts) == 2 else None
            if n is None:
                raise FormatError(f"line {lineno}: expected 'n <count>'")
        elif parts[0] == "colors":
            if n is None:
                raise FormatError(f"line {lineno}: 'colors' before 'n' header")
            if colors is not None:
                raise FormatError(f"line {lineno}: duplicate 'colors' line")
            # A 0-node coloring is the empty word: the writer's "colors " line.
            if len(parts) > 2 or len(parts) == 1 and n > 0:
                raise FormatError(f"line {lineno}: expected 'colors <RB string>'")
            word = "".join(parts[1:])
            if len(word) != n or any(ch not in "RB" for ch in word):
                raise FormatError(
                    f"line {lineno}: colors must be {n} characters from {{R,B}}"
                )
            colors = red_from_word(word)
        else:
            if n is None:
                raise FormatError(f"line {lineno}: edge before 'n' header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'u v' edge pair")
            u, v = _node_id(parts[0], lineno, n), _node_id(parts[1], lineno, n)
            if len(edges) == MAX_EDGES:
                raise FormatError(
                    f"line {lineno}: edge lines exceed the limit of {MAX_EDGES}"
                )
            edges.append((u, v))
    if n is None:
        raise FormatError("missing 'n <count>' header")
    return n, colors, edges


def _node_id(token: str, lineno: int, n: int) -> int:
    """The node id ``token`` names, as ``int`` reads it; a digit run past
    ``int``'s limit (4300 digits) is out of range, named by its length."""
    try:
        return int(token)
    except ValueError:
        digits = token[1:] if token[0] in "+-" else token
        if not digits.isdecimal():
            raise FormatError(f"line {lineno}: non-integer node id") from None
        message = f"node id of {len(digits)} digits out of range for graph on {n} nodes"
        raise FormatError(f"line {lineno}: {message}") from None


def parse_graph(text: str) -> Graph:
    graph, _ = parse_graph_text(text)
    return graph


def parse_colored_graph(text: str) -> ColoredGraph:
    graph, colors = parse_graph_text(text)
    if colors is None:
        raise FormatError("missing 'colors' line")
    return ColoredGraph(graph, colors)


def parse_valuation_text(text: str, n: int, atoms: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Parse ``node atom...`` lines (comments and blank lines as in the
    graph format) into one bool column of ``n`` nodes per atom of ``atoms``
    they name, ``True`` at the nodes whose line names it; every line is
    checked, but other atoms get no column.  Nodes without a line hold no
    atom; a node may have one line only."""
    wanted = frozenset(atoms)
    seen = np.zeros(n, dtype=bool)
    columns: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        node = _node_id(parts[0], lineno, n)
        if not 0 <= node < n:
            raise FormatError(
                f"line {lineno}: node id {node} out of range for graph on {n} nodes"
            )
        if seen[node]:
            raise FormatError(f"line {lineno}: duplicate node {node}")
        seen[node] = True
        for atom in (a for a in parts[1:] if a in wanted):
            if atom not in columns:
                columns[atom] = np.zeros(n, dtype=bool)
            columns[atom][node] = True
    return columns


def write_graph(graph: Graph, colors: AnyColoring | None = None) -> str:
    check_size(graph.n, 0)
    head = f"n {graph.n}\n"
    if colors is not None:
        head += f"colors {coloring_to_string(colors)}\n"
    return head + _body_words(graph).tobytes().translate(None, b"\0").decode("ascii")


def _body_words(graph: Graph) -> np.ndarray:
    """The body's ``"u v\n"`` lines as one ``(m, 2)`` array of name words:
    one gather per column.  Only their zero padding is not text.  A
    function of its own, so the name tables and the edge columns are freed
    before the writer copies the words out."""
    left, right = _name_words(graph.n)
    u, v = graph.edge_arrays()
    body = np.empty((len(u), 2), dtype=left.dtype)
    np.take(left, u, out=body[:, 0])
    np.take(right, v, out=body[:, 1])
    return body


def _name_words(n: int) -> np.ndarray:
    """Two tables of ``n`` little-endian 8-byte words: node ``i``'s ASCII
    digits then ``" "``, and its digits then ``"\n"``, each padded with
    zero bytes.  Ids below :data:`~majority_illusion.graphs.MAX_NODES` have
    at most 6 digits.  Built one digit place at a time, units first: each
    place shifts the words of the ids that have it one byte up and puts
    its digit in the first byte."""
    words = np.empty((2, n), dtype="<u8")
    words[0], words[1] = ord(" "), ord("\n")
    low, rest = 0, np.arange(n, dtype=np.uint32)  # rest: the ids from low on
    while low < n:
        rest, digit = np.divmod(rest, 10)
        words[:, low:] <<= 8
        words[:, low:] |= digit + ord("0")
        top = max(10 * low, 10)  # the first id with one more digit
        rest = rest[top - low :]
        low = top
    return words


def write_colored_graph(cg: ColoredGraph) -> str:
    return write_graph(cg.graph, cg.red)
