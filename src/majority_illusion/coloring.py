"""Two-colorings of graphs and the constructive coloring algorithms.

A coloring is one read-only bool column, ``True`` at the red nodes.
Functions here take it as such a column or as a :data:`Coloring`, and
those that make one for a pipeline return the column.
All half-threshold comparisons use exact integer arithmetic (``2 * count``
against a set size) so ties are detected exactly.  The majority winner is
stated once, in :func:`_winner_codes`, on ints or arrays: a node's
neighbourhood, the whole graph and :func:`majority_winner` all read it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import is_
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .graphs import Graph


class TextEnum(enum.Enum):
    """An enum whose members print as their values.

    Members are singletons that compare by identity, so they hash by it
    too: the C hash of ``object``, not ``Enum``'s Python hash of the
    name, for the cached tables keyed by a member."""

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, value):
        """The member that is ``value`` or has it as its value; anything
        else raises :class:`PreconditionError` naming the choices."""
        try:
            return cls(value)
        except ValueError:
            choices = tuple(member.value for member in cls)
            raise PreconditionError(
                f"unknown {cls.__name__} {value!r}; expected one of {choices}"
            ) from None


class Color(TextEnum):
    RED = "R"
    BLUE = "B"

    @property
    def other(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


class Winner(TextEnum):
    """Outcome of a majority vote over a node set: a color, or a tie."""

    RED = "R"
    BLUE = "B"
    TIE = "tie"

    @classmethod
    def of(cls, color: Color) -> "Winner":
        return cls.RED if color is Color.RED else cls.BLUE

    @property
    def color(self) -> Color | None:
        if self is Winner.TIE:
            return None
        return Color.RED if self is Winner.RED else Color.BLUE


Coloring = tuple[Color, ...]
AnyColoring = np.ndarray | Sequence[Color]

# What the int8 winner codes of the array forms stand for, by position.
WINNER_CODES = (Winner.RED, Winner.BLUE, Winner.TIE)
_RED, _BLUE, _TIE = range(len(WINNER_CODES))


def all_red(n: int) -> Coloring:
    return (Color.RED,) * n


# Letters and colors by red flag: one table entry per node.
_LETTERS = np.frombuffer(b"BR", dtype=np.uint8)
_COLORS = np.array([Color.BLUE, Color.RED], dtype=object)


def red_column(colors: AnyColoring) -> np.ndarray:
    """``colors`` as a read-only bool column: a bool array as it is or, if
    writable, copied; anything else as a sequence of :class:`Color`."""
    if isinstance(colors, np.ndarray) and colors.dtype == bool:
        red = colors.copy() if colors.flags.writeable else colors
    else:
        red = np.fromiter(map(is_, colors, repeat(Color.RED)), bool)
    red.flags.writeable = False
    return red


def red_from_word(word: str) -> np.ndarray:
    """The read-only red column of a word of ``R`` and ``B`` letters, which
    the caller has checked: one byte compare."""
    red = np.frombuffer(word.encode("ascii"), dtype=np.uint8) == ord("R")
    red.flags.writeable = False
    return red


def coloring_from_string(text: str) -> Coloring:
    word = text.strip()
    if word.strip("RB"):
        raise PreconditionError(f"coloring string may only contain 'R' and 'B': {text!r}")
    return tuple(_COLORS.take(red_from_word(word).view(np.uint8)))


def coloring_to_string(colors: AnyColoring) -> str:
    """One letter per node, ``R`` or ``B``: one byte-table ``take``."""
    return _LETTERS.take(red_column(colors).view(np.uint8)).tobytes().decode("ascii")


def random_coloring(n: int, rng: random.Random) -> np.ndarray:
    """``n`` colors as ``rng.choice((RED, BLUE))`` draws them node by node,
    and ``rng`` left where those draws leave it.  Each such ``choice`` takes
    32-bit words until one has its top bit clear and reads its bit 30 (0 is
    red), so the words come in bulk and ``rng`` then moves on by those used."""
    start = None if isinstance(rng, random.SystemRandom) else rng.getstate()
    words, m = np.empty(0, dtype="<u4"), 2 * n + 64
    while np.count_nonzero(words < 1 << 31) < n:
        drawn = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        words = np.append(words, np.frombuffer(drawn, dtype="<u4"))
    kept = np.flatnonzero(words < 1 << 31)[:n]
    if start is not None:  # a SystemRandom has no stream to keep
        rng.setstate(start)
        rng.getrandbits(32 * (int(kept[-1]) + 1) if n else 0)
    return red_column(words[kept] < 1 << 30)


def _winner_codes(red: int | np.ndarray, total: int | np.ndarray) -> np.ndarray:
    """Majority winners, as :data:`WINNER_CODES` indices, of ``total`` votes
    of which ``red`` are red, on ints or elementwise on arrays: ``TIE``
    where neither color holds strictly more than half (in particular where
    ``total`` is 0)."""
    return np.where(2 * red > total, _RED, np.where(2 * red < total, _BLUE, _TIE))


def majority_winner(colors: Iterable[Color]) -> Winner:
    """Majority winner of a multiset of colors; ``TIE`` when neither color
    holds strictly more than half (in particular for the empty multiset)."""
    colors = tuple(colors)
    return WINNER_CODES[_winner_codes(colors.count(Color.RED), len(colors))]


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """A graph together with a total Red/Blue assignment, held as the
    read-only bool column :attr:`red` (``True`` at red nodes).  The
    constructor takes a coloring in either form (see :func:`red_column`)."""

    graph: Graph
    red: np.ndarray

    def __post_init__(self) -> None:
        red = red_column(self.red)
        if red.shape != (self.graph.n,):
            raise PreconditionError(
                f"coloring covers {len(red)} nodes, graph has {self.graph.n}"
            )
        object.__setattr__(self, "red", red)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.red, other.red)

    def __hash__(self) -> int:
        return hash((self.graph, self.red.tobytes()))

    @cached_property
    def colors(self) -> Coloring:
        """Every node's :class:`Color`, for readers outside the package."""
        return tuple(_COLORS.take(self.red.view(np.uint8)).tolist())

    @cached_property
    def color_counts(self) -> tuple[int, int]:
        """``(red, blue)`` node counts."""
        red = int(np.count_nonzero(self.red))
        return red, self.graph.n - red

    @cached_property
    def red_neighbor_array(self) -> np.ndarray:
        """Red neighbours of every node, tallied once per colored graph: the
        neighbours' red flags summed over each row by
        :meth:`Graph.neighbor_sums`.  A read-only int64 array."""
        counts = self.graph.neighbor_sums(self.red)
        counts.flags.writeable = False
        return counts

    @cached_property
    def local_winner_codes(self) -> np.ndarray:
        """Every node's :meth:`local_winner` as an index into
        :data:`WINNER_CODES`, a read-only int8 array."""
        codes = _winner_codes(self.red_neighbor_array, np.diff(self.graph.indptr)).astype(np.int8)
        codes.flags.writeable = False
        return codes

    @cached_property
    def global_winner(self) -> Winner:
        return WINNER_CODES[_winner_codes(self.color_counts[0], self.graph.n)]

    def local_red_count(self, i: int) -> int:
        self.graph.check_node(i)
        return int(self.red_neighbor_array[i])

    def local_winner(self, i: int) -> Winner:
        self.graph.check_node(i)
        return WINNER_CODES[self.local_winner_codes[i]]

    def with_flipped(self, i: int) -> "ColoredGraph":
        red = self.red.copy()
        red[i] = not red[i]
        return ColoredGraph(self.graph, red)

    def with_inverted(self) -> "ColoredGraph":
        return ColoredGraph(self.graph, ~self.red)


def monochromatic_count(cg: ColoredGraph) -> tuple[int, int]:
    """``(monochromatic, dichromatic)`` edge counts; they sum to ``|E|``."""
    u, v = cg.graph.edge_arrays()
    mono = int(np.count_nonzero(cg.red[u] == cg.red[v]))
    return mono, cg.graph.edge_count - mono


def is_weak_majority_coloring(g: Graph, colors: AnyColoring) -> bool:
    """True when no node's own color wins a strict majority of its neighborhood."""
    cg = ColoredGraph(g, colors)
    return not np.any(cg.local_winner_codes == np.where(cg.red, _RED, _BLUE))


def weak_majority_2_coloring(g: Graph, initial: AnyColoring | None = None) -> np.ndarray:
    """Local-search coloring in which every node has at least as many
    dichromatic as monochromatic edges, as a read-only bool column.

    Repeatedly swaps the lowest-id node with strictly more monochromatic
    than dichromatic edges.  Each swap strictly decreases the total
    monochromatic count, so the loop terminates after at most ``|E|`` swaps.
    The default initial coloring is all-red; pass a seeded
    :func:`random_coloring` for randomized starts.  The lowest violator is
    found by a forward scan of violation flags, a byte per node, so a run
    costs ``O(n + swaps * maxdeg)`` Python steps plus those scans in C.
    """
    colors, _ = weak_majority_2_coloring_swaps(g, initial)
    return colors


def weak_majority_2_coloring_swaps(
    g: Graph, initial: AnyColoring | None = None
) -> tuple[np.ndarray, int]:
    """Like :func:`weak_majority_2_coloring` but also returns the number of
    swaps performed.

    The swap sequence is that of rescanning the nodes in ascending id from
    the start after every swap.  Each node keeps its red lead, ``2 * red
    neighbours - degree``; red nodes violate above 0, blue ones below, and
    the violators are the set bytes of a ``bytearray``.  A swap moves its
    neighbours' leads by 2 and can flag only them, so the next target is the
    first flag from the swapped node or the lowest neighbour it flagged.
    Cost ``O(n + swaps * maxdeg)`` Python steps plus forward byte scans in C.
    """
    start = red_column(initial if initial is not None else np.ones(g.n, dtype=bool))
    if start.shape != (g.n,):
        raise PreconditionError("initial coloring must cover every node")

    bounds = g.indptr.tolist()
    flat = memoryview(g.indices)  # rows read only as swapped: no list of every id
    lead = 2 * g.neighbor_sums(start) - np.diff(g.indptr)
    flags = bytearray(np.where(start, lead > 0, lead < 0).tobytes())
    budget = (int(np.where(start, lead, -lead).sum()) + len(flat)) // 4  # mono edges at start
    lead = lead.tolist()
    colors = start.tolist()
    swaps = low = 0
    while (target := flags.find(1, low)) >= 0:
        if swaps >= budget:
            raise InternalInvariantError("swap loop exceeded its monochromatic-edge budget")
        swaps += 1
        flags[target] = 0
        low = target + 1
        if colors[target]:  # red to blue: every neighbour's lead falls by 2
            colors[target] = False
            for j in flat[bounds[target] : bounds[target + 1]]:
                lead[j] = m = lead[j] - 2
                if colors[j]:
                    if m <= 0:
                        flags[j] = 0
                elif m < 0:
                    flags[j] = 1
                    low = min(low, j)
        else:  # blue to red: every neighbour's lead rises by 2
            colors[target] = True
            for j in flat[bounds[target] : bounds[target + 1]]:
                lead[j] = m = lead[j] + 2
                if colors[j]:
                    if m > 0:
                        flags[j] = 1
                        low = min(low, j)
                elif m >= 0:
                    flags[j] = 0
    return red_column(np.frombuffer(bytes(colors), dtype=bool)), swaps


def illusion_coloring(g: Graph, initial: AnyColoring | None = None) -> ColoredGraph:
    """Color ``g`` so that strictly more than half the nodes disagree locally
    with the global majority winner (a majority-weak-majority illusion).

    Starts from a stabilized weak majority 2-coloring.  While the global
    vote ties and at most half the nodes see a non-tied neighborhood, the
    lowest-id node with a tied neighborhood is flipped (which preserves the
    monochromatic total) and the coloring re-stabilized.  Every iteration
    either finishes or strictly lowers the monochromatic total, so the loop
    terminates; the guarantee is checked before returning and a violation
    raises :class:`InternalInvariantError`.
    """
    if g.n < 1:
        raise PreconditionError("illusion coloring needs at least one node")
    result = ColoredGraph(g, weak_majority_2_coloring(g, initial))
    for _ in range(g.edge_count + 2):
        if result.global_winner is not Winner.TIE:
            break
        tied = np.flatnonzero(result.local_winner_codes == _TIE)
        if 2 * (g.n - len(tied)) > g.n:
            break
        flip = result.with_flipped(int(tied[0])).red
        result = ColoredGraph(g, weak_majority_2_coloring(g, flip))
    glob = WINNER_CODES.index(result.global_winner)
    under = int(np.count_nonzero(result.local_winner_codes != glob))
    if not 2 * under > g.n:
        raise InternalInvariantError(
            f"illusion coloring left only {under} of {g.n} nodes in disagreement"
        )
    return result


def proper_2_coloring(g: Graph) -> np.ndarray | None:
    """Proper 2-coloring (zero monochromatic edges) if ``g`` is bipartite, as
    a read-only bool column.

    Deterministic: breadth-first from the lowest-id node of each component,
    roots colored red.  Returns ``None`` on any odd cycle.
    """
    bounds = g.indptr.tolist()
    flat = g.indices.tolist()
    colors: list[bool | None] = [None] * g.n
    for root in range(g.n):
        if colors[root] is not None:
            continue
        colors[root] = True
        queue = [root]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for v in flat[bounds[u] : bounds[u + 1]]:
                    if colors[v] is None:
                        colors[v] = not colors[u]
                        nxt.append(v)
                    elif colors[v] is colors[u]:
                        return None
            queue = nxt
    return red_column(np.frombuffer(bytes(colors), dtype=bool))


def strict_illusion_from_proper(g: Graph) -> ColoredGraph | None:
    """Coloring with at least half the nodes under strict majority illusion,
    derived from a proper 2-coloring.

    Returns ``None`` when ``g`` is not bipartite, or when the proper
    coloring's global vote ties and no node has all neighbors of degree
    above 2 (the two failure reasons are independently checkable via
    :func:`proper_2_coloring` and the degree condition).  With a non-tied
    global vote the proper coloring itself is returned; on a tie the
    lowest-id qualifying node is flipped, leaving exactly ``n/2`` nodes
    whose neighborhood majority opposes the new global winner.
    """
    base = proper_2_coloring(g)
    if base is None:
        return None
    cg = ColoredGraph(g, base)
    if cg.global_winner is not Winner.TIE:
        _require_strict_count(cg, minimum=g.n // 2 + 1)
        return cg
    pick = _first_unflagged(g, np.diff(g.indptr) <= 2)
    if pick is None:
        return None
    out = cg.with_flipped(pick)
    _require_strict_count(out, minimum=g.n // 2)
    return out


def odd_degree_swap_upgrade(cg: ColoredGraph) -> ColoredGraph | None:
    """Upgrade a globally-tied weak majority coloring on an all-odd-degree
    graph to one with at least half the nodes under strict majority illusion.

    A node is swappable when every neighbor's color margin is at least 2
    (hence at least 3, margins being odd).  Flipping the lowest-id swappable
    node resolves the global tie while every previously minority-majority
    neighborhood keeps its winner.  Returns ``None`` when no node is
    swappable; raises :class:`PreconditionError` when some degree is even,
    the coloring is not a weak majority 2-coloring, or the global vote is
    not tied.
    """
    g = cg.graph
    if any(d % 2 == 0 for d in g.degrees()):
        raise PreconditionError("all node degrees must be odd")
    if not is_weak_majority_coloring(g, cg.red):
        raise PreconditionError("coloring is not a weak majority 2-coloring")
    if cg.global_winner is not Winner.TIE:
        raise PreconditionError("global vote must be tied")

    margin = np.abs(2 * cg.red_neighbor_array - np.diff(g.indptr))
    pick = _first_unflagged(g, margin < 2)
    if pick is None:
        return None
    out = cg.with_flipped(pick)
    _require_strict_count(out, minimum=(g.n + 1) // 2)
    return out


def _first_unflagged(g: Graph, flags: np.ndarray) -> int | None:
    """The lowest node with no flagged neighbour, or ``None``."""
    free = np.flatnonzero(g.neighbor_sums(flags) == 0)
    return int(free[0]) if len(free) else None


def _require_strict_count(cg: ColoredGraph, minimum: int) -> None:
    gw = WINNER_CODES.index(cg.global_winner)
    strict = 0 if gw == _TIE else int(np.count_nonzero(cg.local_winner_codes == 1 - gw))
    if strict < minimum:
        raise InternalInvariantError(
            f"expected at least {minimum} nodes under strict illusion, found {strict}"
        )
