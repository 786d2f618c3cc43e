"""Two-colorings of graphs and the constructive coloring algorithms.

All half-threshold comparisons use exact integer arithmetic (``2 * count``
against a set size) so ties are detected exactly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from operator import is_
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .graphs import Graph


class Color(enum.Enum):
    RED = "R"
    BLUE = "B"

    @property
    def other(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED

    def __str__(self) -> str:
        return self.value


class Winner(enum.Enum):
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

    def __str__(self) -> str:
        return self.value


Coloring = tuple[Color, ...]

# What the int8 winner codes of the array forms stand for, by position.
WINNER_CODES = (Winner.RED, Winner.BLUE, Winner.TIE)
_RED, _BLUE, _TIE = range(len(WINNER_CODES))


def all_red(n: int) -> Coloring:
    return (Color.RED,) * n


# Letter to color and back, as dicts: an enum lookup by value costs
# several times more per node.
_BY_LETTER = {c.value: c for c in Color}
_LETTER = {c: c.value for c in Color}


def coloring_from_string(text: str) -> Coloring:
    try:
        return tuple(map(_BY_LETTER.__getitem__, text.strip()))
    except KeyError:
        raise PreconditionError(
            f"coloring string may only contain 'R' and 'B': {text!r}"
        ) from None


def coloring_to_string(colors: Sequence[Color]) -> str:
    return "".join(map(_LETTER.__getitem__, colors))


def flipped(colors: Sequence[Color], i: int) -> Coloring:
    """Copy of ``colors`` with node ``i``'s color swapped."""
    out = list(colors)
    out[i] = out[i].other
    return tuple(out)


def inverted(colors: Sequence[Color]) -> Coloring:
    """Copy of ``colors`` with every node's color swapped."""
    return tuple(c.other for c in colors)


def random_coloring(n: int, rng: random.Random) -> Coloring:
    return tuple(rng.choice((Color.RED, Color.BLUE)) for _ in range(n))


def _winner(red: int, total: int) -> Winner:
    """Majority winner of ``total`` votes of which ``red`` are red; ``TIE``
    when neither color holds strictly more than half (in particular when
    ``total`` is 0)."""
    if 2 * red > total:
        return Winner.RED
    if 2 * (total - red) > total:
        return Winner.BLUE
    return Winner.TIE


def majority_winner(colors: Iterable[Color]) -> Winner:
    """Majority winner of a multiset of colors; ``TIE`` when neither color
    holds strictly more than half (in particular for the empty multiset)."""
    colors = tuple(colors)
    return _winner(colors.count(Color.RED), len(colors))


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with a total Red/Blue assignment."""

    graph: Graph
    colors: Coloring

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.n:
            raise PreconditionError(
                f"coloring covers {len(self.colors)} nodes, graph has {self.graph.n}"
            )

    @cached_property
    def color_counts(self) -> tuple[int, int]:
        """``(red, blue)`` node counts."""
        red = self.colors.count(Color.RED)
        return red, self.graph.n - red

    @cached_property
    def red_mask(self) -> np.ndarray:
        """Which nodes are red, as a read-only bool array."""
        mask = np.fromiter(map(is_, self.colors, repeat(Color.RED)), bool, self.graph.n)
        mask.flags.writeable = False
        return mask

    @cached_property
    def red_neighbor_array(self) -> np.ndarray:
        """Red neighbours of every node, tallied once per colored graph: the
        neighbours' red flags summed over each row by
        :meth:`Graph.neighbor_sums`.  A read-only int64 array."""
        counts = self.graph.neighbor_sums(self.red_mask)
        counts.flags.writeable = False
        return counts

    @cached_property
    def red_neighbor_counts(self) -> tuple[int, ...]:
        """:attr:`red_neighbor_array` as a tuple of ints."""
        return tuple(self.red_neighbor_array.tolist())

    @cached_property
    def local_winner_codes(self) -> np.ndarray:
        """Every node's :meth:`local_winner` as an index into
        :data:`WINNER_CODES`, a read-only int8 array."""
        twice_red = 2 * self.red_neighbor_array
        deg = np.diff(self.graph.indptr)
        codes = np.select([twice_red > deg, twice_red < deg], [0, 1], 2).astype(np.int8)
        codes.flags.writeable = False
        return codes

    @cached_property
    def global_winner(self) -> Winner:
        return _winner(self.color_counts[0], self.graph.n)

    def local_red_count(self, i: int) -> int:
        self.graph.check_node(i)
        return self.red_neighbor_counts[i]

    def local_winner(self, i: int) -> Winner:
        self.graph.check_node(i)
        return _winner(self.red_neighbor_counts[i], self.graph._degree_list[i])

    def with_flipped(self, i: int) -> "ColoredGraph":
        return ColoredGraph(self.graph, flipped(self.colors, i))

    def with_inverted(self) -> "ColoredGraph":
        return ColoredGraph(self.graph, inverted(self.colors))


def monochromatic_count(cg: ColoredGraph) -> tuple[int, int]:
    """``(monochromatic, dichromatic)`` edge counts; they sum to ``|E|``."""
    u, v = cg.graph.edge_arrays()
    red = cg.red_mask
    mono = int(np.count_nonzero(red[u] == red[v]))
    return mono, cg.graph.edge_count - mono


def is_weak_majority_coloring(g: Graph, colors: Sequence[Color]) -> bool:
    """True when no node's own color wins a strict majority of its neighborhood."""
    cg = ColoredGraph(g, tuple(colors))
    return not np.any(cg.local_winner_codes == np.where(cg.red_mask, _RED, _BLUE))


def weak_majority_2_coloring(
    g: Graph,
    initial: Coloring | None = None,
    node_order: Sequence[int] | None = None,
) -> Coloring:
    """Local-search coloring in which every node has at least as many
    dichromatic as monochromatic edges.

    Repeatedly swaps the first node (in ``node_order``, ascending ids by
    default) with strictly more monochromatic than dichromatic edges.  Each
    swap strictly decreases the total monochromatic count, so the loop
    terminates after at most ``|E|`` swaps.  The default initial coloring is
    all-red; pass a seeded :func:`random_coloring` for randomized starts.
    The first violating node is found through a heap of positions in
    ``node_order``, so a run costs ``O((n + swaps * maxdeg) * log n)``.
    """
    colors, _ = weak_majority_2_coloring_swaps(g, initial, node_order)
    return colors


def weak_majority_2_coloring_swaps(
    g: Graph,
    initial: Coloring | None = None,
    node_order: Sequence[int] | None = None,
    on_swap: Callable[[int, int], None] | None = None,
) -> tuple[Coloring, int]:
    """Like :func:`weak_majority_2_coloring` but also returns the number of
    swaps performed; ``on_swap(node, mono_after)`` is invoked per swap.

    The swap sequence is that of rescanning ``node_order`` from the start
    after every swap: a lazy min-heap holds the position of every violating
    node (plus stale entries, dropped when popped), and a swap can create
    violations only among the swapped node's neighbors, which are pushed as
    they cross the threshold.  Cost ``O((n + swaps * maxdeg) * log n)``.
    """
    colors = list(initial) if initial is not None else [Color.RED] * g.n
    if len(colors) != g.n:
        raise PreconditionError("initial coloring must cover every node")
    order = list(node_order) if node_order is not None else list(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise PreconditionError("node_order must be a permutation of all node ids")

    bounds = g.indptr.tolist()
    flat = g.indices.tolist()
    deg = g._degree_list
    pos = np.argsort(order).tolist()  # the inverse permutation
    start = ColoredGraph(g, tuple(colors))
    red = start.red_neighbor_array
    mono_deg = np.where(start.red_mask, red, np.diff(g.indptr) - red).tolist()
    total_mono = sum(mono_deg) // 2
    swaps = 0
    budget = total_mono  # each swap strictly decreases total_mono
    # Ascending positions: already a valid heap.
    heap = [p for p, i in enumerate(order) if 2 * mono_deg[i] > deg[i]]
    while heap:
        target = order[heappop(heap)]
        d = deg[target]
        mono = mono_deg[target]
        if 2 * mono <= d:
            continue  # stale entry
        if swaps >= budget:
            raise InternalInvariantError(
                "swap loop exceeded its monochromatic-edge budget"
            )
        old = colors[target]
        colors[target] = old.other
        total_mono -= 2 * mono - d
        mono_deg[target] = d - mono
        for j in flat[bounds[target] : bounds[target + 1]]:
            if colors[j] is old:
                mono_deg[j] -= 1
            else:
                m = mono_deg[j] + 1
                mono_deg[j] = m
                if 2 * m > deg[j] >= 2 * m - 2:
                    heappush(heap, pos[j])  # just crossed the threshold
        swaps += 1
        if on_swap is not None:
            on_swap(target, total_mono)
    return tuple(colors), swaps


def illusion_coloring(g: Graph, initial: Coloring | None = None) -> ColoredGraph:
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
    colors = weak_majority_2_coloring(g, initial)
    for _ in range(g.edge_count + 2):
        cg = ColoredGraph(g, colors)
        if cg.global_winner is not Winner.TIE:
            break
        tied = np.flatnonzero(cg.local_winner_codes == _TIE)
        if 2 * (g.n - len(tied)) > g.n:
            break
        colors = weak_majority_2_coloring(g, flipped(colors, int(tied[0])))
    result = ColoredGraph(g, colors)
    glob = WINNER_CODES.index(result.global_winner)
    under = int(np.count_nonzero(result.local_winner_codes != glob))
    if not 2 * under > g.n:
        raise InternalInvariantError(
            f"illusion coloring left only {under} of {g.n} nodes in disagreement"
        )
    return result


def proper_2_coloring(g: Graph) -> Coloring | None:
    """Proper 2-coloring (zero monochromatic edges) if ``g`` is bipartite.

    Deterministic: breadth-first from the lowest-id node of each component,
    roots colored red.  Returns ``None`` on any odd cycle.
    """
    bounds = g.indptr.tolist()
    flat = g.indices.tolist()
    colors: list[Color | None] = [None] * g.n
    for root in range(g.n):
        if colors[root] is not None:
            continue
        colors[root] = Color.RED
        queue = [root]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for v in flat[bounds[u] : bounds[u + 1]]:
                    if colors[v] is None:
                        colors[v] = colors[u].other
                        nxt.append(v)
                    elif colors[v] is colors[u]:
                        return None
            queue = nxt
    return tuple(colors)  # type: ignore[arg-type]


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
    if not is_weak_majority_coloring(g, cg.colors):
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
