"""Simple undirected graphs over dense integer node ids.

Graphs are immutable after construction: every constructor validates
irreflexivity (no self-loops) and stores symmetric adjacency sets, so
instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GraphError

# Largest node count any graph may declare, checked before anything is
# allocated: a text header of a few bytes cannot ask for gigabytes.
# make_graph(MAX_NODES, []) takes about 0.7 s and 120 MB of resident
# memory on a 2-vCPU VM.
MAX_NODES = 1 << 18


@dataclass(frozen=True)
class Graph:
    """Simple, undirected, irreflexive graph on nodes ``0..n-1``.

    Build instances through :func:`make_graph` or the generators below;
    the constructor itself performs no validation.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    def degree(self, i: int) -> int:
        self.check_node(i)
        return len(self.adj[i])

    def neighbors(self, i: int) -> frozenset[int]:
        self.check_node(i)
        return self.adj[i]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adj)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return tuple(
            (u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v
        )

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        self.check_node(u)
        self.check_node(v)
        return v in self.adj[u]

    def is_regular(self, k: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        if k is None:
            return True
        return degs == {k} or (self.n == 0)

    def isolated_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self.adj[i])

    def check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise GraphError(f"node id {i} out of range for graph on {self.n} nodes")


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered node-id pairs.

    Duplicate pairs (in either orientation) collapse to a single edge.
    Raises :class:`GraphError` on a node count outside ``0..MAX_NODES``, and
    on out-of-range ids or self-loops, naming the offending pair.
    """
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    if n > MAX_NODES:
        raise GraphError(f"node count {n} exceeds the limit of {MAX_NODES}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) uses a node id outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"edge ({u}, {v}) is a self-loop")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in adj))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes (2-regular)."""
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 nodes, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n >= 1`` nodes ((n-1)-regular)."""
    if n < 1:
        raise GraphError(f"a complete graph needs at least 1 node, got {n}")
    return make_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    """Connect each node ``i`` to ``i +/- d (mod n)`` for every offset ``d``.

    Offsets must lie in ``1..n//2``; the antipodal offset ``n/2`` (even
    ``n``) contributes a single edge per node.
    """
    if n < 1:
        raise GraphError(f"a circulant graph needs at least 1 node, got {n}")
    offs = sorted(set(offsets))
    if not offs:
        raise GraphError("circulant offsets must be nonempty")
    for d in offs:
        if not 1 <= d <= n // 2:
            raise GraphError(f"offset {d} outside valid range 1..{n // 2}")
    return make_graph(n, ((i, (i + d) % n) for i in range(n) for d in offs))
