"""The recursive neighbour-list backtracker that the level-wise enumerator
replaced, kept as the reference it must match graph for graph, in order.
It yields each labeled k-regular graph on ``n`` nodes as a tuple of every
node's neighbours, ascending."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator


def reference_regular_neighbors(n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Backtrack over the lowest unsaturated node's full neighborhood
    choice; since that node is never touched again, each labeled graph
    arises from exactly one choice sequence.  Empty when ``k*n`` is odd or
    ``0 < n <= k``; on ``n = 0`` the one empty graph."""
    if (k >= n and n != 0) or (n * k) % 2 == 1:
        return
    residual = [k] * n
    # Lower neighbours join a list in ascending order before the node's own
    # choice of higher ones, so every list stays sorted.
    neighbors: list[list[int]] = [[] for _ in range(n)]

    def rec(lowest: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        u = lowest
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield tuple(map(tuple, neighbors))
            return
        need = residual[u]
        cands = [v for v in range(u + 1, n) if residual[v] > 0]
        if len(cands) < need:
            return
        for combo in combinations(cands, need):
            for v in combo:
                residual[v] -= 1
                neighbors[v].append(u)
            neighbors[u].extend(combo)
            residual[u] = 0
            yield from rec(u + 1)
            residual[u] = need
            del neighbors[u][-need:]
            for v in combo:
                residual[v] += 1
                neighbors[v].pop()

    yield from rec(0)
