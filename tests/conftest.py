"""Shared generators and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

from majority_illusion import Color, ColoredGraph, Graph, make_graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def random_colored_graph(rng: random.Random, n: int, p: float) -> ColoredGraph:
    g = random_graph(rng, n, p)
    colors = tuple(rng.choice((Color.RED, Color.BLUE)) for _ in range(n))
    return ColoredGraph(g, colors)


def odd_degree_graph(rng: random.Random, n: int, layers: int) -> Graph:
    """Union of ``layers`` edge-disjoint perfect matchings on ``n`` (even)
    nodes; all degrees equal the odd ``layers``.

    Uses the circle-method one-factorization of the complete graph under a
    random node relabeling, taking a random subset of rounds.
    """
    assert n % 2 == 0 and layers % 2 == 1 and layers < n
    perm = list(range(n))
    rng.shuffle(perm)
    rounds = rng.sample(range(n - 1), layers)
    edges = []
    m = n - 1
    for r in rounds:
        edges.append((perm[n - 1], perm[r]))
        for i in range(1, n // 2):
            edges.append((perm[(r + i) % m], perm[(r - i) % m]))
    return make_graph(n, edges)


@lru_cache(maxsize=None)
def atlas_connected(max_n: int = 6) -> tuple[Graph, ...]:
    """All connected graphs on 1..max_n nodes, one per isomorphism class."""
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or n > max_n:
            continue
        if not nx.is_connected(ag):
            continue
        relabel = {node: idx for idx, node in enumerate(sorted(ag.nodes()))}
        out.append(
            make_graph(n, [(relabel[u], relabel[v]) for u, v in ag.edges()])
        )
    return tuple(out)


def atlas_graphs(max_n: int, min_n: int = 1):
    """Every graph on min_n..max_n nodes, one per isomorphism class,
    connected or not."""
    import networkx as nx

    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not min_n <= n <= max_n:
            continue
        relabel = {node: idx for idx, node in enumerate(sorted(ag.nodes()))}
        yield make_graph(n, [(relabel[u], relabel[v]) for u, v in ag.edges()])


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(n, chosen)


@st.composite
def colored_graphs(draw, max_n: int = 8, min_n: int = 1):
    g = draw(graphs(max_n=max_n, min_n=min_n))
    colors = tuple(
        draw(st.sampled_from((Color.RED, Color.BLUE))) for _ in range(g.n)
    )
    return ColoredGraph(g, colors)


def all_colorings(n: int):
    for mask in range(1 << n):
        yield tuple(
            Color.RED if (mask >> i) & 1 else Color.BLUE for i in range(n)
        )
