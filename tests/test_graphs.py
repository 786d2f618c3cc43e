import tracemalloc

import pytest
from hypothesis import given

from majority_illusion import (
    GraphError,
    circulant_graph,
    complete_graph,
    cycle_graph,
    make_graph,
)
from majority_illusion.graphs import MAX_EDGES, MAX_NODES

from conftest import graphs


def test_triangle_degrees():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.degrees() == (2, 2, 2)
    assert g.edge_count == 3


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        make_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError, match=r"\(1, 5\)"):
        make_graph(3, [(1, 5)])


@pytest.mark.parametrize(
    "build", [lambda n: make_graph(n, []), cycle_graph, complete_graph]
)
def test_node_count_above_the_cap_rejected_before_allocating(build):
    assert MAX_NODES >= 100_000  # the 100 000-node witnesses still build
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="exceeds the limit"):
            build(MAX_NODES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "build, edges",
    [
        (lambda: complete_graph(2897), 2897 * 2896 // 2),
        (lambda: circulant_graph(MAX_NODES, range(1, 18)), MAX_NODES * 17),
        # the antipodal offset adds one edge per pair of nodes
        (lambda: circulant_graph(MAX_NODES, [*range(1, 17), MAX_NODES // 2]),
         MAX_NODES * 16 + MAX_NODES // 2),
    ],
)
def test_edge_count_above_the_budget_rejected_before_generating(build, edges):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError) as err:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"edge count {edges} exceeds the limit of {MAX_EDGES}"
    assert peak < 1 << 16


def test_duplicate_edges_collapse():
    g = make_graph(4, [(0, 1), (1, 0)])
    assert g.degrees() == (1, 1, 0, 0)
    assert g.edges == ((0, 1),)


def test_cycle_graph_is_2_regular():
    assert cycle_graph(4).degrees() == (2, 2, 2, 2)
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_complete_graph_degree():
    assert complete_graph(5).degrees() == (4,) * 5


def test_circulant_6_with_antipode_is_3_regular():
    g = circulant_graph(6, {1, 3})
    assert g.degrees() == (3,) * 6
    assert g.neighbors(2) == frozenset({1, 3, 5})


def test_circulant_offset_validation():
    with pytest.raises(GraphError):
        circulant_graph(6, {4})
    with pytest.raises(GraphError):
        circulant_graph(6, set())


def test_neighbors_and_degree_bounds():
    g = make_graph(4, [(0, 1)])
    assert g.degree(3) == 0
    with pytest.raises(GraphError):
        g.degree(4)
    with pytest.raises(GraphError):
        g.neighbors(-1)


def test_isolated_nodes_listed():
    g = make_graph(4, [(0, 1)])
    assert g.isolated_nodes() == (2, 3)


@given(graphs())
def test_handshake_sum(g):
    assert sum(g.degrees()) == 2 * g.edge_count


@given(graphs())
def test_adjacency_symmetric_and_irreflexive(g):
    for i in range(g.n):
        assert i not in g.adj[i]
        for j in g.adj[i]:
            assert i in g.adj[j]
