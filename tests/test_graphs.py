import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majority_illusion import (
    Color,
    ColoredGraph,
    Graph,
    GraphError,
    IllusionKind,
    Objective,
    best_coloring,
    circulant_graph,
    coloring_from_string,
    complete_graph,
    cycle_graph,
    enumerate_regular,
    illusion_coloring,
    illusion_possible,
    make_graph,
    odd_degree_swap_upgrade,
    proper_2_coloring,
    strict_illusion_from_proper,
    weak_majority_2_coloring,
)
from majority_illusion.errors import PreconditionError, shown
from majority_illusion.feasibility import regular_exists
from majority_illusion.graphs import MAX_EDGES, MAX_NODES, check_size

from conftest import colored_graphs, graphs, reference_make_graph


def test_triangle_degrees():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.degrees() == (2, 2, 2)
    assert g.edge_count == 3


def test_is_regular_reads_one_degree():
    path = make_graph(3, [(0, 1), (1, 2)])
    assert not path.is_regular()
    assert not path.is_regular(1)
    assert cycle_graph(5).is_regular()
    assert cycle_graph(5).is_regular(2)
    assert not cycle_graph(5).is_regular(3)


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        make_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError, match=r"\(1, 5\)"):
        make_graph(3, [(1, 5)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_graph(-1, []), "node count must be nonnegative, got -1"),
        (lambda: complete_graph(0), "a complete graph needs at least 1 node, got 0"),
        (lambda: circulant_graph(0, [1]), "a circulant graph needs at least 1 node, got 0"),
    ],
)
def test_node_count_below_the_least_rejected(build, message):
    with pytest.raises(GraphError) as err:
        build()
    assert str(err.value) == message


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


def test_an_error_message_prints_at_most_40_digits_of_a_number():
    """Up to 40 digits a number is printed as ``str`` prints it; past them
    as its exact digit count, also at and around every power of ten."""
    for value in (0, 7, -7, 10**18, 2**63, 2**64 + 3, 10**40 - 1, 1.5):
        assert shown(value) == str(value)
    for digits in range(41, 4301, 7):
        for value in (10 ** (digits - 1), 10**digits - 1, int("9" + "0" * (digits - 1)) + 1):
            assert shown(value) == f"<{digits} digits>"
            assert shown(-value) == f"-<{digits} digits>"


# The most digits int reads from text, and a count past what str prints
@pytest.mark.parametrize(
    "value, text", [(int("1" * 4300), "<4300 digits>"), (10**5000, "<5001 digits>")],
    ids=["4300 digits", "5001 digits"],
)
def test_a_huge_number_is_refused_by_its_digit_count(value, text):
    """Every size and id check refuses a number of thousands of digits as
    the input's fault, in a message of fixed length: ``str`` cannot print
    one of more than 4300 digits at all."""
    for call, message in [
        (lambda: make_graph(2, [(0, value)]), f"edge (0, {text}) uses a node id outside 0..1"),
        (lambda: make_graph(2, [(value, value)]), f"edge ({text}, {text}) uses a node id outside 0..1"),
        (lambda: make_graph(-value, []), f"node count must be nonnegative, got -{text}"),
        (lambda: cycle_graph(value), f"node count {text} exceeds the limit of {MAX_NODES}"),
        (lambda: cycle_graph(-value), f"a cycle needs at least 3 nodes, got -{text}"),
        (lambda: complete_graph(value), f"node count {text} exceeds the limit of {MAX_NODES}"),
        (lambda: check_size(5, value), f"edge count {text} exceeds the limit of {MAX_EDGES}"),
        (lambda: circulant_graph(5, [value]), f"offset {text} outside valid range 1..2"),
        (lambda: next(enumerate_regular(value, 3)), f"regular enumeration capped at 10 nodes, got {text}"),
        (lambda: cycle_graph(5).check_node(value), f"node id {text} out of range for graph on 5 nodes"),
        (lambda: regular_exists(10, value),
         f"no {text}-regular graph on 10 nodes exists (reason: no-regular-graph)"),
    ]:
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == message


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


# Node ids for drawn pair lists: mostly in range, plus negatives, ids just
# past the end and ids beyond int64, which no array can hold.
def _ids(n: int):
    inside = st.integers(0, max(n - 1, 0))
    outside = st.sampled_from([-1, n, n + 1, -(2**63), 2**63 - 1, 2**63, 2**64 + 3])
    return inside if n == 0 else st.one_of(inside, inside, inside, outside)


@st.composite
def _pair_lists(draw, valid: bool):
    """A node count and a pair list with repeats, both orientations and
    isolated nodes; with ``valid`` False, also self-loops and bad ids."""
    n = draw(st.integers(0, 12))
    if valid:
        if n < 2:
            return n, []
        ids = st.integers(0, n - 1)
        pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    else:
        pairs = st.tuples(_ids(n), _ids(n))
    return n, draw(st.lists(pairs, max_size=30))


def _reference_edges(adj):
    return tuple((u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v)


@settings(max_examples=300)
@given(st.one_of(_pair_lists(valid=True), _pair_lists(valid=False)), st.sampled_from(["list", "iter", "array"]))
def test_array_builder_matches_the_set_builder(case, form):
    """The CSR builder gives the set builder's adjacency, edges, counts and
    degrees, or its error message, for pairs as a list, an iterator or (when
    every id fits int64) an array."""
    n, pairs = case
    if form == "iter":
        given_pairs = iter(pairs)
    elif form == "array" and all(-(2**63) <= x < 2**63 for p in pairs for x in p):
        given_pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    else:
        given_pairs = pairs
    try:
        adj = reference_make_graph(n, pairs)
    except GraphError as exc:
        with pytest.raises(GraphError) as err:
            make_graph(n, given_pairs)
        assert str(err.value) == str(exc)
        return
    g = make_graph(n, given_pairs)
    assert g.adj == adj
    assert g.edges == _reference_edges(adj)
    assert g.edge_count == len(g.edges)
    assert g.degrees() == tuple(len(a) for a in adj)
    assert g.isolated_nodes() == tuple(i for i in range(n) if not adj[i])
    for i in range(n):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
        assert row == sorted(adj[i])
        assert g.neighbors(i) == adj[i]


@given(colored_graphs(max_n=12, min_n=0))
def test_red_neighbor_counts_match_set_intersections(cg):
    red = frozenset(i for i, c in enumerate(cg.colors) if c is Color.RED)
    assert cg.red_neighbor_array.tolist() == [len(a & red) for a in cg.graph.adj]


@st.composite
def _graphs_and_values(draw):
    """A graph on 0..10 nodes, often with isolated nodes (the last one
    included), and one bool or int value per node."""
    g = draw(graphs(max_n=10, min_n=0))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    else:
        ints = st.integers(-(2**40), 2**40)
        values = np.array(draw(st.lists(ints, min_size=g.n, max_size=g.n)), dtype=np.int64)
    return g, values


@settings(max_examples=300)
@example((make_graph(0, []), np.zeros(0, dtype=bool)))
@example((make_graph(1, []), np.array([7])))
@example((make_graph(4, [(0, 1), (1, 2)]), np.array([True, True, True, True])))
@example((make_graph(4, [(1, 2), (2, 3)]), np.array([5, 6, 7, 8])))
@given(_graphs_and_values())
def test_row_sums_match_per_row_python_sums(case):
    """The graph's one row sum, which the classifier, the swap loop, the
    model checker and the neighbour bitsets all read, gives every node the
    Python sum of its neighbours' values, 0 on an isolated node."""
    g, values = case
    expected = [
        sum(int(values[j]) for j in g.indices[g.indptr[i]:g.indptr[i + 1]].tolist())
        for i in range(g.n)
    ]
    sums = g.neighbor_sums(values)
    assert sums.dtype == np.int64
    assert sums.tolist() == expected


@pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16])
def test_make_graph_at_the_key_width_boundary(n):
    """Keys sort as uint32 below 2^16 nodes and as int64 from it on; both
    give the edge set's rows, the largest ids included."""
    rng = np.random.default_rng(n)
    pairs = rng.integers(0, n, size=(3000, 2))
    pairs = np.concatenate((pairs, [[n - 1, n - 2], [0, n - 1], [n - 1, 0], [n - 2, 1]]))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = make_graph(n, pairs)
    edge_set = {(min(u, v), max(u, v)) for u, v in pairs.tolist()}
    u, v = g.edge_arrays()
    assert list(zip(u.tolist(), v.tolist())) == sorted(edge_set)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    degrees = np.bincount(np.array(sorted(edge_set)).ravel(), minlength=n)
    assert np.array_equal(np.diff(g.indptr), degrees)
    for i in (0, 1, n - 2, n - 1):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
        assert row == sorted({b for a, b in edge_set if a == i} | {a for a, b in edge_set if b == i})


@given(graphs(max_n=8, min_n=0), st.randoms(use_true_random=False))
def test_equality_and_hash_follow_the_edge_set(g, rng):
    """``==`` and ``hash`` work on the arrays (a field-wise comparison would
    raise) and ignore the order and orientation of the input pairs."""
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(pairs)
    h = make_graph(g.n, pairs + pairs[:2])
    assert h == g and hash(h) == hash(g)
    assert g != make_graph(g.n + 1, g.edges)
    if g.edges:
        assert g != make_graph(g.n, g.edges[1:])
    colors = (Color.RED,) * g.n
    assert ColoredGraph(h, colors) == ColoredGraph(g, colors)
    assert hash(ColoredGraph(h, colors)) == hash(ColoredGraph(g, colors))
    assert len({g, h, ColoredGraph(g, colors)}) == 2


def test_equal_degrees_do_not_make_equal_graphs():
    square = cycle_graph(4)  # 0-1-2-3-0
    crossed = make_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])  # 0-2-1-3-0
    assert square.degrees() == crossed.degrees()
    assert square != crossed


def test_graph_arrays_are_read_only():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        g.indices[0] = 3
    with pytest.raises(ValueError):
        g.indptr[1] = 0


def test_graph_freezes_writable_arrays():
    """A graph built from writable arrays makes both read-only, and leaves
    the caller's read-only arrays as they are."""
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    g = Graph(2, indptr, indices)
    assert g.indptr is indptr and g.indices is indices
    assert not indptr.flags.writeable and not indices.flags.writeable
    again = Graph(2, indptr, indices)
    assert not again.indptr.flags.writeable and not again.indices.flags.writeable
    assert again == g == make_graph(2, [(0, 1)])


@given(graphs(max_n=32, min_n=0))
def test_neighbour_bitsets_are_the_rows_read_only(g):
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert g.neighbor_masks.dtype == np.uint32
    assert not g.neighbor_masks.flags.writeable
    assert g.neighbor_masks.tolist() == masks


def test_neighbour_bitsets_refused_above_32_nodes():
    with pytest.raises(GraphError, match="33 nodes"):
        make_graph(33, [(0, 32)]).neighbor_masks


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(weak_majority_2_coloring, id="weak_majority_2_coloring"),
        pytest.param(illusion_coloring, id="illusion_coloring"),
        pytest.param(proper_2_coloring, id="proper_2_coloring"),
        pytest.param(strict_illusion_from_proper, id="strict_illusion_from_proper"),
        pytest.param(
            lambda g: odd_degree_swap_upgrade(ColoredGraph(g, coloring_from_string("RRRBBB"))),
            id="odd_degree_swap_upgrade",
        ),
        *[
            pytest.param(lambda g, o=o: best_coloring(g, o), id=f"best_coloring-{o.value}")
            for o in Objective
        ],
        *[
            pytest.param(lambda g, k=k: illusion_possible(g, k), id=f"illusion_possible-{k.value}")
            for k in IllusionKind
        ],
        pytest.param(lambda g: g.neighbors(3), id="neighbors"),
        pytest.param(lambda g: list(enumerate_regular(6, 3)), id="enumerate_regular-6-3"),
    ],
)
def test_no_call_builds_the_adjacency_sets(call):
    """Every walker reads the CSR rows: none of these calls builds the
    per-node Python sets of ``Graph.adj``, on the graph it is given or on
    the graphs it returns.  On the biclique K(3,3) both strict upgrades
    take their tie-breaking pick."""
    g = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    result = call(g)
    for h in [g, *(result if isinstance(result, list) else [])]:
        assert "adj" not in h.__dict__
