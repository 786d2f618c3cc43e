import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majority_illusion import (
    Color,
    ColoredGraph,
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
    add_extra_blue_edges,
    add_initial_edges,
    add_regular_subgraph,
    classify_network,
    construct_regular_illusion,
    construct_regular_illusion_report,
    construction_plan,
    fast_construct,
    fast_construct_report,
    coloring_from_string,
    make_graph,
)
from majority_illusion.construct import (
    _degrees,
    _norm,
    _realize_deficits,
    _validate_colored_regular,
)
from majority_illusion.graphs import MAX_NODES


def reference_realize_deficits(edges, members, k, deg, label):
    """The recursive backtracker the iterative pairing replaced, kept as
    the reference it must match edge for edge."""
    deficit = {u: k - deg[u] for u in members if deg[u] < k}
    if not deficit:
        return 0
    if sum(deficit.values()) % 2 == 1:
        raise InternalInvariantError(f"{label} open ends sum to an odd number")
    chosen = []

    def solve():
        open_nodes = [u for u, d in deficit.items() if d > 0]
        if not open_nodes:
            return True
        u = min(open_nodes, key=lambda x: (-deficit[x], x))
        partners = sorted(
            (v for v in open_nodes if v != u and _norm(u, v) not in edges),
            key=lambda x: (-deficit[x], x),
        )
        for v in partners:
            e = _norm(u, v)
            edges.add(e)
            chosen.append(e)
            deficit[u] -= 1
            deficit[v] -= 1
            if solve():
                return True
            edges.discard(e)
            chosen.pop()
            deficit[u] += 1
            deficit[v] += 1
        return False

    if not solve():
        raise InternalInvariantError(f"{label} open ends cannot be paired")
    for u, v in chosen:
        deg[u] += 1
        deg[v] += 1
    return len(chosen)


def test_plan_even_even():
    plan = construction_plan(12, 6)
    assert (plan.n_red, plan.n_blue) == (7, 5)
    assert (plan.k_red, plan.k_blue) == (2, 0)
    assert plan.blue_target == 4


def test_plan_even_odd_clamps_blue_residual():
    plan = construction_plan(10, 3)
    assert (plan.n_red, plan.n_blue) == (6, 4)
    assert (plan.k_red, plan.k_blue) == (1, 0)
    assert plan.blue_target == 2


def test_plan_odd_n():
    plan = construction_plan(13, 8)
    assert (plan.n_red, plan.n_blue) == (7, 6)
    assert (plan.k_red, plan.k_blue) == (3, 2)


def test_initial_edges_round_robin_spread():
    red, blue = list(range(7)), list(range(7, 12))
    edges = add_initial_edges(set(), blue, red, 6)
    assert len(edges) == 28
    deg = _degrees(edges, 12)
    assert all(deg[r] == 4 for r in red)
    assert sorted(deg[b] for b in blue) == [5, 5, 6, 6, 6]


def test_initial_edges_odd_degree_quota():
    red, blue = list(range(6)), list(range(6, 10))
    edges = add_initial_edges(set(), blue, red, 3)
    assert len(edges) == 12
    deg = _degrees(edges, 10)
    assert all(deg[r] == 2 for r in red)
    assert all(deg[b] == 3 for b in blue)


def test_blue_top_up_adds_single_pair():
    red, blue = list(range(7)), list(range(7, 12))
    edges = add_initial_edges(set(), blue, red, 6)
    add_extra_blue_edges(edges, blue, 6, 0)
    blue_blue = [e for e in edges if e[0] >= 7]
    assert len(blue_blue) == 1
    deg = _degrees(edges, 12)
    assert all(deg[b] == 6 for b in blue)


def test_blue_top_up_no_op_when_saturated():
    red, blue = list(range(8)), list(range(8, 14))
    edges = add_initial_edges(set(), blue, red, 4)  # blues land exactly on 4
    before = set(edges)
    add_extra_blue_edges(edges, blue, 4, 0)
    assert edges == before


def test_circulant_degree_two_is_a_cycle():
    edges = add_regular_subgraph(set(), list(range(7)), 2)
    g = make_graph(7, edges)
    assert g.is_regular(2)
    assert len(edges) == 7


def test_circulant_zero_is_no_op():
    assert add_regular_subgraph(set(), list(range(5)), 0) == set()


def test_circulant_odd_degree_even_count():
    edges = add_regular_subgraph(set(), list(range(6)), 3)
    assert make_graph(6, edges).is_regular(3)


def test_circulant_collision_raises():
    with pytest.raises(InternalInvariantError, match="collides"):
        add_regular_subgraph({(0, 3)}, list(range(6)), 3)


def test_circulant_rejects_oversized_degree():
    with pytest.raises(PreconditionError):
        add_regular_subgraph(set(), list(range(4)), 4)


def test_reference_construction_12_6():
    cg, report = construct_regular_illusion_report(12, 6)
    g = cg.graph
    assert g.is_regular(6)
    reds = [i for i in range(12) if cg.colors[i] is Color.RED]
    assert len(reds) == 7
    for r in reds:
        assert sum(1 for j in g.adj[r] if cg.colors[j] is Color.BLUE) == 4
    blue_blue = [
        (u, v)
        for u, v in g.edges
        if cg.colors[u] is Color.BLUE and cg.colors[v] is Color.BLUE
    ]
    assert len(blue_blue) == 1
    red_red = [
        (u, v)
        for u, v in g.edges
        if cg.colors[u] is Color.RED and cg.colors[v] is Color.RED
    ]
    assert len(red_red) == 7  # a 2-regular ring over the 7 red nodes
    assert classify_network(cg).majority_majority
    assert report.validated
    assert "deviations" not in report.to_json_dict()


def test_construction_with_clamped_blue_residual():
    cg, _ = construct_regular_illusion_report(10, 3)
    reds = [i for i in range(10) if cg.colors[i] is Color.RED]
    assert len(reds) == 6
    for r in reds:
        assert sum(1 for j in cg.graph.adj[r] if cg.colors[j] is Color.BLUE) == 2
    assert cg.graph.is_regular(3)


@pytest.mark.parametrize(
    "n,k", [(16, 8), (15, 6), (13, 8), (12, 7), (11, 6), (4000, 7), (8000, 8)]
)
def test_odd_parity_branches_validate(n, k):
    cg = construct_regular_illusion(n, k)
    assert cg.graph.is_regular(k)
    assert classify_network(cg).majority_majority


def test_infeasible_parameters_rejected():
    with pytest.raises(InfeasibleError, match="minority-pool"):
        construct_regular_illusion(6, 4)


@pytest.mark.parametrize(
    "build, k",
    [(construct_regular_illusion, 8), (fast_construct, (MAX_NODES + 2) // 2 + 3)],
)
def test_node_count_above_the_cap_rejected_before_planning(build, k):
    # n = MAX_NODES + 2 is feasible for both builders, and n % 4 == 2
    with pytest.raises(PreconditionError, match="exceeds the limit"):
        build(MAX_NODES + 2, k)


def test_proven_parity_gap_rejected():
    with pytest.raises(InfeasibleError, match="saturated-bipartite-parity"):
        construct_regular_illusion(12, 8)


def test_stage_accounting_for_even_parameters():
    # blue open ends after the bipartite stage: (n/2-1)(k-2)/2 - (k+2)
    for n, k in ((12, 6), (16, 6), (14, 10), (22, 12)):
        plan = construction_plan(n, k)
        edges = add_initial_edges(set(), plan.blue_nodes, plan.red_nodes, k)
        deg = _degrees(edges, n)
        open_ends = sum(k - deg[b] for b in plan.blue_nodes)
        assert open_ends == (n // 2 - 1) * (k - 2) // 2 - (k + 2)


def test_fast_construction_10_6():
    cg, report = fast_construct_report(10, 6)
    g = cg.graph
    assert g.is_regular(6)
    cross = [
        e
        for e in g.edges
        if {cg.colors[e[0]], cg.colors[e[1]]} == {Color.RED, Color.BLUE}
    ]
    assert len(cross) == 6 * 4  # complete bipartite core
    assert classify_network(cg).majority_majority
    assert report.fast


def test_fast_construction_rejects_misaligned_n():
    with pytest.raises(PreconditionError, match="n % 4"):
        fast_construct(12, 6)


def test_fast_construction_rejects_infeasible():
    with pytest.raises(InfeasibleError):
        fast_construct(6, 4)


@st.composite
def pairing_instances(draw):
    """Up to 8 members with random existing edges among them and deficits
    1-3 of even sum; members are spread over ids so that sort order and id
    order differ from list order."""
    count = draw(st.integers(1, 8))
    members = draw(st.permutations(range(2 * count)))[:count]
    pairs = [_norm(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    edges = {e for e in pairs if draw(st.booleans())}
    deficits = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    if sum(deficits) % 2:
        deficits[0] += 1 if deficits[0] < 3 else -1
    k = 10
    deg = [k] * (2 * count)
    for u, d in zip(members, deficits):
        deg[u] = k - d
    return edges, members, k, deg


@settings(max_examples=400, deadline=None)
@given(pairing_instances())
def test_iterative_pairing_matches_recursive_reference(instance):
    edges, members, k, deg = instance
    outcomes = []
    for realize in (_realize_deficits, reference_realize_deficits):
        e, d = set(edges), list(deg)
        try:
            added = realize(e, members, k, d, "test")
        except InternalInvariantError:
            outcomes.append(("raised", e == edges, d == deg))
        else:
            outcomes.append((added, frozenset(e), tuple(d)))
    assert outcomes[0] == outcomes[1]


_K5 = make_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


@pytest.mark.parametrize(
    "colors, n, k, n_red, message",
    [
        ("RRBBB", 6, 4, 2, "expected 6 nodes, built 5"),
        ("RRBBB", 5, 3, 2, r"nodes \[0, 1, 2, 3, 4\] missed the target degree 3"),
        ("RRRBB", 5, 4, 2, "expected 2 red nodes, got 3"),
        # red nodes 0 and 2 each see two blue neighbours of four; 0 is named
        ("RBRRB", 5, 4, 3, "red node 0 has only 2 blue neighbors of 4"),
        ("BBRBR", 5, 4, 2, "construction is not majority-majority"),
    ],
)
def test_validation_names_the_first_fault(colors, n, k, n_red, message):
    cg = ColoredGraph(_K5, coloring_from_string(colors))
    with pytest.raises(InternalInvariantError, match=message):
        _validate_colored_regular(cg, n, k, n_red)
