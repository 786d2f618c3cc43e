import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majority_illusion.construct as construct
import reference_construct as ref
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
    regular_exists,
)
from majority_illusion.construct import _bridge, _realize_deficits, _validate_colored_regular
from majority_illusion.graphs import MAX_NODES
from reference_construct import _norm

NO_EDGES = np.empty(0, dtype=np.int64)


def keys_of(edges, n: int) -> np.ndarray:
    """A set of ``(u, v)`` pairs as sorted int64 keys ``min * n + max``."""
    return np.array(sorted(min(e) * n + max(e) for e in edges), dtype=np.int64)


def edges_of(keys: np.ndarray, n: int) -> set[tuple[int, int]]:
    assert np.all(keys[1:] > keys[:-1]), "keys must be sorted and distinct"
    return set(zip(*(part.tolist() for part in np.divmod(keys, n))))


def degrees_of(keys: np.ndarray, n: int) -> list[int]:
    return np.bincount(np.concatenate(np.divmod(keys, n)), minlength=n).tolist()


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
    keys = add_initial_edges(NO_EDGES, 12, blue, red, 6)
    assert keys.dtype == np.int64 and len(keys) == 28
    deg = degrees_of(keys, 12)
    assert all(deg[r] == 4 for r in red)
    assert sorted(deg[b] for b in blue) == [5, 5, 6, 6, 6]


def test_initial_edges_odd_degree_quota():
    red, blue = list(range(6)), list(range(6, 10))
    keys = add_initial_edges(NO_EDGES, 10, blue, red, 3)
    assert len(keys) == 12
    deg = degrees_of(keys, 10)
    assert all(deg[r] == 2 for r in red)
    assert all(deg[b] == 3 for b in blue)


def test_blue_top_up_adds_single_pair():
    red, blue = list(range(7)), list(range(7, 12))
    keys = add_initial_edges(NO_EDGES, 12, blue, red, 6)
    keys = add_extra_blue_edges(keys, 12, blue, 6, 0)
    blue_blue = [e for e in edges_of(keys, 12) if e[0] >= 7]
    assert len(blue_blue) == 1
    deg = degrees_of(keys, 12)
    assert all(deg[b] == 6 for b in blue)


def test_blue_top_up_no_op_when_saturated():
    red, blue = list(range(8)), list(range(8, 14))
    keys = add_initial_edges(NO_EDGES, 14, blue, red, 4)  # blues land exactly on 4
    assert np.array_equal(add_extra_blue_edges(keys, 14, blue, 4, 0), keys)


def test_circulant_degree_two_is_a_cycle():
    keys = add_regular_subgraph(NO_EDGES, 7, list(range(7)), 2)
    g = make_graph(7, np.stack(np.divmod(keys, 7), axis=1))
    assert g.is_regular(2)
    assert len(keys) == 7


def test_circulant_zero_is_no_op():
    assert len(add_regular_subgraph(NO_EDGES, 5, list(range(5)), 0)) == 0


def test_circulant_odd_degree_even_count():
    keys = add_regular_subgraph(NO_EDGES, 6, list(range(6)), 3)
    assert make_graph(6, np.stack(np.divmod(keys, 6), axis=1)).is_regular(3)


def test_circulant_collision_raises():
    with pytest.raises(InternalInvariantError, match=r"circulant edge \(0, 3\) collides"):
        add_regular_subgraph(keys_of({(0, 3)}, 6), 6, list(range(6)), 3)


def test_circulant_collision_names_the_first_in_loop_order():
    """The distinct keys are probed in sorted order, but the message names
    the first collision of the loop's order, here not the smallest key."""
    existing = keys_of({(0, 2), (3, 5)}, 6)
    with pytest.raises(InternalInvariantError, match=r"circulant edge \(3, 5\) collides"):
        add_regular_subgraph(existing, 6, [5, 4, 3, 2, 1, 0], 2)


_key_values = st.one_of(st.integers(0, 40), st.integers(0, 2**62))


@settings(max_examples=300, deadline=None)
@given(st.sets(_key_values), st.sets(_key_values), st.lists(st.one_of(_key_values, st.just(-1))))
def test_merge_and_contains_match_python_sets(keys, fresh, probe):
    """``_merge`` is the sorted union of two disjoint sorted runs and
    ``_contains`` is membership, for probes in any order; neither changes
    its arguments."""
    fresh -= keys
    known = np.array(sorted(keys), dtype=np.int64)
    added = np.array(sorted(fresh), dtype=np.int64)
    probes = np.array(probe, dtype=np.int64)
    assert construct._merge(known, added).tolist() == sorted(keys | fresh)
    assert construct._contains(known, probes).tolist() == [x in keys for x in probe]
    assert construct._contains(known, np.sort(probes)).tolist() == [
        x in keys for x in sorted(probe)
    ]
    assert known.tolist() == sorted(keys) and added.tolist() == sorted(fresh)
    assert probes.tolist() == probe


def test_circulant_rejects_oversized_degree():
    with pytest.raises(PreconditionError):
        add_regular_subgraph(NO_EDGES, 4, list(range(4)), 4)


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
        keys = add_initial_edges(NO_EDGES, n, plan.blue_nodes, plan.red_nodes, k)
        deg = degrees_of(keys, n)
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
def pairing_instances(draw, even: bool = True):
    """Up to 8 members with random existing edges among them and deficits
    1-3 (of even sum unless ``even`` is false); members are spread over ids
    so that sort order and id order differ from list order."""
    count = draw(st.integers(1, 8))
    members = draw(st.permutations(range(2 * count)))[:count]
    pairs = [_norm(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    edges = {e for e in pairs if draw(st.booleans())}
    deficits = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    if even and sum(deficits) % 2:
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
    n = len(deg)
    outcomes = []
    for realize in (_realize_deficits, reference_realize_deficits):
        d = list(deg)
        try:
            if realize is _realize_deficits:
                out = edges_of(realize(keys_of(edges, n), n, members, k, d, "test"), n)
            else:
                out = set(edges)
                realize(out, members, k, d, "test")
        except InternalInvariantError:
            outcomes.append(("raised", d == deg))
        else:
            outcomes.append((frozenset(out), tuple(d)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=400, deadline=None)
@given(pairing_instances(even=False))
def test_pairing_matches_the_set_based_pairing(instance):
    """The array pairing adds the set-based one's edges, leaves the same
    degrees, and raises its messages, naming the same open ends."""
    edges, members, k, deg = instance
    n = len(deg)
    d_new, d_old = list(deg), list(deg)
    try:
        out = _realize_deficits(keys_of(edges, n), n, members, k, d_new, "blue")
    except InternalInvariantError as exc:
        with pytest.raises(InternalInvariantError) as old:
            ref._realize_deficits(set(edges), members, k, d_old, "blue")
        assert str(exc) == str(old.value)
    else:
        old_edges = set(edges)
        added = ref._realize_deficits(old_edges, members, k, d_old, "blue")
        assert edges_of(out, n) == old_edges
        assert len(out) - len(edges) == added
        assert d_new == d_old


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


def feasible_pairs(max_n: int) -> list[tuple[int, int]]:
    return [
        (n, k)
        for n in range(1, max_n + 1)
        for k in range(n)
        if n * k % 2 == 0 and regular_exists(n, k).possible
    ]


def assert_same_witness(built, reference):
    (cg, report), (cg_ref, report_ref) = built, reference
    assert cg.graph == cg_ref.graph
    assert cg.colors == cg_ref.colors
    assert report.to_json_dict() == report_ref.to_json_dict()


def test_construction_matches_the_set_based_builder():
    """Graph, colors and stage report equal the set-based builder's on
    every feasible pair with n <= 60, all three finishing paths included."""
    pairs = feasible_pairs(60)
    assert len(pairs) == 1144
    for n, k in pairs:
        assert_same_witness(
            construct_regular_illusion_report(n, k), ref.construct_regular_illusion_report(n, k)
        )


def test_fast_construction_matches_the_set_based_builder():
    """Every feasible pair the shortcut takes (n % 4 == 2, even k,
    n <= 2k - 2) up to n = 102."""
    built = 0
    for n in range(2, 103, 4):
        for k in range(n // 2 + 1, n, 2):
            if not regular_exists(n, k).possible:
                continue
            assert_same_witness(fast_construct_report(n, k), ref.fast_construct_report(n, k))
            built += 1
    assert built == 300


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 16), st.data())
def test_initial_edges_match_the_set_based_round_robin(r, b, k, data):
    """The closed form adds the round-robin's edges, and where the shifted
    pick repeats an earlier one it names the same red node."""
    n = r + b
    ids = data.draw(st.permutations(range(n)))
    red, blue = ids[:r], ids[r:]
    try:
        expected = ref.add_initial_edges(set(), blue, red, k)
    except InternalInvariantError as exc:
        with pytest.raises(InternalInvariantError) as new:
            add_initial_edges(NO_EDGES, n, blue, red, k)
        assert str(new.value) == str(exc)
    else:
        assert edges_of(add_initial_edges(NO_EDGES, n, blue, red, k), n) == expected


@pytest.mark.parametrize(
    "red, blue, k, node",
    [
        ([0, 1, 2], [3, 4], 4, 0),  # coprime sizes: the shift lands on (0, 4)
        ([2, 0, 1, 5], [3, 4], 4, 2),  # even sizes: the second lap repeats
    ],
)
def test_initial_collision_names_the_red_node_of_the_first_repeat(red, blue, k, node):
    n = len(red) + len(blue)
    with pytest.raises(InternalInvariantError) as exc:
        add_initial_edges(NO_EDGES, n, blue, red, k)
    assert str(exc.value) == f"red node {node} collides again after the shift"
    with pytest.raises(InternalInvariantError, match=str(exc.value)):
        ref.add_initial_edges(set(), blue, red, k)


def test_initial_edges_reject_an_edge_already_present():
    with pytest.raises(InternalInvariantError, match="red node 1 collides"):
        add_initial_edges(keys_of({(1, 4)}, 5), 5, [3, 4], [0, 1, 2], 2)


@st.composite
def edge_sets(draw, n: int) -> set[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))) if pairs else set()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.integers(0, 3), st.data())
def test_circulant_matches_the_set_based_circulant(m, spare, data):
    """Same edges, and on a collision the same edge named: the first of the
    set-based loop's order that was already present."""
    n = m + spare
    nodes = data.draw(st.permutations(range(n)))[:m]
    k_sub = data.draw(st.integers(0, m - 1))
    existing = data.draw(edge_sets(n))
    expected = set(existing)
    try:
        ref.add_regular_subgraph(expected, nodes, k_sub)
    except InternalInvariantError as exc:
        with pytest.raises(InternalInvariantError) as new:
            add_regular_subgraph(keys_of(existing, n), n, nodes, k_sub)
        assert str(new.value) == str(exc)
    else:
        assert edges_of(add_regular_subgraph(keys_of(existing, n), n, nodes, k_sub), n) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.integers(1, 9), st.integers(0, 4), st.data())
def test_blue_top_up_matches_the_set_based_top_up(b, r, k, k_blue, data):
    n = r + b
    blue = data.draw(st.permutations(range(r, n)))
    existing = data.draw(edge_sets(n))
    expected = ref.add_extra_blue_edges(set(existing), blue, k, k_blue)
    assert edges_of(add_extra_blue_edges(keys_of(existing, n), n, blue, k, k_blue), n) == expected


@pytest.mark.parametrize("n, k", [(12, 6), (16, 8), (15, 6), (40, 13)])
def test_top_up_check_names_the_same_degrees(monkeypatch, n, k):
    """With the top-up left out, both builders stop at its check and list
    the same blue degrees."""
    monkeypatch.setattr(construct, "add_extra_blue_edges", lambda keys, *args: keys)
    monkeypatch.setattr(ref, "add_extra_blue_edges", lambda edges, *args: edges)
    with pytest.raises(InternalInvariantError, match="blue top-up left degrees") as exc:
        construct.construct_regular_illusion_report(n, k)
    with pytest.raises(InternalInvariantError) as old:
        ref.construct_regular_illusion_report(n, k)
    assert str(exc.value) == str(old.value)


def test_bridge_takes_the_neediest_blue_and_the_first_open_red():
    n, k = 6, 3
    red, blue = np.arange(3), np.arange(3, 6)
    keys = keys_of({(0, 3), (1, 3)}, n)
    deg = np.array([1, 1, 3, 2, 0, 0])
    # blue nodes 4 and 5 tie as the neediest: 4, the lower id, is bridged,
    # to red node 0, the first open one; red node 2 is full
    out, bridged_red, bridged_blue = _bridge(keys, n, red, blue, k, deg)
    assert (bridged_red, bridged_blue) == (0, 4)
    assert edges_of(out, n) == {(0, 3), (1, 3), (0, 4)}
    assert deg.tolist() == [2, 1, 3, 2, 1, 0]


def test_bridge_names_the_blue_node_no_red_node_can_reach():
    n, k = 6, 3
    keys = keys_of({(0, 4), (1, 4)}, n)
    deg = np.array([1, 1, 3, 2, 1, 1])
    with pytest.raises(InternalInvariantError) as exc:
        _bridge(keys, n, np.arange(3), np.arange(3, 6), k, deg)
    assert str(exc.value) == "no red node left to bridge blue node 4"


@pytest.mark.parametrize(
    "build, n, k",
    [
        (construct_regular_illusion_report, 16, 8),  # bridge and pairings
        (construct_regular_illusion_report, 12, 6),  # circulants only
        (fast_construct_report, 10, 6),
        (fast_construct_report, 30, 20),
    ],
)
def test_construction_leaves_the_adjacency_sets_unbuilt(build, n, k):
    cg, _ = build(n, k)
    assert "adj" not in cg.graph.__dict__


class _Bridged(Exception):
    """Stops a construction right after its bridge."""


def test_the_bridge_leaves_both_of_its_nodes_full(monkeypatch):
    """On every bridging pair with n <= 160, the bridged red and blue nodes
    are at degree k right after the bridge.  So the pairings' ``deg < k``
    filter drops them already, and the builder's exclusions of the two
    from the member lists change nothing on these pairs.  No proof covers
    every n, so the builder keeps the exclusions."""
    short = []
    bridged = 0

    def spy(keys, n, red, blue, k, deg):
        nonlocal bridged
        out = _bridge(keys, n, red, blue, k, deg)
        bridged += 1
        _, red_node, blue_node = out
        if deg[red_node] != k or deg[blue_node] != k:
            short.append((n, k, int(deg[red_node]), int(deg[blue_node])))
        raise _Bridged

    monkeypatch.setattr(construct, "_bridge", spy)
    pairs = 0
    for n, k in feasible_pairs(160):
        plan = construction_plan(n, k)
        if plan.k_red % 2 == 1 and plan.n_red % 2 == 1:
            pairs += 1
            with pytest.raises(_Bridged):
                construct_regular_illusion_report(n, k)
    assert (pairs, bridged) == (2260, 2260)
    assert short == []
