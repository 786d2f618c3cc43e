import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import majority_illusion.construct as construct
import reference_construct as ref
from majority_illusion import (
    Color,
    ColoredGraph,
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
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
from majority_illusion.construct import (
    _add_extra_blue_edges,
    _add_initial_edges,
    _add_regular_subgraph,
    _bridge,
    _realize_deficits,
    _validate_colored_regular,
)
from majority_illusion.graphs import _NARROW_KEYS_BELOW, MAX_NODES, _key_dtype
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


def top_up(keys: np.ndarray, n: int, blue, k: int, k_blue: int) -> np.ndarray:
    """The blue top-up as the builder calls it: on the degrees in ``keys``,
    with the blue nodes by ascending degree, then id."""
    deg = np.array(degrees_of(keys, n), dtype=np.int64)
    order = sorted(blue, key=lambda b: (deg[b], b))
    return _add_extra_blue_edges(n, order, deg, k, k_blue)


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


@pytest.mark.parametrize("n, k", [(-3, 4), (9, 100), (7, 2), (5, 1), (0, 0), (12, 8)])
def test_plan_refuses_every_pair_the_feasibility_verdict_refuses(n, k):
    with pytest.raises(PreconditionError):
        construction_plan(n, k)


def test_a_planned_pair_has_no_negative_residual_degree():
    for n, k in feasible_pairs(120):
        plan = construction_plan(n, k)
        assert plan.k_red >= 1 and plan.k_blue >= 0, (n, k)


def test_initial_edges_round_robin_spread():
    red, blue = list(range(7)), list(range(7, 12))
    keys = _add_initial_edges(12, blue, red, 6)
    assert keys.dtype == _key_dtype(12) == np.uint32 and len(keys) == 28
    deg = degrees_of(keys, 12)
    assert all(deg[r] == 4 for r in red)
    assert sorted(deg[b] for b in blue) == [5, 5, 6, 6, 6]
    # the same picks on the top 12 ids of a graph past the narrow width,
    # whose keys are above 2^32
    n = _NARROW_KEYS_BELOW + 1
    top = n - 12
    wide = _add_initial_edges(n, [top + b for b in blue], [top + r for r in red], 6)
    assert wide.dtype == _key_dtype(n) == np.int64
    assert edges_of(wide, n) == {(top + u, top + v) for u, v in edges_of(keys, 12)}


def test_initial_edges_odd_degree_quota():
    red, blue = list(range(6)), list(range(6, 10))
    keys = _add_initial_edges(10, blue, red, 3)
    assert len(keys) == 12
    deg = degrees_of(keys, 10)
    assert all(deg[r] == 2 for r in red)
    assert all(deg[b] == 3 for b in blue)


def test_blue_top_up_adds_single_pair():
    red, blue = list(range(7)), list(range(7, 12))
    keys = _add_initial_edges(12, blue, red, 6)
    fresh = top_up(keys, 12, blue, 6, 0)
    assert len(edges_of(fresh, 12)) == 1 and fresh.min() >= 7 * 12
    deg = degrees_of(construct._merge(keys, fresh), 12)
    assert all(deg[b] == 6 for b in blue)


def test_blue_top_up_no_op_when_saturated():
    red, blue = list(range(8)), list(range(8, 14))
    keys = _add_initial_edges(14, blue, red, 4)  # blues land exactly on 4
    assert len(top_up(keys, 14, blue, 4, 0)) == 0


def test_circulant_degree_two_is_a_cycle():
    keys = _add_regular_subgraph(NO_EDGES, 7, list(range(7)), 2)
    g = make_graph(7, np.stack(np.divmod(keys, 7), axis=1))
    assert g.is_regular(2)
    assert len(keys) == 7


def test_circulant_zero_is_no_op():
    assert len(_add_regular_subgraph(NO_EDGES, 5, list(range(5)), 0)) == 0


def test_circulant_odd_degree_even_count():
    keys = _add_regular_subgraph(NO_EDGES, 6, list(range(6)), 3)
    assert make_graph(6, np.stack(np.divmod(keys, 6), axis=1)).is_regular(3)


def test_circulant_collision_raises():
    with pytest.raises(InternalInvariantError, match=r"circulant edge \(0, 3\) collides"):
        _add_regular_subgraph(keys_of({(0, 3)}, 6), 6, list(range(6)), 3)


def test_circulant_collision_names_the_smallest_colliding_edge():
    """The message names the smallest colliding key, the first hit of the
    sorted probe, here not the first collision of the set-based loop's
    order, which is (3, 5)."""
    existing = keys_of({(0, 2), (3, 5)}, 6)
    with pytest.raises(InternalInvariantError, match=r"circulant edge \(0, 2\) collides"):
        _add_regular_subgraph(existing, 6, [5, 4, 3, 2, 1, 0], 2)


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
        _add_regular_subgraph(NO_EDGES, 4, list(range(4)), 4)


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
        keys = _add_initial_edges(n, plan.blue_nodes, plan.red_nodes, k)
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


@pytest.mark.parametrize(
    "n, k, message", [(10, 7, "even k, got 7"), (14, 6, "n <= 2k - 2, got n=14, k=6")]
)
def test_fast_construction_rejects_odd_k_and_wide_n(n, k, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        fast_construct(n, k)


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


def assert_pairing_agrees(instance, label: str) -> None:
    """The closed-form pairing against both references.  Where it returns,
    its keys and degrees are both references'; where a reference raises,
    it raises too, with the set-based reference's text; and every raise
    leaves ``deg`` as it was.  It may raise where the references pair: on
    a state outside its form, which the builder never leaves."""
    edges, members, k, deg = instance
    n = len(deg)
    d_new, d_old, d_rec = np.array(deg), list(deg), list(deg)
    old_edges, rec_edges = set(edges), set(edges)
    texts = []
    for realize, args in (
        (ref._realize_deficits, (old_edges, members, k, d_old, label)),
        (reference_realize_deficits, (rec_edges, members, k, d_rec, label)),
    ):
        try:
            realize(*args)
        except InternalInvariantError as exc:
            texts.append(str(exc))
        else:
            texts.append(None)
    old, rec = texts
    try:
        fresh = _realize_deficits(keys_of(edges, n), n, members, k, d_new, label)
    except InternalInvariantError as exc:
        assert d_new.tolist() == deg
        if old is not None or rec is not None:
            assert str(exc) == old
    else:
        assert old is None and rec is None
        assert edges_of(fresh, n) == old_edges - edges == rec_edges - edges
        assert d_new.tolist() == d_old == d_rec


@settings(max_examples=400, deadline=None)
@given(pairing_instances())
def test_iterative_pairing_matches_recursive_reference(instance):
    assert_pairing_agrees(instance, "test")


@settings(max_examples=400, deadline=None)
@given(pairing_instances(even=False))
# a lone head: the pairing must not join it to itself
@example((set(), [0], 10, [8, 10]))
def test_pairing_matches_the_set_based_pairing(instance):
    """Odd sums as well: the same error texts, naming the same open ends."""
    assert_pairing_agrees(instance, "blue")


@st.composite
def bulk_pairing_instances(draw):
    """8-60 members of deficit 1, over ids with gaps, listed in any order,
    and no, one or two heads of deficit 2 (as the parity asks).  Among the
    members in id order ``m``, the edges are consecutive pairs
    ``(m[j], m[j+1])`` in runs, pairs ``(m[j], m[j+2])``, a few random
    pairs, and, at will, the last two members.  Heads sit next to each
    other or two apart at will."""
    count = draw(st.integers(8, 60))
    spare = draw(st.integers(0, count))
    ids = sorted(draw(st.permutations(range(count + spare)))[:count])
    members = draw(st.permutations(ids))
    near = draw(st.lists(st.booleans(), min_size=count - 1, max_size=count - 1))
    near[-1] |= draw(st.booleans())
    edges = {(ids[j], ids[j + 1]) for j, joined in enumerate(near) if joined}
    edges |= {(ids[j], ids[j + 2]) for j in draw(st.sets(st.integers(0, count - 3), max_size=4))}
    position = st.integers(0, count - 1)
    edges |= {_norm(ids[a], ids[b]) for a, b in draw(st.lists(st.tuples(position, position),
                                                             max_size=count // 4)) if a != b}
    k = 10
    deg = [k] * (count + spare)
    for u in ids:
        deg[u] = k - 1
    heads = draw(st.sampled_from((0, 2) if count % 2 == 0 else (1,)))
    first = draw(position)
    second = (first + draw(st.sampled_from((1, 2, count // 2)))) % count
    for j in (first, second)[:heads]:
        deg[ids[j]] = k - 2
    if heads == 2 and draw(st.booleans()):
        edges.discard(_norm(ids[first], ids[second]))
    return edges, members, k, deg


@settings(max_examples=300, deadline=None)
@given(bulk_pairing_instances())
# two heads, next to each other or two apart: outside the form, so the
# pass raises where the search pairs them
@example((set(), list(range(8)), 10, [8, 8, 9, 9, 9, 9, 9, 9]))
@example(({(0, 1)}, list(range(8)), 10, [8, 9, 8, 9, 9, 9, 9, 9]))
# a head at the highest id takes the lowest, then pairs last
@example(({(0, 1)}, list(range(9)), 10, [9] * 8 + [8]))
# (0, 1) is an edge: a block of four, (0, 2) and (1, 3)
@example(({(0, 1)}, list(range(8)), 10, [9] * 8))
# 0 takes 2, but (1, 3) is an edge, so 1 scans on past the block
@example(({(0, 1), (1, 3)}, list(range(8)), 10, [9] * 8))
# the last pair is an edge: the search undoes (4, 5)
@example(({(0, 1), (6, 7)}, list(range(8)), 10, [9] * 8))
# the last pair is an edge after a block of four: the search undoes (3, 5)
@example(({(2, 3), (6, 7)}, list(range(8)), 10, [9] * 8))
def test_bulk_pairing_matches_the_search(instance):
    """Long runs of deficit-1 members: blocks of two and four, the undo at
    the last pair, and heads anywhere."""
    assert_pairing_agrees(instance, "red")


@st.composite
def builder_pairing_instances(draw):
    """Open ends of the shape the builder leaves (the lemmas of
    ``_realize_deficits``): 4-60 members of deficit 1 over ids with gaps,
    listed in any order, or that many plus a head of deficit 2 at the
    highest id.  Among the open ids in order ``m``, edges join ``m[j]`` and
    ``m[j+1]`` as the top-up leaves them, alternating in runs or all along
    one, and, as the circulants leave them, pairs at least four apart; the
    last two ids are joined at will.  The head is not joined to ``m[0]``."""
    count = 2 * draw(st.integers(2, 30)) + draw(st.sampled_from((0, 1)))
    spare = draw(st.integers(0, count))
    ids = sorted(draw(st.permutations(range(count + spare)))[:count])
    members = draw(st.permutations(ids))
    joined = []
    while len(joined) < count - 1:
        length = draw(st.integers(1, count))
        run = draw(st.sampled_from(([True], [True, False], [False])))
        joined += (run * length)[:length]
    edges = {(ids[j], ids[j + 1]) for j in range(count - 1) if joined[j]}
    if draw(st.booleans()):
        edges.add((ids[-2], ids[-1]))
    far = st.tuples(st.integers(0, count - 1), st.integers(4, count))
    edges |= {(ids[a], ids[a + d]) for a, d in draw(st.lists(far, max_size=count)) if a + d < count}
    k = 10
    deg = [k] * (count + spare)
    for u in ids:
        deg[u] = k - 1
    if count % 2:
        deg[ids[-1]] = k - 2
        edges.discard((ids[0], ids[-1]))
    return edges, members, k, deg


@settings(max_examples=300, deadline=None)
@given(builder_pairing_instances())
def test_builder_shaped_pairings_never_raise(instance):
    edges, members, k, deg = instance
    n = len(deg)
    _realize_deficits(keys_of(edges, n), n, members, k, np.array(deg), "blue")
    assert_pairing_agrees(instance, "blue")


@pytest.mark.parametrize("n, k", [(4444, 12), (2844, 12), (100000, 8)])
def test_a_pairing_call_makes_two_probes(monkeypatch, n, k):
    """Each pairing call probes the edge set twice, at any size: once for
    the consecutive pairs, once for the pairs it forms."""
    calls, probes = [], []
    contains, realize = construct._contains, construct._realize_deficits

    def counted_probe(*args):
        if probes:
            probes[-1] += 1
        return contains(*args)

    def counted(*args):
        probes.append(0)
        fresh = realize(*args)
        calls.append((len(fresh), probes.pop()))
        return fresh

    monkeypatch.setattr(construct, "_contains", counted_probe)
    monkeypatch.setattr(construct, "_realize_deficits", counted)
    construct.construct_regular_illusion_report(n, k)
    assert calls and all(total > 700 and count == 2 for total, count in calls)


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


def _finish_edited_witness(edit) -> None:
    """Run ``_finish`` on the (40, 12) witness's sorted keys as
    ``edit(keys, i, n)`` returns them, where ``keys[i]`` joins two red
    nodes."""
    n, k = 40, 12
    plan = construction_plan(n, k)
    u, v = construct_regular_illusion(n, k).graph.edge_arrays()
    keys = u * n + v
    i = int(np.flatnonzero(v < plan.n_red)[0])
    edited = np.sort(edit(keys, i, n))
    construct._finish(plan, edited, construct.ConstructionReport(n=n, k=k, fast=False))


def test_finish_refuses_a_self_loop_key():
    """Self-loops at both ends of a red-red edge, in its place, keep every
    degree and every red count: only the key check catches them."""

    def loops(keys, i, n):
        a, b = divmod(int(keys[i]), n)
        return np.concatenate((np.delete(keys, i), [a * (n + 1), b * (n + 1)]))

    with pytest.raises(InternalInvariantError, match=r"is not a pair u < v: \((\d+), \1\)"):
        _finish_edited_witness(loops)


def test_finish_collapses_a_duplicate_key_and_validation_names_it():
    def doubled(keys, i, n):
        out = keys.copy()
        out[i] = keys[i + 1]
        return out

    with pytest.raises(InternalInvariantError, match="missed the target degree 12"):
        _finish_edited_witness(doubled)


def feasible_pairs(max_n: int) -> list[tuple[int, int]]:
    return [
        (n, k)
        for n in range(1, max_n + 1)
        for k in range(n)
        if n * k % 2 == 0 and regular_exists(n, k).possible
    ]


def fast_pairs(max_n: int) -> list[tuple[int, int]]:
    """Every feasible pair the shortcut takes (n % 4 == 2, even k,
    n <= 2k - 2) up to ``max_n``."""
    return [
        (n, k)
        for n in range(2, max_n + 1, 4)
        for k in range(n // 2 + 1, n, 2)
        if regular_exists(n, k).possible
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
    """Every pair the shortcut takes up to n = 102."""
    pairs = fast_pairs(102)
    assert len(pairs) == 300
    for n, k in pairs:
        assert_same_witness(fast_construct_report(n, k), ref.fast_construct_report(n, k))


def test_every_stage_returns_only_new_keys_and_the_report_adds_them_up(monkeypatch):
    """Checked on the stage functions themselves, not against the
    set-based builder: on every pair the builder comparisons walk, and on
    one past the narrow key width that takes every stage, each stage
    returns sorted, distinct keys at the graph's key width that are not in
    the edge set it was given (the top-up, given none, is checked against
    the edge set it is merged into), no report row adds 0 edges, and the
    stages' ``edges_added`` sum to the ``n * k / 2`` edges of the witness."""
    faults, called = [], set()

    def checked(name, stage):
        def wrapper(*args):
            fresh = stage(*args)
            called.add(name)
            # the first two stages are given no edge set
            no_edge_set = name in ("_add_initial_edges", "_add_extra_blue_edges")
            given, n = (NO_EDGES, args[0]) if no_edge_set else args[:2]
            sorted_distinct = bool(np.all(fresh[1:] > fresh[:-1]))
            if fresh.dtype != _key_dtype(n) or not sorted_distinct or np.isin(fresh, given).any():
                faults.append((name, fresh.tolist(), given.tolist()))
            return fresh

        return wrapper

    add = construct.ConstructionReport.add

    def recorded(report, keys, stage, fresh, **extra):
        if stage == "blue-top-up":
            called.add(stage)
            if np.isin(fresh, keys).any():
                faults.append((stage, fresh.tolist(), keys.tolist()))
        return add(report, keys, stage, fresh, **extra)

    stages = {"_add_initial_edges", "_add_extra_blue_edges", "_add_regular_subgraph", "_bridge",
              "_realize_deficits"}
    for name in stages:
        monkeypatch.setattr(construct, name, checked(name, getattr(construct, name)))
    monkeypatch.setattr(construct.ConstructionReport, "add", recorded)
    builds = [(construct.construct_regular_illusion_report, n, k) for n, k in feasible_pairs(60)]
    builds += [(construct.fast_construct_report, n, k) for n, k in fast_pairs(102)]
    # int64 keys: the short red circulant, the bridge and both pairings
    builds.append((construct.construct_regular_illusion_report, _NARROW_KEYS_BELOW + 4, 8))
    miscounted, empty = [], []
    for build, n, k in builds:
        _, report = build(n, k)
        if sum(stage["edges_added"] for stage in report.stages) != n * k // 2:
            miscounted.append((build.__name__, n, k))
        empty += [(build.__name__, n, k, s["stage"]) for s in report.stages if not s["edges_added"]]
    assert called == stages | {"blue-top-up"}
    assert faults == []
    assert miscounted == []
    assert empty == []


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
            _add_initial_edges(n, blue, red, k)
        assert str(new.value) == str(exc)
    else:
        assert edges_of(_add_initial_edges(n, blue, red, k), n) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 20), st.integers(1, 30), st.data())
def test_initial_edges_on_scattered_ids_match_the_set_based_round_robin(r, b, k, spare, data):
    """Red and blue lists in shuffled order, over ids with gaps between
    them: the laps of the closed form follow list order, not id order."""
    n = r + b + spare
    ids = data.draw(st.permutations(range(n)))[: r + b]
    red, blue = ids[:r], ids[r:]
    try:
        expected = ref.add_initial_edges(set(), blue, red, k)
    except InternalInvariantError as exc:
        with pytest.raises(InternalInvariantError) as new:
            _add_initial_edges(n, blue, red, k)
        assert str(new.value) == str(exc)
    else:
        assert edges_of(_add_initial_edges(n, blue, red, k), n) == expected


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
        _add_initial_edges(n, blue, red, k)
    assert str(exc.value) == f"red node {node} collides again after the shift"
    with pytest.raises(InternalInvariantError, match=str(exc.value)):
        ref.add_initial_edges(set(), blue, red, k)


@st.composite
def edge_sets(draw, n: int) -> set[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))) if pairs else set()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.integers(0, 3), st.data())
def test_circulant_matches_the_set_based_circulant(m, spare, data):
    """Same edges, and on a collision the smallest edge of the set-based
    circulant that was already present is named."""
    n = m + spare
    nodes = data.draw(st.permutations(range(n)))[:m]
    k_sub = data.draw(st.integers(0, m - 1))
    existing = data.draw(edge_sets(n))
    circulant = ref.add_regular_subgraph(set(), nodes, k_sub)
    collisions = circulant & existing
    if collisions:
        with pytest.raises(InternalInvariantError) as new:
            _add_regular_subgraph(keys_of(existing, n), n, nodes, k_sub)
        assert str(new.value) == f"circulant edge {min(collisions)} collides with an existing edge"
    else:
        fresh = _add_regular_subgraph(keys_of(existing, n), n, nodes, k_sub)
        assert edges_of(fresh, n) == circulant


def circulant_table(n: int, nodes: np.ndarray, k_sub: int) -> np.ndarray:
    """The circulant's keys in the set-based loop's order: by node position,
    then by partner.  Each edge is in it from both ends."""
    m = len(nodes)
    positions = np.arange(m, dtype=np.int64)[:, None] + construct._circulant_steps(m, k_sub)
    return construct._edge_keys(nodes[:, None], nodes[positions % m], n).ravel()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(0, 5), st.data())
def test_circulant_half_is_the_table_once_per_edge(m, spare, data):
    """The one-sided runs hold each distinct key of the two-sided table
    exactly once, for any node count, degree and node order."""
    n = m + spare
    nodes = np.array(data.draw(st.permutations(range(n)))[:m], dtype=_key_dtype(n))
    k_sub = data.draw(st.integers(1, m - 1))
    half = construct._circulant_half(n, nodes, k_sub)
    table = circulant_table(n, nodes, k_sub)
    assert half.dtype == table.dtype == _key_dtype(n)
    assert sorted(half.tolist()) == sorted(set(table.tolist()))


@st.composite
def top_up_instances(draw):
    """3-40 blue nodes, as the builder hands them to the top-up: joined to
    red nodes only, each with room 0-3 below the top-up's limit
    ``k - k_blue`` (most of them 1), so that the top-up's order, by room
    and then id, holds long runs of room 1.  Red nodes below the blue ids
    pad each blue node's degree to its limit less its room."""
    b = draw(st.integers(3, 40))
    rooms = draw(st.lists(st.one_of(st.just(1), st.integers(0, 3)), min_size=b, max_size=b))
    rank = draw(st.permutations(range(b)))  # each blue node's place among the blue ids
    limit = 3 + draw(st.integers(0, 2))
    pad = [limit - room for room in rooms]
    r = max(pad)
    blue = [r + rank[i] for i in range(b)]
    edges = {(red, blue[i]) for i in range(b) for red in range(pad[i])}
    k_blue = draw(st.integers(0, 4))
    return edges, blue, limit + k_blue, k_blue


@settings(max_examples=300, deadline=None)
@given(top_up_instances())
# three nodes of room 1: pair 0 fills node 0, so the wrapping pair (2, 0) is not taken
@example(({(0, 1), (0, 2), (0, 3)}, [1, 2, 3], 2, 0))
def test_blue_top_up_matches_the_set_based_top_up(instance):
    edges, blue, k, k_blue = instance
    n = max(blue) + 1
    expected = ref.add_extra_blue_edges(set(edges), blue, k, k_blue)
    fresh = top_up(keys_of(edges, n), n, blue, k, k_blue)
    assert edges_of(fresh, n) == expected - edges


@pytest.mark.parametrize("n, k", [(12, 6), (16, 8), (15, 6), (40, 13), (2379, 96)])
def test_top_up_counts_no_degrees(monkeypatch, n, k):
    """The top-up reads the degrees its caller counted after the initial
    stage, so it makes no degree pass of its own."""
    stage, passes = ["build"], []
    count, add = construct._degree_counts, construct._add_extra_blue_edges

    def counted(*args):
        passes.append(stage[-1])
        return count(*args)

    def spied(*args):
        stage.append("top-up")
        try:
            return add(*args)
        finally:
            stage.pop()

    monkeypatch.setattr(construct, "_degree_counts", counted)
    monkeypatch.setattr(construct, "_add_extra_blue_edges", spied)
    construct.construct_regular_illusion_report(n, k)
    assert passes and "top-up" not in passes


@pytest.mark.parametrize("n, k", [(12, 6), (16, 8), (15, 6), (40, 13)])
def test_top_up_check_names_the_same_degrees(monkeypatch, n, k):
    """With the top-up left out, both builders stop at its check and list
    the same blue degrees."""
    monkeypatch.setattr(construct, "_add_extra_blue_edges", lambda *args: NO_EDGES)
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
    assert _bridge(keys, n, red, blue, k, deg).tolist() == [0 * n + 4]
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
    are at degree k right after the bridge, so the pairings' ``deg < k``
    filter drops them.  A parity proof covers every n: each red is at
    k - 1 before the bridge, and the degree total being even leaves the
    neediest blue at k - 1 too."""
    short = []
    bridged = 0

    def spy(keys, n, red, blue, k, deg):
        nonlocal bridged
        (edge,) = _bridge(keys, n, red, blue, k, deg).tolist()
        bridged += 1
        red_node, blue_node = divmod(edge, n)
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


def pairing_lemma_faults(keys, n, members, k, deg, label) -> list[str]:
    """The lemmas of ``_realize_deficits`` on one state, as the faults
    found.  With the open members ``m`` in id order: a non-empty pairing
    has at least four; each lacks one edge, but for at most one head
    lacking two, at the highest id and not adjacent to ``m[0]``; no two
    reds one apart are adjacent; no two blues two apart are, and two blues
    three apart are only where at most one pair one apart is.  (Two reds
    two apart can be, across the bridged red: at (12, 7), for one.)"""
    m = sorted(u for u in members if deg[u] < k)
    lack = [k - int(deg[u]) for u in m]
    edges = set(keys.tolist())

    def adjacent(gap: int) -> list[bool]:
        return [min(u, v) * n + max(u, v) in edges for u, v in zip(m, m[gap:])]

    faults = []
    if m and len(m) < 4:
        faults.append(f"only {len(m)} open")
    if any(d != 1 for d in lack[:-1]) or lack[-1:] not in ([], [1], [2]):
        faults.append(f"deficits {lack}")
    if lack[-1:] == [2] and adjacent(len(m) - 1)[0]:
        faults.append("head adjacent to the lowest")
    if label == "red" and any(adjacent(1)):
        faults.append("reds one apart")
    if label == "blue" and any(adjacent(2)):
        faults.append("blues two apart")
    if label == "blue" and any(adjacent(3)) and sum(adjacent(1)) > 1:
        faults.append("blues three apart beside pairs one apart")
    return faults


def test_every_pairing_state_below_n_100_has_the_closed_forms_shape(monkeypatch):
    """The lemmas the closed-form pairing rests on, on the state of every
    pairing call of every feasible pair with n < 100, and those the top-up
    and the circulants rest on: the top-up's edge set joins red to blue
    only, its order holds at least three blue nodes, each with room 0, 1
    or 2, and no circulant meets an edge already there (the proofs for
    every n are in CHANGES.md).  A circulant of degree 0, which the builder
    calls where a residual degree is 0, adds no key; the others are
    counted."""
    faults, opened, rooms, circulants = [], {"red": 0, "blue": 0}, Counter(), 0
    realize, circulant = construct._realize_deficits, construct._add_regular_subgraph
    blue_top_up, add = construct._add_extra_blue_edges, construct.ConstructionReport.add

    def spied(keys, n, members, k, deg, label):
        opened[label] += bool((deg[members] < k).any())
        faults.extend((n, k, label, f) for f in pairing_lemma_faults(keys, n, members, k, deg, label))
        return realize(keys, n, members, k, deg, label)

    def spied_top_up(n, order, deg, k, k_blue):
        room = k - k_blue - deg[order]
        rooms.update(room.tolist())
        if len(order) < 3 or not set(room.tolist()) <= {0, 1, 2}:
            faults.append((n, k, "top-up", len(order), sorted(set(room.tolist()))))
        return blue_top_up(n, order, deg, k, k_blue)

    def recorded(report, keys, stage, fresh, **extra):
        n, n_red = report.n, report.n // 2 + 1
        if stage == "blue-top-up" and not ((keys // n < n_red) & (keys % n >= n_red)).all():
            faults.append((n, report.k, "top-up", "a key within one color"))
        return add(report, keys, stage, fresh, **extra)

    def spied_circulant(keys, n, nodes, k_sub):
        nonlocal circulants
        circulants += k_sub > 0
        fresh = circulant(keys, n, nodes, k_sub)
        if k_sub < 0 or (k_sub == 0) != (len(fresh) == 0) or np.isin(fresh, keys).any():
            faults.append((n, "circulant", k_sub))
        return fresh

    monkeypatch.setattr(construct, "_realize_deficits", spied)
    monkeypatch.setattr(construct, "_add_extra_blue_edges", spied_top_up)
    monkeypatch.setattr(construct.ConstructionReport, "add", recorded)
    monkeypatch.setattr(construct, "_add_regular_subgraph", spied_circulant)
    pairs = feasible_pairs(99)
    for n, k in pairs:
        construct_regular_illusion_report(n, k)
    assert faults == []
    assert opened == {"red": 803, "blue": 760}
    assert (len(pairs), circulants) == (3310, 6262)
    assert rooms == {0: 40_732, 1: 56_373, 2: 12_803}
