import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majority_illusion import (
    Color,
    ColoredGraph,
    InternalInvariantError,
    PreconditionError,
    Winner,
    all_red,
    classify_network,
    coloring_from_string,
    complete_graph,
    odd_degree_swap_upgrade,
    cycle_graph,
    illusion_coloring,
    is_weak_majority_coloring,
    majority_winner,
    make_graph,
    monochromatic_count,
    proper_2_coloring,
    random_coloring,
    strict_illusion_from_proper,
    weak_majority_2_coloring,
    weak_majority_2_coloring_swaps,
)
from majority_illusion.coloring import WINNER_CODES
from majority_illusion.graphs import Graph, circulant_graph

from conftest import as_coloring, colored_graphs, graphs

R, B = Color.RED, Color.BLUE


def flipped(colors, i):
    """Copy of the Color tuple ``colors`` with node ``i``'s color swapped:
    the tuple function that ``ColoredGraph.with_flipped`` replaced, kept as
    its reference."""
    out = list(colors)
    out[i] = out[i].other
    return tuple(out)


def inverted(colors):
    """Copy of the Color tuple ``colors`` with every color swapped: the
    tuple function that ``ColoredGraph.with_inverted`` replaced."""
    return tuple(c.other for c in colors)


def test_majority_winner_basic():
    assert majority_winner([R, R, B]) is Winner.RED
    assert majority_winner([R, B]) is Winner.TIE
    assert majority_winner([]) is Winner.TIE
    assert majority_winner([B, B, B]) is Winner.BLUE


def test_monochromatic_count_examples():
    triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert monochromatic_count(ColoredGraph(triangle, (R, R, R))) == (3, 0)
    edge = make_graph(2, [(0, 1)])
    assert monochromatic_count(ColoredGraph(edge, (R, B))) == (0, 1)
    c4 = cycle_graph(4)
    assert monochromatic_count(ColoredGraph(c4, coloring_from_string("RBRB"))) == (0, 4)


@given(colored_graphs(max_n=10, min_n=0))
def test_monochromatic_count_matches_the_per_edge_definition(cg):
    mono = sum(1 for u, v in cg.graph.edges if cg.colors[u] is cg.colors[v])
    assert monochromatic_count(cg) == (mono, cg.graph.edge_count - mono)


def test_swap_loop_on_monochromatic_triangle():
    triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    colors, swaps = weak_majority_2_coloring_swaps(triangle, all_red(3))
    assert swaps == 1
    assert as_coloring(colors) == (B, R, R)  # lowest-id violator flips first
    assert is_weak_majority_coloring(triangle, colors)


def test_swap_loop_keeps_already_balanced_coloring():
    c4 = cycle_graph(4)
    initial = coloring_from_string("RBRB")
    colors, swaps = weak_majority_2_coloring_swaps(c4, initial)
    assert swaps == 0
    assert as_coloring(colors) == initial


def test_swap_loop_ignores_edgeless_graph():
    g = make_graph(3, [])
    initial = (R, B, R)
    assert as_coloring(weak_majority_2_coloring(g, initial)) == initial


def test_colored_graph_rejects_a_coloring_of_the_wrong_length():
    with pytest.raises(PreconditionError, match="coloring covers 3 nodes, graph has 4"):
        ColoredGraph(cycle_graph(4), coloring_from_string("RBR"))


def test_coloring_strings_hold_only_r_and_b():
    with pytest.raises(PreconditionError, match="only contain 'R' and 'B': 'RGB'"):
        coloring_from_string("RGB")


def test_swap_loop_rejects_partial_initial():
    with pytest.raises(PreconditionError):
        weak_majority_2_coloring(cycle_graph(4), (R, B))


@given(graphs(max_n=9), st.randoms(use_true_random=False))
def test_swap_loop_postcondition_any_start(g, rng):
    initial = tuple(rng.choice((R, B)) for _ in range(g.n))
    mono_start = sum(
        1 for u, v in g.edges if initial[u] is initial[v]
    )
    colors, swaps = weak_majority_2_coloring_swaps(g, initial)
    assert is_weak_majority_coloring(g, colors)
    assert swaps <= mono_start <= g.edge_count
    assert (as_coloring(colors), swaps) == _rescan_swap_loop(g, initial)


def _rescan_swap_loop(g, initial, order=None):
    """Reference oracle: the original loop, rescanning the nodes in
    ascending id from the start after every swap, and checking that every
    swap strictly lowers the monochromatic total and leaves it at least 0.
    The swapped nodes are appended to ``order``, if given."""
    colors = list(initial)
    mono_deg = [
        sum(1 for j in g.adj[i] if colors[j] is colors[i]) for i in range(g.n)
    ]
    total_mono = sum(mono_deg) // 2
    swaps = 0
    while True:
        target = next((i for i in range(g.n) if 2 * mono_deg[i] > g.degree(i)), -1)
        if target < 0:
            return tuple(colors), swaps
        if order is not None:
            order.append(target)
        old = colors[target]
        colors[target] = old.other
        before = total_mono
        total_mono -= 2 * mono_deg[target] - g.degree(target)
        assert 0 <= total_mono < before
        mono_deg[target] = g.degree(target) - mono_deg[target]
        for j in g.adj[target]:
            mono_deg[j] += -1 if colors[j] is old else 1
        swaps += 1


@settings(max_examples=200)
@given(graphs(max_n=30), st.data())
def test_swap_loop_matches_rescan_reference(g, data):
    initial = tuple(
        data.draw(st.lists(st.sampled_from((R, B)), min_size=g.n, max_size=g.n))
    )
    for start in (initial, all_red(g.n)):
        colors, swaps = weak_majority_2_coloring_swaps(g, start)
        assert (as_coloring(colors), swaps) == _rescan_swap_loop(g, start)


def test_swap_loop_scales_to_long_cycles():
    g = cycle_graph(100_000)
    colors, swaps = weak_majority_2_coloring_swaps(g, all_red(g.n))
    assert swaps == 50_000
    assert is_weak_majority_coloring(g, colors)


# (edges, start, node): a neighbour's swap leaves the node at a red lead of
# 0, as many red as blue neighbours, so it is no violator and keeps its colour.
LEAD_ZERO = [
    ([(0, 1), (1, 2)], "RRR", 1),  # red, the lead falling from 2
    ([(0, 1), (1, 2)], "BBB", 1),  # blue, rising from -2
    ([(0, 1), (0, 2), (0, 3), (1, 2)], "RRBR", 2),  # blue, falling from 2
    ([(0, 1), (0, 2), (0, 3), (1, 2)], "BRBB", 1),  # red, rising from -2
]


@pytest.mark.parametrize("edges, start, node", LEAD_ZERO)
def test_swap_loop_leaves_a_node_at_lead_zero_unswapped(edges, start, node):
    g = make_graph(len(start), edges)
    initial = coloring_from_string(start)
    colors, swaps = weak_majority_2_coloring_swaps(g, initial)
    assert (as_coloring(colors), swaps) == _rescan_swap_loop(g, initial)
    assert as_coloring(colors)[node] is initial[node]


@pytest.mark.parametrize("start", ["RRRR", "BBBB"])
def test_swap_loop_steps_back_below_its_target(start):
    # a star with centre 1: leaf 0 swaps, then the centre, which makes
    # leaf 0 a violator again, below the centre
    g = make_graph(4, [(0, 1), (1, 2), (1, 3)])
    initial = coloring_from_string(start)
    order = []
    colors, swaps = weak_majority_2_coloring_swaps(g, initial)
    assert (as_coloring(colors), swaps) == _rescan_swap_loop(g, initial, order)
    assert order == [0, 1, 0]


def test_swap_loop_passes_over_isolated_nodes():
    g = make_graph(9, [(1, 2), (2, 3), (3, 1), (2, 5), (5, 7)])
    for start in ("RRRRRRRRR", "BRBBRBRRB", "RBBRBRBRR"):
        initial = coloring_from_string(start)
        colors, swaps = weak_majority_2_coloring_swaps(g, initial)
        assert (as_coloring(colors), swaps) == _rescan_swap_loop(g, initial)
        for i in (0, 4, 6, 8):
            assert as_coloring(colors)[i] is initial[i]


def test_swap_loop_stops_at_its_budget_on_asymmetric_rows():
    # rows 0 -> 1 -> 2 -> 0, none holding its reverse: the rows count one
    # monochromatic edge, a budget of one swap, but each swap leaves the next
    # node a violator, so without the guard the loop would never end
    g = Graph(3, np.array([0, 1, 2, 3]), np.array([1, 2, 0]))
    with pytest.raises(InternalInvariantError, match="monochromatic-edge budget"):
        weak_majority_2_coloring_swaps(g, all_red(3))
    with pytest.raises(AssertionError):
        _rescan_swap_loop(g, all_red(3))


def test_illusion_coloring_on_complete_4():
    cg = illusion_coloring(complete_graph(4))
    assert sorted(c.value for c in cg.colors) == ["B", "B", "R", "R"]
    report = classify_network(cg)
    assert report.weak_count == 4
    assert report.unanimity_weak_majority


def test_illusion_coloring_on_cycle_4():
    cg = illusion_coloring(cycle_graph(4))
    assert cg.colors in (coloring_from_string("RBRB"), coloring_from_string("BRBR"))
    assert cg.global_winner is Winner.TIE
    for i in range(4):
        assert cg.local_winner(i) is Winner.of(cg.colors[i].other)


def test_illusion_coloring_single_node():
    g = make_graph(1, [])
    cg = illusion_coloring(g)
    assert cg.local_winner(0) is Winner.TIE
    assert cg.global_winner is not Winner.TIE
    assert classify_network(cg).majority_weak_majority


def test_illusion_coloring_requires_a_node():
    with pytest.raises(PreconditionError):
        illusion_coloring(make_graph(0, []))


@settings(max_examples=60)
@given(graphs(max_n=9))
def test_illusion_coloring_beats_half_everywhere(g):
    cg = illusion_coloring(g)
    assert classify_network(cg).majority_weak_majority
    assert is_weak_majority_coloring(g, cg.colors)


def test_proper_coloring_even_cycle():
    assert as_coloring(proper_2_coloring(cycle_graph(4))) == coloring_from_string("RBRB")
    assert as_coloring(proper_2_coloring(cycle_graph(6))) == coloring_from_string("RBRBRB")


def test_proper_coloring_odd_cycle_fails():
    assert proper_2_coloring(cycle_graph(3)) is None


def test_proper_coloring_roots_each_component_red():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert as_coloring(proper_2_coloring(g)) == (R, B, R, B)


def test_strict_from_proper_on_odd_path():
    path5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cg = strict_illusion_from_proper(path5)
    assert cg is not None
    assert classify_network(cg).majority_majority


def test_strict_from_proper_balanced_biclique_swaps():
    k33 = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    cg = strict_illusion_from_proper(k33)
    assert cg is not None
    report = classify_network(cg)
    assert report.strict_count == 3
    assert report.weak_majority_majority


def test_strict_from_proper_rejects_low_degree_neighbors():
    assert strict_illusion_from_proper(cycle_graph(4)) is None


def test_strict_from_proper_rejects_odd_cycles():
    assert strict_illusion_from_proper(cycle_graph(3)) is None


def test_swap_upgrade_on_balanced_biclique():
    k33 = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    cg = ColoredGraph(k33, coloring_from_string("RRRBBB"))
    out = odd_degree_swap_upgrade(cg)
    assert out is not None
    report = classify_network(out)
    assert 2 * report.strict_count >= 6
    assert report.weak_majority_majority


def test_swap_upgrade_needs_margin_two():
    edge = make_graph(2, [(0, 1)])
    assert odd_degree_swap_upgrade(ColoredGraph(edge, (R, B))) is None


def test_swap_upgrade_rejects_even_degrees():
    cg = ColoredGraph(cycle_graph(4), coloring_from_string("RBRB"))
    with pytest.raises(PreconditionError, match="odd"):
        odd_degree_swap_upgrade(cg)


def test_swap_upgrade_rejects_unbalanced_global():
    claw = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    cg = ColoredGraph(claw, (R, B, B, B))  # weak coloring, blue global winner
    with pytest.raises(PreconditionError, match="tied"):
        odd_degree_swap_upgrade(cg)


def test_swap_upgrade_rejects_own_majority_coloring():
    edge = make_graph(2, [(0, 1)])
    with pytest.raises(PreconditionError, match="weak majority"):
        odd_degree_swap_upgrade(ColoredGraph(edge, (R, R)))


def test_swap_upgrade_after_illusion_coloring_on_odd_graphs():
    import random

    from conftest import odd_degree_graph

    rng = random.Random(23)
    upgraded = 0
    for _ in range(40):
        g = odd_degree_graph(rng, rng.choice((6, 8, 10, 12)), rng.choice((1, 3, 5)))
        cg = illusion_coloring(g)
        if cg.global_winner is not Winner.TIE:
            continue
        out = odd_degree_swap_upgrade(cg)
        if out is not None:
            assert classify_network(out).weak_majority_majority
            upgraded += 1
    assert upgraded > 0


def test_strict_from_proper_raises_on_degenerate_isolated_nodes():
    # isolated majority-colored nodes see a tie, so the claimed strict count
    # cannot be met; the defect surfaces instead of returning a wrong label
    from majority_illusion import InternalInvariantError

    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(InternalInvariantError):
        strict_illusion_from_proper(g)


@given(colored_graphs(max_n=8))
def test_color_swap_preserves_edge_chromaticity(cg):
    assert monochromatic_count(cg) == monochromatic_count(cg.with_inverted())


@given(graphs(max_n=8))
def test_illusion_coloring_deterministic(g):
    assert illusion_coloring(g).colors == illusion_coloring(g).colors


def _reference_illusion_coloring(g, initial=None):
    """The illusion coloring with its tied nodes and its disagreeing count
    found one ``local_winner`` call at a time."""
    colors = as_coloring(weak_majority_2_coloring(g, initial))
    for _ in range(g.edge_count + 2):
        cg = ColoredGraph(g, colors)
        if cg.global_winner is not Winner.TIE:
            break
        tied = [i for i in range(g.n) if cg.local_winner(i) is Winner.TIE]
        if 2 * (g.n - len(tied)) > g.n:
            break
        colors = as_coloring(weak_majority_2_coloring(g, flipped(colors, tied[0])))
    result = ColoredGraph(g, colors)
    under = sum(1 for i in range(g.n) if result.local_winner(i) is not result.global_winner)
    if not 2 * under > g.n:
        raise InternalInvariantError("reference left too few nodes in disagreement")
    return result


@settings(max_examples=300, deadline=None)
@given(
    graphs(max_n=10)
    | st.integers(2, 40).map(lambda n: cycle_graph(2 * n))
    | st.integers(3, 30).map(lambda n: circulant_graph(2 * n, [1, 2])),
    st.integers(0, 2**32),
)
def test_illusion_coloring_matches_the_per_node_reference(g, seed):
    """Same colors from every start, global ties (and so tie flips)
    included; the winner codes decode to ``local_winner``."""
    for initial in (None, tuple(random.Random(seed).choice((R, B)) for _ in range(g.n))):
        cg = illusion_coloring(g, initial)
        assert cg.colors == _reference_illusion_coloring(g, initial).colors
        assert [WINNER_CODES[c] for c in cg.local_winner_codes.tolist()] == [
            cg.local_winner(i) for i in range(g.n)
        ]


# The set-based strict upgrades that the CSR picks replaced, kept verbatim
# (with their helpers) as references.


def _ref_is_weak_majority_coloring(g, colors):
    cg = ColoredGraph(g, tuple(colors))
    return all(cg.local_winner(i).color is not c for i, c in enumerate(cg.colors))


def _ref_proper_2_coloring(g):
    colors = [None] * g.n
    for root in range(g.n):
        if colors[root] is not None:
            continue
        colors[root] = Color.RED
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in sorted(g.adj[u]):
                    if colors[v] is None:
                        colors[v] = colors[u].other
                        nxt.append(v)
                    elif colors[v] is colors[u]:
                        return None
            queue = nxt
    return tuple(colors)


def _ref_strict_illusion_from_proper(g):
    base = _ref_proper_2_coloring(g)
    if base is None:
        return None
    cg = ColoredGraph(g, base)
    if cg.global_winner is not Winner.TIE:
        _ref_require_strict_count(cg, minimum=g.n // 2 + 1)
        return cg
    pick = -1
    for i in range(g.n):
        if all(g.degree(j) > 2 for j in g.adj[i]):
            pick = i
            break
    if pick < 0:
        return None
    out = cg.with_flipped(pick)
    _ref_require_strict_count(out, minimum=g.n // 2)
    return out


def _ref_odd_degree_swap_upgrade(cg):
    g = cg.graph
    if any(d % 2 == 0 for d in g.degrees()):
        raise PreconditionError("all node degrees must be odd")
    if not _ref_is_weak_majority_coloring(g, cg.colors):
        raise PreconditionError("coloring is not a weak majority 2-coloring")
    if cg.global_winner is not Winner.TIE:
        raise PreconditionError("global vote must be tied")

    margin = [abs(2 * red - len(a)) for red, a in zip(cg.red_neighbor_array.tolist(), g.adj)]
    pick = next((j for j in range(g.n) if all(margin[u] >= 2 for u in g.adj[j])), None)
    if pick is None:
        return None
    out = cg.with_flipped(pick)
    _ref_require_strict_count(out, minimum=(g.n + 1) // 2)
    return out


def _ref_require_strict_count(cg, minimum):
    gw = cg.global_winner
    strict = sum(
        1
        for i in range(cg.graph.n)
        if (lw := cg.local_winner(i)) is not Winner.TIE
        and gw is not Winner.TIE
        and lw is not gw
    )
    if strict < minimum:
        raise InternalInvariantError(
            f"expected at least {minimum} nodes under strict illusion, found {strict}"
        )


def _outcome(call, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call(*args)
    except (PreconditionError, InternalInvariantError) as exc:
        return type(exc), str(exc)


@st.composite
def _bipartite_graphs(draw):
    """Bicliques, sparse or with a few edges dropped, plus up to three
    isolated nodes, under a random relabelling, so that the sides and the
    isolated nodes interleave."""
    left, right = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    isolated = draw(st.sampled_from((0, 0, 0, 1, 2, 3)))
    n = left + right + isolated
    pairs = [(u, v) for u in range(left) for v in range(left, left + right)]
    picked = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    chosen = sorted(picked if draw(st.booleans()) else set(pairs) - picked)
    label = draw(st.permutations(range(n)))
    return make_graph(n, [(label[u], label[v]) for u, v in chosen])


@st.composite
def _odd_degree_graphs(draw):
    from conftest import odd_degree_graph

    n = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    layers = draw(st.sampled_from([d for d in (1, 3, 3, 5, 5, 7) if d < n]))
    g = odd_degree_graph(random.Random(draw(st.integers(0, 2**32))), n, layers)
    isolated = draw(st.sampled_from((0, 0, 0, 1)))
    return make_graph(n + isolated, g.edges)


@settings(max_examples=400, deadline=None)
@given(_bipartite_graphs() | _odd_degree_graphs() | graphs(max_n=9, min_n=0), st.data())
def test_strict_upgrades_match_the_set_based_references(g, data):
    """Both strict upgrades give the set-based references' colored graph or
    ``None``, or raise the same error, on bipartite graphs, odd-degree
    graphs and graphs with isolated nodes; the upgrade is fed the illusion
    coloring, the proper coloring and a drawn one."""
    assert as_coloring(proper_2_coloring(g)) == _ref_proper_2_coloring(g)
    assert _outcome(strict_illusion_from_proper, g) == _outcome(_ref_strict_illusion_from_proper, g)
    drawn = tuple(data.draw(st.lists(st.sampled_from((R, B)), min_size=g.n, max_size=g.n)))
    starts = [
        drawn,
        as_coloring(proper_2_coloring(g)),
        as_coloring(weak_majority_2_coloring(g, drawn)),
        illusion_coloring(g).colors if g.n else None,
    ]
    for colors in (s for s in starts if s is not None):
        cg = ColoredGraph(g, colors)
        assert is_weak_majority_coloring(g, colors) == _ref_is_weak_majority_coloring(g, colors)
        assert _outcome(odd_degree_swap_upgrade, cg) == _outcome(_ref_odd_degree_swap_upgrade, cg)


def _reference_random_coloring(n, rng):
    """The per-node draw that ``random_coloring`` replaced, as the
    reference for its colors and for the generator state it leaves."""
    return tuple(rng.choice((R, B)) for _ in range(n))


@pytest.mark.parametrize("n", [0, 1, 5, 100, 3500])
def test_random_coloring_keeps_the_per_node_stream(n):
    """Seeds 0-199: the bulk draw gives the per-node loop's colors, as a
    read-only column, and leaves the generator where the loop leaves it, so
    the next draw agrees too.  A change to how ``Random.choice`` draws would
    show here."""
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        red = random_coloring(n, rng)
        assert not red.flags.writeable
        assert as_coloring(red) == _reference_random_coloring(n, ref)
        assert rng.random() == ref.random()


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls; ``choice``
    still draws through ``getrandbits``, so the stream is unchanged."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_random_coloring_draws_again_when_a_bulk_draw_runs_short():
    """At 50 000 nodes the first bulk draw holds too few accepted words
    about two times in five: those seeds take a second draw and still give
    the per-node loop's colors and generator state."""
    rounds = []
    for seed in range(10):
        rng, ref = _CountingRandom(seed), random.Random(seed)
        red = random_coloring(50_000, rng)
        rounds.append(rng.calls - 1)  # the last call moves the stream on
        assert as_coloring(red) == _reference_random_coloring(50_000, ref)
        assert rng.random() == ref.random()
    assert 1 in rounds and max(rounds) > 1


def test_random_coloring_takes_a_system_random():
    """A ``SystemRandom`` has no state to rewind: its colors are drawn all
    the same, as the per-node loop drew them."""
    red = random_coloring(1000, random.SystemRandom())
    assert red.shape == (1000,) and 0 < np.count_nonzero(red) < 1000


@given(graphs(max_n=12, min_n=0), st.data())
def test_the_red_column_holds_the_coloring(g, data):
    """A coloring given as a Color tuple reads back from the ``colors``
    view; ``red`` is read-only, a writable column is copied, and the flips
    match the tuple references."""
    coloring = tuple(data.draw(st.lists(st.sampled_from((R, B)), min_size=g.n, max_size=g.n)))
    cg = ColoredGraph(g, coloring)
    assert cg.colors == coloring
    assert not cg.red.flags.writeable
    assert cg.red.tolist() == [c is R for c in coloring]
    column = np.array(cg.red)
    same = ColoredGraph(g, column)
    column[:] = ~column
    assert same == cg and hash(same) == hash(cg) and same.colors == coloring
    assert ColoredGraph(g, cg.red).red is cg.red
    assert cg.with_inverted().colors == inverted(coloring)
    if g.n:
        i = data.draw(st.integers(-g.n, g.n - 1))
        assert cg.with_flipped(i).colors == flipped(coloring, i)
    with pytest.raises(IndexError):
        cg.with_flipped(g.n)
    with pytest.raises(IndexError):
        flipped(coloring, g.n)
    assert cg.colors == coloring
