from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majority_illusion import (
    AgentStatus,
    Chromaticity,
    Color,
    ColoredGraph,
    CompleteWeakClass,
    GraphError,
    IllusionKind,
    Level,
    NetworkIllusionReport,
    Objective,
    PqReport,
    PreconditionError,
    Strictness,
    Winner,
    agent_status,
    agent_statuses,
    classify_network,
    complete_graph,
    complete_majority_weak_classification,
    coloring_from_string,
    cycle_graph,
    make_graph,
    pq_report,
    q_illusion,
    status_columns,
    weak_q_illusion,
    write_colored_graph,
)
from majority_illusion.coloring import (
    coloring_to_string,
    illusion_coloring,
    is_weak_majority_coloring,
    majority_winner,
    monochromatic_count,
    strict_illusion_from_proper,
)
from majority_illusion.fileformat import parse_colored_graph
from majority_illusion.logic import model_from_colored_graph

from conftest import colored_graphs

R, B = Color.RED, Color.BLUE
HALF = Fraction(1, 2)

# The nine taxonomy rows for a red-colored agent: (local, global) ->
# (opposition, illusion); the blue-agent rows follow by color symmetry.
TAXONOMY_RED = {
    (Winner.RED, Winner.RED): (Level.NONE, Level.NONE),
    (Winner.RED, Winner.TIE): (Level.NONE, Level.WEAK),
    (Winner.RED, Winner.BLUE): (Level.NONE, Level.STRICT),
    (Winner.TIE, Winner.RED): (Level.WEAK, Level.WEAK),
    (Winner.TIE, Winner.TIE): (Level.WEAK, Level.NONE),
    (Winner.TIE, Winner.BLUE): (Level.WEAK, Level.WEAK),
    (Winner.BLUE, Winner.RED): (Level.STRICT, Level.STRICT),
    (Winner.BLUE, Winner.TIE): (Level.STRICT, Level.WEAK),
    (Winner.BLUE, Winner.BLUE): (Level.STRICT, Level.NONE),
}


def _instance_with(own, local, glob):
    """Star center 0 with two neighbors fixing the local winner, plus
    isolated fillers fixing the global winner."""
    local_counts = {Winner.RED: (2, 0), Winner.BLUE: (0, 2), Winner.TIE: (1, 1)}
    a, b = local_counts[local]
    for f_red in range(7):
        for f_blue in range(7):
            reds = a + f_red + (own is R)
            blues = b + f_blue + (own is B)
            n = reds + blues
            if 2 * reds > n:
                winner = Winner.RED
            elif 2 * blues > n:
                winner = Winner.BLUE
            else:
                winner = Winner.TIE
            if winner is not glob:
                continue
            colors = [own] + [R] * a + [B] * b + [R] * f_red + [B] * f_blue
            g = make_graph(n, [(0, j) for j in range(1, 3)])
            return ColoredGraph(g, tuple(colors))
    raise AssertionError("no instance found")


@pytest.mark.parametrize("kind", [Color, Winner, Level, Chromaticity, IllusionKind, Objective])
def test_enum_members_print_as_their_values(kind):
    for member in kind:
        assert str(member) == format(member) == f"{member}" == member.value


def test_enums_outside_the_printed_reports_keep_pythons_text():
    assert str(Strictness.STRICT) == "Strictness.STRICT"
    assert str(CompleteWeakClass.NONE) == "CompleteWeakClass.NONE"


@pytest.mark.parametrize("own", [R, B])
@pytest.mark.parametrize("local,glob", sorted(TAXONOMY_RED, key=str))
def test_taxonomy_rows_realized_and_classified(own, local, glob):
    if own is B:  # color symmetry: swap every winner
        swap = {Winner.RED: Winner.BLUE, Winner.BLUE: Winner.RED, Winner.TIE: Winner.TIE}
        expected = TAXONOMY_RED[(swap[local], swap[glob])]
    else:
        expected = TAXONOMY_RED[(local, glob)]
    cg = _instance_with(own, local, glob)
    status = agent_status(cg, 0)
    assert status.local_winner is local
    assert status.global_winner is glob
    assert (status.opposition, status.illusion) == expected


def test_agent_status_weak_on_balanced_complete_4():
    cg = ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    status = agent_status(cg, 0)
    assert status.local_winner is Winner.BLUE
    assert status.global_winner is Winner.TIE
    assert status.illusion is Level.WEAK
    assert status.illusion_color is B


def test_agent_status_quiet_on_unanimous_triangle():
    triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    status = agent_status(ColoredGraph(triangle, (R, R, R)), 0)
    assert status.opposition is Level.NONE
    assert status.illusion is Level.NONE
    assert status.illusion_color is None


def test_agent_status_opposition_without_illusion():
    path = make_graph(3, [(0, 1), (1, 2)])
    status = agent_status(ColoredGraph(path, (R, B, R)), 1)
    assert status.local_winner is Winner.RED
    assert status.global_winner is Winner.RED
    assert status.opposition is Level.STRICT
    assert status.illusion is Level.NONE


def test_classify_balanced_complete_graph():
    report = classify_network(
        ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    )
    assert report.unanimity_weak_majority
    assert report.majority_weak_majority
    assert not report.majority_majority
    assert report.chromaticity is Chromaticity.POLYCHROMATIC


def test_classify_alternating_cycle():
    report = classify_network(
        ColoredGraph(cycle_graph(4), coloring_from_string("RBRB"))
    )
    assert report.unanimity_weak_majority


def test_classify_unanimous_triangle_has_no_flags():
    triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    report = classify_network(ColoredGraph(triangle, (R, R, R)))
    assert not any(report.flag(kind) for kind in IllusionKind)
    assert report.none_count == 3


def test_isolated_nodes_flagged_in_report():
    g = make_graph(3, [(0, 1)])
    report = classify_network(ColoredGraph(g, (R, B, R)))
    assert report.isolated_nodes == (2,)


@given(colored_graphs(max_n=8))
def test_q_half_matches_strict_and_weak_statuses(cg):
    for status in agent_statuses(cg):
        strict_witness = q_illusion(cg, status.node, HALF)
        weak_witness = weak_q_illusion(cg, status.node, HALF)
        assert (strict_witness is not None) == (status.illusion is Level.STRICT)
        assert (weak_witness is not None) == (status.illusion is not Level.NONE)
        if strict_witness is not None:
            assert strict_witness is status.illusion_color
        if weak_witness is not None:
            assert weak_witness is status.illusion_color


def test_q_zero_never_witnesses():
    cg = ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    assert all(q_illusion(cg, i, Fraction(0)) is None for i in range(4))


def test_q_two_fifths_blocked_by_global_share():
    # K5 with two blue nodes: a red node sees both blues (2 > 0.4*4), but
    # the global blue share is not strictly below 0.4*5.
    cg = ColoredGraph(complete_graph(5), coloring_from_string("RRRBB"))
    assert q_illusion(cg, 0, Fraction(2, 5)) is None


def test_weak_q_exact_double_equality_excluded():
    path = make_graph(4, [(0, 1), (1, 2)])
    cg = ColoredGraph(path, (R, R, B, B))
    # node 1: one red, one blue neighbor; global 2R/2B; both shares hit 1/2
    assert weak_q_illusion(cg, 1, HALF) is None


def test_weak_q_half_on_balanced_complete_4():
    cg = ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    assert weak_q_illusion(cg, 0, HALF) is B


def test_threshold_range_validated():
    cg = ColoredGraph(complete_graph(3), (R, R, B))
    with pytest.raises(PreconditionError):
        q_illusion(cg, 0, Fraction(3, 2))


def test_pq_report_matches_network_flags_at_half():
    cg = ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    report = classify_network(cg)
    pq = pq_report(cg, HALF, HALF)
    assert pq.pq == report.majority_majority
    assert pq.weak_pq == report.weak_majority_majority
    assert pq.p_weak_q == report.majority_weak_majority
    assert pq.weak_p_weak_q == report.weak_majority_weak_majority


def test_pq_report_zero_p_counts_any_agent():
    cg = ColoredGraph(complete_graph(5), coloring_from_string("RRRBB"))
    pq = pq_report(cg, Fraction(0), HALF)
    assert pq.pq == (pq.strict_count >= 1)


def test_pq_report_full_share_weak_flag():
    cg = ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
    pq = pq_report(cg, Fraction(1), HALF)
    assert pq.weak_p_weak_q
    assert not pq.p_weak_q


@given(colored_graphs(max_n=8))
def test_network_flag_monotonicity(cg):
    r = classify_network(cg)
    if r.majority_majority:
        assert r.weak_majority_majority and r.majority_weak_majority
    if r.weak_majority_majority:
        assert r.weak_majority_weak_majority
    if r.majority_weak_majority:
        assert r.weak_majority_weak_majority
    if r.unanimity_majority:
        assert r.majority_majority
    if r.unanimity_weak_majority:
        assert r.majority_weak_majority


@given(
    colored_graphs(max_n=7),
    st.sampled_from([Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]),
)
def test_low_q_witnesses_share_one_color(cg, q):
    witnesses = {
        w for i in range(cg.graph.n) if (w := q_illusion(cg, i, q)) is not None
    }
    assert len(witnesses) <= 1
    # pq_report asserts the same internally; it must not raise
    pq_report(cg, HALF, q)


@given(colored_graphs(max_n=8))
def test_color_swap_equivariance(cg):
    flipped = cg.with_inverted()
    for before, after in zip(agent_statuses(cg), agent_statuses(flipped)):
        assert before.opposition is after.opposition
        assert before.illusion is after.illusion
        if before.illusion_color is not None:
            assert after.illusion_color is before.illusion_color.other
    r1, r2 = classify_network(cg), classify_network(flipped)
    assert all(r1.flag(kind) == r2.flag(kind) for kind in IllusionKind)


# Reference definitions: the classifier layer as it was before the tally,
# counting each node's red neighbours again wherever a rule needs them.


def _ref_local_red_count(cg, i):
    return sum(1 for j in cg.graph.neighbors(i) if cg.colors[j] is Color.RED)


def _ref_majority_winner(colors):
    red = blue = 0
    for c in colors:
        if c is Color.RED:
            red += 1
        else:
            blue += 1
    total = red + blue
    if 2 * red > total:
        return Winner.RED
    if 2 * blue > total:
        return Winner.BLUE
    return Winner.TIE


def _ref_global_winner(cg):
    red = sum(1 for c in cg.colors if c is Color.RED)
    blue = cg.graph.n - red
    if 2 * red > cg.graph.n:
        return Winner.RED
    if 2 * blue > cg.graph.n:
        return Winner.BLUE
    return Winner.TIE


def _ref_local_winner(cg, i):
    red = _ref_local_red_count(cg, i)
    d = cg.graph.degree(i)
    if 2 * red > d:
        return Winner.RED
    if 2 * (d - red) > d:
        return Winner.BLUE
    return Winner.TIE


def _ref_is_weak_majority_coloring(g, colors):
    for i in range(g.n):
        same = sum(1 for j in g.adj[i] if colors[j] is colors[i])
        if 2 * same > g.degree(i):
            return False
    return True


def _ref_status(cg, i):
    local, glob, own = _ref_local_winner(cg, i), _ref_global_winner(cg), cg.colors[i]
    if local is Winner.TIE:
        opposition = Level.WEAK
    elif local.color is own:
        opposition = Level.NONE
    else:
        opposition = Level.STRICT
    if local is glob:
        illusion, witness = Level.NONE, None
    elif local is not Winner.TIE and glob is not Winner.TIE:
        illusion, witness = Level.STRICT, local.color
    else:
        illusion = Level.WEAK
        witness = local.color if local is not Winner.TIE else glob.color.other
    isolated = cg.graph.degree(i) == 0
    return AgentStatus(i, own, local, glob, opposition, illusion, witness, isolated)


def _ref_chromaticity(witnesses):
    if len(witnesses) <= 1:
        return Chromaticity.MONOCHROMATIC
    return Chromaticity.POLYCHROMATIC


def _ref_report(cg, statuses):
    n = cg.graph.n
    strict = sum(1 for s in statuses if s.illusion is Level.STRICT)
    weak_only = sum(1 for s in statuses if s.illusion is Level.WEAK)
    under = strict + weak_only
    witnesses = {s.illusion_color for s in statuses if s.illusion is not Level.NONE}
    return NetworkIllusionReport(
        n=n,
        strict_count=strict,
        weak_only_count=weak_only,
        none_count=n - under,
        majority_majority=2 * strict > n,
        weak_majority_majority=2 * strict >= n and n > 0,
        majority_weak_majority=2 * under > n,
        weak_majority_weak_majority=2 * under >= n and n > 0,
        unanimity_majority=strict == n and n > 0,
        unanimity_weak_majority=under == n and n > 0,
        chromaticity=_ref_chromaticity(witnesses),
        isolated_nodes=cg.graph.isolated_nodes(),
    )


def _ref_q_sides(cg, i):
    d = cg.graph.degree(i)
    local_red = _ref_local_red_count(cg, i)
    global_red = sum(1 for c in cg.colors if c is Color.RED)
    return (
        (Color.RED, local_red, global_red),
        (Color.BLUE, d - local_red, cg.graph.n - global_red),
    )


def _ref_q_illusion(cg, i, q):
    d, n = cg.graph.degree(i), cg.graph.n
    for color, local, total in _ref_q_sides(cg, i):
        if local * q.denominator > q.numerator * d and total * q.denominator < q.numerator * n:
            return color
    return None


def _ref_weak_q_illusion(cg, i, q):
    d, n = cg.graph.degree(i), cg.graph.n
    for color, local, total in _ref_q_sides(cg, i):
        local_ok = local * q.denominator >= q.numerator * d
        total_ok = total * q.denominator <= q.numerator * n
        both_exact = (
            local * q.denominator == q.numerator * d
            and total * q.denominator == q.numerator * n
        )
        if local_ok and total_ok and not both_exact:
            return color
    return None


def _ref_pq_report(cg, p, q):
    n = cg.graph.n
    strict_witnesses, weak_witnesses = set(), set()
    strict_count = weak_count = 0
    for i in range(n):
        w = _ref_q_illusion(cg, i, q)
        if w is not None:
            strict_count += 1
            strict_witnesses.add(w)
        w = _ref_weak_q_illusion(cg, i, q)
        if w is not None:
            weak_count += 1
            weak_witnesses.add(w)

    return PqReport(
        n=n,
        p=p,
        q=q,
        strict_count=strict_count,
        weak_count=weak_count,
        pq=strict_count * p.denominator > p.numerator * n,
        weak_pq=strict_count * p.denominator >= p.numerator * n and n > 0,
        p_weak_q=weak_count * p.denominator > p.numerator * n,
        weak_p_weak_q=weak_count * p.denominator >= p.numerator * n and n > 0,
        strict_chromaticity=_ref_chromaticity(strict_witnesses),
        weak_chromaticity=_ref_chromaticity(weak_witnesses),
        strict_monochromatic_forced=q <= HALF,
        weak_monochromatic_forced=q < HALF,
    )


_thresholds = st.fractions(min_value=0, max_value=1, max_denominator=7)


@settings(max_examples=300, deadline=None)
@given(colored_graphs(max_n=12, min_n=0), _thresholds, _thresholds)
# exactly half the agents under strict illusion: the weak and strict
# majority flags differ
@example(ColoredGraph(make_graph(4, [(0, 3), (1, 3)]), (R, R, R, B)), HALF, HALF)
def test_one_tally_matches_the_per_node_definitions(cg, p, q):
    """Every classifier-layer output read from the cached red-neighbour
    tally equals the per-node definitions above, field by field."""
    g, n = cg.graph, cg.graph.n
    assert cg.red_neighbor_array.tolist() == [_ref_local_red_count(cg, i) for i in range(n)]
    assert cg.global_winner is _ref_global_winner(cg)
    assert majority_winner(cg.colors) is _ref_majority_winner(cg.colors)
    for i in range(n):
        assert cg.local_red_count(i) == _ref_local_red_count(cg, i)
        assert cg.local_winner(i) is _ref_local_winner(cg, i)
        neighbourhood = [cg.colors[j] for j in g.adj[i]]
        assert majority_winner(neighbourhood) is _ref_majority_winner(neighbourhood)
        assert q_illusion(cg, i, q) is _ref_q_illusion(cg, i, q)
        assert weak_q_illusion(cg, i, q) is _ref_weak_q_illusion(cg, i, q)
    assert is_weak_majority_coloring(g, cg.colors) == _ref_is_weak_majority_coloring(
        g, cg.colors
    )
    statuses = agent_statuses(cg)
    assert statuses == [_ref_status(cg, i) for i in range(n)]
    report, expected = classify_network(cg), _ref_report(cg, statuses)
    assert report == expected
    assert [report.flag(kind) for kind in IllusionKind] == [
        expected.majority_majority,
        expected.weak_majority_majority,
        expected.majority_weak_majority,
        expected.weak_majority_weak_majority,
        expected.unanimity_majority,
        expected.unanimity_weak_majority,
    ]
    assert pq_report(cg, p, q) == _ref_pq_report(cg, p, q)


@st.composite
def _status_cases(draw):
    """Colored graphs on 0..10 nodes (isolated nodes and locally tied
    neighbourhoods arise often), recolored all red, all blue, or half and
    half (a global tie at even n) as often as drawn freely."""
    cg = draw(colored_graphs(max_n=10, min_n=0))
    n = cg.graph.n
    shape = draw(st.sampled_from(["drawn", "all-red", "all-blue", "tied"]))
    if shape == "all-red":
        colors = (R,) * n
    elif shape == "all-blue":
        colors = (B,) * n
    elif shape == "tied" and n % 2 == 0:
        colors = tuple(draw(st.permutations((R, B) * (n // 2))))
    else:
        colors = cg.colors
    return ColoredGraph(cg.graph, colors)


@settings(max_examples=400, deadline=None)
@given(_status_cases())
@example(ColoredGraph(make_graph(0, []), ()))
# node 0 ties locally (one red and one blue neighbour) under a blue global
# winner, node 3 is isolated
@example(ColoredGraph(make_graph(4, [(0, 1), (0, 2)]), (B, R, B, B)))
# a global tie: each node's one neighbour wins locally
@example(ColoredGraph(make_graph(2, [(0, 1)]), (R, B)))
# a global tie, local ties at node 0, and an isolated red node 6 beside an
# isolated blue node 7
@example(
    ColoredGraph(
        make_graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]),
        coloring_from_string("RBRBRBRB"),
    )
)
def test_status_columns_match_the_definition(cg):
    """Every row read from the classes equals ``agent_status``; there are at
    most eight classes, each decided at its first node, and the nodes of
    one class differ only in ``node``."""
    n = cg.graph.n
    expected = [agent_status(cg, i) for i in range(n)]
    columns = status_columns(cg)
    codes = columns.codes.tolist()
    assert [replace(columns.statuses[c], node=i) for i, c in enumerate(codes)] == expected
    assert agent_statuses(cg) == expected
    assert len(columns.statuses) <= 8
    firsts = [codes.index(c) for c in range(len(columns.statuses))]
    assert [s.node for s in columns.statuses] == firsts
    assert len(columns.statuses) == len({replace(s, node=0) for s in expected})


@pytest.mark.parametrize(
    "call",
    [
        lambda cg: agent_status(cg, 1),
        lambda cg: agent_statuses(cg),
        lambda cg: cg.local_winner(2),
        lambda cg: cg.graph.degree(3),
        lambda cg: q_illusion(cg, 1, Fraction(1, 3)),
        lambda cg: weak_q_illusion(cg, 1, Fraction(1, 3)),
        lambda cg: is_weak_majority_coloring(cg.graph, cg.colors),
        lambda cg: classify_network(cg),
        lambda cg: pq_report(cg, HALF, Fraction(2, 3)),
    ],
)
def test_classifiers_leave_the_adjacency_sets_unbuilt(call):
    """Degrees come from the CSR offsets, so classifying a freshly parsed
    graph never builds its lazy adjacency sets."""
    text = write_colored_graph(ColoredGraph(cycle_graph(7), coloring_from_string("RRBRBBR")))
    cg = parse_colored_graph(text)
    call(cg)
    assert "adj" not in cg.graph.__dict__


@pytest.mark.parametrize(
    "call",
    [
        lambda cg: agent_status(cg, 1),
        lambda cg: agent_statuses(cg),
        lambda cg: status_columns(cg),
        lambda cg: classify_network(cg),
        lambda cg: pq_report(cg, HALF, Fraction(2, 3)),
        lambda cg: q_illusion(cg, 1, Fraction(1, 3)),
        lambda cg: is_weak_majority_coloring(cg.graph, cg.red),
        lambda cg: monochromatic_count(cg),
        lambda cg: model_from_colored_graph(cg),
        lambda cg: write_colored_graph(cg),
        lambda cg: coloring_to_string(cg.red),
        lambda cg: cg.with_flipped(2),
        lambda cg: cg.with_inverted(),
        lambda cg: illusion_coloring(cg.graph, cg.red),
        lambda cg: strict_illusion_from_proper(cycle_graph(8)),
    ],
)
def test_walkers_leave_the_color_tuple_unbuilt(call):
    """Every walker reads the red column: none of these calls builds the
    ``colors`` tuple view of the colored graph it is given or returns."""
    cg = parse_colored_graph(
        write_colored_graph(ColoredGraph(cycle_graph(7), coloring_from_string("RRBRBBR")))
    )
    result = call(cg)
    for h in [cg, *([result] if isinstance(result, ColoredGraph) else [])]:
        assert "colors" not in h.__dict__


def test_complete_classification_leaves_the_adjacency_sets_unbuilt():
    """The completeness check reads the degrees from the CSR offsets."""
    cg = parse_colored_graph(
        write_colored_graph(ColoredGraph(complete_graph(5), coloring_from_string("RRRBB")))
    )
    assert complete_majority_weak_classification(cg) is CompleteWeakClass.MAJORITY_WEAK_MAJORITY
    assert "adj" not in cg.graph.__dict__


@pytest.mark.parametrize("node", [-1, 7, 8])
def test_local_winner_rejects_an_out_of_range_node_once(node):
    cg = ColoredGraph(cycle_graph(7), coloring_from_string("RRBRBBR"))
    with pytest.raises(GraphError) as exc:
        cg.local_winner(node)
    assert str(exc.value) == f"node id {node} out of range for graph on 7 nodes"
