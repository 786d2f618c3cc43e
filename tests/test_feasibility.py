from fractions import Fraction

import pytest

from majority_illusion import (
    Color,
    ColoredGraph,
    CompleteWeakClass,
    PreconditionError,
    Strictness,
    complete_graph,
    complete_majority_weak_classification,
    complete_pq_feasible,
    coloring_from_string,
    cycle_feasible,
    cycle_graph,
    odd_degree_q_bound,
    regular_exists,
    regular_necessary,
)
from majority_illusion.analysis import Level, agent_statuses
from majority_illusion.oracle import enumerate_regular

from conftest import all_colorings

HALF = Fraction(1, 2)


def test_cycles_never_reach_strict_illusions():
    v = cycle_feasible(5)
    assert not v.majority_majority
    assert not v.weak_majority_majority
    assert v.majority_weak_majority
    assert "two-regular" in v.reasons


def test_cycle_feasible_rejects_tiny_n():
    with pytest.raises(PreconditionError):
        cycle_feasible(2)


def test_triangle_verdict_confirmed_by_exhaustive_search():
    from majority_illusion import IllusionKind, illusion_possible

    v = cycle_feasible(3)
    assert not v.weak_majority_majority
    assert not illusion_possible(cycle_graph(3), IllusionKind.WEAK_MAJORITY_MAJORITY)
    assert illusion_possible(cycle_graph(3), IllusionKind.MAJORITY_WEAK_MAJORITY)


@pytest.mark.parametrize("n", range(2, 11))
def test_complete_graphs_never_reach_strict_at_half(n):
    v = complete_pq_feasible(n, HALF, HALF)
    assert not v.pq
    assert not v.weak_pq


def test_complete_pq_refuses_an_empty_graph():
    with pytest.raises(PreconditionError) as err:
        complete_pq_feasible(0, HALF, HALF)
    assert str(err.value) == "complete graph needs at least 1 node, got 0"


def test_balanced_split_gives_weak_weak_on_even_complete():
    v = complete_pq_feasible(6, HALF, HALF)
    assert v.weak_p_weak_q
    assert v.p_weak_q  # odd-by-one split reaches strictly more than half


def test_no_pq_window_for_5_nodes_at_two_fifths():
    v = complete_pq_feasible(5, HALF, Fraction(2, 5))
    assert not v.pq


def test_polychromatic_window_counts_both_sides():
    # Balanced K4 at q=3/5: both colors witness, all 4 agents under illusion.
    v = complete_pq_feasible(4, HALF, Fraction(3, 5))
    assert v.pq


def test_complete_weak_classification_by_count_difference():
    k5 = complete_graph(5)
    assert (
        complete_majority_weak_classification(
            ColoredGraph(k5, coloring_from_string("RRRBB"))
        )
        is CompleteWeakClass.MAJORITY_WEAK_MAJORITY
    )
    assert (
        complete_majority_weak_classification(
            ColoredGraph(complete_graph(4), coloring_from_string("RRBB"))
        )
        is CompleteWeakClass.UNANIMITY_WEAK_MAJORITY
    )
    assert (
        complete_majority_weak_classification(
            ColoredGraph(k5, coloring_from_string("RRRRB"))
        )
        is CompleteWeakClass.NONE
    )


def test_complete_classification_requires_complete_graph():
    with pytest.raises(PreconditionError):
        complete_majority_weak_classification(
            ColoredGraph(cycle_graph(4), coloring_from_string("RBRB"))
        )


def test_minority_pool_bound_fails_dense_small_case():
    v = regular_necessary(6, 4)
    assert not v.possible
    assert "minority-pool" in v.failed


def test_edge_capacity_bound_fails_cubic_small_case():
    v = regular_necessary(6, 3)
    assert not v.possible
    assert v.failed == ("minority-edge-capacity",)
    assert regular_necessary(6, 3, Strictness.WEAK).possible


def test_necessary_bounds_pass_reference_case():
    assert regular_necessary(12, 6).possible


@pytest.mark.parametrize(
    "n,k,expect",
    [
        (12, 6, True),
        (6, 4, False),
        (14, 4, True),
        (7, 4, True),
        (10, 3, True),
        (8, 5, True),
    ],
)
def test_regular_exists_reference_values(n, k, expect):
    assert regular_exists(n, k).possible == expect


def test_low_degree_reason_codes():
    assert "two-regular" in regular_exists(12, 2).failed
    assert "degree-below-three" in regular_exists(12, 1).failed


def test_saturated_bipartite_parity_blocks_tight_even_cases():
    for n, k in ((12, 8), (16, 12), (20, 16), (24, 20)):
        v = regular_exists(n, k)
        assert not v.possible
        assert "saturated-bipartite-parity" in v.failed
        # the published counting bounds alone would allow these cases
        assert regular_necessary(n, k).possible


def test_parity_obstruction_derivation():
    # Re-derive the obstruction for k = n - 4, n % 4 == 0 by finite checking:
    # the majority size is forced, the bipartite core is complete, and both
    # residual regular subgraphs would need an odd degree sum.
    for n, k in ((12, 8), (16, 12), (20, 16), (24, 20)):
        need = k // 2 + 1  # minority neighbors per illusioned agent
        majority_min = n // 2 + 1
        viable_splits = [
            reds
            for reds in range(majority_min, n + 1)
            if need <= n - reds and majority_min * need <= k * (n - reds)
        ]
        assert viable_splits == [majority_min]
        blues = n - majority_min
        assert blues - 1 < need  # minority agents can never be illusioned
        assert need == blues  # every majority agent meets every minority agent
        assert (k - need) * majority_min % 2 == 1  # majority residual degree sum
        assert (k - majority_min) * blues % 2 == 1  # minority residual degree sum
    # contrast: the matching feasible shapes two nodes over leave both sums even
    for n, k in ((10, 6), (14, 10), (18, 14), (22, 18)):
        need = k // 2 + 1
        majority_min = n // 2 + 1
        blues = n - majority_min
        assert need == blues
        assert (k - need) * majority_min % 2 == 0
        assert (k - majority_min) * blues % 2 == 0


def test_handshake_parity_is_a_precondition():
    with pytest.raises(PreconditionError, match="no-regular-graph"):
        regular_exists(7, 3)
    with pytest.raises(PreconditionError):
        regular_necessary(5, 5)


@pytest.mark.parametrize("k,expected", [(3, Fraction(2, 3)), (1, Fraction(1)), (5, Fraction(3, 5))])
def test_odd_degree_threshold_formula(k, expected):
    assert odd_degree_q_bound(k) == expected


def test_odd_degree_threshold_rejects_even():
    with pytest.raises(PreconditionError):
        odd_degree_q_bound(4)


@pytest.mark.parametrize("n,k", [(4, 3), (5, 4), (6, 4), (6, 5), (7, 6)])
def test_pool_bound_failure_means_no_agent_sees_an_illusion(n, k):
    # When the minority-pool bound fails, no k-regular graph on n nodes has
    # any coloring with even one agent under strict illusion.
    assert not regular_necessary(n, k, Strictness.WEAK).possible
    for g in enumerate_regular(n, k):
        for colors in all_colorings(n):
            statuses = agent_statuses(ColoredGraph(g, colors))
            assert all(s.illusion is not Level.STRICT for s in statuses)
