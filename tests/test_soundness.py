"""Cross-module agreement checks at exhaustive desk scale."""

import numpy as np
import pytest

from majority_illusion import (
    IllusionKind,
    Winner,
    classify_network,
    enumerate_regular,
    formula_possible,
    illusion_coloring,
    illusion_formula,
    illusion_possible,
    proper_2_coloring,
    regular_exists,
)
from majority_illusion.coloring import ColoredGraph
from majority_illusion.oracle import _neighbor_masks

from conftest import atlas_connected, atlas_graphs, odd_degree_graph


def test_weak_illusion_reachable_on_every_graph_up_to_6_nodes():
    count = 0
    for g in atlas_graphs(6):
        assert illusion_possible(g, IllusionKind.MAJORITY_WEAK_MAJORITY)
        count += 1
    assert count == 208  # isomorphism classes on 1..6 nodes


NETWORK_KINDS = (
    IllusionKind.MAJORITY_MAJORITY,
    IllusionKind.WEAK_MAJORITY_MAJORITY,
    IllusionKind.MAJORITY_WEAK_MAJORITY,
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY,
)


def test_logic_and_oracle_agree_on_every_graph_up_to_6_nodes():
    for g in atlas_graphs(6, min_n=0):
        for kind in NETWORK_KINDS:
            assert formula_possible(g, illusion_formula(kind)) == illusion_possible(
                g, kind
            ), (g.n, g.edges, kind)


def _max_strict_count(graphs, n, k):
    """Largest strict-illusion agent count over all graphs and colorings."""
    masks = np.arange(1 << n, dtype=np.uint32)
    global_red = np.bitwise_count(masks).astype(np.int16)
    global_side = np.sign(2 * global_red - n).astype(np.int8)
    best = 0
    for batch_start in range(0, len(graphs), 512):
        batch = graphs[batch_start : batch_start + 512]
        nbr = np.stack([_neighbor_masks(g) for g in batch])  # (G, n)
        local_red = np.bitwise_count(nbr[:, :, None] & masks[None, None, :])
        local_side = np.sign(2 * local_red.astype(np.int16) - k).astype(np.int8)
        strict = (
            (local_side != global_side[None, None, :])
            & (local_side != 0)
            & (global_side[None, None, :] != 0)
        ).sum(axis=1)
        best = max(best, int(strict.max()))
    return best


@pytest.mark.parametrize("n", range(4, 9))
def test_negative_verdicts_are_sound_up_to_8_nodes(n):
    for k in range(1, n):
        if (n * k) % 2 == 1:
            continue
        if regular_exists(n, k).possible:
            continue
        graphs = list(enumerate_regular(n, k))
        assert graphs, f"no {k}-regular graphs on {n} nodes to check"
        best = _max_strict_count(graphs, n, k)
        assert 2 * best <= n, (n, k, best)


def test_positive_verdict_within_enumeration_range_has_witness():
    # the one feasible pair with n <= 8: some enumerated graph must admit it
    assert regular_exists(7, 4).possible
    graphs = list(enumerate_regular(7, 4))
    assert any(
        illusion_possible(g, IllusionKind.MAJORITY_MAJORITY) for g in graphs
    )


def test_proper_colorings_split_into_the_two_network_classes():
    # on bipartite graphs without isolated nodes the proper coloring is a
    # majority-majority illusion or, on a global tie, unanimity-weak
    for g in atlas_connected(6):
        if g.n < 2:
            continue
        colors = proper_2_coloring(g)
        if colors is None:
            continue
        report = classify_network(ColoredGraph(g, colors))
        cg = ColoredGraph(g, colors)
        if cg.global_winner is Winner.TIE:
            assert report.unanimity_weak_majority
        else:
            assert report.majority_majority


def test_odd_degree_illusion_coloring_dichotomy_small():
    import random

    rng = random.Random(11)
    for _ in range(40):
        g = odd_degree_graph(rng, rng.choice((6, 8, 10)), rng.choice((1, 3)))
        cg = illusion_coloring(g)
        report = classify_network(cg)
        assert report.unanimity_weak_majority or report.majority_majority
