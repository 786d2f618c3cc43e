import numpy as np
import pytest
from hypothesis import given, settings

import majority_illusion.oracle as oracle_module
from majority_illusion import (
    Color,
    ColoredGraph,
    IllusionKind,
    Objective,
    PreconditionError,
    best_coloring,
    coloring_to_string,
    complete_graph,
    cycle_graph,
    enumerate_regular,
    illusion_possible,
    is_weak_majority_coloring,
    make_graph,
    monochromatic_count,
)
from majority_illusion.oracle import _neighbor_masks, coloring_from_mask

from conftest import atlas_graphs, graphs


def _full_scan_counts(g, masks):
    """The oracle's kernel before the half scan, kept as the reference:
    strict and weak illusion counts per node, then monochromatic edges per
    edge, over every coloring in ``masks``."""
    n = g.n
    nbr = _neighbor_masks(g)
    global_red = np.bitwise_count(masks).astype(np.int16)
    global_side = np.sign(2 * global_red - n).astype(np.int8)
    strict = np.zeros(len(masks), dtype=np.uint8)
    weak = np.zeros(len(masks), dtype=np.uint8)
    for i in range(n):
        local_red = np.bitwise_count(masks & nbr[i]).astype(np.int16)
        local_side = np.sign(2 * local_red - g.degree(i)).astype(np.int8)
        differ = local_side != global_side
        weak += differ
        strict += differ & (local_side != 0) & (global_side != 0)
    di = np.zeros(len(masks), dtype=np.int32)
    for u, v in g.edges:
        di += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & 1
    return strict, weak, g.edge_count - di


def _reference(g):
    """Optimum mask and score per objective, the tie broken toward the
    smallest coloring string, and the verdict per kind (none on 0 nodes),
    from a scan of all 2^n colorings."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.uint32)
    strict, weak, mono = _full_scan_counts(g, masks)
    best = {}
    for objective, scores, pick in (
        (Objective.MAX_STRICT_ILLUSION, strict, np.max),
        (Objective.MAX_WEAK_ILLUSION, weak, np.max),
        (Objective.MIN_MONOCHROMATIC, mono, np.min),
    ):
        score = int(pick(scores))
        tied = [int(m) for m in masks[scores == score]]
        mask = min(tied, key=lambda m: coloring_to_string(coloring_from_mask(m, n)))
        best[objective] = (mask, score, tied)
    s2, w2 = 2 * strict.astype(np.int32), 2 * weak.astype(np.int32)
    hits = {
        IllusionKind.MAJORITY_MAJORITY: s2 > n,
        IllusionKind.WEAK_MAJORITY_MAJORITY: s2 >= n,
        IllusionKind.MAJORITY_WEAK_MAJORITY: w2 > n,
        IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY: w2 >= n,
        IllusionKind.UNANIMITY_MAJORITY: strict == n,
        IllusionKind.UNANIMITY_WEAK_MAJORITY: weak == n,
    }
    verdicts = {kind: n > 0 and bool(hit.any()) for kind, hit in hits.items()}
    return best, verdicts


def _assert_matches_reference(g):
    best, verdicts = _reference(g)
    for objective, (mask, score, _) in best.items():
        assert best_coloring(g, objective) == (coloring_from_mask(mask, g.n), score), (
            g.n,
            g.edges,
            objective,
        )
    for kind, verdict in verdicts.items():
        assert illusion_possible(g, kind) == verdict, (g.n, g.edges, kind)


def triangle():
    return make_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_triangle_needs_one_monochromatic_edge():
    colors, score = best_coloring(triangle(), Objective.MIN_MONOCHROMATIC)
    assert score == 1
    assert monochromatic_count(ColoredGraph(triangle(), colors))[0] == 1


def test_tie_break_is_lexicographic_on_strings():
    colors, _ = best_coloring(triangle(), Objective.MIN_MONOCHROMATIC)
    assert coloring_to_string(colors) == "BBR"


def test_balanced_complete_4_maximizes_weak_count():
    _, score = best_coloring(complete_graph(4), Objective.MAX_WEAK_ILLUSION)
    assert score == 4


def test_edgeless_pair_has_no_strict_illusion():
    _, score = best_coloring(make_graph(2, []), Objective.MAX_STRICT_ILLUSION)
    assert score == 0


def test_cap_is_enforced():
    with pytest.raises(PreconditionError, match="cap"):
        best_coloring(cycle_graph(5), Objective.MIN_MONOCHROMATIC, cap=4)


def test_chunked_scan_matches_single_chunk(monkeypatch):
    """Blocks of one to a few colorings give the full-scan answers on
    every graph with up to 5 nodes, and the corpus has optima whose
    smallest string lies outside the first block holding an optimum, so
    the cross-block tie-break is exercised."""
    corpus = list(atlas_graphs(5)) + [cycle_graph(6), complete_graph(6)]
    for bits in (0, 3, 4):
        monkeypatch.setattr(oracle_module, "_CHUNK_BITS", bits)
        split = 0
        for g in corpus:
            blocks = list(oracle_module._chunks(g.n, rows=g.n, half=True))
            block_of = {int(m): b for b, block in enumerate(blocks) for m in block}
            best, _ = _reference(g)
            for mask, _, tied in best.values():
                tied_blocks = [block_of[m] for m in tied if m in block_of]
                split += block_of[mask] != min(tied_blocks)
            _assert_matches_reference(g)
        assert split > 0


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10, min_n=0))
def test_half_scan_matches_the_full_scan(g):
    """Coloring, score and every verdict equal a scan of all 2^n colorings
    with the per-node and per-edge kernel, isolated nodes and the empty
    graph included."""
    _assert_matches_reference(g)


def test_empty_graph_has_no_illusion():
    g = make_graph(0, [])
    for objective in Objective:
        assert best_coloring(g, objective) == ((), 0)
    for kind in IllusionKind:
        assert not illusion_possible(g, kind)


def test_no_strict_majority_illusion_on_odd_cycle():
    assert not illusion_possible(cycle_graph(5), IllusionKind.WEAK_MAJORITY_MAJORITY)


def test_no_strict_majority_illusion_on_complete_4():
    assert not illusion_possible(complete_graph(4), IllusionKind.MAJORITY_MAJORITY)


def test_weak_illusions_reachable_on_small_graphs():
    assert illusion_possible(cycle_graph(4), IllusionKind.MAJORITY_WEAK_MAJORITY)
    assert illusion_possible(triangle(), IllusionKind.MAJORITY_WEAK_MAJORITY)


def test_labeled_enumeration_counts():
    assert sum(1 for _ in enumerate_regular(6, 4)) == 15
    assert sum(1 for _ in enumerate_regular(4, 1)) == 3
    assert list(enumerate_regular(5, 3)) == []
    # 2-regular on 6 labeled nodes: 60 hexagons + 10 triangle pairs
    assert sum(1 for _ in enumerate_regular(6, 2)) == 70
    # complement duality: counts match the (n-1-k)-regular class
    assert sum(1 for _ in enumerate_regular(6, 3)) == sum(
        1 for _ in enumerate_regular(6, 2)
    )


def test_enumeration_yields_distinct_regular_graphs():
    seen = set()
    for g in enumerate_regular(6, 3):
        assert g.is_regular(3)
        assert g.edges not in seen
        seen.add(g.edges)
    assert len(seen) == 70


def test_enumeration_cap():
    with pytest.raises(PreconditionError):
        next(enumerate_regular(11, 2))


@settings(max_examples=40)
@given(graphs(max_n=7))
def test_min_monochromatic_optimum_is_weak_majority_coloring(g):
    colors, _ = best_coloring(g, Objective.MIN_MONOCHROMATIC)
    assert is_weak_majority_coloring(g, colors)


@settings(max_examples=25)
@given(graphs(max_n=6, min_n=1))
def test_best_weak_count_at_least_flag_threshold(g):
    _, score = best_coloring(g, Objective.MAX_WEAK_ILLUSION)
    assert 2 * score > g.n  # a majority-weak-majority coloring always exists
