import inspect
from dataclasses import FrozenInstanceError
from itertools import chain
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings

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
    circulant_graph,
    cycle_graph,
    enumerate_regular,
    formula_possible,
    illusion_formula,
    illusion_possible,
    is_weak_majority_coloring,
    make_graph,
    monochromatic_count,
)

from conftest import atlas_graphs, graphs
from reference_enumerate import reference_regular_neighbors


def coloring_from_mask(mask: int, n: int) -> tuple[Color, ...]:
    """The coloring with node ``i`` red where bit ``i`` of ``mask`` is set."""
    return tuple(Color.RED if (mask >> i) & 1 else Color.BLUE for i in range(n))


def _full_scan_counts(g, masks):
    """The oracle's kernel before the half scan, kept as the reference:
    strict and weak illusion counts per node, then monochromatic edges per
    edge, over every coloring in ``masks``."""
    n = g.n
    nbr = g.neighbor_masks
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
    """Every exhaustive search refuses a graph one node above its cap: the
    optimum scan, the verdict up to 8 nodes (its inline check, on a built
    and on an enumerated graph), the verdict by the kernel at 9-11 nodes,
    and the model checker's search; at the cap each one answers."""
    with pytest.raises(PreconditionError, match="cap"):
        best_coloring(cycle_graph(5), Objective.MIN_MONOCHROMATIC, cap=4)
    kind = IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY
    for g in (cycle_graph(5), next(enumerate_regular(8, 2)), cycle_graph(9), cycle_graph(11)):
        with pytest.raises(PreconditionError, match="cap"):
            illusion_possible(g, kind, cap=g.n - 1)
        assert illusion_possible(g, kind, cap=g.n)
    f = illusion_formula(kind)
    with pytest.raises(PreconditionError, match="cap"):
        formula_possible(cycle_graph(6), f, cap=5)
    assert formula_possible(cycle_graph(6), f, cap=6)


def test_chunked_scan_matches_single_chunk(monkeypatch):
    """Blocks of one to a few colorings give the full-scan answers on
    every graph with up to 5 nodes, and the corpus has illusion optima in
    more than one block of the relabelled order, so a later block that ties
    the best count must not replace the first.  The byte-optimum scans and a
    verdict with no hit read every block: with the flag rows switched off,
    no table of the whole half space stands in for the split."""
    corpus = list(atlas_graphs(5)) + [cycle_graph(6), complete_graph(6)]
    half_blocks = oracle_module._half_blocks
    scanned = []

    def counted(n):
        scanned.append(0)
        for block in half_blocks(n):
            scanned[-1] += 1
            yield block

    monkeypatch.setattr(oracle_module, "_half_blocks", counted)
    monkeypatch.setattr(oracle_module, "_TABLE_NODES", 0)
    for bits in (0, 3, 4):
        monkeypatch.setattr(oracle_module, "_CHUNK_BITS", bits)
        for g in (cycle_graph(6), complete_graph(6)):
            blocks = len(list(oracle_module._chunks(g.n - 1, rows=g.n)))
            scanned.clear()
            best_coloring(g, Objective.MAX_STRICT_ILLUSION)
            best_coloring(g, Objective.MAX_WEAK_ILLUSION)
            assert not illusion_possible(g, IllusionKind.UNANIMITY_MAJORITY)
            assert scanned == [blocks] * 3 and blocks > 1
        split = 0
        for g in corpus:
            blocks = list(oracle_module._chunks(g.n - 1, rows=g.n))
            block_of = {int(m) << 1: b for b, block in enumerate(blocks) for m in block}
            best, _ = _reference(g)
            for objective in (Objective.MAX_STRICT_ILLUSION, Objective.MAX_WEAK_ILLUSION):
                tied = best[objective][2]
                split += len({block_of[_relabelled(m, g.n)] for m in tied if not m & 1}) > 1
            _assert_matches_reference(g)
        assert split > 0


def test_cut_scan_row_blocks_combine_like_one_block(monkeypatch):
    """Row blocks of a few rows give the full-scan fewest monochromatic
    edges, and the corpus has optima in several blocks, the smallest string
    not in the last of them, so a later block that ties the best count does
    not replace it.  Below ``2^7`` words a block has no column nodes."""
    corpus = [
        cycle_graph(9),
        complete_graph(8),
        circulant_graph(10, (1, 3)),
        make_graph(9, []),
        make_graph(10, [(0, 9), (1, 8), (2, 7), (2, 3)]),
    ]
    for bits in (3, 4, 5, 6):
        monkeypatch.setattr(oracle_module, "_CHUNK_BITS", bits)
        split = 0
        for g in corpus:
            n = g.n
            b = min(n // 2, max(0, bits - 7))  # column nodes
            rows = 1 << (bits - b)
            assert 1 << (n - 1 - b) > rows  # more than one block

            def block(mask):
                key = sum((mask >> v & 1) << (n - 1 - v) for v in range(1, n))
                return (key >> b) // rows

            best, _ = _reference(g)
            mask, score, tied = best[Objective.MIN_MONOCHROMATIC]
            tied_blocks = {block(m) for m in tied if not m & 1}
            split += block(mask) < max(tied_blocks)
            want = (coloring_from_mask(mask, n), score)
            assert best_coloring(g, Objective.MIN_MONOCHROMATIC) == want, (bits, n, g.edges)
        assert split > 0


def _relabelled(mask, n):
    """A mask of the graph as one of the relabelled graph, bit ``i`` read
    from bit ``order[i]``, or back: the relabelling is its own inverse."""
    return sum((mask >> p & 1) << i for i, p in enumerate(oracle_module._relabelling(n)[0]))


@pytest.mark.parametrize("n", [*range(1, 13), 32])
def test_relabelling_is_an_involution_and_sorts_the_strings(n):
    """Node ``i >= 1`` goes to ``n - i`` and node 0 stays: the map and the
    relabelled bitsets are their own inverses, on a random graph and on
    one with every edge.  Up to 10 nodes, the half-space masks (node 0
    blue) of the relabelled graph, in ascending order, decode to the R/B
    strings in ascending order, each once."""
    order, index, bits = oracle_module._relabelling(n)
    assert [order[p] for p in order] == list(range(n)) and order[0] == 0
    assert index.tolist() == list(order) and bits.tolist()[:n] == [1 << p for p in order]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = np.random.default_rng(n).random(len(pairs)) < 0.4
    for g in (make_graph(n, [e for e, keep in zip(pairs, chosen) if keep]), complete_graph(n)):
        nbr = g.neighbor_masks
        relabelled = oracle_module._relabel(nbr)
        assert relabelled.tolist() == [_relabelled(int(nbr[p]), n) for p in order]
        assert oracle_module._relabel(relabelled).tolist() == nbr.tolist()
    if n <= 10:
        strings = [
            coloring_to_string(coloring_from_mask(_relabelled(mask, n), n))
            for mask in range(0, 1 << n, 2)
        ]
        assert strings == sorted(set(strings)) and len(strings) == 1 << (n - 1)


def _reference_cut(g):
    """The most dichromatic edges of a coloring with node 0 blue, and the
    smallest coloring string that has them, as a mask: every edge's two
    colours compared under every such coloring, ``2^20`` at a time."""
    n = g.n
    best, best_key, best_mask = -1, 0, 0
    half = 1 << (n - 1)
    for start in range(0, half, 1 << 20):
        masks = np.arange(start, min(start + (1 << 20), half), dtype=np.uint32) << np.uint32(1)
        cut = np.zeros(len(masks), dtype=np.int32)
        for u, v in g.edges:
            cut += (masks >> np.uint32(u) ^ masks >> np.uint32(v)) & np.uint32(1)
        top = int(cut.max())
        if top < best:
            continue
        tied = masks[cut == top]
        # node 0 first: the string's order is the order of the reversed bits
        keys = sum((tied >> np.uint32(v) & np.uint32(1)) << np.uint32(n - 1 - v) for v in range(n))
        pos = int(np.argmin(keys))
        if top > best or int(keys[pos]) < best_key:
            best, best_key, best_mask = top, int(keys[pos]), int(tied[pos])
    return best, best_mask


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=22))
@example(make_graph(22, []))  # every coloring ties
@example(complete_graph(15))
@example(cycle_graph(21))  # four blocks of 2^8 rows and 2^10 columns
@example(circulant_graph(22, (1, 5)))  # eight blocks, 11 column nodes
def test_cut_scan_matches_a_full_scan(g):
    """On the relabelled graph, the cut scan's count and first optimum
    mask, decoded, equal a scan of every coloring with node 0 blue, edge by
    edge, and its smallest optimum string; they agree with the full
    reference's fewest monochromatic edges."""
    cut, mask = oracle_module._cut_optima(oracle_module._relabel(g.neighbor_masks))
    assert (cut, _relabelled(mask, g.n)) == _reference_cut(g)
    if g.n <= 12:
        mask, score, _ = _reference(g)[0][Objective.MIN_MONOCHROMATIC]
        assert _reference_cut(g) == (g.edge_count - score, mask)


@settings(max_examples=3, deadline=None)
@given(graphs(min_n=23, max_n=26))
@example(circulant_graph(24, (1, 4)))  # 12 column nodes, were they not capped at 11
def test_cut_scan_past_the_default_cap_matches_a_full_scan(g):
    """From 24 nodes the column count stops at 11 and the rows grow: the
    scan still equals the edge-by-edge scan, under a raised cap."""
    cut, mask = _reference_cut(g)
    want = (coloring_from_mask(mask, g.n), g.edge_count - cut)
    assert best_coloring(g, Objective.MIN_MONOCHROMATIC, cap=26) == want


def test_cut_scan_makes_no_float_product():
    """The cut scan adds integers only: its source names no float type and
    no matrix product, which numpy would hand to a threaded BLAS."""
    source = inspect.getsource(oracle_module._cut_optima)
    for word in ("@", "matmul", "dot", "float"):
        assert word not in source, word


def test_cut_scan_keeps_masks_above_float32_precision():
    """The alternating 26-cycle's optimum mask, 44 739 242, lies above
    2^24, past the default cap: no graph the cap admits has a red node
    above 21.  So it pins the mask's high bits, red nodes 24 and 25 among
    the column nodes; float32 would read the mask as 44 739 240."""
    assert 44_739_242 > 1 << 24 and float(np.float32(44_739_242)) != 44_739_242
    assert best_coloring(cycle_graph(26), Objective.MIN_MONOCHROMATIC, cap=26) == (
        (Color.BLUE, Color.RED) * 13,
        0,
    )


def _side(red, total):
    """1 where red leads, -1 where blue leads, 0 on a tie."""
    return (2 * red > total) - (2 * red < total)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "weak"])
def test_flag_tables_match_a_popcount_recount(strict):
    """Byte ``j`` of a packed flag row says whether a node with neighbour
    bitset ``x`` is under illusion at representative ``j``: its local and
    global sides differ, and for strict illusion neither is a tie.  A row
    has a lane per half-space representative, and the lane int a 1 in
    each; even ``n`` has ``C(n - 1, n / 2)`` tied representatives, which
    strict rows leave out: nobody is under strict illusion there."""
    for n in range(1, oracle_module._TABLE_NODES + 1):
        reps, free = oracle_module._half_table(n)
        if strict:
            reps = reps[:free]
        rows, lanes = oracle_module._flag_rows(n, strict)
        tied = comb(n - 1, n // 2) if strict and n % 2 == 0 else 0
        width = (1 << (n - 1)) - tied
        assert len(reps) == width and len(rows) == 1 << n
        assert lanes.to_bytes(width, "little") == b"\x01" * width
        for x, row in enumerate(rows):
            want = []
            for rep in reps.tolist():
                local = _side((x & rep).bit_count(), x.bit_count())
                side = _side(rep.bit_count(), n)
                want.append(int(local != side and not (strict and local * side == 0)))
            assert list(row.to_bytes(width, "little")) == want, (n, x)


def test_verdicts_read_the_flag_rows_and_optima_the_kernel_up_to_8_nodes(monkeypatch):
    """With the popcount kernel refused, every verdict on the labeled
    2-regular graphs of 8 nodes comes from the packed flag rows and equals
    the computed one.  The strict and weak optima of 8-node graphs, and a
    9-node verdict, reach the kernel; the optima equal the full scan's."""
    enumerated = list(enumerate_regular(8, 2))
    corpus = [
        cycle_graph(8),
        circulant_graph(8, (1, 3)),
        complete_graph(8),
        make_graph(8, [(0, 1)]),
    ]
    kinds = list(IllusionKind)
    illusions = [Objective.MAX_STRICT_ILLUSION, Objective.MAX_WEAK_ILLUSION]
    with monkeypatch.context() as computed:
        computed.setattr(oracle_module, "_TABLE_NODES", 0)
        verdicts = [any(illusion_possible(h, kind) for h in enumerated) for kind in kinds]
    for strict in (True, False):
        oracle_module._flag_rows(8, strict)  # built on first use, by the kernel

    def refuse(*args):
        raise AssertionError("the popcount kernel was reached")

    with monkeypatch.context() as refused:
        refused.setattr(oracle_module, "_red_neighbors", refuse)
        assert [any(illusion_possible(h, kind) for h in enumerated) for kind in kinds] == verdicts
        for g in corpus:
            for objective in illusions:
                with pytest.raises(AssertionError, match="kernel"):
                    best_coloring(g, objective)
        with pytest.raises(AssertionError, match="kernel"):
            illusion_possible(cycle_graph(9), IllusionKind.MAJORITY_MAJORITY)
    assert verdicts == [False, False, True, True, False, True]
    for g in corpus:
        best, _ = _reference(g)
        for objective in illusions:
            mask, score, _ = best[objective]
            assert best_coloring(g, objective) == (coloring_from_mask(mask, g.n), score)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8, min_n=1))
@example(make_graph(1, []))
@example(make_graph(8, []))
@example(complete_graph(8))
@example(make_graph(8, [(1, 2), (1, 3), (1, 7), (4, 6)]))  # best strict count 5
@example(circulant_graph(8, (1, 3)))  # best strict count 4
@example(make_graph(8, [(0, v) for v in range(1, 8)]))  # best strict count 7
@example(make_graph(8, [(3, 4), (6, 7)]))  # best weak count 7
@example(make_graph(7, [(0, 1), (0, 5), (0, 6)]))  # best strict count 4
@example(make_graph(7, [(1, 2), (2, 3)]))  # best strict count 3
def test_byte_lane_verdicts_match_the_computed_counts(g):
    """Up to 8 nodes a verdict is a sum of byte-lane ints, one lane per
    representative, each raised by ``128 - threshold``: it equals the
    popcount kernel's verdict for every kind.  The examples put the best
    strict or weak count exactly at a threshold or one below it (5 and 4
    are majority-majority's and weak-majority-majority's at 8 nodes, 4
    both at 7, 8 unanimity's), and fill no lane or every lane."""
    kinds = list(IllusionKind)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(oracle_module, "_TABLE_NODES", 0)
        computed = [illusion_possible(g, kind) for kind in kinds]
    assert [illusion_possible(g, kind) for kind in kinds] == computed


def _choose_path(monkeypatch, sliced):
    """Move the path selection's node floor so that every graph of 7 or
    more nodes scans bit-sliced, or none does."""
    monkeypatch.setattr(oracle_module, "_SLICED_MIN_NODES", 7 if sliced else 33)


def test_path_choice_follows_node_count():
    """The illusion counts scan bit-sliced from 16 nodes, whatever the
    mean degree, and byte by byte below."""
    choose = oracle_module._sliced_path
    assert not choose(cycle_graph(15))
    assert not choose(complete_graph(15))
    assert choose(make_graph(16, []))
    assert choose(cycle_graph(16))
    assert choose(complete_graph(16))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12, min_n=7))
@example(make_graph(7, []))
@example(make_graph(12, []))
@example(make_graph(8, [(1, 2), (2, 3), (3, 1)]))
def test_sliced_scan_matches_the_full_scan(g):
    """With the bit-sliced path chosen, ``best_coloring`` gives the
    full-scan coloring and score for both illusion counts, and the
    verdicts still match, isolated nodes and edgeless graphs included.
    The fewest monochromatic edges take the cut scan on either path."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _choose_path(monkeypatch, sliced=True)
        assert oracle_module._sliced_path(g)
        _assert_matches_reference(g)


def test_sliced_blocks_combine_like_one_block(monkeypatch):
    """Blocks of one and of two words give the full-scan answers, and the
    corpus has illusion optima in more than one block of the relabelled
    order (10 with 6-bit and 8 with 7-bit blocks), so a later block that
    ties the best count must not replace the first."""
    corpus = [
        cycle_graph(7),
        cycle_graph(9),
        complete_graph(8),
        circulant_graph(10, (1, 3)),
        make_graph(9, []),
        make_graph(10, [(0, 9), (1, 8), (2, 7), (2, 3)]),
    ]
    _choose_path(monkeypatch, sliced=True)
    for bits in (6, 7):
        monkeypatch.setattr(oracle_module, "_CHUNK_BITS", bits)
        split = 0
        for g in corpus:
            best, _ = _reference(g)
            for objective in (Objective.MAX_STRICT_ILLUSION, Objective.MAX_WEAK_ILLUSION):
                tied = best[objective][2]
                split += len({_relabelled(m, g.n) >> 1 >> bits for m in tied if not m & 1}) > 1
            _assert_matches_reference(g)
        assert split > 0


@pytest.mark.parametrize("count", range(1, 41))
def test_tree_adder_sums_columns_like_a_popcount_recount(count):
    """Every bit-sliced column sum of ``count`` rows of random words equals
    the number of rows with that bit set, in as many planes as the bit
    length of ``count``; odd counts add a row into a sum at some level."""
    rows = np.random.default_rng(count).integers(0, 1 << 63, (count, 3), dtype=np.uint64)
    rows[:, 1] |= np.uint64(1 << 63)  # top bits too
    spare = np.empty((count // 2, 3), dtype=np.uint64)
    planes = oracle_module._tree_sum(rows.copy(), spare)
    assert len(planes) == count.bit_length()
    bits = np.arange(64, dtype=np.uint64)
    want = (rows[:, :, None] >> bits & np.uint64(1)).sum(axis=0)
    got = sum((plane[:, None] >> bits & np.uint64(1)) << np.uint64(j) for j, plane in enumerate(planes))
    assert (got == want).all()


def _word_colorings(n, hood, h, q):
    """A coloring mask (node 0 blue) per in-word coloring ``b``, with nodes
    1-6 red by the bits of ``b``, ``h`` of the neighbours ``hood`` above
    node 6 red and ``q`` nodes above 6 red in all; None where there is none."""
    above = range(oracle_module._WORD_BITS + 1, n)
    near = [v for v in above if hood >> v & 1]
    far = [v for v in above if not hood >> v & 1]
    if h > len(near) or not 0 <= q - h <= len(far):
        return None
    high = sum(1 << v for v in near[:h] + far[: q - h])
    return [b << 1 | high for b in range(64)]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "weak"])
@pytest.mark.parametrize(
    "g",
    [
        make_graph(7, []),
        cycle_graph(9),
        complete_graph(10),
        circulant_graph(12, (1, 3, 6)),
        circulant_graph(16, (8,)),
        make_graph(13, [(0, 12), (1, 11), (2, 10), (7, 8)]),
    ],
    ids=["edgeless-7", "cycle-9", "complete-10", "circulant-12", "circulant-16-8", "sparse-13"],
)
def test_flag_words_match_the_rules_recounted_at_each_coloring(g, strict):
    """Each bit of a flag word is a coloring: the word's node is under
    illusion there when its local and global sides differ, and for strict
    illusion neither is a tie.  Every word that stands for colorings is
    checked at all 64, by popcounts of the coloring itself; even ``n``
    has global ties."""
    n = g.n
    words = oracle_module._flag_words(g.neighbor_masks, strict)
    checked = 0
    for i, hood in enumerate(g.neighbor_masks.tolist()):
        for h, q in np.ndindex(words.shape[1:]):
            masks = _word_colorings(n, hood, h, q)
            if masks is None:
                continue
            want = 0
            for b, mask in enumerate(masks):
                local = _side((mask & hood).bit_count(), hood.bit_count())
                side = _side(mask.bit_count(), n)
                want |= int(local != side and not (strict and local * side == 0)) << b
            assert int(words[i, h, q]) == want, (i, h, q)
            checked += 1
    assert checked >= n * (n - oracle_module._WORD_BITS)


def _sparse(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)])


@pytest.mark.parametrize(
    "g",
    [
        _sparse(20, 50, 20),
        make_graph(20, []),
        complete_graph(20),
        circulant_graph(20, [10]),
        _sparse(22, 55, 22),
    ],
    ids=["gnm-20-50", "edgeless-20", "complete-20", "circulant-20-10", "gnm-22-55"],
)
def test_both_paths_agree_at_20_nodes(monkeypatch, g):
    """20 nodes scan in two sliced blocks and 22 nodes in eight; the
    circulant has its strict optimum beside a global tie."""
    answers = []
    for sliced in (False, True):
        _choose_path(monkeypatch, sliced)
        assert oracle_module._sliced_path(g) is sliced
        answers.append([best_coloring(g, objective) for objective in Objective])
    assert answers[0] == answers[1]


def test_verdicts_stay_on_the_byte_kernel(monkeypatch):
    """``illusion_possible`` scans byte by byte even where ``best_coloring``
    would scan bit-sliced."""
    g = cycle_graph(18)
    assert oracle_module._sliced_path(g)

    def refuse(*args):
        raise AssertionError("a verdict reached the bit-sliced scan")

    monkeypatch.setattr(oracle_module, "_sliced_scores", refuse)
    _, verdicts = _reference(g)
    for kind, verdict in verdicts.items():
        assert illusion_possible(g, kind) == verdict, kind


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10, min_n=0))
@example(complete_graph(6))
@example(complete_graph(8))
@example(circulant_graph(8, [4]))
def test_half_scan_matches_the_full_scan(g):
    """Coloring, score and every verdict equal a scan of all 2^n colorings
    with the per-node and per-edge kernel, isolated nodes and the empty
    graph included.  The examples have strict optima beside a global tie,
    which the strict flags do not cover."""
    _assert_matches_reference(g)


def test_empty_graph_has_no_illusion():
    g = make_graph(0, [])
    for objective in Objective:
        assert best_coloring(g, objective) == ((), 0)
    for kind in IllusionKind:
        assert not illusion_possible(g, kind)


def test_objectives_and_kinds_are_read_by_value_and_nothing_else():
    """A value string answers as its member does, on each scan path and
    on the cached table path; any other objective or kind is refused,
    naming the choices, at every size, the empty graph included."""
    assert best_coloring(cycle_graph(8), Objective.MAX_STRICT_ILLUSION)[1] == 2
    for g in (make_graph(0, []), cycle_graph(6), cycle_graph(8), circulant_graph(21, [1, 3])):
        for objective in Objective:
            assert best_coloring(g, objective.value) == best_coloring(g, objective)
        for kind in IllusionKind:
            assert illusion_possible(g, kind.value) == illusion_possible(g, kind)
        for wrong in ("bogus", "max-strict-illusion", IllusionKind.MAJORITY_MAJORITY, None, []):
            with pytest.raises(PreconditionError, match="expected one of"):
                best_coloring(g, wrong)
        for wrong in ("bogus", "majority", Objective.MAX_STRICT_ILLUSION, None, ["majority-majority"]):
            with pytest.raises(PreconditionError, match="expected one of"):
                illusion_possible(g, wrong)


def test_no_strict_majority_illusion_on_odd_cycle():
    assert not illusion_possible(cycle_graph(5), IllusionKind.WEAK_MAJORITY_MAJORITY)


def test_no_strict_majority_illusion_on_complete_4():
    assert not illusion_possible(complete_graph(4), IllusionKind.MAJORITY_MAJORITY)


def test_weak_illusions_reachable_on_small_graphs():
    assert illusion_possible(cycle_graph(4), IllusionKind.MAJORITY_WEAK_MAJORITY)
    assert illusion_possible(triangle(), IllusionKind.MAJORITY_WEAK_MAJORITY)


@pytest.mark.parametrize("n, k", [(-1, 2), (3, -1)])
def test_enumeration_refuses_a_negative_size(n, k):
    with pytest.raises(PreconditionError) as err:
        list(enumerate_regular(n, k))
    assert str(err.value) == "n and k must be nonnegative"


def test_labeled_enumeration_counts():
    assert sum(1 for _ in enumerate_regular(6, 4)) == 15
    assert list(enumerate_regular(5, 3)) == []
    # the one empty graph is k-regular for every k, however large
    assert [g.n for g in enumerate_regular(0, 1 << 20)] == [0]
    # complement duality: counts match the (n-1-k)-regular class
    assert sum(1 for _ in enumerate_regular(6, 3)) == sum(
        1 for _ in enumerate_regular(6, 2)
    )


@pytest.mark.parametrize(
    "n, k, count",
    [
        # 2-regular, OEIS A001205
        *[(n, 2, c) for n, c in zip(range(4, 10), (3, 12, 70, 465, 3507, 30016))],
        # cubic, OEIS A002829
        (6, 3, 70),
        (8, 3, 19355),
        # 1-regular: perfect matchings, (n - 1)!!
        (4, 1, 3),
        (6, 1, 15),
        (8, 1, 105),
    ],
)
def test_labeled_enumeration_counts_match_oeis(n, k, count):
    """Labeled counts from OEIS, independent of both backtrackers."""
    assert sum(len(block) for block in oracle_module._regular_mask_blocks(n, k)) == count
    assert sum(1 for _ in enumerate_regular(n, k)) == count


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(9) for k in range(n + 1)] + [(9, 2)]
)
def test_enumeration_matches_the_reference_backtracker(n, k):
    """The level-wise enumerator yields the recursive backtracker's graphs,
    graph for graph and in its order (``k = n`` yields none past ``n = 0``)."""
    got = [
        (tuple(np.diff(g.indptr).tolist()), tuple(g.indices.tolist()))
        for g in enumerate_regular(n, k)
    ]
    want = [
        (tuple(map(len, rows)), tuple(chain.from_iterable(rows)))
        for rows in reference_regular_neighbors(n, k)
    ]
    assert got == want


def test_enumeration_blocks_stay_bounded_and_lazy(monkeypatch):
    """Every block holds at most 1024 graphs, and the first of the
    11 180 820 labeled cubic graphs on 10 nodes comes after one block:
    by then each level has expanded one chunk of states."""
    blocks = list(oracle_module._regular_mask_blocks(9, 2))
    assert max(map(len, blocks)) <= 1024
    assert sum(map(len, blocks)) == 30016
    expanded = []
    descend = oracle_module._descend

    def counted(u, states, *chunk):
        expanded.append(len(states))
        return descend(u, states, *chunk)

    monkeypatch.setattr(oracle_module, "_descend", counted)
    first = next(enumerate_regular(10, 3))
    assert first.is_regular(3)
    assert len(expanded) == 11  # the root, one chunk per node, the leaf block
    assert max(expanded) <= 1024


def test_enumeration_yields_distinct_regular_graphs():
    seen = set()
    for g in enumerate_regular(6, 3):
        assert g.is_regular(3)
        assert g.edges not in seen
        seen.add(g.edges)
    assert len(seen) == 70


@pytest.mark.parametrize("n, k", [(6, 3), (7, 2), (7, 4), (8, 2)])
def test_enumerated_graphs_equal_the_builders_graphs(n, k):
    """An enumerated graph has the arrays (rows sorted), the hash and the
    adjacency sets that make_graph gives its edges, read-only, and carries
    its neighbour bitsets as read-only uint32.  Its ``indices`` and bitsets
    are row views of read-only blocks, so they cannot be made writable.
    Before any property is read it holds those four fields alone; its
    edges, degrees, neighbour sums and regularity are the built graph's,
    and it stays frozen."""
    for g in enumerate_regular(n, k):
        assert set(vars(g)) == {"n", "indptr", "indices", "neighbor_masks"}
        built = make_graph(n, g.edges)
        assert not g.indptr.flags.writeable
        assert not g.indices.flags.writeable
        for row in (g.indices, g.neighbor_masks):
            with pytest.raises(ValueError, match="WRITEABLE"):
                row.flags.writeable = True
        assert g == built
        assert hash(g) == hash(built)
        assert g.adj == built.adj
        masks = [0] * n
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        assert g.neighbor_masks.dtype == np.uint32
        assert not g.neighbor_masks.flags.writeable
        assert g.neighbor_masks.tolist() == masks == built.neighbor_masks.tolist()
        assert g.edges == built.edges
        assert g.degrees() == built.degrees() == (k,) * n
        values = np.arange(1, n + 1) ** 2
        assert g.neighbor_sums(values).tolist() == built.neighbor_sums(values).tolist()
        assert g.is_regular(k) and built.is_regular(k)
        for name in ("n", "edges", "neighbor_masks", "adj"):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, None)


# (n, k): the labeled k-regular graphs on n nodes with a True verdict, per
# kind in IllusionKind order; k-regular graphs on 1-8 nodes that
# are not listed do not exist.  47 067 graphs in all.
VERDICT_COUNTS = {
    (1, 0): [0, 0, 1, 1, 0, 1],
    (2, 0): [0, 0, 1, 1, 0, 1],
    (2, 1): [0, 0, 1, 1, 0, 1],
    (3, 0): [0, 0, 1, 1, 0, 1],
    (3, 2): [0, 0, 1, 1, 0, 0],
    (4, 0): [0, 0, 1, 1, 0, 1],
    (4, 1): [0, 0, 3, 3, 0, 3],
    (4, 2): [0, 0, 3, 3, 0, 3],
    (4, 3): [0, 0, 1, 1, 0, 1],
    (5, 0): [0, 0, 1, 1, 0, 1],
    (5, 2): [0, 0, 12, 12, 0, 0],
    (5, 4): [0, 0, 1, 1, 0, 0],
    (6, 0): [0, 0, 1, 1, 0, 1],
    (6, 1): [0, 0, 15, 15, 0, 15],
    (6, 2): [0, 0, 70, 70, 0, 70],
    (6, 3): [0, 10, 70, 70, 0, 70],
    (6, 4): [0, 0, 15, 15, 0, 0],
    (6, 5): [0, 0, 1, 1, 0, 1],
    (7, 0): [0, 0, 1, 1, 0, 1],
    (7, 2): [0, 0, 465, 465, 0, 0],
    (7, 4): [105, 105, 465, 465, 0, 0],
    (7, 6): [0, 0, 1, 1, 0, 0],
    (8, 0): [0, 0, 1, 1, 0, 1],
    (8, 1): [0, 0, 105, 105, 0, 105],
    (8, 2): [0, 0, 3507, 3507, 0, 2835],
    (8, 3): [0, 16835, 19355, 19355, 0, 19355],
    (8, 4): [0, 35, 19355, 19355, 0, 5915],
    (8, 5): [672, 987, 3507, 3507, 0, 3507],
    (8, 6): [0, 0, 105, 105, 0, 105],
    (8, 7): [0, 0, 1, 1, 0, 1],
}


def test_verdict_counts_over_every_labeled_regular_graph_up_to_8_nodes():
    """The count of True verdicts per (n, k) and kind over all 47 067
    labeled regular graphs of 1-8 nodes, each one's own verdict."""
    counts = {}
    for n in range(1, 9):
        for k in range(n):
            graphs_nk = list(enumerate_regular(n, k))
            if graphs_nk:
                counts[n, k] = [
                    sum(illusion_possible(g, kind) for g in graphs_nk) for kind in IllusionKind
                ]
    assert counts == VERDICT_COUNTS
    assert sum(sum(1 for _ in enumerate_regular(n, k)) for n, k in counts) == 47_067


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
