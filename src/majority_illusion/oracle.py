"""Brute-force certification over all 2^n colorings and exhaustive
enumeration of small regular graphs.

Colorings are integers whose bit ``b`` gives node ``b``'s color (set bit =
red).  Two kernels count illusions for :func:`best_coloring`, and per
block of colorings count each node's red neighbours once:

- the byte kernel holds a block as uint32 masks and counts by vectorized
  popcounts into a 2D uint8 block, one byte per (node, coloring), then
  derives the illusion counts with no per-node loop.  They are counted at
  each coloring's red-lead representative, with one uint8 compare per
  (node, coloring), stated once, in :func:`_illusion_rule`.  Strict flags
  cover only the globally untied colorings: a tied one scores 0, as does
  the all-blue one, untied and the smallest string, so no tied one is
  reported.  Where one block holds the whole half space (``n <= 15``),
  its representatives come from a table built once per node count, on
  first use.  Up to 8 nodes a verdict needs no array at all: a flag
  table per node count and kind, built on first use from the same rules,
  holds the flags of every neighbour bitset packed into a Python int, a
  byte lane per representative (93 bytes strict and 128 weak at 8
  nodes).  The graph's ``n`` rows are summed, and one add and one mask
  test every lane against the threshold.  The rows up to 8 nodes take
  about 106 KB as ints;
- the bit-sliced kernel holds 64 colorings to a uint64 word: nodes 1-6
  by the bit in the word, the nodes above by the word's index.  A table
  of flag words built once per call from the same rules holds each
  node's flags at the 64 colorings of a word, by its red neighbours and
  the red nodes among those above 6, the global lead folded in.  A
  block's flags are one gather from it, and one tree adder over the nodes
  sums them into bit-sliced scores.  The best score is narrowed from its
  top plane down, and its first optimum is the first set bit of the
  candidate words.

The byte scan's cost doubles with each node; the sliced scan's grows
more slowly.  So graphs of 16 or more nodes scan bit-sliced and smaller
ones byte by byte, whatever the mean degree: in a sweep of n 14-18 over
every mean degree, the sliced scan took 0.22-0.66 of the byte scan's time
at its worst cell for each n from 16, and 1.45-2.71 times it below.
:func:`illusion_possible` always scans byte by byte: it stops after the
first block with a hit, and a byte block holds ``n`` times fewer
colorings than a sliced one, so an early hit is found sooner (3-6 times
at n = 18 for unanimity-weak-majority).

The fewest monochromatic edges are the most dichromatic ones, a maximum
cut.  :func:`_cut_optima` splits the nodes above 0 into rows and columns
and builds each block of counts as a subset-sum table, in int16 adds
only: a count is at most ``|E| <= 496``, a partial sum at least ``-2|E|``.

:func:`enumerate_regular` backtracks one node at a time over numpy blocks
of states, a state one int16 row of residual degrees and bitsets, so that
a child is one add.  Each graph is a :class:`Graph` over row views of its
block's frozen arrays, made without a constructor call.  At (8, 2), on a
2-vCPU VM, a graph costs about 1.3 µs and a verdict on it about 1.6 µs.

Swapping every color negates each local and the global lead, so it keeps
every agent's strict or weak illusion status and every edge's
monochromaticity.  The scans therefore cover only the half of the space
with node 0 blue; that half holds the lexicographically smallest of each
swapped pair ('B' < 'R').  :func:`best_coloring` relabels the graph so
that ascending masks of that half are the strings in ascending order:
each scan keeps the first optimum it meets, a later block replaces it
only with a larger score, and the block size never changes a result.
Masks are uint32, so graphs are limited to 32 nodes, and the empty graph
has no illusion, as in the classifier.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator

import numpy as np

from .analysis import IllusionKind
from .coloring import Color, Coloring, TextEnum
from .errors import PreconditionError, shown
from .graphs import Graph

DEFAULT_CAP = 22
_CHUNK_BITS = 18  # a scan's largest temporary holds 2^18 uint32 words
_MASK_BITS = 32  # colorings and neighborhoods are uint32 masks
# Verdicts as sums of n byte-lane ints, rows of a flag table, up to here;
# fixed from a sweep (see CHANGES.md).
_TABLE_NODES = 8


class Objective(TextEnum):
    MAX_STRICT_ILLUSION = "max-strict-illusion-count"
    MAX_WEAK_ILLUSION = "max-weak-illusion-count"
    MIN_MONOCHROMATIC = "min-monochromatic"


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} nodes, above the exhaustive-search cap {cap}"
        )
    if g.n > _MASK_BITS:
        raise PreconditionError(
            f"graph has {g.n} nodes, above the {_MASK_BITS}-bit coloring masks"
        )


def _chunks(n: int, rows: int = 1) -> Iterator[np.ndarray]:
    """The colorings of ``n`` nodes in ascending blocks small enough that
    ``rows`` uint32 words per coloring fit in ``2^_CHUNK_BITS`` words.  The
    half space of ``n`` nodes (node 0 blue) is that of ``n - 1`` nodes, each
    block shifted up one bit.  The block size is looked up at each call."""
    total = 1 << n
    step = max(1, (1 << _CHUNK_BITS) // rows)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.uint32)


def _red_neighbors(masks: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Entry ``[i, j]``: node ``i``'s red neighbours under coloring ``masks[j]``."""
    return np.bitwise_count(masks[None, :] & nbr[:, None])


def _representatives(masks: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The colorings ``masks`` at their red-lead representatives: each
    coloring itself, or its colour swap where blue leads globally.  The
    ``free`` globally untied ones come first, the tied ones (even ``n``)
    after them, in ascending order each.  Returns ``(reps, free)``."""
    red = np.bitwise_count(masks)
    reps = np.where(red < (n + 1) // 2, masks ^ np.uint32((1 << n) - 1), masks)
    if n % 2:
        return reps, len(reps)
    tied = red == n // 2
    free = reps[~tied]
    return np.concatenate((free, reps[tied])), len(free)


@lru_cache(maxsize=None)
def _half_table(n: int) -> tuple[np.ndarray, int]:
    """:func:`_representatives` of the whole half space, read-only: at most
    ``2^14`` words, as it is only read where one block holds it."""
    reps, free = _representatives(np.arange(1 << (n - 1), dtype=np.uint32) << 1, n)
    reps.flags.writeable = False
    return reps, free


def _half_blocks(n: int) -> Iterator[tuple[np.ndarray, int]]:
    """The half-space blocks of ``_chunks(n - 1, rows=n)``, each shifted up
    one bit (node 0 blue), as :func:`_representatives`; a block that is the
    whole half space, ``n`` words per coloring, comes from a table built on
    first use (``n >= 1``; one coloring is always a block).  The block size
    is looked up at each call."""
    if n << (n - 1) <= 1 << _CHUNK_BITS:
        yield _half_table(n)
        return
    for masks in _chunks(n - 1, rows=n):
        yield _representatives(masks << np.uint32(1), n)


def _illusion_rule(c, deg, strict: bool, tied: bool = False):
    """Is an agent with ``c`` red of ``deg`` neighbours under strict (or
    weak) illusion at a red-lead representative, or, where ``tied``, under
    a global tie?  The one statement of the illusion rules, which both
    kernels read.

    Swapping every colour keeps every illusion status, so a coloring is
    judged at its red-lead representative: strict illusion is
    ``c < (deg + 1) // 2`` (a blue local lead; never on ``deg = 0``), weak
    illusion ``c <= deg // 2`` (no red local lead).  Under a global tie
    nobody is under strict illusion, and weak illusion is no local tie,
    ``2c != deg``."""
    if tied:
        return (c + c != deg) & (not strict)
    return c < (deg + 1) // 2 if strict else c <= deg // 2


def _illusion_flags(hoods: np.ndarray, reps: np.ndarray, free: int, strict: bool) -> np.ndarray:
    """Entry ``[i, j]``: is a node with neighbour bitset ``hoods[i]`` under
    strict (or weak) illusion at representative ``reps[j]`` of a block
    ``(reps, free)``, by :func:`_illusion_rule`?  Strict flags cover
    ``reps[:free]`` only, the globally untied ones."""
    deg = np.bitwise_count(hoods)[:, None]  # uint8 columns: compares stay uint8
    if strict:
        return _illusion_rule(_red_neighbors(reps[:free], hoods), deg, strict)
    c = _red_neighbors(reps, hoods)
    flags = _illusion_rule(c, deg, strict)
    flags[:, free:] = _illusion_rule(c[:, free:], deg, strict, tied=True)
    return flags


@lru_cache(maxsize=None)
def _flag_rows(n: int, strict: bool) -> tuple[tuple[int, ...], int]:
    """:func:`_illusion_flags` of every neighbour bitset ``x < 2^n`` at the
    representatives of :func:`_half_table`, row ``x`` packed into a Python
    int, byte ``j`` its flag at representative ``j``, and the int with a 1
    in every such byte lane.  A row has a lane per representative, less the
    tied ones of a strict row at even ``n``: 93 strict and 128 weak at
    ``_TABLE_NODES``."""
    flags = _illusion_flags(np.arange(1 << n, dtype=np.uint32), *_half_table(n), strict)
    rows = tuple(int.from_bytes(row.tobytes(), "little") for row in flags)
    return rows, int.from_bytes(b"\x01" * flags.shape[1], "little")


def _from_representatives(reps: np.ndarray, n: int) -> np.ndarray:
    """The half-space colorings (node 0 blue) that ``reps`` stand for."""
    return np.where(reps & np.uint32(1), reps ^ np.uint32((1 << n) - 1), reps)


def _illusion_counts(nbr: np.ndarray, reps: np.ndarray, free: int, strict: bool) -> np.ndarray:
    """Per-representative count of agents under strict (or weak) illusion
    in a block ``(reps, free)`` of :func:`_half_blocks`, on a graph of
    neighbour bitsets ``nbr``: the column sums of :func:`_illusion_flags`."""
    # ``np.add.reduce`` without ``np.sum``'s wrapper, a per-call cost at small n
    flags = _illusion_flags(nbr, reps, free, strict)
    return np.add.reduce(flags, axis=0, dtype=np.uint8)


def _byte_optima(nbr: np.ndarray, strict: bool) -> Iterator[tuple[int, int]]:
    """Per block of :func:`_half_blocks`: the best illusion count and the
    first mask that has it.  Strict scores skip the tied representatives,
    and a block of tied ones alone is skipped: a tied coloring scores 0, as
    does the all-blue one, untied and mask 0, so no tied coloring is the
    first optimum."""
    n = len(nbr)
    for reps, free in _half_blocks(n):
        scores = _illusion_counts(nbr, reps, free, strict)
        if not len(scores):
            continue
        top = int(scores.max())
        yield top, int(_from_representatives(reps[: len(scores)][scores == top], n).min())


def _cut_optima(nbr: np.ndarray) -> tuple[int, int]:
    """The most dichromatic edges of a coloring of bitsets ``nbr`` with
    node 0 blue, and the smallest mask that has them: a maximum cut.

    Red sets ``x``, ``y`` on disjoint nodes cut ``cut(x) + cut(y) -
    2·e(x, y)`` edges, each ``cut`` with every other node blue.  Nodes
    ``1..b``, ``b`` at most ``_CHUNK_BITS - 7``, give the columns ``y`` and
    the nodes above them the rows ``x``, bit ``j`` of an index its part's
    node ``j``.  A block of rows is a ``(2^b, rows)`` int16 table of at
    most ``2^_CHUNK_BITS`` counts, built by doubling from ``cut(x)``:
    column node ``v = 1 + j`` makes columns ``2^j..2^(j+1) - 1`` columns
    ``0..2^j - 1`` less ``2·|N(v) ∩ x|``; then ``cut(y)`` is added (the
    subset sums of E. Horowitz and S. Sahni, JACM 1974, over the split of
    R. Williams, TCS 2005).  int16 holds every value, from ``-2|E|`` up to
    ``|E| <= 496``.  Rows hold the high bits, so a block's first optimum
    is its first row at its maximum, at that row's first column; a later
    block replaces it only with a larger count."""
    n = len(nbr)
    b = min(n // 2, max(0, _CHUNK_BITS - 7))
    a = n - 1 - b

    def half(index: np.ndarray, lo: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The masks of colorings ``index`` of nodes ``lo..lo + k - 1``, and
        the edges each one cuts, the other nodes blue."""
        red = index >> np.arange(k, dtype=np.uint32)[:, None] & 1
        masks = index << np.uint32(lo)
        cut = np.bitwise_count(nbr[lo : lo + k, None] & ~masks & -red)
        return masks, np.add.reduce(cut, axis=0, dtype=np.int16)

    ys, gy = half(np.arange(1 << b, dtype=np.uint32), 1, b)
    columns = nbr[1 : b + 1, None]
    rows = 1 << min(a, _CHUNK_BITS - b)
    t = np.empty((1 << b, rows), dtype=np.int16)
    best, mask = -1, 0
    for start in range(0, 1 << a, rows):
        xs, t[0] = half(np.arange(start, start + rows, dtype=np.uint32), b + 1, a)
        twice = np.left_shift(np.bitwise_count(xs & columns), 1, dtype=np.int16)
        for j, step in enumerate(twice):
            np.subtract(t[: 1 << j], step, out=t[1 << j : 2 << j])
        t += gy[:, None]
        top = int(t.max())
        if top > best:
            row = int(t.max(axis=0).argmax())
            best, mask = top, int(xs[row] | ys[t[:, row].argmax()])
    return best, mask


_WORD_BITS = 6  # a flag word holds 2^6 colorings
_ONES = ~np.uint64(0)


# Fixed from a sweep of n 14-18 and every mean degree (see CHANGES.md).
_SLICED_MIN_NODES = 16


def _sliced_path(g: Graph) -> bool:
    """Count illusions bit-sliced rather than a byte per (node, coloring)?
    A plane needs one full word of colorings, so the floor is at least 7."""
    return g.n >= _SLICED_MIN_NODES


def _block_words(n: int) -> int:
    return 1 << (min(n - 1, _CHUNK_BITS) - _WORD_BITS)


def _words(flags: np.ndarray) -> np.ndarray:
    """The flags along the last axis, 64 long, as uint64 words: bit ``b``
    is flag ``b``."""
    return np.packbits(flags, axis=-1, bitorder="little").view("<u8")[..., 0]


def _flag_words(nbr: np.ndarray, strict: bool) -> np.ndarray:
    """Entry ``[i, h, q]``: the uint64 word whose bit ``b`` flags node ``i``
    under strict (or weak) illusion, by :func:`_illusion_rule`, at every
    coloring where nodes 1-6 are red by the bits of ``b``, ``h`` of node
    ``i``'s neighbours above node 6 are red and ``q`` of all nodes above 6.
    The global lead is folded in: ``q`` and the bits of ``b`` give the red
    count, and per ``q`` one word of each lead picks the bits of node
    ``i``'s flags under that lead.  Entries with ``h`` above node ``i``'s
    count of neighbours above node 6 stand for no coloring."""
    n = len(nbr)
    b = np.arange(1 << _WORD_BITS, dtype=np.uint32)
    above = np.bitwise_count(nbr >> np.uint32(_WORD_BITS + 1))
    h = np.arange(int(above.max()) + 1, dtype=np.int16)[:, None]
    c = np.bitwise_count(nbr[:, None] >> np.uint32(1) & b)[:, None, :] + h
    deg = np.bitwise_count(nbr).astype(np.int16)[:, None, None]
    q = np.arange(n - _WORD_BITS, dtype=np.int16)[:, None]
    lead = np.sign(2 * (np.bitwise_count(b) + q) - n)
    return (
        _words(_illusion_rule(c, deg, strict))[:, :, None] & _words(lead > 0)
        | _words(_illusion_rule(deg - c, deg, strict))[:, :, None] & _words(lead < 0)
        | _words(_illusion_rule(c, deg, strict, tied=True))[:, :, None] & _words(lead == 0)
    )


def _tree_sum(rows: np.ndarray, spare: np.ndarray) -> list:
    """The column sums of the flag bits of ``rows`` (a 2D uint64 array),
    bit-sliced: plane ``j`` holds bit ``j`` of every sum, and there are
    ``len(rows).bit_length()`` planes.

    A tree adder: each level adds the counts of the bottom half of its rows
    to those of the top half, all pairs at once, one full adder per plane,
    and an odd last row is added into the first sum.  After level ``l``
    every sum but the first counts ``2^(l + 1)`` rows and the first counts
    the rest, fewer than ``2^(l + 2)``, so each fits its ``l + 2`` planes.
    The levels work in place: ``rows`` and ``spare`` (at least half as many
    rows) are overwritten, and the planes are views of them, so no
    temporary larger than a row is allocated."""
    planes = [rows]
    while len(planes[0]) > 1:
        half, odd = divmod(len(planes[0]), 2)
        a = [p[:half] for p in planes]
        b = [p[half : 2 * half] for p in planes]
        carry = np.bitwise_and(a[0], b[0], out=spare[:half])
        a[0] ^= b[0]
        if len(a) == 1:
            spare = b[0]  # read no more: the spare while the carry is a plane
        for j in range(1, len(a)):
            # a free block of rows, not the carry's
            both = np.bitwise_and(a[j], b[j], out=b[0] if j == 1 else spare[:half])
            a[j] ^= b[j]
            np.bitwise_and(a[j], carry, out=b[j])
            a[j] ^= carry
            carry = np.bitwise_or(both, b[j], out=b[j])
        if odd:
            _add_row([p[0] for p in a + [carry]], [p[-1] for p in planes])
        planes = a + [carry]
    return [p[0] for p in planes]


def _add_row(total: list, extra: list) -> None:
    """Add the bit-sliced count ``extra`` into ``total``, one plane wider,
    in place, by a ripple of full adders; the sums fit ``total``."""
    carry = total[0] & extra[0]
    total[0] ^= extra[0]
    for j in range(1, len(extra)):
        odd = total[j] ^ extra[j]
        both = total[j] & extra[j]
        np.bitwise_xor(odd, carry, out=total[j])
        carry = both | odd & carry
    total[len(extra)] ^= carry


def _sliced_scores(nbr: np.ndarray, strict: bool) -> Iterator[list]:
    """Per block of ``2^_CHUNK_BITS`` colorings with node 0 blue (all of
    them if fewer), in ascending order: the bit-sliced illusion count.

    Half-space coloring ``j`` (mask ``j << 1``) is bit ``j % 64`` of word
    ``w = j // 64``: nodes 1-6 are red by the bits of ``j % 64`` and the
    nodes above by those of ``w``.  So node ``i``'s flags there are a row of
    :func:`_flag_words`, at its red neighbours and the red nodes above node
    6, and a block's flags are one gather.  The gather's index is the sum
    of two parts built once per call, for the low and the high bits of
    ``w`` in the block, plus the block's offset for the nodes fixed over
    it.  The illusion counts are the flags' column sums, by
    :func:`_tree_sum`, whose planes are views of buffers that the next
    block overwrites.  Needs one full word: ``n >= 7``."""
    n = len(nbr)
    words = _flag_words(nbr, strict)
    _, hs, qs = words.shape
    words = words.ravel()
    high = nbr >> np.uint32(_WORD_BITS + 1)
    block = _block_words(n)
    low_bits = block.bit_length() // 2

    def part(w: np.ndarray, shift: int) -> np.ndarray:
        """Per node and word index bits ``w`` from bit ``shift`` up: the
        flat index step of the red neighbours and red nodes they give."""
        red = np.bitwise_count(high[:, None] >> np.uint32(shift) & w).astype(np.intp)
        return red * qs + np.bitwise_count(w)

    low = part(np.arange(1 << low_bits, dtype=np.uint32), 0)
    high_words = np.arange(block >> low_bits, dtype=np.uint32)
    high_part = part(high_words, low_bits) + np.arange(0, n * hs * qs, hs * qs)[:, None]
    # half the nodes at a time, so that the index, read, is the adder's spare
    half = (n + 1) // 2
    index = np.empty((half, len(high_words), len(low[0])), dtype=np.intp)
    rows = np.empty((n, block), dtype=np.uint64)
    for k in range((1 << (n - 1 - _WORD_BITS)) // block):
        steps = high_part + part(np.array([k * block], dtype=np.uint32), 0)
        for start in (0, half):
            nodes = slice(start, min(start + half, n))
            chunk = index[: nodes.stop - start]
            np.add(steps[nodes, :, None], low[nodes, None, :], out=chunk)
            # in range by construction; the default mode would copy ``out``
            words.take(chunk.reshape(-1, block), out=rows[nodes], mode="clip")
        yield _tree_sum(rows, index.reshape(half, block).view(np.uint64))


def _sliced_optima(nbr: np.ndarray, strict: bool) -> Iterator[tuple[int, int]]:
    """Per block: the best score, narrowed from the top score plane down,
    and the first mask that has it, the first set bit of the candidate
    words."""
    block = _block_words(len(nbr))
    for k, scores in enumerate(_sliced_scores(nbr, strict)):
        candidates = np.full(block, _ONES)
        top = 0
        for j in reversed(range(len(scores))):
            kept = candidates & scores[j]
            if kept.any():
                candidates, top = kept, top | 1 << j
        w = int(np.flatnonzero(candidates)[0])
        word = int(candidates[w])
        yield top, ((k * block + w) << _WORD_BITS | (word & -word).bit_length() - 1) << 1


@lru_cache(maxsize=None)
def _relabelling(n: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The oracle's tie-break: node ``i >= 1`` becomes ``n - i`` and node 0
    stays, its own inverse, as a tuple, a gather index and each node's new
    bit, padded to 32 uint32 bits.  With node 0 blue, ascending masks of
    the relabelled graph read nodes ``1..n - 1`` from the top bit down: the
    R/B strings ('B' < 'R', node 0 first) in ascending order."""
    order = tuple((n - node) % n for node in range(n))
    bits = np.zeros(_MASK_BITS, dtype=np.uint32)
    bits[:n] = [1 << v for v in order]
    return order, np.array(order, dtype=np.intp), bits


def _relabel(nbr: np.ndarray) -> np.ndarray:
    """Bitsets ``nbr`` relabelled by :func:`_relabelling`: row ``p`` is row
    ``order[p]``, its bit ``q`` read from bit ``order[q]``."""
    _, index, bits = _relabelling(len(nbr))
    return np.packbits(nbr[index, None] & bits != 0, axis=1, bitorder="little").view("<u4").ravel()


def best_coloring(
    g: Graph, objective: Objective | str, cap: int = DEFAULT_CAP
) -> tuple[Coloring, int]:
    """Exact optimum over all 2^n colorings for the given objective.

    Ties break toward the lexicographically smallest coloring string.
    Every objective is invariant under swapping all colors, and of each
    swapped pair the string with node 0 blue is the smaller, so only the
    colorings with node 0 blue are scanned, on the graph relabelled by
    :func:`_relabelling`: ascending masks there are the strings in
    ascending order, so each scan keeps the first optimum it meets and a
    later block replaces it only with a larger score.  Fewest
    monochromatic edges is found as most dichromatic ones, by
    :func:`_cut_optima`.  ``objective`` is a member or its value; anything
    else raises :class:`PreconditionError`.
    """
    objective = Objective.parse(objective)
    _check_cap(g, cap)
    if g.n == 0:
        return (), 0
    nbr = _relabel(g.neighbor_masks)
    if objective is Objective.MIN_MONOCHROMATIC:
        cut, mask = _cut_optima(nbr)
        best = g.edge_count - cut
    else:
        strict = objective is Objective.MAX_STRICT_ILLUSION
        best = -1
        for top, first in (_sliced_optima if _sliced_path(g) else _byte_optima)(nbr, strict):
            if top > best:
                best, mask = top, first
    order = _relabelling(g.n)[0]
    return tuple(Color.RED if mask >> p & 1 else Color.BLUE for p in order), best


# kind -> (counts strict illusions, fewest illusioned agents on n nodes)
_ILLUSION_TESTS: dict[IllusionKind, tuple[bool, Callable[[int], int]]] = {
    IllusionKind.MAJORITY_MAJORITY: (True, lambda n: n // 2 + 1),
    IllusionKind.WEAK_MAJORITY_MAJORITY: (True, lambda n: (n + 1) // 2),
    IllusionKind.MAJORITY_WEAK_MAJORITY: (False, lambda n: n // 2 + 1),
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY: (False, lambda n: (n + 1) // 2),
    IllusionKind.UNANIMITY_MAJORITY: (True, lambda n: n),
    IllusionKind.UNANIMITY_WEAK_MAJORITY: (False, lambda n: n),
}


@lru_cache(maxsize=None)
def _verdict_rows(n: int, kind: IllusionKind | str) -> tuple[tuple[int, ...], int, int]:
    """The kind's :func:`_flag_rows` on ``n`` nodes, the start of their sum
    and the mask of bit 7 of every lane.  The kind is resolved here, so a
    cached verdict does no lookup of its own.

    A lane counts at most ``n <= 8`` agents and the threshold is at least
    1, so a sum started at ``128 - threshold`` in every lane stays below
    256, with no carry into the next lane, and sets the lane's bit 7
    exactly where its count reaches the threshold."""
    strict, least = _ILLUSION_TESTS[IllusionKind.parse(kind)]
    rows, lanes = _flag_rows(n, strict)
    return rows, (128 - least(n)) * lanes, lanes << 7


def illusion_possible(
    g: Graph, kind: IllusionKind | str, cap: int = DEFAULT_CAP
) -> bool:
    """Does some coloring place ``g`` in the given network illusion?
    Exact, by exhaustive enumeration of the colorings with node 0 blue
    (see :func:`best_coloring`).  False on the empty graph, which has no
    agents to deceive.

    Up to ``_TABLE_NODES`` nodes a verdict is one sum of the graph's
    :func:`_verdict_rows`, cached per ``(n, kind)``, and one mask test;
    the rows cover the whole half space, so the block size plays no
    part.  Above, the byte kernel counts block by block.  ``kind`` is a
    member or its value; anything else raises :class:`PreconditionError`,
    on the empty graph too."""
    n = g.n
    if 0 < n <= _TABLE_NODES and n <= cap:
        try:
            rows, start, top = _verdict_rows(n, kind)
        except TypeError:  # an unhashable kind keys no cache: key it by its member
            rows, start, top = _verdict_rows(n, IllusionKind.parse(kind))
        return bool(sum(map(rows.__getitem__, g.neighbor_masks.tolist()), start) & top)
    strict, least = _ILLUSION_TESTS[IllusionKind.parse(kind)]
    _check_cap(g, cap)
    if n == 0:
        return False
    threshold = least(n)
    for reps, free in _half_blocks(n):
        counts = _illusion_counts(g.neighbor_masks, reps, free, strict)
        if np.maximum.reduce(counts, initial=0) >= threshold:  # no ``max`` wrapper
            return True
    return False


_BLOCK_STATES = 1024  # enumeration states expanded, and graphs yielded, per block


def enumerate_regular(n: int, k: int) -> Iterator[Graph]:
    """Yield every k-regular simple graph on labeled nodes ``0..n-1``
    exactly once (no isomorphism reduction).

    The graphs come from :func:`_regular_mask_blocks`, in its order, and
    share one read-only ``indptr``; each one's ``indices`` is a row view of
    its block's neighbour columns, one gather of :func:`_set_bits`, and its
    :attr:`Graph.neighbor_masks` is its block row.  Both blocks are made
    read-only once, and each graph is made by ``Graph._over_frozen``, with
    no ``__init__`` and no flag of its own to write.  Up to
    ``_TABLE_NODES`` nodes a verdict on a graph is a sum of its ``n``
    packed flag rows (see :func:`illusion_possible`).  At (8, 2), in
    process on a 2-vCPU VM, a graph costs about 1.3 µs (0.6 µs of it the
    mask blocks) and its verdict about 1.6 µs.  Empty when ``k*n`` is odd
    or ``0 < n <= k``; on ``n = 0``, the one empty graph.
    """
    if n > 10:
        raise PreconditionError(f"regular enumeration capped at 10 nodes, got {shown(n)}")
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be nonnegative")
    if k >= n and not (n == 0):
        return
    if (n * k) % 2 == 1:
        return
    indptr = np.arange(n + 1, dtype=np.int64) * k
    indptr.flags.writeable = False
    neighbours = _set_bits(n, k)
    over_frozen = Graph._over_frozen
    for block in _regular_mask_blocks(n, k):
        block.flags.writeable = False
        # graph, node, then neighbour ascending; a new array, not a view of
        # a writable one, so its frozen rows stay frozen
        columns = neighbours[block]
        columns.flags.writeable = False
        for masks, indices in zip(block, columns.reshape(len(block), n * k)):
            yield over_frozen(n, indptr, indices, masks)


@lru_cache(maxsize=None)
def _set_bits(n: int, k: int) -> np.ndarray:
    """Row ``x``: the lowest ``k`` set bits of ``x < 2^n``, ascending, as
    int64 node ids (all of them where ``x`` has ``k``): the first ``k`` of a
    stable sort that puts set bits first."""
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    return np.argsort(-bits, axis=1, kind="stable")[:, :k].astype(np.int64)


def _regular_mask_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """The neighbour bitsets of every labeled k-regular graph on ``n``
    nodes, each exactly once, as ``(G, n)`` uint32 blocks of at most
    ``_BLOCK_STATES`` graphs (``0 <= k < n`` or ``n = 0``; ``n * k`` even).

    A backtracker that gives each node in turn its full set of higher
    neighbours, run one level (node) at a time over blocks of states, a
    state being a row of residual degrees and bitsets (see
    :func:`_descend`).  At node
    ``u`` every state takes each subset of its open higher nodes (residual
    above 0) that has exactly ``residual[u]`` members, in the order of
    ``itertools.combinations``: the empty one where that residual is 0,
    none where too few nodes are open.  Subtrees are expanded depth-first,
    at most ``_BLOCK_STATES`` states at a time; the root's children go in
    chunks of 1, 4, 16, ..., so a caller that stops at an early graph
    pays for a small subtree.
    """
    return _descend(0, np.full((1, n), k << n if n else 0, dtype=np.int16), 1)  # any k on 0 nodes


@lru_cache(maxsize=None)
def _higher_subsets(u: int, n: int) -> tuple[np.ndarray, ...]:
    """The subsets of nodes ``u + 1..n - 1``, by size, then in the order of
    ``itertools.combinations``: each one's bitset, size, and the ``(n,)``
    int16 step that taking it adds to a state row: at ``u`` its bitset less
    its size times ``2^n``, and at each member ``v`` bit ``u`` (a link back
    to ``u``) less ``2^n`` (one off ``v``'s residual)."""
    higher = range(u + 1, n)
    subsets = [c for r in range(len(higher) + 1) for c in combinations(higher, r)]
    table = np.array([sum(1 << v for v in c) for c in subsets], dtype=np.int16)
    sizes = np.array(list(map(len, subsets)), dtype=np.int16)
    steps = (table[:, None] >> np.arange(n, dtype=np.int16) & 1) * np.int16((1 << u) - (1 << n))
    steps[:, u] = table - (sizes << n)
    return table, sizes, steps


def _descend(u: int, states: np.ndarray, chunk: int = _BLOCK_STATES) -> Iterator[np.ndarray]:
    """The leaves below ``states`` at node ``u``, by blocks, as uint32
    bitsets; children are expanded in chunks that start at ``chunk`` states
    and grow fourfold up to ``_BLOCK_STATES``.  A state's entry ``v`` is
    node ``v``'s residual degree times ``2^n`` plus its bitset (below
    ``2^14`` at 10 nodes), so a child is one add of a step row, and at a
    leaf, where every residual is 0, the entries are the bitsets."""
    n = states.shape[1]
    if u == n:
        yield states.astype(np.uint32)
        return
    table, sizes, steps = _higher_subsets(u, n)
    closed = (states < 1 << n) @ (np.int16(1) << np.arange(n, dtype=np.int16))
    valid = (sizes == states[:, u, None] >> n) & (table & closed[:, None] == 0)
    parents, picks = np.nonzero(valid)  # state by state, subsets in table order
    del valid, closed  # not kept while the children descend
    start = 0
    while start < len(parents):
        rows, cols = parents[start : start + chunk], picks[start : start + chunk]
        yield from _descend(u + 1, states[rows] + steps[cols])
        start += chunk
        chunk = min(4 * chunk, _BLOCK_STATES)
