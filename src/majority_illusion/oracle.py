"""Brute-force certification over all 2^n colorings and exhaustive
enumeration of small regular graphs.

Colorings are integers whose bit ``b`` gives node ``b``'s color (set bit =
red), so global and neighborhood tallies are vectorized popcounts.  One
kernel serves every objective: per block of colorings it counts each
node's red neighbours once, as a 2D uint8 block, and derives the illusion
and monochromatic counts from that block without any per-node or per-edge
loop.

Swapping every color negates each local and the global lead, so it keeps
every agent's strict or weak illusion status and every edge's
monochromaticity.  The scans therefore cover only the half of the space
with node 0 blue; that half holds the lexicographically smallest of each
swapped pair ('B' < 'R').  Blocks combine associatively (better score,
then lexicographically smaller coloring string), so the block size never
changes a result.  Masks are uint32, so graphs are limited to 32 nodes,
and the empty graph has no illusion, as in the classifier.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Callable, Iterator

import numpy as np

from .analysis import IllusionKind
from .coloring import Color, Coloring
from .errors import PreconditionError
from .graphs import Graph, make_graph

DEFAULT_CAP = 22
_CHUNK_BITS = 18  # a scan's largest temporary holds 2^18 uint32 words
_MASK_BITS = 32  # colorings and neighborhoods are uint32 masks


class Objective(enum.Enum):
    MAX_STRICT_ILLUSION = "max-strict-illusion-count"
    MAX_WEAK_ILLUSION = "max-weak-illusion-count"
    MIN_MONOCHROMATIC = "min-monochromatic"

    def __str__(self) -> str:
        return self.value


def coloring_from_mask(mask: int, n: int) -> Coloring:
    return tuple(Color.RED if (mask >> i) & 1 else Color.BLUE for i in range(n))


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} nodes, above the exhaustive-search cap {cap}"
        )
    if g.n > _MASK_BITS:
        raise PreconditionError(
            f"graph has {g.n} nodes, above the {_MASK_BITS}-bit coloring masks"
        )


def _neighbor_masks(g: Graph) -> np.ndarray:
    masks = np.zeros(g.n, dtype=np.uint32)
    for i in range(g.n):
        m = 0
        for j in g.adj[i]:
            m |= 1 << j
        masks[i] = m
    return masks


def _chunks(n: int, rows: int = 1, half: bool = False) -> Iterator[np.ndarray]:
    """The colorings of ``n`` nodes in ascending blocks small enough that
    ``rows`` uint32 words per coloring fit in ``2^_CHUNK_BITS`` words; with
    ``half``, only those with node 0 blue (``n >= 1``).  The block size is
    looked up at each call."""
    total = 1 << (n - 1 if half else n)
    step = max(1, (1 << _CHUNK_BITS) // rows)
    for start in range(0, total, step):
        block = np.arange(start, min(start + step, total), dtype=np.uint32)
        yield block << np.uint32(1) if half else block


def _red_neighbors(masks: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Entry ``[i, j]``: node ``i``'s red neighbours under coloring ``masks[j]``."""
    return np.bitwise_count(masks[None, :] & nbr[:, None])


def _illusion_counter(g: Graph, strict: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Per-coloring count of agents under strict (or weak) illusion.

    With ``c`` red neighbours of ``d``, let ``A`` count the agents with
    ``2c <= d`` (no red local lead) and ``B`` those with ``2c < d`` (blue
    local lead).  Under a global red lead the weak and strict counts are
    ``A`` and ``B``, under a blue lead ``n - B`` and ``n - A``, and under a
    global tie ``n - (A - B)`` and 0.
    """
    n = g.n
    nbr = _neighbor_masks(g)
    deg = np.array(g.degrees(), dtype=np.uint8)[:, None]
    no_red_lead, blue_lead_below = deg // 2, (deg + 1) // 2

    def count(masks: np.ndarray) -> np.ndarray:
        c = _red_neighbors(masks, nbr)
        a = (c <= no_red_lead).sum(axis=0, dtype=np.uint8)
        b = (c < blue_lead_below).sum(axis=0, dtype=np.uint8)
        red = np.bitwise_count(masks)
        red_lead, blue_lead = red > n // 2, red < (n + 1) // 2
        if strict:
            return np.where(red_lead, b, np.where(blue_lead, n - a, 0))
        return np.where(red_lead, a, np.where(blue_lead, n - b, n - a + b))

    return count


def _dichromatic_counter(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """Per-coloring count of edges with ends of both colors: each is
    counted once, as a red neighbour of its blue end."""
    nbr = _neighbor_masks(g)
    bit = np.uint32(1) << np.arange(g.n, dtype=np.uint32)[:, None]

    def count(masks: np.ndarray) -> np.ndarray:
        blue = (masks[None, :] & bit) == 0
        return (_red_neighbors(masks, nbr) * blue).sum(axis=0, dtype=np.uint16)

    return count


def _string_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit-reversed masks: ordering by key equals ordering the R/B strings
    lexicographically (node 0 first, 'B' < 'R')."""
    shift = np.arange(n, dtype=np.uint32)[:, None]
    bits = (masks[None, :] >> shift) & np.uint32(1)
    return np.bitwise_or.reduce(bits << (np.uint32(n - 1) - shift), axis=0)


def best_coloring(
    g: Graph, objective: Objective, cap: int = DEFAULT_CAP
) -> tuple[Coloring, int]:
    """Exact optimum over all 2^n colorings for the given objective.

    Ties break toward the lexicographically smallest coloring string.
    Every objective is invariant under swapping all colors, and of each
    swapped pair the string with node 0 blue is the smaller, so only the
    colorings with node 0 blue are scanned.  Fewest monochromatic edges
    is found as most dichromatic ones.
    """
    _check_cap(g, cap)
    if g.n == 0:
        return (), 0
    if objective is Objective.MIN_MONOCHROMATIC:
        gain = _dichromatic_counter(g)
    else:
        gain = _illusion_counter(g, objective is Objective.MAX_STRICT_ILLUSION)
    best: int | None = None
    best_key: int | None = None
    best_mask = 0
    for masks in _chunks(g.n, rows=g.n, half=True):
        scores = gain(masks)
        top = int(scores.max())
        if best is not None and top < best:
            continue
        candidates = masks[scores == top]
        keys = _string_keys(candidates, g.n)
        pos = int(keys.argmin())
        key = int(keys[pos])
        if best is None or top > best or key < best_key:
            best, best_key, best_mask = top, key, int(candidates[pos])
    if objective is Objective.MIN_MONOCHROMATIC:
        best = g.edge_count - best
    return coloring_from_mask(best_mask, g.n), best


# kind -> (counts strict illusions, fewest illusioned agents on n nodes)
_ILLUSION_TESTS: dict[IllusionKind, tuple[bool, Callable[[int], int]]] = {
    IllusionKind.MAJORITY_MAJORITY: (True, lambda n: n // 2 + 1),
    IllusionKind.WEAK_MAJORITY_MAJORITY: (True, lambda n: (n + 1) // 2),
    IllusionKind.MAJORITY_WEAK_MAJORITY: (False, lambda n: n // 2 + 1),
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY: (False, lambda n: (n + 1) // 2),
    IllusionKind.UNANIMITY_MAJORITY: (True, lambda n: n),
    IllusionKind.UNANIMITY_WEAK_MAJORITY: (False, lambda n: n),
}


def illusion_possible(
    g: Graph, kind: IllusionKind, cap: int = DEFAULT_CAP
) -> bool:
    """Does some coloring place ``g`` in the given network illusion?
    Exact, by exhaustive enumeration of the colorings with node 0 blue
    (see :func:`best_coloring`).  False on the empty graph, which has no
    agents to deceive."""
    _check_cap(g, cap)
    if g.n == 0:
        return False
    strict, least = _ILLUSION_TESTS[kind]
    count = _illusion_counter(g, strict)
    threshold = least(g.n)
    return any(
        bool((count(masks) >= threshold).any())
        for masks in _chunks(g.n, rows=g.n, half=True)
    )


def enumerate_regular(n: int, k: int) -> Iterator[Graph]:
    """Yield every k-regular simple graph on labeled nodes ``0..n-1``
    exactly once (no isomorphism reduction).

    Backtracks over the lowest unsaturated node's full neighborhood choice;
    since that node is never touched again, each labeled graph arises from
    exactly one choice sequence.  Empty when ``k*n`` is odd or ``k >= n``.
    """
    if n > 10:
        raise PreconditionError(f"regular enumeration capped at 10 nodes, got {n}")
    if n < 0 or k < 0:
        raise PreconditionError("n and k must be nonnegative")
    if k >= n and not (n == 0):
        return
    if (n * k) % 2 == 1:
        return

    residual = [k] * n
    edges: list[tuple[int, int]] = []

    def rec(lowest: int) -> Iterator[Graph]:
        u = lowest
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield make_graph(n, edges)
            return
        need = residual[u]
        cands = [v for v in range(u + 1, n) if residual[v] > 0]
        if len(cands) < need:
            return
        for combo in combinations(cands, need):
            for v in combo:
                residual[v] -= 1
                edges.append((u, v))
            residual[u] = 0
            yield from rec(u + 1)
            residual[u] = need
            for v in combo:
                residual[v] += 1
                edges.pop()

    yield from rec(0)
