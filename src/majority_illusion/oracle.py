"""Brute-force certification over all 2^n colorings and exhaustive
enumeration of small regular graphs.

Colorings are integers whose bit ``b`` gives node ``b``'s color (set bit =
red), so global and neighborhood tallies are vectorized popcounts.  The
coloring space is scanned in fixed-size chunks whose results combine
associatively (better score, then lexicographically smaller coloring
string), so chunked and sequential scans agree bit for bit.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import Iterator

import numpy as np

from .analysis import IllusionKind
from .coloring import Color, Coloring
from .errors import PreconditionError
from .graphs import Graph, make_graph

DEFAULT_CAP = 22
_CHUNK_BITS = 18
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


def _chunks(n: int, chunk_bits: int = _CHUNK_BITS) -> Iterator[np.ndarray]:
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.uint32)


def _illusion_counts(
    g: Graph, masks: np.ndarray, nbr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coloring counts of agents under strict and weak illusion."""
    n = g.n
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
    return strict, weak


def _mono_counts(g: Graph, masks: np.ndarray) -> np.ndarray:
    di = np.zeros(len(masks), dtype=np.int32)
    for u, v in g.edges:
        di += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & 1
    return g.edge_count - di


def _string_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit-reversed masks: ordering by key equals ordering the R/B strings
    lexicographically (node 0 first, 'B' < 'R')."""
    keys = np.zeros(len(masks), dtype=np.uint32)
    for i in range(n):
        keys |= (((masks >> np.uint32(i)) & 1) << np.uint32(n - 1 - i)).astype(
            np.uint32
        )
    return keys


def best_coloring(
    g: Graph, objective: Objective, cap: int = DEFAULT_CAP
) -> tuple[Coloring, int]:
    """Exact optimum over all 2^n colorings for the given objective.

    Ties break toward the lexicographically smallest coloring string.
    """
    _check_cap(g, cap)
    maximize = objective is not Objective.MIN_MONOCHROMATIC
    nbr = _neighbor_masks(g)
    best_score: int | None = None
    best_key: int | None = None
    best_mask = 0
    for masks in _chunks(g.n):
        if objective is Objective.MIN_MONOCHROMATIC:
            scores = _mono_counts(g, masks)
        else:
            strict, weak = _illusion_counts(g, masks, nbr)
            scores = strict if objective is Objective.MAX_STRICT_ILLUSION else weak
        chunk_best = int(scores.max() if maximize else scores.min())
        if best_score is not None:
            if (maximize and chunk_best < best_score) or (
                not maximize and chunk_best > best_score
            ):
                continue
        candidates = masks[scores == chunk_best]
        keys = _string_keys(candidates, g.n)
        pos = int(keys.argmin())
        key = int(keys[pos])
        if (
            best_score is None
            or (maximize and chunk_best > best_score)
            or (not maximize and chunk_best < best_score)
            or key < best_key
        ):
            best_score = chunk_best
            best_key = key
            best_mask = int(candidates[pos])
    return coloring_from_mask(best_mask, g.n), best_score


def illusion_possible(
    g: Graph, kind: IllusionKind, cap: int = DEFAULT_CAP
) -> bool:
    """Does some coloring place ``g`` in the given network illusion?
    Exact, by exhaustive enumeration."""
    _check_cap(g, cap)
    n = g.n
    nbr = _neighbor_masks(g)
    for masks in _chunks(n):
        strict, weak = _illusion_counts(g, masks, nbr)
        if kind is IllusionKind.MAJORITY_MAJORITY:
            hit = 2 * strict.astype(np.int32) > n
        elif kind is IllusionKind.WEAK_MAJORITY_MAJORITY:
            hit = 2 * strict.astype(np.int32) >= n
        elif kind is IllusionKind.MAJORITY_WEAK_MAJORITY:
            hit = 2 * weak.astype(np.int32) > n
        elif kind is IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY:
            hit = 2 * weak.astype(np.int32) >= n
        elif kind is IllusionKind.UNANIMITY_MAJORITY:
            hit = strict == n
        else:
            hit = weak == n
        if bool(hit.any()):
            return True
    return False


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
