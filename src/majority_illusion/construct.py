"""Constructive search-free builders for k-regular graphs carrying a
majority-majority illusion.

The pipeline colors ``n//2 + 1`` nodes red and the rest blue, wires every
red node to just over ``k/2`` blue nodes (round-robin), tops the blue side
up with a pairing pass, and finishes each color class with circulant
subgraphs plus an exact pairing of the odd-parity leftovers.

Every stage takes and returns the edge set as a sorted int64 array of keys
``u * n + v`` with ``u < v``.  The round-robin edges have a closed form,
the circulants are one broadcast table of (position, offset) partners, the
complete bipartite core of :func:`fast_construct` is a ``repeat`` and a
``tile``, and the bridge's candidates are one mask.  New keys are
deduplicated by sorting, probed against the array in that sorted order,
and merged into it by a stable sort of the two runs, which timsort merges
in one pass; each degree pass is one search for the row starts plus one
``bincount``.  Two loops stay scalar because each choice depends on the
last: the blue top-up (one pass over the blue nodes) and the pairing of
the odd-parity leftovers (about ``n/4`` open ends), which tests adjacency
by bisecting a list of the keys, taken once per pairing, plus a set of
its own edges.  The pairing is an iterative depth-first search with an
explicit undo stack, so it runs at any size; no stage has a fallback path,
because none is reachable on a feasible input (the proofs are in
CHANGES.md).  Every stage validates its degree accounting and the final
product is re-checked for simplicity, regularity, and the
majority-majority flag; any violation raises
:class:`InternalInvariantError` rather than returning a wrong witness.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from math import lcm
from typing import Sequence

import numpy as np

from .analysis import COLOR_CODES, IllusionKind, NetworkIllusionReport, status_columns
from .analysis import classify_network  # noqa: F401  (perfbench traces it here)
from .coloring import WINNER_CODES, Color, ColoredGraph, Winner
from .errors import InfeasibleError, InternalInvariantError, PreconditionError
from .feasibility import regular_exists
from .graphs import MAX_NODES, _key_rows, _sorted_unique, check_size, make_graph

_NO_EDGES = np.empty(0, dtype=np.int64)
_NO_EDGES.flags.writeable = False


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The keys ``min * n + max`` of the pairs ``(u[i], v[i])``."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _degree_counts(keys: np.ndarray, n: int) -> np.ndarray:
    """Every node's degree in the sorted edge keys ``keys``: its run of
    keys as the lower end, plus its count as the upper end."""
    indptr, row_starts = _key_rows(keys, n)
    return np.diff(indptr) + np.bincount(keys - row_starts, minlength=n)


def _contains(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which of ``probe`` occur in the sorted array ``keys``.  The binary
    searches walk ``keys`` in order, and so stay in cache, when ``probe``
    is sorted too."""
    if not len(keys):
        return np.zeros(len(probe), dtype=bool)
    at = np.searchsorted(keys, probe)
    return keys.take(at, mode="clip") == probe


def _merge(keys: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The sorted union of ``keys`` and the sorted keys ``fresh``, which
    none of ``keys`` repeats.  A stable sort of int64 is timsort, which
    finds the two sorted runs and merges them in one pass."""
    out = np.concatenate((keys, fresh))
    out.sort(kind="stable")
    return out


def _blue_quota(k: int) -> int:
    return k // 2 + 1


@dataclass(frozen=True)
class ConstructionPlan:
    """Node split and residual intra-color degrees for a feasible (n, k)."""

    n: int
    k: int
    n_red: int
    n_blue: int
    k_red: int
    k_blue: int

    @property
    def red_nodes(self) -> list[int]:
        return list(range(self.n_red))

    @property
    def blue_nodes(self) -> list[int]:
        return list(range(self.n_red, self.n))

    @property
    def blue_target(self) -> int:
        """Blue neighbors per red node after the initial bipartite stage."""
        return _blue_quota(self.k)


def construction_plan(n: int, k: int) -> ConstructionPlan:
    n_red = n // 2 + 1
    n_blue = n - n_red
    if n % 2 == 0:
        if k % 2 == 0:
            k_blue, k_red = k // 2 - 3, k // 2 - 1
        else:
            k_blue, k_red = (k - 5) // 2, (k - 1) // 2
        if k_blue < 0:
            k_blue = 0
    else:
        k_blue, k_red = k // 2 - 2, (k - 2) // 2
    if k_blue < 0 or k_red < 0:
        raise InternalInvariantError(f"negative residual degree for n={n}, k={k}")
    return ConstructionPlan(n=n, k=k, n_red=n_red, n_blue=n_blue, k_red=k_red, k_blue=k_blue)


@dataclass
class ConstructionReport:
    n: int
    k: int
    fast: bool
    stages: list[dict] = field(default_factory=list)
    validated: bool = False

    def record(self, stage: str, edges_before: int, edges_after: int, **extra) -> None:
        entry = {"stage": stage, "edges_added": edges_after - edges_before}
        entry.update(extra)
        self.stages.append(entry)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "fast": self.fast,
            "stages": self.stages,
            "validated": self.validated,
        }


def add_initial_edges(
    keys: np.ndarray, n: int, blue: Sequence[int], red: Sequence[int], k: int
) -> np.ndarray:
    """Give every red node its quota of blue neighbors, round-robin.

    Pick ``i`` joins red node ``i % |R|`` to blue node ``(x + i) % |B|``,
    where the offset ``x`` is 0 until the first repeated pair and 1 from
    there on.  Distinct nodes repeat a pair first at ``i = lcm(|R|, |B|)``,
    so ``x = [i >= lcm(|R|, |B|)]``.  A pick that repeats an earlier one
    after the shift, or an edge already in ``keys``, cannot happen on a
    feasible input and raises, naming the red node of the first such pick.
    """
    red = np.asarray(red, dtype=np.int64)
    blue = np.asarray(blue, dtype=np.int64)
    i = np.arange(len(red) * _blue_quota(k), dtype=np.int64)
    if not len(i):
        return keys
    shift = i >= lcm(len(red), len(blue))
    picks = _edge_keys(red[i % len(red)], blue[(i + shift) % len(blue)], n)
    order = np.argsort(picks, kind="stable")
    ordered = picks[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    taken = order[_contains(keys, ordered)]
    if len(repeats) or len(taken):
        first = min(repeats.min(initial=len(i)), taken.min(initial=len(i)))
        raise InternalInvariantError(
            f"red node {int(red[first % len(red)])} collides again after the shift"
        )
    return _merge(keys, ordered)


def add_extra_blue_edges(
    keys: np.ndarray, n: int, blue: Sequence[int], k: int, k_blue: int
) -> np.ndarray:
    """Pair up blue nodes that still have more than ``k_blue`` open ends.

    Blue nodes are visited in ascending degree (most missing edges first);
    each is joined to its cyclic successor when both sit below
    ``k - k_blue`` and are not yet adjacent.  In the odd-leftover case one
    blue node stays one edge short for the caller to absorb.
    """
    blue = np.asarray(blue, dtype=np.int64)
    deg = _degree_counts(keys, n)
    order = blue[np.lexsort((blue, deg[blue]))]
    if len(order) < 2:
        return keys
    successor = np.roll(order, -1)
    pairs = _edge_keys(order, successor, n)
    adjacent = _contains(keys, pairs).tolist()
    limit = k - k_blue
    deg = deg.tolist()
    # A pair comes twice only for two blue nodes, as (a, b) then (b, a);
    # the set keeps it once.
    added: set[int] = set()
    for node, nxt, key, known in zip(order.tolist(), successor.tolist(), pairs.tolist(), adjacent):
        if not known and deg[node] < limit and deg[nxt] < limit:
            added.add(key)
            deg[node] += 1
            deg[nxt] += 1
    return _merge(keys, np.array(sorted(added), dtype=np.int64))


def add_regular_subgraph(
    keys: np.ndarray, n: int, nodes: Sequence[int], k_sub: int
) -> np.ndarray:
    """Add a circulant ``k_sub``-regular graph on ``nodes`` (in list order).

    Each node connects around the position opposite its own: the antipodal
    node first when the count is even and ``k_sub`` odd, then offsets
    fanning out from the antipode.  When both the count and ``k_sub`` are
    odd every node is left one edge short (the caller pairs the remainder).
    A collision with an edge already in ``keys`` raises
    :class:`InternalInvariantError`, naming the first in that order.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    m = len(nodes)
    if k_sub == 0:
        return keys
    if k_sub < 0 or k_sub >= m:
        raise PreconditionError(f"subgraph degree {k_sub} invalid for {m} nodes")
    # Each edge is in the table from both ends; the sorted distinct keys
    # are both the probe and the keys to merge.
    fresh = _sorted_unique(_circulant_table(n, nodes, k_sub))
    if _contains(keys, fresh).any():
        table = _circulant_table(n, nodes, k_sub)
        u, v = divmod(int(table[_contains(keys, table).argmax()]), n)
        raise InternalInvariantError(
            f"circulant edge {(u, v)} collides with an existing edge"
        )
    return _merge(keys, fresh)


def _circulant_table(n: int, nodes: np.ndarray, k_sub: int) -> np.ndarray:
    """The keys of :func:`add_regular_subgraph`'s edges in its loop order:
    by node position, then by partner."""
    m = len(nodes)
    # Partners as doubled offsets from the doubled opposite position: the
    # antipode (0), then -2i+1 and +2i for each i, halved after the sum.
    i = np.arange(1, k_sub // 2 + 1, dtype=np.int64)
    offsets = np.stack((1 - 2 * i, 2 * i), axis=1).ravel()
    if m % 2 == 0 and k_sub % 2 == 1:
        offsets = np.concatenate(([0], offsets))
    opposite = 2 * np.arange(m, dtype=np.int64)[:, None] + m
    partners = nodes[((opposite + offsets) // 2) % m]
    return _edge_keys(nodes[:, None], partners, n).ravel()


def _realize_deficits(
    keys: np.ndarray, n: int, members: Sequence[int], k: int, deg: list[int], label: str
) -> np.ndarray:
    """Connect same-color nodes until every member reaches degree ``k``.

    Exact depth-first search over simple, non-duplicate pairings, run as a
    loop with an explicit undo stack.  The most-deficient open member
    (lowest id on ties) takes the first node it is not adjacent to in the
    order of ``(deg - k, id)``.  When no partner is left, the last choice
    is undone and its scan resumes just past the partner it had taken.
    Raises when the open ends cannot be realized at all; returns the edge
    keys with the pairing's added and updates ``deg`` in place.
    """
    deficit = {u: k - deg[u] for u in members if deg[u] < k}
    if sum(deficit.values()) % 2 == 1:
        raise InternalInvariantError(
            f"{label} open ends sum to an odd number: {deficit}"
        )
    own: set[int] = set()  # the keys of the chosen edges
    # One list of the keys for the whole pairing: a bisect of a list costs
    # a fraction of one scalar numpy searchsorted.
    known = keys.tolist()

    def key(u: int, v: int) -> int:
        return u * n + v if u < v else v * n + u

    def adjacent(u: int, v: int) -> bool:
        e = key(u, v)
        if e in own:
            return True
        at = bisect_left(known, e)
        return at < len(known) and known[at] == e

    # The open members as (k - deg, -id), ascending: that order reversed,
    # so the node to extend is last and the scan for its partner runs down
    # from the one before it; a step takes both from near the end of the
    # list instead of moving all of it.
    open_ends = sorted((d, -u) for u, d in deficit.items())
    chosen: list[tuple[int, int]] = []  # (extended node, partner), in choice order
    start = len(open_ends) - 2
    while open_ends:
        u = -open_ends[-1][1]
        for i in range(start, -1, -1):
            v = -open_ends[i][1]
            if not adjacent(u, v):
                break
        else:
            if not chosen:
                raise InternalInvariantError(
                    f"{label} open ends {deficit} cannot be paired without duplicates"
                )
            u, v = chosen.pop()
            own.discard(key(u, v))
            for w in (u, v):
                if deg[w] < k:
                    del open_ends[bisect_left(open_ends, (k - deg[w], -w))]
                deg[w] -= 1
                insort(open_ends, (k - deg[w], -w))
            start = bisect_left(open_ends, (k - deg[v], -v)) - 1
            continue
        del open_ends[-1], open_ends[i]
        own.add(key(u, v))
        chosen.append((u, v))
        for w in (u, v):
            deg[w] += 1
            if deg[w] < k:
                insort(open_ends, (k - deg[w], -w))
        start = len(open_ends) - 2
    return _merge(keys, np.array(sorted(own), dtype=np.int64))


def _require_feasible(n: int, k: int) -> ConstructionPlan:
    if n > MAX_NODES:
        raise PreconditionError(f"node count {n} exceeds the limit of {MAX_NODES}")
    verdict = regular_exists(n, k)
    if not verdict.possible:
        raise InfeasibleError(
            f"no {k}-regular graph on {n} nodes admits a majority-majority "
            f"illusion (failed: {', '.join(verdict.failed)})",
            verdict,
        )
    check_size(n, n * k // 2)
    return construction_plan(n, k)


def _add_circulant(
    keys: np.ndarray,
    n: int,
    nodes: np.ndarray,
    degree: int,
    report: ConstructionReport,
    stage: str,
) -> np.ndarray:
    out = add_regular_subgraph(keys, n, nodes, degree)
    report.record(stage, len(keys), len(out), degree=degree)
    return out


def _check_top_up(blue_deg: np.ndarray, limit: int) -> None:
    """After the top-up every blue node has degree ``limit``, but at most one
    that stays below it."""
    if np.count_nonzero(blue_deg < limit) > 1 or (blue_deg > limit).any():
        raise InternalInvariantError(
            f"blue top-up left degrees {np.sort(blue_deg).tolist()}"
        )


def _bridge(
    keys: np.ndarray, n: int, red: np.ndarray, blue: np.ndarray, k: int, deg: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Join the neediest blue node (lowest id on ties) to the first red node
    that is open and not yet its neighbor; ``deg`` is updated in place.
    Returns the keys and the bridged red and blue nodes."""
    bridged_blue = int(blue[np.argmin(deg[blue])])
    open_red = red[deg[red] < k]
    candidates = open_red[~_contains(keys, _edge_keys(open_red, bridged_blue, n))]
    if not len(candidates):
        raise InternalInvariantError(
            f"no red node left to bridge blue node {bridged_blue}"
        )
    bridged_red = int(candidates[0])
    deg[[bridged_red, bridged_blue]] += 1
    edge = _edge_keys(np.array([bridged_red]), bridged_blue, n)
    return _merge(keys, edge), bridged_red, bridged_blue


def _validate_colored_regular(cg: ColoredGraph, n: int, k: int, n_red: int) -> None:
    g = cg.graph
    if g.n != n:
        raise InternalInvariantError(f"expected {n} nodes, built {g.n}")
    bad = np.flatnonzero(np.diff(g.indptr) != k).tolist()
    if bad:
        raise InternalInvariantError(f"nodes {bad} missed the target degree {k}")
    columns = status_columns(cg)
    red = columns.own == COLOR_CODES.index(Color.RED)
    reds = int(np.count_nonzero(red))
    if reds != n_red:
        raise InternalInvariantError(f"expected {n_red} red nodes, got {reds}")
    outvoted = np.flatnonzero(red & (columns.local != WINNER_CODES.index(Winner.BLUE)))
    if len(outvoted):
        i = int(outvoted[0])
        blue_nb = k - int(cg.red_neighbor_array[i])
        raise InternalInvariantError(f"red node {i} has only {blue_nb} blue neighbors of {k}")
    report = NetworkIllusionReport.from_columns(cg, columns)
    if not report.flag(IllusionKind.MAJORITY_MAJORITY):
        raise InternalInvariantError("construction is not majority-majority")


def _finish(
    plan: ConstructionPlan, keys: np.ndarray, report: ConstructionReport
) -> tuple[ColoredGraph, ConstructionReport]:
    """Color the first ``n_red`` nodes red, build the graph and validate it."""
    colors = (Color.RED,) * plan.n_red + (Color.BLUE,) * plan.n_blue
    edges = np.stack(np.divmod(keys, plan.n), axis=1)
    cg = ColoredGraph(make_graph(plan.n, edges), colors)
    _validate_colored_regular(cg, plan.n, plan.k, plan.n_red)
    report.validated = True
    return cg, report


def construct_regular_illusion(n: int, k: int) -> ColoredGraph:
    cg, _ = construct_regular_illusion_report(n, k)
    return cg


def construct_regular_illusion_report(
    n: int, k: int
) -> tuple[ColoredGraph, ConstructionReport]:
    """Build a k-regular graph on n nodes whose coloring is a validated
    majority-majority illusion; raises :class:`InfeasibleError` when the
    feasibility verdict is negative.

    Each color class is finished with a circulant subgraph when its residual
    degree or node count is even; when both are odd the class gets a
    circulant one degree short, a single red-blue bridge absorbs the odd
    blue end (only needed when the red side is the odd one), and a pairing
    pass closes the rest.
    """
    plan = _require_feasible(n, k)
    report = ConstructionReport(n=n, k=k, fast=False)
    red = np.arange(plan.n_red, dtype=np.int64)
    blue = np.arange(plan.n_red, n, dtype=np.int64)

    keys = add_initial_edges(_NO_EDGES, n, blue, red, k)
    report.record("initial-bipartite", 0, len(keys), per_red=plan.blue_target)
    deg = _degree_counts(keys, n)
    bad = red[deg[red] != plan.blue_target].tolist()
    if bad:
        raise InternalInvariantError(f"red nodes {bad} missed the bipartite quota")
    if (deg[blue] > k).any():
        raise InternalInvariantError("a blue node exceeded its total degree")

    # Top-up edges join blues consecutive in this order, so a circulant over
    # the same order only uses larger cyclic distances and cannot collide.
    blue_order = blue[np.lexsort((blue, deg[blue]))]
    before = len(keys)
    keys = add_extra_blue_edges(keys, n, blue, k, plan.k_blue)
    report.record("blue-top-up", before, len(keys))
    _check_top_up(_degree_counts(keys, n)[blue], k - plan.k_blue)

    red_deferred = plan.k_red % 2 == 1 and plan.n_red % 2 == 1
    blue_deferred = plan.k_blue % 2 == 1 and plan.n_blue % 2 == 1
    if not red_deferred:
        keys = _add_circulant(keys, n, red, plan.k_red, report, "red-circulant")
    if not blue_deferred and plan.k_blue:
        keys = _add_circulant(keys, n, blue_order, plan.k_blue, report, "blue-circulant")

    if red_deferred or blue_deferred:
        if red_deferred and plan.k_red > 1:
            keys = _add_circulant(keys, n, red, plan.k_red - 1, report, "red-circulant-short")
        if blue_deferred and plan.k_blue > 1:
            keys = _add_circulant(
                keys, n, blue_order, plan.k_blue - 1, report, "blue-circulant-short"
            )
        deg = _degree_counts(keys, n)
        bridged_blue = -1
        bridged_red = -1
        if red_deferred:
            # one red end must cross over; pick the neediest blue node
            keys, bridged_red, bridged_blue = _bridge(keys, n, red, blue, k, deg)
            report.record("bridge", len(keys) - 1, len(keys))
        open_blue = blue[(deg[blue] < k) & (blue != bridged_blue)].tolist()
        open_red = red[(deg[red] < k) & (red != bridged_red)].tolist()
        deg = deg.tolist()
        for label, members in (("blue", open_blue), ("red", open_red)):
            before = len(keys)
            keys = _realize_deficits(keys, n, members, k, deg, label)
            if len(keys) > before:
                report.record(f"{label}-pairing", before, len(keys))

    return _finish(plan, keys, report)


def fast_construct(n: int, k: int) -> ColoredGraph:
    cg, _ = fast_construct_report(n, k)
    return cg


def fast_construct_report(n: int, k: int) -> tuple[ColoredGraph, ConstructionReport]:
    """Shortcut for ``n % 4 == 2`` with ``n <= 2k - 2`` and even ``k``:
    a complete red-blue bipartite core plus one circulant per color.

    For ``n % 4 == 0`` both residual degrees would be odd on odd-sized
    classes, so the precondition rejects it.
    """
    if n % 4 != 2:
        raise PreconditionError(
            f"fast construction needs n % 4 == 2 (n={n} leaves both color "
            "classes with an odd number of odd open ends)"
        )
    if k % 2 != 0:
        raise PreconditionError(f"fast construction needs even k, got {k}")
    if n > 2 * k - 2:
        raise PreconditionError(
            f"fast construction needs n <= 2k - 2, got n={n}, k={k}"
        )
    plan = _require_feasible(n, k)
    report = ConstructionReport(n=n, k=k, fast=True)
    red = np.arange(plan.n_red, dtype=np.int64)
    blue = np.arange(plan.n_red, n, dtype=np.int64)
    keys = np.repeat(red, plan.n_blue) * n + np.tile(blue, plan.n_red)
    report.record("complete-bipartite", 0, len(keys))
    keys = _add_circulant(keys, n, red, k - plan.n_blue, report, "red-circulant")
    keys = _add_circulant(keys, n, blue, k - plan.n_red, report, "blue-circulant")
    return _finish(plan, keys, report)
