"""Builders of k-regular graphs carrying a majority-majority illusion:
direct stages, with no search.

The pipeline colors ``n//2 + 1`` nodes red and the rest blue, wires every
red node to just over ``k/2`` blue nodes (round-robin), tops the blue side
up with a pairing pass, and finishes each color class with circulant
subgraphs plus an exact pairing of the odd-parity leftovers.

The edge set is a sorted array of keys ``u * n + v`` with ``u < v``, at
the graph's key width: uint32 below 2^16 nodes, where every key fits, and
int64 from there on (:func:`~majority_illusion.graphs._key_dtype`).
Every stage returns only the sorted keys it adds, at that width, and one
call, :meth:`ConstructionReport.add`, merges and records them; a stage
that adds no edge is no row, and ``add`` alone decides it.  The stages
after the blue top-up read the array (the round robin's keys start it,
and the top-up reads only degrees).  The round-robin edges are a ``tile``
of the red nodes against two cyclic runs of the blue ones, each circulant
is one run of ``(position, position + step)`` pairs per step, taken once
from the lower position, the complete bipartite core of
:func:`fast_construct` is a ``repeat`` and a ``tile``, and the bridge's
candidates are one mask.  New keys are sorted, probed against the array
in that sorted order, and merged into it by a stable sort of the two
runs, which timsort merges in one pass; each degree pass is one search
for the row starts plus one ``bincount``.  The blue top-up, whose choices
each depend on the one before, is one pass in closed form: a choice
depends on the last only where its node has room for one edge, and there
the choices alternate.  The pairing of the odd-parity leftovers (about
``n/4`` open ends) is one pass in closed form too: the open ids pair two
by two, ascending, but for a block of four where a pair is already an
edge and a fixed swap at the last pair, as an exact depth-first search
would pair them.  No stage has a fallback path, because none is reachable
on a feasible input (the proofs are in CHANGES.md).  Every stage
validates its degree accounting and the final product is re-checked for
simplicity, regularity, and the majority-majority flag; any violation
raises :class:`InternalInvariantError` rather than returning a wrong
witness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import lcm
from typing import Sequence

import numpy as np

from .analysis import IllusionKind, classify_network
from .coloring import WINNER_CODES, ColoredGraph, Winner
from .errors import InfeasibleError, InternalInvariantError, PreconditionError, shown
from .feasibility import regular_exists
from .graphs import _csr_graph, _key_dtype, _key_rows, check_size
from .graphs import make_graph  # noqa: F401  (perfbench looks it up here)


def _no_edges(n: int) -> np.ndarray:
    """No keys, at the key width of a graph on ``n`` nodes."""
    return np.empty(0, dtype=_key_dtype(n))


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
    """The sorted union of ``keys`` and the non-empty sorted keys ``fresh``,
    which none of ``keys`` repeats.  A stable sort of 32- or 64-bit keys is
    timsort, which finds the two sorted runs and merges them in one pass."""
    if not len(keys):
        return fresh
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
    """The plan for a pair that :func:`regular_exists` accepts; any other
    pair raises :class:`PreconditionError`.  On such a pair every residual
    degree is at least 0 (the proof is in CHANGES.md)."""
    verdict = regular_exists(n, k)
    if not verdict.possible:
        raise PreconditionError(
            f"no construction plan for n={n}, k={k} (failed: {', '.join(verdict.failed)})"
        )
    return _plan(n, k)


def _plan(n: int, k: int) -> ConstructionPlan:
    """:func:`construction_plan`'s split, for a pair already accepted."""
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
    return ConstructionPlan(n=n, k=k, n_red=n_red, n_blue=n_blue, k_red=k_red, k_blue=k_blue)


@dataclass
class ConstructionReport:
    """How a construction was built: one row per stage that added edges,
    in build order, each with its ``edges_added``; the rows sum to the
    ``n * k / 2`` edges of the witness.  A stage that adds no edge is no
    row, whichever builder runs it."""

    n: int
    k: int
    fast: bool
    stages: list[dict] = field(default_factory=list)
    validated: bool = False

    def add(self, keys: np.ndarray, stage: str, fresh: np.ndarray, **extra) -> np.ndarray:
        """Record ``stage`` as adding the sorted keys ``fresh``; merge them into
        ``keys``.  A stage with no fresh keys records no row and returns
        ``keys`` unchanged.  Fresh keys wider or narrower than the graph's
        key width raise, so no stage widens the edge set unseen."""
        if not len(fresh):
            return keys
        if fresh.dtype != _key_dtype(self.n):
            raise InternalInvariantError(
                f"stage {stage} returned {fresh.dtype} keys on {self.n} nodes"
            )
        self.stages.append({"stage": stage, "edges_added": len(fresh), **extra})
        return _merge(keys, fresh)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _add_initial_edges(n: int, blue: Sequence[int], red: Sequence[int], k: int) -> np.ndarray:
    """The sorted keys that give every red node its blue quota, round-robin,
    at the key width of a graph on ``n`` nodes.

    Pick ``i`` joins red node ``i % |R|`` to blue node ``(x + i) % |B|``,
    where the offset ``x`` is 0 until the first repeated pair and 1 from
    there on.  Distinct nodes repeat a pair first at ``i = lcm(|R|, |B|)``,
    so ``x = [i >= lcm(|R|, |B|)]``: the red picks are ``|R|`` laps of
    ``red``, the blue ones laps of ``blue`` up to that pick and laps of
    ``blue`` rotated by one from it on (the lcm is a whole number of
    laps).  A pick that repeats an earlier one after the shift cannot
    happen on a feasible input and raises, naming the red node of the
    first such pick.
    """
    dtype = _key_dtype(n)
    red = np.asarray(red, dtype=dtype)
    blue = np.asarray(blue, dtype=dtype)
    quota = _blue_quota(k)
    count = len(red) * quota
    unshifted = min(lcm(len(red), len(blue)), count)
    blue_picks = np.concatenate(
        (np.resize(blue, unshifted), np.resize(np.roll(blue, -1), count - unshifted))
    )
    picks = _edge_keys(np.tile(red, quota), blue_picks, n)
    ordered = np.sort(picks)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(picks, kind="stable")
        repeats = order[1:][picks[order[1:]] == picks[order[:-1]]]
        raise InternalInvariantError(
            f"red node {int(red[repeats.min() % len(red)])} collides again after the shift"
        )
    return ordered


def _add_extra_blue_edges(
    n: int, order: Sequence[int], deg: np.ndarray, k: int, k_blue: int
) -> np.ndarray:
    """The sorted keys pairing up blue nodes with more than ``k_blue`` open
    ends, at the key width of a graph on ``n`` nodes.

    The blue nodes are visited in ``order``, by ascending degree ``deg``
    (most missing edges first) and then id; each is joined to its cyclic
    successor when both sit below ``k - k_blue``.  In the odd-leftover case
    one blue node stays one edge short for the caller to absorb.  The
    builder's edges are then the round robin's, none joining two blues,
    and ``order`` holds at least three nodes (proofs in CHANGES.md), so the
    pairs are distinct and none is an edge yet.

    The walk is one array pass.  With room ``r = k - k_blue - deg``, pair
    ``i`` joins ``(o[i], o[i+1])``; ``o[i+1]`` is in no earlier pair, and
    ``o[i]`` only in pair ``i - 1``.  So pair ``i`` is taken iff it is open
    (both rooms at least 1) and ``o[i]`` still has room: ``r(o[i]) >= 2``
    or pair ``i - 1`` not taken, with nothing before pair 0.  Only an open
    pair with ``r(o[i]) = 1`` depends on the one before it, taking the
    opposite choice, so from the last pair that does not (closed, open with
    room 2, or pair 0) the choices alternate.  The last pair wraps to
    ``o[0]``, which pair 0 may have filled.
    """
    order = np.asarray(order, dtype=_key_dtype(n))
    pairs = _edge_keys(order, np.roll(order, -1), n)
    room = (k - k_blue) - deg[order]
    open_pair = (room >= 1) & (np.roll(room, -1) >= 1)
    settled = ~open_pair | (room >= 2)
    settled[0] = True  # nothing comes before pair 0
    at = np.arange(len(order))
    last = np.maximum.accumulate(np.where(settled, at, 0))
    taken = open_pair[last] ^ ((at - last) % 2 == 1)
    taken[-1] &= room[0] - taken[0] >= 1
    return np.sort(pairs[taken])


def _add_regular_subgraph(
    keys: np.ndarray, n: int, nodes: Sequence[int], k_sub: int
) -> np.ndarray:
    """The sorted keys of a circulant ``k_sub``-regular graph on ``nodes`` (in
    list order), at the key width of a graph on ``n`` nodes.

    Each node connects around the position opposite its own: the antipodal
    node first when the count is even and ``k_sub`` odd, then offsets
    fanning out from the antipode.  When both the count and ``k_sub`` are
    odd every node is left one edge short (the caller pairs the remainder).
    A collision with an edge already in ``keys`` raises
    :class:`InternalInvariantError`, naming the smallest colliding edge.
    """
    nodes = np.asarray(nodes, dtype=_key_dtype(n))
    m = len(nodes)
    if k_sub < 0 or k_sub >= m:
        raise PreconditionError(f"subgraph degree {k_sub} invalid for {m} nodes")
    fresh = _circulant_half(n, nodes, k_sub)
    fresh.sort()
    hit = _contains(keys, fresh)
    if hit.any():
        u, v = divmod(int(fresh[hit.argmax()]), n)
        raise InternalInvariantError(f"circulant edge {(u, v)} collides with an existing edge")
    return fresh


def _circulant_steps(m: int, k_sub: int) -> np.ndarray:
    """Position ``p``'s partners are ``(p + s) % m`` for these steps ``s``.
    As doubled offsets from the doubled opposite position ``2p + m``: the
    antipode (0), then -2i+1 and +2i for each i, halved after the sum."""
    i = np.arange(1, k_sub // 2 + 1, dtype=np.int64)
    offsets = np.stack((1 - 2 * i, 2 * i), axis=1).ravel()
    if m % 2 == 0 and k_sub % 2 == 1:
        offsets = np.concatenate(([0], offsets))
    return (m + offsets) // 2 % m


def _circulant_half(n: int, nodes: np.ndarray, k_sub: int) -> np.ndarray:
    """The circulant's keys, unsorted: each edge once, from the lower of its
    two positions.  The steps are distinct, in ``1..m-1`` and closed under
    ``s -> m - s``, so every edge is one pair ``(p, p + s)`` with
    ``p + s < m``: a run of ``m - s`` pairs per step."""
    m = len(nodes)
    steps = _circulant_steps(m, k_sub).tolist()
    runs = (_edge_keys(nodes[: m - s], nodes[s:], n) for s in steps)
    return np.concatenate([_no_edges(n), *runs])


def _realize_deficits(
    keys: np.ndarray, n: int, members: Sequence[int], k: int, deg: np.ndarray, label: str
) -> np.ndarray:
    """Connect same-color nodes until every member reaches degree ``k``;
    return the pairing's keys, sorted, and raise ``deg`` to ``k`` in place.

    One pass in closed form over the open members ``m`` (``deg < k``),
    ascending.  It makes the choices of an exact depth-first search (the
    most deficient open member, lowest id on ties, takes the first open
    member not adjacent to it, in that order; with no partner left, the
    last choice is undone and its scan resumes) on the states the builder
    leaves:

    - every open member lacks one edge, but for at most one head lacking
      two, the highest id; the head takes ``m[0]`` and then lacks one;
    - the rest pair two by two, ascending; where a pair is an edge, its
      second end swaps with the next pair's first (a block of four), so
      blocks start by the parity of the run of edges before them;
    - where the last pair starts a block and is an edge, its first end
      swaps with the second end of the pair before (the search's undo).

    On the builder's states every formed pair is free, by lemmas on ``m``
    (proved in CHANGES.md): a non-empty ``m`` holds at least four ids, a
    head is not adjacent to ``m[0]``, no two reds one apart are adjacent,
    no two blues two apart are, and two blues three apart are only where
    at most one pair one apart is.  Any other state raises, with the
    search's texts, and leaves ``deg`` as it was: an odd sum, a deficit
    above 2 or a head below the top id, a head left alone, or a formed
    pair that is already an edge.
    """
    members = np.asarray(members, dtype=_key_dtype(n))
    ids = np.sort(members[deg[members] < k])
    lack = k - deg[ids]
    if int(lack.sum()) % 2 == 1:
        raise InternalInvariantError(
            f"{label} open ends sum to an odd number: {_deficits(members, k, deg)}"
        )
    if not len(ids):
        return _no_edges(n)

    def unpaired() -> InternalInvariantError:
        return InternalInvariantError(
            f"{label} open ends {_deficits(members, k, deg)} cannot be paired without duplicates"
        )

    if (lack[:-1] != 1).any() or lack[-1] > 2 or len(ids) == 1:
        raise unpaired()
    head = bool(lack[-1] == 2)
    rest = ids[1:] if head else ids
    adjacent = _contains(keys, rest[0::2] * n + rest[1::2])
    slot = np.arange(len(adjacent))
    last_free = np.maximum.accumulate(np.where(adjacent, -1, slot))
    starts = (slot - np.append(-1, last_free[:-1])) % 2 == 1
    # the ends to swap; the last pair's swap moves to the pair before, and
    # with none before it wraps to the pair itself, which the probe refuses
    at = 2 * np.flatnonzero(starts & adjacent) + 1
    if len(at) and at[-1] == len(rest) - 1:
        at[-1] -= 2
    ends = rest.copy()
    ends[at], ends[at + 1] = rest[at + 1], rest[at]
    u, v = ends[0::2], ends[1::2]
    if head:
        u, v = np.append(u, ids[-1]), np.append(v, ids[0])
    fresh = np.sort(_edge_keys(u, v, n))
    if _contains(keys, fresh).any():
        raise unpaired()
    deg[ids] = k
    return fresh


def _deficits(members: np.ndarray, k: int, deg: np.ndarray) -> dict[int, int]:
    """Each open member's deficit ``k - deg``, in member order."""
    return {u: k - d for u, d in zip(members.tolist(), deg[members].tolist()) if d < k}


def _require_feasible(n: int, k: int) -> ConstructionPlan:
    """The plan for ``(n, k)``, from the one verdict that admits the pair."""
    check_size(n, 0)
    verdict = regular_exists(n, k)
    if not verdict.possible:
        raise InfeasibleError(
            f"no {k}-regular graph on {n} nodes admits a majority-majority "
            f"illusion (failed: {', '.join(verdict.failed)})",
            verdict,
        )
    check_size(n, n * k // 2)
    return _plan(n, k)


def _add_circulants(report: ConstructionReport, keys: np.ndarray, n: int, rows) -> np.ndarray:
    """Add the circulant of each taken row ``(stage, nodes, degree, taken)``."""
    for stage, nodes, degree, taken in rows:
        if taken:
            fresh = _add_regular_subgraph(keys, n, nodes, degree)
            keys = report.add(keys, stage, fresh, degree=degree)
    return keys


def _check_top_up(blue_deg: np.ndarray, limit: int) -> None:
    """After the top-up every blue node has degree ``limit``, but at most one
    that stays below it."""
    if np.count_nonzero(blue_deg < limit) > 1 or (blue_deg > limit).any():
        raise InternalInvariantError(
            f"blue top-up left degrees {np.sort(blue_deg).tolist()}"
        )


def _bridge(
    keys: np.ndarray, n: int, red: np.ndarray, blue: np.ndarray, k: int, deg: np.ndarray
) -> np.ndarray:
    """The key joining the neediest blue node (lowest id on ties) to the
    first red node that is open and not yet its neighbor; ``deg`` is updated
    in place.  Both end at degree ``k`` (the parity proof is in CHANGES.md)."""
    bridged_blue = int(blue[np.argmin(deg[blue])])
    open_red = red[deg[red] < k]
    candidates = open_red[~_contains(keys, _edge_keys(open_red, bridged_blue, n))]
    if not len(candidates):
        raise InternalInvariantError(f"no red node left to bridge blue node {bridged_blue}")
    bridged_red = int(candidates[0])
    deg[[bridged_red, bridged_blue]] += 1
    return _edge_keys(np.array([bridged_red], dtype=_key_dtype(n)), bridged_blue, n)


def _validate_colored_regular(cg: ColoredGraph, n: int, k: int, n_red: int) -> None:
    g = cg.graph
    if g.n != n:
        raise InternalInvariantError(f"expected {n} nodes, built {g.n}")
    bad = np.flatnonzero(np.diff(g.indptr) != k).tolist()
    if bad:
        raise InternalInvariantError(f"nodes {bad} missed the target degree {k}")
    if cg.color_counts[0] != n_red:
        raise InternalInvariantError(f"expected {n_red} red nodes, got {cg.color_counts[0]}")
    outvoted = np.flatnonzero(cg.red & (cg.local_winner_codes != WINNER_CODES.index(Winner.BLUE)))
    if len(outvoted):
        i = int(outvoted[0])
        blue_nb = k - int(cg.red_neighbor_array[i])
        raise InternalInvariantError(f"red node {i} has only {blue_nb} blue neighbors of {k}")
    if not classify_network(cg).flag(IllusionKind.MAJORITY_MAJORITY):
        raise InternalInvariantError("construction is not majority-majority")


def _finish(
    plan: ConstructionPlan, keys: np.ndarray, report: ConstructionReport
) -> tuple[ColoredGraph, ConstructionReport]:
    """Color the first ``n_red`` nodes red, build the graph from the keys
    and validate it.  A key that is no pair ``0 <= u < v`` (a self-loop
    among them) raises here; a duplicate key leaves its ends a degree
    short, which validation names."""
    red = np.arange(plan.n) < plan.n_red
    u, v = np.divmod(keys, plan.n)
    bad = np.flatnonzero((u < 0) | (u >= v))
    if len(bad):
        i = int(bad[0])
        raise InternalInvariantError(f"edge key {int(keys[i])} is not a pair u < v: ({u[i]}, {v[i]})")
    cg = ColoredGraph(_csr_graph(plan.n, u, v), red)
    _validate_colored_regular(cg, plan.n, plan.k, plan.n_red)
    report.validated = True
    return cg, report


def construct_regular_illusion(n: int, k: int) -> ColoredGraph:
    cg, _ = construct_regular_illusion_report(n, k)
    return cg


def construct_regular_illusion_report(n: int, k: int) -> tuple[ColoredGraph, ConstructionReport]:
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
    red = np.arange(plan.n_red, dtype=_key_dtype(n))
    blue = np.arange(plan.n_red, n, dtype=_key_dtype(n))

    initial = _add_initial_edges(n, blue, red, k)
    keys = report.add(_no_edges(n), "initial-bipartite", initial, per_red=plan.blue_target)
    deg = _degree_counts(keys, n)
    bad = red[deg[red] != plan.blue_target].tolist()
    if bad:
        raise InternalInvariantError(f"red nodes {bad} missed the bipartite quota")
    if (deg[blue] > k).any():
        raise InternalInvariantError("a blue node exceeded its total degree")

    # Top-up edges join blues consecutive in this order, so a circulant over
    # the same order only uses larger cyclic distances and cannot collide.
    blue_order = blue[np.lexsort((blue, deg[blue]))]
    top_up = _add_extra_blue_edges(n, blue_order, deg, k, plan.k_blue)
    keys = report.add(keys, "blue-top-up", top_up)
    _check_top_up(_degree_counts(keys, n)[blue], k - plan.k_blue)

    red_deferred = plan.k_red % 2 == 1 and plan.n_red % 2 == 1
    blue_deferred = plan.k_blue % 2 == 1 and plan.n_blue % 2 == 1
    keys = _add_circulants(report, keys, n, (
        ("red-circulant", red, plan.k_red, not red_deferred),
        ("blue-circulant", blue_order, plan.k_blue, not blue_deferred),
        ("red-circulant-short", red, plan.k_red - 1, red_deferred),
        ("blue-circulant-short", blue_order, plan.k_blue - 1, blue_deferred),
    ))

    if red_deferred or blue_deferred:
        deg = _degree_counts(keys, n)
        if red_deferred:
            # one red end must cross over; pick the neediest blue node
            keys = report.add(keys, "bridge", _bridge(keys, n, red, blue, k, deg))
        for label, members in (("blue", blue), ("red", red)):
            fresh = _realize_deficits(keys, n, members, k, deg, label)
            keys = report.add(keys, f"{label}-pairing", fresh)

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
        raise PreconditionError(f"fast construction needs even k, got {shown(k)}")
    if n > 2 * k - 2:
        raise PreconditionError(
            f"fast construction needs n <= 2k - 2, got n={n}, k={k}"
        )
    plan = _require_feasible(n, k)
    report = ConstructionReport(n=n, k=k, fast=True)
    red = np.arange(plan.n_red, dtype=_key_dtype(n))
    blue = np.arange(plan.n_red, n, dtype=_key_dtype(n))
    core = np.repeat(red, plan.n_blue) * n + np.tile(blue, plan.n_red)
    keys = report.add(_no_edges(n), "complete-bipartite", core)
    keys = _add_circulants(report, keys, n, (
        ("red-circulant", red, k - plan.n_blue, True),
        ("blue-circulant", blue, k - plan.n_red, True),
    ))
    return _finish(plan, keys, report)
