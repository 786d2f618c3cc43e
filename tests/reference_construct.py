"""The set-based construction that the array one replaced, kept verbatim as
the reference it must match: the same graph, colors, stage report and
:class:`InternalInvariantError` messages.  Edges are ``(u, v)`` tuples
with ``u < v`` in a Python set; the plan, the feasibility check and the
final validation are the library's own."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from majority_illusion import Color, ColoredGraph, make_graph
from majority_illusion.construct import (
    ConstructionPlan,
    ConstructionReport,
    _blue_quota,
    _require_feasible,
    _validate_colored_regular,
)
from majority_illusion.errors import InternalInvariantError, PreconditionError

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _degrees(edges: set[Edge], count: int) -> list[int]:
    deg = [0] * count
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def add_initial_edges(
    edges: set[Edge], blue: list[int], red: list[int], k: int
) -> set[Edge]:
    """Give every red node its quota of blue neighbors, round-robin.

    Red node ``i % |R|`` meets blue node ``(x + i) % |B|``; on a collision
    the offset ``x`` becomes 1 (once, permanently).  A collision of the
    shifted pick cannot happen on a feasible input and raises.
    """
    x = 0
    for i in range(len(red) * _blue_quota(k)):
        node_red = red[i % len(red)]
        e = _norm(node_red, blue[(x + i) % len(blue)])
        if e in edges:
            x = 1
            e = _norm(node_red, blue[(x + i) % len(blue)])
        if e in edges:
            raise InternalInvariantError(
                f"red node {node_red} collides again after the shift"
            )
        edges.add(e)
    return edges


def add_extra_blue_edges(
    edges: set[Edge], blue: list[int], k: int, k_blue: int
) -> set[Edge]:
    """Pair up blue nodes that still have more than ``k_blue`` open ends.

    Blue nodes are visited in ascending degree (most missing edges first);
    each is joined to its cyclic successor when both sit below
    ``k - k_blue`` and are not yet adjacent.  In the odd-leftover case one
    blue node stays one edge short for the caller to absorb.
    """
    count = (max(blue) + 1) if blue else 0
    deg = _degrees(edges, count)
    order = sorted(blue, key=lambda b: (deg[b], b))
    limit = k - k_blue
    for idx, node in enumerate(order):
        nxt = order[(idx + 1) % len(order)]
        if nxt == node:
            continue
        e = _norm(node, nxt)
        if e not in edges and deg[node] < limit and deg[nxt] < limit:
            edges.add(e)
            deg[node] += 1
            deg[nxt] += 1
    return edges


def add_regular_subgraph(edges: set[Edge], nodes: list[int], k_sub: int) -> set[Edge]:
    """Add a circulant ``k_sub``-regular graph on ``nodes`` (in list order).

    Each node connects around the position opposite its own: the antipodal
    node first when the count is even and ``k_sub`` odd, then offsets
    fanning out from the antipode.  When both the count and ``k_sub`` are
    odd every node is left one edge short (the caller pairs the remainder).
    A collision with a pre-existing edge raises
    :class:`InternalInvariantError`.
    """
    m = len(nodes)
    if k_sub == 0:
        return edges
    if k_sub < 0 or k_sub >= m:
        raise PreconditionError(f"subgraph degree {k_sub} invalid for {m} nodes")
    fresh: set[Edge] = set()

    def connect(a: int, b: int) -> None:
        e = _norm(a, b)
        if e in fresh:
            return
        if e in edges:
            raise InternalInvariantError(
                f"circulant edge {e} collides with an existing edge"
            )
        fresh.add(e)
        edges.add(e)

    for pos, node in enumerate(nodes):
        start2 = 2 * pos + m  # doubled index of the opposite position
        if m % 2 == 0 and k_sub % 2 == 1:
            connect(node, nodes[(start2 // 2) % m])
        for i in range(1, k_sub // 2 + 1):
            minus = ((start2 - 2 * i + 1) // 2) % m
            plus = ((start2 + 2 * i) // 2) % m
            connect(node, nodes[minus])
            connect(node, nodes[plus])
    return edges


def _realize_deficits(
    edges: set[Edge], members: list[int], k: int, deg: list[int], label: str
) -> int:
    """Connect same-color nodes until every member reaches degree ``k``.

    Exact depth-first search over simple, non-duplicate pairings, run as a
    loop with an explicit undo stack.  The open members are kept sorted by
    ``(deg - k, id)``, so the most-deficient node (lowest id on ties) is
    ``keys[0]``; it takes the first later key it is not adjacent to.  When
    no partner is left, the last choice is undone and its scan resumes just
    past the partner it had taken.  Raises when the open ends cannot be
    realized at all; returns the number of edges added.
    """
    deficit = {u: k - deg[u] for u in members if deg[u] < k}
    if sum(deficit.values()) % 2 == 1:
        raise InternalInvariantError(
            f"{label} open ends sum to an odd number: {deficit}"
        )
    keys = sorted((-d, u) for u, d in deficit.items())
    chosen: list[Edge] = []  # (extended node, partner), in choice order
    start = 1
    while keys:
        u = keys[0][1]
        for i in range(start, len(keys)):
            v = keys[i][1]
            if _norm(u, v) not in edges:
                break
        else:
            if not chosen:
                raise InternalInvariantError(
                    f"{label} open ends {deficit} cannot be paired without duplicates"
                )
            u, v = chosen.pop()
            edges.discard(_norm(u, v))
            for w in (u, v):
                if deg[w] < k:
                    del keys[bisect_left(keys, (deg[w] - k, w))]
                deg[w] -= 1
                insort(keys, (deg[w] - k, w))
            start = bisect_right(keys, (deg[v] - k, v))
            continue
        del keys[i], keys[0]
        edges.add(_norm(u, v))
        chosen.append((u, v))
        for w in (u, v):
            deg[w] += 1
            if deg[w] < k:
                insort(keys, (deg[w] - k, w))
        start = 1
    return len(chosen)


def _record(report: ConstructionReport, stage: str, before: int, after: int, **extra) -> None:
    """Append the stage's entry to ``report``, by the edge set's growth; a
    stage that adds no edge is no entry."""
    if after > before:
        report.stages.append({"stage": stage, "edges_added": after - before, **extra})


def _add_circulant(
    edges: set[Edge], nodes: list[int], degree: int, report: ConstructionReport, stage: str
) -> None:
    before = len(edges)
    add_regular_subgraph(edges, nodes, degree)
    _record(report, stage, before, len(edges), degree=degree)


def _finish(
    plan: ConstructionPlan, edges: set[Edge], report: ConstructionReport
) -> tuple[ColoredGraph, ConstructionReport]:
    """Color the first ``n_red`` nodes red, build the graph and validate it."""
    colors = tuple(Color.RED if i < plan.n_red else Color.BLUE for i in range(plan.n))
    cg = ColoredGraph(make_graph(plan.n, edges), colors)
    _validate_colored_regular(cg, plan.n, plan.k, plan.n_red)
    report.validated = True
    return cg, report


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
    red, blue = plan.red_nodes, plan.blue_nodes
    edges: set[Edge] = set()

    add_initial_edges(edges, blue, red, k)
    _record(report, "initial-bipartite", 0, len(edges), per_red=plan.blue_target)
    deg = _degrees(edges, n)
    bad = [i for i in red if deg[i] != plan.blue_target]
    if bad:
        raise InternalInvariantError(f"red nodes {bad} missed the bipartite quota")
    if any(deg[b] > k for b in blue):
        raise InternalInvariantError("a blue node exceeded its total degree")

    # Top-up edges join blues consecutive in this order, so a circulant over
    # the same order only uses larger cyclic distances and cannot collide.
    blue_order = sorted(blue, key=lambda b: (deg[b], b))
    before = len(edges)
    add_extra_blue_edges(edges, blue, k, plan.k_blue)
    _record(report, "blue-top-up", before, len(edges))
    deg = _degrees(edges, n)
    short = [b for b in blue if deg[b] < k - plan.k_blue]
    if len(short) > 1 or any(deg[b] > k - plan.k_blue for b in blue):
        raise InternalInvariantError(
            f"blue top-up left degrees {sorted(deg[b] for b in blue)}"
        )

    red_deferred = plan.k_red % 2 == 1 and plan.n_red % 2 == 1
    blue_deferred = plan.k_blue % 2 == 1 and plan.n_blue % 2 == 1
    if not red_deferred:
        _add_circulant(edges, red, plan.k_red, report, "red-circulant")
    if not blue_deferred and plan.k_blue:
        _add_circulant(edges, blue_order, plan.k_blue, report, "blue-circulant")

    if red_deferred or blue_deferred:
        if red_deferred and plan.k_red > 1:
            _add_circulant(edges, red, plan.k_red - 1, report, "red-circulant-short")
        if blue_deferred and plan.k_blue > 1:
            _add_circulant(edges, blue_order, plan.k_blue - 1, report, "blue-circulant-short")
        deg = _degrees(edges, n)
        bridged_blue = -1
        bridged_red = -1
        if red_deferred:
            # one red end must cross over; pick the neediest blue node
            bridged_blue = min(blue, key=lambda b: (deg[b], b))
            candidates = [
                r for r in red if deg[r] < k and _norm(r, bridged_blue) not in edges
            ]
            if not candidates:
                raise InternalInvariantError(
                    f"no red node left to bridge blue node {bridged_blue}"
                )
            bridged_red = candidates[0]
            edges.add(_norm(bridged_red, bridged_blue))
            deg[bridged_red] += 1
            deg[bridged_blue] += 1
            _record(report, "bridge", len(edges) - 1, len(edges))
        before = len(edges)
        added = _realize_deficits(
            edges, [b for b in blue if b != bridged_blue], k, deg, "blue"
        )
        if added:
            _record(report, "blue-pairing", before, len(edges))
        before = len(edges)
        added = _realize_deficits(
            edges, [r for r in red if r != bridged_red], k, deg, "red"
        )
        if added:
            _record(report, "red-pairing", before, len(edges))

    return _finish(plan, edges, report)


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
    red, blue = plan.red_nodes, plan.blue_nodes
    edges: set[Edge] = {_norm(r, b) for r in red for b in blue}
    _record(report, "complete-bipartite", 0, len(edges))
    _add_circulant(edges, red, k - plan.n_blue, report, "red-circulant")
    _add_circulant(edges, blue, k - plan.n_red, report, "blue-circulant")
    return _finish(plan, edges, report)
