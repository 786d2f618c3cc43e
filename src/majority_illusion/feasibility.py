"""Closed-form possibility verdicts for structured graph classes.

Every bound is evaluated in integer arithmetic after clearing denominators;
verdicts carry machine-readable reason codes naming the violated condition.

Reason codes
------------
``no-regular-graph``          no k-regular graph exists (k*n odd or k >= n)
``degree-below-three``        k <= 1: a minority node can feed at most one
                              illusioned neighbor, never half the graph
``two-regular``               k == 2: each minority node covers at most two
                              of the >= n/2 nodes that would need it
``minority-pool``             an illusioned node needs more than k/2 minority
                              neighbors, but the minority is too small
                              (k <= n-4 / k <= n-3 by parity)
``minority-edge-capacity``    the minority's edge ends cannot serve enough
                              illusioned nodes (three parity-cased bounds)
``saturated-bipartite-parity`` k == n-4 with n % 4 == 0: the forced
                              complete majority/minority bipartite core
                              leaves odd-sum residual degrees on both sides
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .analysis import (
    IllusionKind,
    Threshold,
    _check_threshold,
    _in_q_window,
    _p_flags,
    classify_network,
)
from .coloring import ColoredGraph
from .errors import InternalInvariantError, PreconditionError, shown


class Strictness(enum.Enum):
    STRICT = "strict"
    WEAK = "weak"


@dataclass(frozen=True)
class RegularVerdict:
    n: int
    k: int
    possible: bool
    failed: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.possible

    def to_json_dict(self) -> dict:
        return {**asdict(self), "failed": list(self.failed)}


@dataclass(frozen=True)
class CycleVerdict:
    n: int
    majority_majority: bool
    weak_majority_majority: bool
    majority_weak_majority: bool
    reasons: tuple[str, ...]


def cycle_feasible(n: int) -> CycleVerdict:
    """Verdicts for 2-regular graphs: strict illusions never, the weak
    majority-weak-majority always."""
    if n < 3:
        raise PreconditionError(f"a cycle needs at least 3 nodes, got {shown(n)}")
    return CycleVerdict(
        n=n,
        majority_majority=False,
        weak_majority_majority=False,
        majority_weak_majority=True,
        reasons=("two-regular",),
    )


@dataclass(frozen=True)
class CompletePqVerdict:
    n: int
    p: Threshold
    q: Threshold
    pq: bool
    weak_pq: bool
    p_weak_q: bool
    weak_p_weak_q: bool


def complete_pq_feasible(n: int, p: Threshold, q: Threshold) -> CompletePqVerdict:
    """Exact possibility of the four (weak-)p-(weak-)q illusions on the
    complete graph with ``n`` nodes.

    On a complete graph an agent's view of the opposite color equals its
    global count ``y``, so the agent is under (weak) q-illusion exactly
    when ``y`` falls in the corresponding q-window.  With ``x`` nodes of
    one color, the agents under strict q-illusion number
    ``(n-x)*[x in window] + x*[(n-x) in window]`` (both terms can be live
    at once, in which case agents witness different colors); likewise for
    the weak window.  Each flag holds iff some ``x`` pushes the count over
    (or onto) the ``p`` threshold.
    """
    if n < 1:
        raise PreconditionError(f"complete graph needs at least 1 node, got {shown(n)}")
    _check_threshold(p)
    _check_threshold(q)

    def under(x: int, strict: bool) -> int:
        # each agent sees every one of the y agents of the other color
        # among its n - 1 neighbours: local = total = y
        return sum(
            agents
            for agents, y in ((n - x, x), (x, n - x))
            if _in_q_window(y, n - 1, y, n, q, strict)
        )

    best_strict = max(under(x, True) for x in range(n + 1))
    best_weak = max(under(x, False) for x in range(n + 1))
    return CompletePqVerdict(n=n, p=p, q=q, **_p_flags(best_strict, best_weak, n, p))


class CompleteWeakClass(enum.Enum):
    NONE = "none"
    MAJORITY_WEAK_MAJORITY = "majority-weak-majority"
    UNANIMITY_WEAK_MAJORITY = "unanimity-weak-majority"


def complete_majority_weak_classification(cg: ColoredGraph) -> CompleteWeakClass:
    """Classify a colored complete graph: the majority-weak-majority
    illusion holds iff the color counts differ by exactly one, escalating
    to unanimity-weak-majority when they are equal."""
    g = cg.graph
    if (np.diff(g.indptr) != g.n - 1).any():
        raise PreconditionError("underlying graph must be complete")
    red, blue = cg.color_counts
    if red == blue:
        verdict = CompleteWeakClass.UNANIMITY_WEAK_MAJORITY
    elif abs(red - blue) == 1:
        verdict = CompleteWeakClass.MAJORITY_WEAK_MAJORITY
    else:
        verdict = CompleteWeakClass.NONE
    report = classify_network(cg)
    expected = verdict is not CompleteWeakClass.NONE
    if report.flag(IllusionKind.MAJORITY_WEAK_MAJORITY) != expected:
        raise InternalInvariantError(
            "count-difference rule disagrees with the network classifier"
        )
    return verdict


def _check_regular_domain(n: int, k: int) -> None:
    if n < 1 or k < 0:
        raise PreconditionError(f"need n >= 1 and k >= 0, got n={shown(n)}, k={shown(k)}")
    if k >= n or (n * k) % 2 == 1:
        raise PreconditionError(
            f"no {shown(k)}-regular graph on {shown(n)} nodes exists (reason: no-regular-graph)"
        )


def regular_necessary(
    n: int, k: int, strictness: Strictness = Strictness.STRICT
) -> RegularVerdict:
    """Necessary conditions for a (weak-)majority-majority illusion on some
    k-regular graph with n nodes.

    The weak check applies only the minority-pool bound; the strict check
    adds the minority-edge-capacity bounds (three parity cases, evaluated
    with cleared denominators).
    """
    _check_regular_domain(n, k)
    failed: list[str] = []
    if n % 2 == 0 and k % 2 == 0:
        if not k <= n - 4:
            failed.append("minority-pool")
    else:
        if not k <= n - 3:
            failed.append("minority-pool")
    if strictness is Strictness.STRICT:
        if n % 2 == 0 and k % 2 == 0:
            if k > 2 and not n * (k - 2) >= 2 * (3 * k + 2):
                failed.append("minority-edge-capacity")
        elif n % 2 == 0 and k % 2 == 1:
            if k > 1 and not n * (k - 1) >= 2 * (3 * k + 1):
                failed.append("minority-edge-capacity")
        elif n % 2 == 1 and k % 2 == 0:
            if k > 2 and not n * (k - 2) >= 3 * k + 2:
                failed.append("minority-edge-capacity")
    return RegularVerdict(n=n, k=k, possible=not failed, failed=tuple(failed))


def regular_exists(n: int, k: int) -> RegularVerdict:
    """Does some k-regular graph on n nodes admit a majority-majority
    illusion?

    Combines the necessary bounds with the small-degree impossibilities
    (k <= 2) and one extra parity obstruction: for ``k == n - 4`` with
    ``n % 4 == 0`` the majority must take exactly ``n/2 + 1`` nodes, each
    adjacent to all ``n/2 - 1`` minority nodes, forcing a
    ``(n/2-3)``-regular remainder on ``n/2+1`` nodes and a
    ``(n/2-5)``-regular remainder on ``n/2-1`` nodes; both have an odd
    degree sum, so no such graph exists.  When the verdict is positive the
    construction module produces a witness.
    """
    _check_regular_domain(n, k)
    failed: list[str] = []
    if k <= 1:
        failed.append("degree-below-three")
    elif k == 2:
        failed.append("two-regular")
    failed.extend(regular_necessary(n, k, Strictness.STRICT).failed)
    if k == n - 4 and n % 4 == 0:
        failed.append("saturated-bipartite-parity")
    return RegularVerdict(n=n, k=k, possible=not failed, failed=tuple(failed))


def odd_degree_q_bound(k_max: int) -> Threshold:
    """Threshold ``(k+1)/(2k)`` at which a weak majority-q illusion exists on
    every graph whose degrees are all odd and at most ``k_max``."""
    if k_max < 1 or k_max % 2 == 0:
        raise PreconditionError(f"k_max must be odd and positive, got {k_max}")
    return Fraction(k_max + 1, 2 * k_max)
