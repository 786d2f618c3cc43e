"""Per-agent and network-level illusion classification.

An agent's *opposition* compares its own color with its neighborhood's
majority winner; its *illusion* compares the neighborhood winner with the
global winner.  Generalized thresholds are exact rationals
(:class:`fractions.Fraction`) and every comparison is cross-multiplied
integer arithmetic, so divisibility-sensitive boundaries are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .coloring import Color, ColoredGraph, Winner
from .errors import InternalInvariantError, PreconditionError

Threshold = Fraction


class Level(enum.Enum):
    NONE = "none"
    WEAK = "weak"
    STRICT = "strict"

    def __str__(self) -> str:
        return self.value


class Chromaticity(enum.Enum):
    MONOCHROMATIC = "monochromatic"
    POLYCHROMATIC = "polychromatic"

    def __str__(self) -> str:
        return self.value


class IllusionKind(enum.Enum):
    """Network-level classification flags."""

    MAJORITY_MAJORITY = "majority-majority"
    WEAK_MAJORITY_MAJORITY = "weak-majority-majority"
    MAJORITY_WEAK_MAJORITY = "majority-weak-majority"
    WEAK_MAJORITY_WEAK_MAJORITY = "weak-majority-weak-majority"
    UNANIMITY_MAJORITY = "unanimity-majority"
    UNANIMITY_WEAK_MAJORITY = "unanimity-weak-majority"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AgentStatus:
    """One agent's row in the local/global winner taxonomy.

    ``illusion_color`` is the locally over-represented color witnessing a
    (weak) illusion: the local winner when the neighborhood does not tie,
    otherwise the color opposite the global winner.
    """

    node: int
    own_color: Color
    local_winner: Winner
    global_winner: Winner
    opposition: Level
    illusion: Level
    illusion_color: Color | None
    isolated: bool


def agent_status(cg: ColoredGraph, i: int) -> AgentStatus:
    """Classify one agent; raises on out-of-range ids."""
    cg.graph.check_node(i)
    local = cg.local_winner(i)
    glob = cg.global_winner
    own = cg.colors[i]

    if local is Winner.TIE:
        opposition = Level.WEAK
    elif local.color is own:
        opposition = Level.NONE
    else:
        opposition = Level.STRICT

    if local is glob:
        illusion = Level.NONE
        witness = None
    elif local is not Winner.TIE and glob is not Winner.TIE:
        illusion = Level.STRICT
        witness = local.color
    else:
        illusion = Level.WEAK
        witness = local.color if local is not Winner.TIE else glob.color.other

    return AgentStatus(
        node=i,
        own_color=own,
        local_winner=local,
        global_winner=glob,
        opposition=opposition,
        illusion=illusion,
        illusion_color=witness,
        isolated=cg.graph.degree(i) == 0,
    )


def agent_statuses(cg: ColoredGraph) -> list[AgentStatus]:
    return [agent_status(cg, i) for i in range(cg.graph.n)]


@dataclass(frozen=True)
class NetworkIllusionReport:
    n: int
    strict_count: int
    weak_only_count: int
    none_count: int
    majority_majority: bool
    weak_majority_majority: bool
    majority_weak_majority: bool
    weak_majority_weak_majority: bool
    unanimity_majority: bool
    unanimity_weak_majority: bool
    chromaticity: Chromaticity
    isolated_nodes: tuple[int, ...]

    @property
    def weak_count(self) -> int:
        """Agents under weak-or-strict illusion."""
        return self.strict_count + self.weak_only_count

    def flag(self, kind: IllusionKind) -> bool:
        return {
            IllusionKind.MAJORITY_MAJORITY: self.majority_majority,
            IllusionKind.WEAK_MAJORITY_MAJORITY: self.weak_majority_majority,
            IllusionKind.MAJORITY_WEAK_MAJORITY: self.majority_weak_majority,
            IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY: self.weak_majority_weak_majority,
            IllusionKind.UNANIMITY_MAJORITY: self.unanimity_majority,
            IllusionKind.UNANIMITY_WEAK_MAJORITY: self.unanimity_weak_majority,
        }[kind]

    @classmethod
    def from_statuses(
        cls, cg: ColoredGraph, statuses: list[AgentStatus]
    ) -> "NetworkIllusionReport":
        """Network-level classification from ``agent_statuses(cg)``.

        Thresholds are exact: strict flags need ``2 * count > n``, weak flags
        ``2 * count >= n``, unanimity flags ``count == n`` (on nonempty graphs).
        """
        n = cg.graph.n
        strict = sum(1 for s in statuses if s.illusion is Level.STRICT)
        weak_only = sum(1 for s in statuses if s.illusion is Level.WEAK)
        under = strict + weak_only
        witnesses = {s.illusion_color for s in statuses if s.illusion is not Level.NONE}
        return cls(
            n=n,
            strict_count=strict,
            weak_only_count=weak_only,
            none_count=n - under,
            majority_majority=2 * strict > n,
            weak_majority_majority=2 * strict >= n and n > 0,
            majority_weak_majority=2 * under > n,
            weak_majority_weak_majority=2 * under >= n and n > 0,
            unanimity_majority=strict == n and n > 0,
            unanimity_weak_majority=under == n and n > 0,
            chromaticity=(
                Chromaticity.MONOCHROMATIC
                if len(witnesses) <= 1
                else Chromaticity.POLYCHROMATIC
            ),
            isolated_nodes=cg.graph.isolated_nodes(),
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "counts": {
                "strict": self.strict_count,
                "weak_only": self.weak_only_count,
                "none": self.none_count,
            },
            "flags": {kind.value: self.flag(kind) for kind in IllusionKind},
            "chromaticity": self.chromaticity.value,
            "isolated_nodes": list(self.isolated_nodes),
        }


def classify_network(cg: ColoredGraph) -> NetworkIllusionReport:
    """Network-level classification from the per-agent statuses; see
    :meth:`NetworkIllusionReport.from_statuses`."""
    return NetworkIllusionReport.from_statuses(cg, agent_statuses(cg))


def _check_threshold(q: Threshold) -> None:
    if not 0 <= q <= 1:
        raise PreconditionError(f"threshold must lie in [0, 1], got {q}")


def q_illusion(cg: ColoredGraph, i: int, q: Threshold) -> Color | None:
    """Witness color whose local share strictly exceeds ``q`` while its
    global share stays strictly below ``q``; ``None`` when neither color
    qualifies.  At ``q = 1/2`` this coincides with the strict illusion."""
    _check_threshold(q)
    cg.graph.check_node(i)
    d = cg.graph.degree(i)
    n = cg.graph.n
    local_red = cg.local_red_count(i)
    global_red, global_blue = cg.color_counts
    for color, local, total in (
        (Color.RED, local_red, global_red),
        (Color.BLUE, d - local_red, global_blue),
    ):
        if local * q.denominator > q.numerator * d and total * q.denominator < q.numerator * n:
            return color
    return None


def weak_q_illusion(cg: ColoredGraph, i: int, q: Threshold) -> Color | None:
    """Weak variant of :func:`q_illusion`: non-strict comparisons, except
    that a color matching both thresholds exactly does not qualify.  At
    ``q = 1/2`` this coincides with the weak illusion."""
    _check_threshold(q)
    cg.graph.check_node(i)
    d = cg.graph.degree(i)
    n = cg.graph.n
    local_red = cg.local_red_count(i)
    global_red, global_blue = cg.color_counts
    for color, local, total in (
        (Color.RED, local_red, global_red),
        (Color.BLUE, d - local_red, global_blue),
    ):
        local_ok = local * q.denominator >= q.numerator * d
        total_ok = total * q.denominator <= q.numerator * n
        both_exact = (
            local * q.denominator == q.numerator * d
            and total * q.denominator == q.numerator * n
        )
        if local_ok and total_ok and not both_exact:
            return color
    return None


@dataclass(frozen=True)
class PqReport:
    """Counts and flags for illusions at thresholds ``p`` (share of agents)
    and ``q`` (share of colors)."""

    n: int
    p: Threshold
    q: Threshold
    strict_count: int
    weak_count: int
    pq: bool
    weak_pq: bool
    p_weak_q: bool
    weak_p_weak_q: bool
    strict_chromaticity: Chromaticity
    weak_chromaticity: Chromaticity
    strict_monochromatic_forced: bool
    weak_monochromatic_forced: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": str(self.p),
            "q": str(self.q),
            "counts": {"strict": self.strict_count, "weak": self.weak_count},
            "flags": {
                "p-q": self.pq,
                "weak-p-q": self.weak_pq,
                "p-weak-q": self.p_weak_q,
                "weak-p-weak-q": self.weak_p_weak_q,
            },
            "chromaticity": {
                "strict": self.strict_chromaticity.value,
                "weak": self.weak_chromaticity.value,
            },
        }


def pq_report(cg: ColoredGraph, p: Threshold, q: Threshold) -> PqReport:
    """Count agents under (weak-) ``q``-illusion and test the four
    proportion flags at ``p``.

    A ``q`` at or below one half forces the strict witnesses to share one
    color (strictly below one half for weak witnesses); both facts are
    asserted and a violation raises :class:`InternalInvariantError`.
    """
    _check_threshold(p)
    _check_threshold(q)
    n = cg.graph.n
    strict_witnesses: set[Color] = set()
    weak_witnesses: set[Color] = set()
    strict_count = weak_count = 0
    for i in range(n):
        w = q_illusion(cg, i, q)
        if w is not None:
            strict_count += 1
            strict_witnesses.add(w)
        w = weak_q_illusion(cg, i, q)
        if w is not None:
            weak_count += 1
            weak_witnesses.add(w)
    half = Fraction(1, 2)
    strict_forced = q <= half
    weak_forced = q < half
    if strict_forced and len(strict_witnesses) > 1:
        raise InternalInvariantError(
            f"strict witnesses {strict_witnesses} must agree for q={q} <= 1/2"
        )
    if weak_forced and len(weak_witnesses) > 1:
        raise InternalInvariantError(
            f"weak witnesses {weak_witnesses} must agree for q={q} < 1/2"
        )
    return PqReport(
        n=n,
        p=p,
        q=q,
        strict_count=strict_count,
        weak_count=weak_count,
        pq=strict_count * p.denominator > p.numerator * n,
        weak_pq=strict_count * p.denominator >= p.numerator * n and n > 0,
        p_weak_q=weak_count * p.denominator > p.numerator * n,
        weak_p_weak_q=weak_count * p.denominator >= p.numerator * n and n > 0,
        strict_chromaticity=(
            Chromaticity.MONOCHROMATIC
            if len(strict_witnesses) <= 1
            else Chromaticity.POLYCHROMATIC
        ),
        weak_chromaticity=(
            Chromaticity.MONOCHROMATIC
            if len(weak_witnesses) <= 1
            else Chromaticity.POLYCHROMATIC
        ),
        strict_monochromatic_forced=strict_forced,
        weak_monochromatic_forced=weak_forced,
    )
