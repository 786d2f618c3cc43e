"""Per-agent and network-level illusion classification.

An agent's *opposition* compares its own color with its neighborhood's
majority winner; its *illusion* compares the neighborhood winner with the
global winner.  Generalized thresholds are exact rationals
(:class:`fractions.Fraction`) and every comparison is cross-multiplied
integer arithmetic, so divisibility-sensitive boundaries are exact.

:func:`agent_status` is the definition, one agent at a time.  It reads
the opposition from the agent's local winner, the one majority rule of
:mod:`.coloring`, and the illusion level and witness from the q-window at
``q = 1/2`` (:func:`_in_q_window`, the one statement of the illusion rule,
also under :func:`q_illusion`, :func:`weak_q_illusion` and
:func:`pq_report`): a strict witness is a strict illusion, a weak-only
witness a weak one.  An agent's own
colour, local winner and isolation fix the rest of its status, so the
agents fall into at most eight classes: :func:`status_columns` keys every
agent's class in one array pass and calls ``agent_status`` once per class
present, at its first node; the network report, the CLI and
:func:`agent_statuses` read those classes.  An agent's q-illusion witness
depends on it only through its red count and degree, so :func:`pq_report`
decides it once per distinct pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .coloring import Color, ColoredGraph, TextEnum, Winner
from .errors import InternalInvariantError, PreconditionError

Threshold = Fraction
_HALF = Fraction(1, 2)


class Level(TextEnum):
    NONE = "none"
    WEAK = "weak"
    STRICT = "strict"


class Chromaticity(TextEnum):
    MONOCHROMATIC = "monochromatic"
    POLYCHROMATIC = "polychromatic"

    @classmethod
    def of(cls, witnesses: set[Color]) -> "Chromaticity":
        """Monochromatic when the witnesses hold at most one color."""
        return cls.MONOCHROMATIC if len(witnesses) <= 1 else cls.POLYCHROMATIC


class IllusionKind(TextEnum):
    """Network-level classification flags."""

    MAJORITY_MAJORITY = "majority-majority"
    WEAK_MAJORITY_MAJORITY = "weak-majority-majority"
    MAJORITY_WEAK_MAJORITY = "majority-weak-majority"
    WEAK_MAJORITY_WEAK_MAJORITY = "weak-majority-weak-majority"
    UNANIMITY_MAJORITY = "unanimity-majority"
    UNANIMITY_WEAK_MAJORITY = "unanimity-weak-majority"


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
    own = Color.RED if cg.red[i] else Color.BLUE

    if local is Winner.TIE:
        opposition = Level.WEAK
    elif local.color is own:
        opposition = Level.NONE
    else:
        opposition = Level.STRICT

    d = cg.graph.degree(i)
    red = cg.local_red_count(i)
    if (witness := _q_witness(cg, red, d, _HALF, strict=True)) is not None:
        illusion = Level.STRICT
    elif (witness := _q_witness(cg, red, d, _HALF, strict=False)) is not None:
        illusion = Level.WEAK
    else:
        illusion = Level.NONE

    return AgentStatus(
        node=i,
        own_color=own,
        local_winner=local,
        global_winner=glob,
        opposition=opposition,
        illusion=illusion,
        illusion_color=witness,
        isolated=d == 0,
    )


@dataclass(frozen=True, eq=False)
class StatusColumns:
    """Every agent's :class:`AgentStatus` as a class per node.

    Own colour, local winner and isolation fix the rest of a status, so the
    nodes fall into at most eight classes: ``codes[i]`` is node ``i``'s
    class, and ``statuses[c]`` is :func:`agent_status` at class ``c``'s
    first node.
    """

    codes: np.ndarray
    statuses: tuple[AgentStatus, ...]


def status_columns(cg: ColoredGraph) -> StatusColumns:
    """Every agent's class, from its own colour, local winner and isolation,
    and :func:`agent_status` once per class present."""
    isolated = np.diff(cg.graph.indptr) == 0
    key = cg.red + 2 * cg.local_winner_codes + 6 * isolated
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    return StatusColumns(codes, tuple(agent_status(cg, i) for i in first.tolist()))


def agent_statuses(cg: ColoredGraph) -> list[AgentStatus]:
    """``[agent_status(cg, i) for i in range(n)]``, from the classes."""
    columns = status_columns(cg)
    return [replace(columns.statuses[c], node=i) for i, c in enumerate(columns.codes.tolist())]


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
        """The field named after ``kind``."""
        return getattr(self, kind.name.lower())

    @classmethod
    def from_columns(cls, cg: ColoredGraph, columns: StatusColumns) -> "NetworkIllusionReport":
        """Network-level classification from ``status_columns(cg)``.

        Thresholds are exact: the four majority flags are the p-flags at
        ``p = 1/2`` (strict ``2 * count > n``, weak ``2 * count >= n``),
        unanimity flags need ``count == n`` (on nonempty graphs).
        """
        n = cg.graph.n
        sizes = np.bincount(columns.codes, minlength=len(columns.statuses)).tolist()
        classes = list(zip(columns.statuses, sizes))
        strict = sum(size for s, size in classes if s.illusion is Level.STRICT)
        under = sum(size for s, size in classes if s.illusion is not Level.NONE)
        witnesses = {s.illusion_color for s in columns.statuses if s.illusion is not Level.NONE}
        flags = _p_flags(strict, under, n, _HALF)
        return cls(
            n=n,
            strict_count=strict,
            weak_only_count=under - strict,
            none_count=n - under,
            majority_majority=flags["pq"],
            weak_majority_majority=flags["weak_pq"],
            majority_weak_majority=flags["p_weak_q"],
            weak_majority_weak_majority=flags["weak_p_weak_q"],
            unanimity_majority=strict == n and n > 0,
            unanimity_weak_majority=under == n and n > 0,
            chromaticity=Chromaticity.of(witnesses),
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
    """Network-level classification from the status columns; see
    :meth:`NetworkIllusionReport.from_columns`."""
    return NetworkIllusionReport.from_columns(cg, status_columns(cg))


def _check_threshold(q: Threshold) -> None:
    if not 0 <= q <= 1:
        raise PreconditionError(f"threshold must lie in [0, 1], got {q}")


def _in_q_window(
    local: int, d: int, total: int, n: int, q: Threshold, strict: bool
) -> bool:
    """Does a color held by ``local`` of ``d`` neighbours and ``total`` of
    ``n`` agents witness a (weak) q-illusion?  Strict: local share above
    ``q`` and global share below it.  Weak: both non-strict, but not both
    exactly at ``q``."""
    over = local * q.denominator - q.numerator * d
    under = q.numerator * n - total * q.denominator
    if strict:
        return over > 0 and under > 0
    return over >= 0 and under >= 0 and (over, under) != (0, 0)


def _q_witness(
    cg: ColoredGraph, local_red: int, d: int, q: Threshold, strict: bool
) -> Color | None:
    """The (weak) q-illusion witness of a node of ``cg`` with ``local_red``
    red among its ``d`` neighbours, red tested first; no checks."""
    n = cg.graph.n
    global_red, global_blue = cg.color_counts
    if _in_q_window(local_red, d, global_red, n, q, strict):
        return Color.RED
    if _in_q_window(d - local_red, d, global_blue, n, q, strict):
        return Color.BLUE
    return None


def q_illusion(cg: ColoredGraph, i: int, q: Threshold) -> Color | None:
    """Witness color whose local share strictly exceeds ``q`` while its
    global share stays strictly below ``q``; ``None`` when neither color
    qualifies.  At ``q = 1/2`` this coincides with the strict illusion."""
    _check_threshold(q)
    return _q_witness(cg, cg.local_red_count(i), cg.graph.degree(i), q, strict=True)


def weak_q_illusion(cg: ColoredGraph, i: int, q: Threshold) -> Color | None:
    """Weak variant of :func:`q_illusion`: non-strict comparisons, except
    that a color matching both thresholds exactly does not qualify.  At
    ``q = 1/2`` this coincides with the weak illusion."""
    _check_threshold(q)
    return _q_witness(cg, cg.local_red_count(i), cg.graph.degree(i), q, strict=False)


def _p_flags(strict: int, weak: int, n: int, p: Threshold) -> dict[str, bool]:
    """The four proportion flags for ``strict`` and ``weak`` illusioned
    agents out of ``n``: above ``p`` (strict) or at least ``p`` (weak, on
    nonempty graphs)."""
    return {
        "pq": strict * p.denominator > p.numerator * n,
        "weak_pq": strict * p.denominator >= p.numerator * n and n > 0,
        "p_weak_q": weak * p.denominator > p.numerator * n,
        "weak_p_weak_q": weak * p.denominator >= p.numerator * n and n > 0,
    }


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
    # Each distinct (degree, red count) pair, keyed as degree * n + red
    # (red < n), is decided once and counted for every node holding it.
    keys, sizes = np.unique(
        np.diff(cg.graph.indptr) * n + cg.red_neighbor_array, return_counts=True
    )
    strict_count = weak_count = 0
    strict_witnesses: set[Color] = set()
    weak_witnesses: set[Color] = set()
    for key, size in zip(keys.tolist(), sizes.tolist()):
        d, local_red = divmod(key, n)
        if (w := _q_witness(cg, local_red, d, q, True)) is not None:
            strict_count += size
            strict_witnesses.add(w)
        if (w := _q_witness(cg, local_red, d, q, False)) is not None:
            weak_count += size
            weak_witnesses.add(w)
    strict_forced = q <= _HALF
    weak_forced = q < _HALF
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
        **_p_flags(strict_count, weak_count, n, p),
        strict_chromaticity=Chromaticity.of(strict_witnesses),
        weak_chromaticity=Chromaticity.of(weak_witnesses),
        strict_monochromatic_forced=strict_forced,
        weak_monochromatic_forced=weak_forced,
    )
