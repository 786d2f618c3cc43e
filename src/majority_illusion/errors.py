"""Exception types shared across the package.  Every refusal of outside
input is a :class:`PreconditionError` (CLI exit 2); :class:`InfeasibleError`
is a verdict (exit 1) and :class:`InternalInvariantError` a defect (exit 3)."""

from __future__ import annotations


class PreconditionError(ValueError):
    """An operation was called outside its documented domain: the input's fault."""


class GraphError(PreconditionError):
    """Invalid graph construction (out-of-range node id, self-loop, bad size)."""


class FormatError(PreconditionError):
    """Malformed graph / colored-graph text."""


class FormulaSyntaxError(PreconditionError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InfeasibleError(ValueError):
    """A construction was requested for parameters proven impossible: a verdict.

    Carries the feasibility verdict so callers can report reason codes.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class InternalInvariantError(RuntimeError):
    """A guaranteed postcondition failed; indicates a defect, not bad input."""
