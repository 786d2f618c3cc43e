"""Exception types shared across the package.  Every refusal of outside
input is a :class:`PreconditionError` (CLI exit 2); :class:`InfeasibleError`
is a verdict (exit 1) and :class:`InternalInvariantError` a defect (exit 3).
Their messages print a number through :func:`shown` and a piece of outside
text through :func:`quoted`."""

from __future__ import annotations

import math


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


def shown(value: int) -> str:
    """``value`` as an error message prints it: its digits up to 40 of them,
    else its digit count (``<5000 digits>``), so a huge count or id neither
    swells a message nor, past ``int``'s 4300 digits, fails to print."""
    size = abs(value) if isinstance(value, int) else 0
    if size < 10**40:
        return str(value)
    digits = int(math.log10(size))  # the count less one, give or take one
    digits += 1 + (size >= 10 ** (digits + 1)) - (size < 10**digits)
    return f"{'-' * (value < 0)}<{digits} digits>"


def quoted(token: str) -> str:
    """``token``, a piece of outside text, as an error message quotes it:
    its ``repr`` up to 40 characters, else the ``repr`` of its first 20 and
    its length (``'aaaaaaaaaaaaaaaaaaaa'... (5000 characters)``), so that no
    argument or formula token swells a message."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


class InternalInvariantError(RuntimeError):
    """A guaranteed postcondition failed; indicates a defect, not bad input."""
