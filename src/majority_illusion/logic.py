"""Global majority logic (GMJL): syntax, parser, and model checker.

The logic extends propositional logic with counting modalities over a
node's neighborhood and over the whole graph::

    <>n a   strictly more than n neighbors satisfy a
    W a     at least half of the neighbors satisfy a
    E_n a   strictly more than n nodes satisfy a
    GW a    at least half of all nodes satisfy a

``M`` (more than half of the neighbors) and ``GM`` (more than half of all
nodes) are the duals ``~W~`` and ``~GW~``; they are parsed and printed as
first-class operators but evaluate through their expansion, so duality
holds by construction.  The four derived operators (``&``, ``->``, ``M``,
``GM``) expand through one table, ``_EXPANSIONS``; the expansion rebuilds
every other node, and the walk over subformulas finds children, from the
node's dataclass fields.  Surface syntax: atoms are identifiers, prefix
operators bind tightest, then ``&``, ``|``, ``->`` (right-associative).

Both evaluators run one program of the formula's unique subformulas,
children first, with every double negation folded, through one step
loop, :func:`_run`, which states the atom, ``~`` and ``|`` once and takes
the two counting steps from its caller.  The model checker
(:func:`extension`) holds each subformula as one boolean column over the
nodes, counts true neighbours with the graph's own row sum,
:meth:`Graph.neighbor_sums`, and reads nothing of the classifier
(``analysis``, red-neighbour counts, local winners), so that it stays an
independent check of it.  The satisfiability search
(:func:`formula_possible`) holds each as node bitsets, one per valuation,
and when one chunk holds every valuation it counts each neighbour
threshold once into a table that its steps read.  Both compare each
count with the one threshold rule of the counting modalities,
:func:`_least`.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .analysis import IllusionKind
from .coloring import ColoredGraph, red_column
from .errors import FormulaSyntaxError, PreconditionError
from .graphs import Graph
from .oracle import DEFAULT_CAP, _chunks, _check_cap

# At 100 levels the deepest parse (nested parentheses) uses about 605 of
# Python's default 1000 frames, and expansion and printing about 100.
MAX_FORMULA_DEPTH = 100


class Formula:
    """Base class for formula nodes; instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class NeighborCountOver(Formula):
    """``<>n a``: strictly more than ``bound`` neighbors satisfy ``a``."""

    bound: int
    sub: Formula


@dataclass(frozen=True)
class WeakNeighborMajority(Formula):
    """``W a``: at least half of the neighbors satisfy ``a``."""

    sub: Formula


@dataclass(frozen=True)
class NeighborMajority(Formula):
    """``M a``: more than half of the neighbors satisfy ``a`` (dual of W)."""

    sub: Formula


@dataclass(frozen=True)
class GlobalCountOver(Formula):
    """``E_n a``: strictly more than ``bound`` nodes satisfy ``a``."""

    bound: int
    sub: Formula


@dataclass(frozen=True)
class WeakGlobalMajority(Formula):
    """``GW a``: at least half of all nodes satisfy ``a``."""

    sub: Formula


@dataclass(frozen=True)
class GlobalMajority(Formula):
    """``GM a``: more than half of all nodes satisfy ``a`` (dual of GW)."""

    sub: Formula


# The derived operators' core expansions, from their expanded operands.
_EXPANSIONS: dict[type, Callable[..., Formula]] = {
    And: lambda a, b: Not(Or(Not(a), Not(b))),
    Implies: lambda a, b: Or(Not(a), b),
    NeighborMajority: lambda a: Not(WeakNeighborMajority(Not(a))),
    GlobalMajority: lambda a: Not(WeakGlobalMajority(Not(a))),
}


def _fields(f: Formula) -> list:
    """The values of a formula node's dataclass fields, in order."""
    if not isinstance(f, Formula):
        raise TypeError(f"unknown formula node {f!r}")
    return [getattr(f, name) for name in f.__match_args__]


def expand(f: Formula) -> Formula:
    """Rewrite derived operators (And, Implies, M, GM) into the core
    connectives; semantics-preserving."""
    values = [expand(v) if isinstance(v, Formula) else v for v in _fields(f)]
    return _EXPANSIONS.get(type(f), type(f))(*values)


def _children(f: Formula) -> tuple[Formula, ...]:
    return tuple([v for v in _fields(f) if isinstance(v, Formula)])


def _too_deep() -> PreconditionError:
    return PreconditionError(
        f"formula nested too deep: more than {MAX_FORMULA_DEPTH} levels"
    )


def _check_depth(f: Formula) -> None:
    """Reject ``f`` if it is nested deeper than :data:`MAX_FORMULA_DEPTH`.

    Expansion, hashing and printing recurse once per level, and
    expansion can triple the depth.  Walks one level of distinct nodes at a
    time, so shared subformulas are not revisited.
    """
    level = [f]
    for _ in range(MAX_FORMULA_DEPTH):
        level = list({id(c): c for node in level for c in _children(node)}.values())
        if not level:
            return
    raise _too_deep()


# ---------------------------------------------------------------------------
# Parsing and printing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<arrow>->)
  | (?P<amp>&)
  | (?P<pipe>\|)
  | (?P<tilde>~)
  | (?P<diamond><>)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+)
    """,
    re.VERBOSE,
)

# Binary connectives, loosest first: token, class and the side a chain of
# them groups to.  A connective's precedence is its position; prefix
# operators bind tighter than all of them.
_BINARY = (("->", Implies, "right"), ("|", Or, "left"), ("&", And, "left"))
_PRECEDENCE = {cls: (at, token, side) for at, (token, cls, side) in enumerate(_BINARY)}
_TIGHTEST = len(_BINARY)

# Prefix operators by token; the identifiers among them are keywords, not
# atoms.  ``<>n`` and ``E_n`` carry an index and are handled apart.
_PREFIX = {
    "~": Not,
    "W": WeakNeighborMajority,
    "M": NeighborMajority,
    "GW": WeakGlobalMajority,
    "GM": GlobalMajority,
}
_PREFIX_TEXT = {cls: text for text, cls in _PREFIX.items()}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


def _index(digits: str, pos: int) -> int:
    """The index ``digits`` names; a run longer than ``int`` reads is malformed."""
    try:
        return int(digits)
    except ValueError:
        message = f"counting index of {len(digits)} digits is too long"
        raise FormulaSyntaxError(message, pos) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_binary(0)
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return f

    def parse_binary(self, at: int) -> Formula:
        """A chain of the connectives at precedence ``at`` and tighter."""
        if at == _TIGHTEST:
            return self.parse_unary()
        token, cls, side = _BINARY[at]
        operands = [self.parse_binary(at + 1)]
        while (tok := self.peek()) is not None and tok.text == token:
            self.take()
            operands.append(self.parse_binary(at + 1))
        if side == "right":
            operands.reverse()
        f = operands[0]
        for other in operands[1:]:
            f = cls(f, other) if side == "left" else cls(other, f)
        return f

    def parse_unary(self) -> Formula:
        # prefix operators and parentheses recurse through here
        if self.depth == MAX_FORMULA_DEPTH:
            raise _too_deep()
        self.depth += 1
        f = self.parse_prefixed()
        self.depth -= 1
        return f

    def parse_prefixed(self) -> Formula:
        tok = self.take()
        if tok.text in _PREFIX:
            return _PREFIX[tok.text](self.parse_unary())
        if tok.kind == "diamond":
            index = self.peek()
            if index is None or index.kind != "number":
                raise FormulaSyntaxError("malformed counting index after '<>'", tok.pos)
            self.take()
            return NeighborCountOver(_index(index.text, index.pos), self.parse_unary())
        if tok.kind == "ident" and tok.text.startswith("E_"):
            if not tok.text[2:].isdigit():
                raise FormulaSyntaxError(f"malformed counting index in {tok.text!r}", tok.pos)
            return GlobalCountOver(_index(tok.text[2:], tok.pos + 2), self.parse_unary())
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "lparen":
            f = self.parse_binary(0)
            closer = self.peek()
            if closer is None or closer.kind != "rparen":
                raise FormulaSyntaxError("unbalanced parenthesis", tok.pos)
            self.take()
            return f
        raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax; raises :class:`FormulaSyntaxError` with the
    offending position on lexical errors, unbalanced parentheses, or
    malformed counting indices, and :class:`PreconditionError` on formulas
    nested deeper than :data:`MAX_FORMULA_DEPTH`."""
    f = _Parser(text).parse()
    _check_depth(f)
    return f


def format_formula(f: Formula) -> str:
    """Render a formula so that ``parse_formula(format_formula(f))`` equals
    ``f`` up to derived-operator expansion; raises
    :class:`PreconditionError` on formulas nested deeper than
    :data:`MAX_FORMULA_DEPTH`, before rendering recurses."""

    def render(node: Formula, level: int) -> str:
        if isinstance(node, Atom):
            return node.name
        if type(node) in _PRECEDENCE:
            # only the operand on the grouping side may be a bare chain
            at, token, side = _PRECEDENCE[type(node)]
            left = render(node.left, at if side == "left" else at + 1)
            right = render(node.right, at if side == "right" else at + 1)
            text = f"{left} {token} {right}"
            return f"({text})" if level > at else text
        if isinstance(node, NeighborCountOver):
            head = f"<>{node.bound} "
        elif isinstance(node, GlobalCountOver):
            head = f"E_{node.bound} "
        elif type(node) in _PREFIX_TEXT:
            head = _PREFIX_TEXT[type(node)]
            head += " " if head.isidentifier() else ""
        else:
            raise TypeError(f"unknown formula node {node!r}")
        return head + render(node.sub, _TIGHTEST)

    _check_depth(f)
    return render(f, 0)


# ---------------------------------------------------------------------------
# Models and evaluation


class UnknownAtomWarning(UserWarning):
    """An atom absent from the model was evaluated (treated as false)."""


@dataclass(frozen=True, eq=False)
class Model:
    """A graph plus a valuation: a read-only mapping from each atom the
    model knows to its bool node column, ``True`` where the atom holds,
    kept read-only as :func:`red_column` keeps a coloring."""

    graph: Graph
    valuation: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        columns = {}
        for atom, column in self.valuation.items():
            column = red_column(np.asarray(column, dtype=bool))
            if column.shape != (self.graph.n,):
                raise PreconditionError(
                    f"valuation of atom {atom!r} has shape {column.shape}, "
                    f"graph has {self.graph.n} nodes"
                )
            columns[atom] = column
        object.__setattr__(self, "valuation", MappingProxyType(columns))


def model_from_colored_graph(cg: ColoredGraph, atom: str = "p") -> Model:
    """Model in which ``atom`` holds exactly at the red nodes: its column
    is the colored graph's own :attr:`ColoredGraph.red`."""
    return Model(cg.graph, {atom: cg.red})


def _least(node: Formula, total: int | np.ndarray, n: int) -> int | np.ndarray:
    """The fewest true nodes, of ``total`` counted, at which the counting
    node ``node`` holds: more than its bound (``<>b``, ``E_b``), or at
    least half (``W``, ``GW``).  No count exceeds the ``n`` nodes, so the
    bound is clipped to ``n``: a threshold never outgrows a small count's
    dtype."""
    bound = getattr(node, "bound", None)
    return (total + 1) // 2 if bound is None else min(bound, n) + 1


def extension(model: Model, f: Formula) -> frozenset[int]:
    """Set of nodes at which ``f`` holds.

    Warns once per atom the model does not know, in the order the atoms
    first appear in the expanded formula, before evaluating it.
    """
    program, atoms = _prepared(f)
    for name in atoms:
        if name not in model.valuation:
            warnings.warn(
                f"atom {name!r} is not part of the model; treated as false",
                UnknownAtomWarning,
                stacklevel=2,
            )
    g = model.graph
    degrees, none = np.diff(g.indptr), np.zeros(g.n, dtype=bool)
    column = _run(
        program,
        lambda name: model.valuation.get(name, none),
        np.array(True),  # a 0-d array: numpy's scalars take a slower path
        lambda node, a: g.neighbor_sums(a) >= _least(node, degrees, g.n),
        lambda node, a: np.full(g.n, int(np.count_nonzero(a)) >= _least(node, g.n, g.n)),
    )
    return frozenset(np.flatnonzero(column).tolist())


def model_check(model: Model, i: int, f: Formula) -> bool:
    """Truth of ``f`` at node ``i``; exact half-threshold comparisons."""
    model.graph.check_node(i)
    return i in extension(model, f)


# ---------------------------------------------------------------------------
# The illusion formula library

AGENT_WEAK_MAJORITY_OPPOSITION = "weak-majority-opposition"
AGENT_MAJORITY_OPPOSITION = "majority-opposition"
AGENT_MAJORITY_ILLUSION = "majority-illusion"
AGENT_WEAK_MAJORITY_ILLUSION = "weak-majority-illusion"

FORMULA_KINDS = (
    AGENT_WEAK_MAJORITY_OPPOSITION,
    AGENT_MAJORITY_OPPOSITION,
    AGENT_MAJORITY_ILLUSION,
    AGENT_WEAK_MAJORITY_ILLUSION,
    IllusionKind.MAJORITY_MAJORITY.value,
    IllusionKind.WEAK_MAJORITY_MAJORITY.value,
    IllusionKind.MAJORITY_WEAK_MAJORITY.value,
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY.value,
)


@lru_cache(maxsize=None)
def illusion_formula(kind: str | IllusionKind, atom: str = "p") -> Formula:
    """The library formula expressing an agent- or network-level statement.

    Agent statements: ``weak-majority-opposition``, ``majority-opposition``,
    ``majority-illusion``, ``weak-majority-illusion``.  Network statements:
    the four (weak-)majority-(weak-)majority kinds, built by wrapping the
    agent formula in a global (weak) majority operator.
    """
    name = kind.value if isinstance(kind, IllusionKind) else kind
    p = Atom(atom)
    np_ = Not(p)
    strict_agent = Or(
        And(GlobalMajority(p), NeighborMajority(np_)),
        And(GlobalMajority(np_), NeighborMajority(p)),
    )
    weak_agent = Or(
        Or(
            And(WeakGlobalMajority(p), NeighborMajority(np_)),
            And(WeakGlobalMajority(np_), NeighborMajority(p)),
        ),
        And(
            And(WeakNeighborMajority(p), WeakNeighborMajority(np_)),
            Or(GlobalMajority(p), GlobalMajority(np_)),
        ),
    )
    table: dict[str, Formula] = {
        AGENT_WEAK_MAJORITY_OPPOSITION: Or(
            And(p, WeakNeighborMajority(np_)), And(np_, WeakNeighborMajority(p))
        ),
        AGENT_MAJORITY_OPPOSITION: Or(
            And(p, NeighborMajority(np_)), And(np_, NeighborMajority(p))
        ),
        AGENT_MAJORITY_ILLUSION: strict_agent,
        AGENT_WEAK_MAJORITY_ILLUSION: weak_agent,
        IllusionKind.MAJORITY_MAJORITY.value: GlobalMajority(strict_agent),
        IllusionKind.WEAK_MAJORITY_MAJORITY.value: WeakGlobalMajority(strict_agent),
        IllusionKind.MAJORITY_WEAK_MAJORITY.value: GlobalMajority(weak_agent),
        IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY.value: WeakGlobalMajority(weak_agent),
    }
    if name not in table:
        raise PreconditionError(
            f"unknown formula kind {name!r}; expected one of {FORMULA_KINDS}"
        )
    return table[name]


_Program = tuple[tuple[Formula, tuple[int, ...], tuple[int, ...]], ...]


def _folded(f: Formula) -> Formula:
    """``f`` without its leading double negations: ``~~a`` is ``a``."""
    while isinstance(f, Not) and isinstance(f.sub, Not):
        f = f.sub.sub
    return f


def _program(core: Formula) -> _Program:
    """The unique subformulas of ``core`` with every double negation
    folded, children first and left child first; ``core`` comes last.
    Each comes with the positions of its children in the list and of the
    children it is the last to read.

    The expansions of ``&``, ``M`` and ``GM`` make ``~~a``; a ``Not`` step
    never reads another, so majority-majority runs 14 steps, not 23.

    An expansion shares no node object, so each node is walked once.
    :func:`_expanded_program` caches the program: a tuple, so a cached
    program cannot be changed."""
    # A subformula is keyed by its class, bound and children's positions,
    # so no lookup hashes a whole subtree; ``at`` maps each node object
    # visited to its position.
    index: dict[object, int] = {}
    at: dict[int, int] = {}
    program: list[tuple[Formula, tuple[int, ...]]] = []
    stack = [(_folded(core), False)]  # a node, and whether its children are done
    while stack:
        node, ready = stack.pop()
        kids = tuple(map(_folded, _children(node)))
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        args = tuple(at[id(c)] for c in kids)
        key = (type(node), getattr(node, "bound", None), args) if kids else node
        if key not in index:
            index[key] = len(program)
            program.append((node, args))
        at[id(node)] = index[key]
    last_reader = {k: j for j, (_, kids) in enumerate(program) for k in kids}
    return tuple(
        (node, kids, tuple({k for k in kids if last_reader[k] == j}))
        for j, (node, kids) in enumerate(program)
    )


def _run(program: _Program, atom: Callable, top, neighbours: Callable, everyone: Callable):
    """Evaluate ``program`` children first, in either representation of
    node sets: an atom's value is ``atom(name)``, ``~a`` is ``a ^ top``
    (``top`` holds every node), ``a | b`` is the union, and a counting
    node over ``a`` is ``neighbours(node, a)`` (``<>n``, ``W``) or
    ``everyone(node, a)`` (``E_n``, ``GW``).  Returns ``core``'s value."""
    values: list = [None] * len(program)
    for j, (node, kids, last_read) in enumerate(program):
        args = [values[k] for k in kids]
        if isinstance(node, Atom):
            values[j] = atom(node.name)
        elif isinstance(node, Not):
            values[j] = args[0] ^ top
        elif isinstance(node, Or):
            values[j] = args[0] | args[1]
        elif isinstance(node, (NeighborCountOver, WeakNeighborMajority)):
            values[j] = neighbours(node, args[0])
        elif isinstance(node, (GlobalCountOver, WeakGlobalMajority)):
            values[j] = everyone(node, args[0])
        else:
            raise TypeError(f"evaluation reached unexpanded node {node!r}")
        for k in last_read:
            values[k] = None  # keep only the values still to be read
    return values[-1]


def _prepared(f: Formula) -> tuple[_Program, tuple[str, ...]]:
    """The program of ``f``'s expansion and its atoms in program order.

    The depth check runs on every call, before the cache hashes ``f``
    (hashing recurses once per level), so a too-deep formula raises each
    time; the expansion and the program are built once per formula."""
    _check_depth(f)
    return _expanded_program(f)


@lru_cache(maxsize=256)
def _expanded_program(f: Formula) -> tuple[_Program, tuple[str, ...]]:
    program = _program(expand(f))
    return program, tuple(node.name for node, _, _ in program if isinstance(node, Atom))


def _compile(g: Graph, program: _Program) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the program of an expanded formula into a function from
    valuation masks (bit ``i`` set: the atom holds at node ``i``) to the
    node bitsets of the formula's extension under each of them.

    Each popcount is compared with its :func:`_least` threshold, worked out
    for every node at once; none exceeds ``n + 1``, which uint8 holds.  A
    chunk that holds every valuation holds every node bitset a step can
    give, so each neighbour threshold is counted once, on all ``2^n``
    bitsets, into a table that each step with that threshold reads at its
    argument: ``W p`` and ``W ~p`` share one pass.  The tables are keyed
    by the threshold vector, so ``<>0 p`` and ``<>1 p`` read two, and live
    for the call, at most one of ``2^n`` words per distinct threshold."""
    nbr = g.neighbor_masks
    degrees = np.diff(g.indptr)
    full = np.array((1 << g.n) - 1, dtype=np.uint32)  # 0-d, as in extension
    every = 1 << g.n

    def everyone(node: Formula, sets: np.ndarray) -> np.ndarray:
        return np.where(np.bitwise_count(sets) >= _least(node, g.n, g.n), full, np.uint32(0))

    def extensions(masks: np.ndarray) -> np.ndarray:
        tables: dict = {}

        def neighbours(node: Formula, sets: np.ndarray) -> np.ndarray:
            least = np.broadcast_to(_least(node, degrees, g.n), degrees.shape)
            if len(masks) < every:
                return _counted(sets, nbr, least)
            key = least.tobytes()
            if key not in tables:
                tables[key] = _counted(np.arange(every, dtype=np.uint32), nbr, least)
            return tables[key].take(sets)

        return _run(program, lambda name: masks, full, neighbours, everyone)

    return extensions


def _counted(sets: np.ndarray, nbr: np.ndarray, least: np.ndarray) -> np.ndarray:
    """The nodes ``i`` with at least ``least[i]`` neighbours in each node
    bitset of ``sets``, as node bitsets: a popcount per node."""
    out = np.zeros_like(sets)
    for i, at_least in enumerate(least.tolist()):
        hit = np.bitwise_count(sets & nbr[i]) >= at_least
        out |= hit.astype(np.uint32) << np.uint32(i)
    return out


def formula_possible(g: Graph, f: Formula, cap: int = DEFAULT_CAP) -> bool:
    """Is ``f`` satisfiable at some node under some valuation of its atom?

    Scans all 2^n single-atom valuations in the oracle's chunks, with every
    subformula of the folded program (no double negations) evaluated as
    one node bitset per valuation, and stops at the first chunk with a
    satisfying valuation.  Up to 18 nodes the one chunk holds every
    valuation, and each neighbour threshold is counted once, into a table
    of ``2^n`` words read by every ``<>n`` or ``W`` step with that
    threshold (see :func:`_compile`).  Formulas with two or more atoms
    are rejected.
    """
    _check_cap(g, cap)
    program, used = _prepared(f)
    if len(used) > 1:
        raise PreconditionError(
            f"satisfiability search is single-atom; formula uses {sorted(used)}"
        )
    extensions = _compile(g, program)
    return any(extensions(masks).any() for masks in _chunks(g.n))
