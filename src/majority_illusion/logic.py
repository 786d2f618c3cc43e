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
holds by construction.  Surface syntax: atoms are identifiers, prefix
operators bind tightest, then ``&``, ``|``, ``->`` (right-associative).

The model checker (:func:`extension`) evaluates each unique subformula
once, children first, as one boolean column over the nodes.  It counts
true neighbours itself, from the graph's CSR rows, and reads nothing of
the classifier (``analysis``, red-neighbour counts, local winners), so
that it stays an independent check of it.  The satisfiability search
(:func:`formula_possible`) runs the same program on node bitsets, one
per valuation.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .analysis import IllusionKind
from .coloring import ColoredGraph
from .errors import FormulaSyntaxError, PreconditionError
from .graphs import Graph
from .oracle import DEFAULT_CAP, _chunks, _check_cap, _neighbor_masks

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


def expand(f: Formula) -> Formula:
    """Rewrite derived operators (And, Implies, M, GM) into the core
    connectives; semantics-preserving."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(expand(f.sub))
    if isinstance(f, Or):
        return Or(expand(f.left), expand(f.right))
    if isinstance(f, And):
        return Not(Or(Not(expand(f.left)), Not(expand(f.right))))
    if isinstance(f, Implies):
        return Or(Not(expand(f.left)), expand(f.right))
    if isinstance(f, NeighborCountOver):
        return NeighborCountOver(f.bound, expand(f.sub))
    if isinstance(f, WeakNeighborMajority):
        return WeakNeighborMajority(expand(f.sub))
    if isinstance(f, NeighborMajority):
        return Not(WeakNeighborMajority(Not(expand(f.sub))))
    if isinstance(f, GlobalCountOver):
        return GlobalCountOver(f.bound, expand(f.sub))
    if isinstance(f, WeakGlobalMajority):
        return WeakGlobalMajority(expand(f.sub))
    if isinstance(f, GlobalMajority):
        return Not(WeakGlobalMajority(Not(expand(f.sub))))
    raise TypeError(f"unknown formula node {f!r}")


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Or, And, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Not, NeighborCountOver, WeakNeighborMajority, NeighborMajority,
                      GlobalCountOver, WeakGlobalMajority, GlobalMajority)):
        return (f.sub,)
    raise TypeError(f"unknown formula node {f!r}")


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
            return NeighborCountOver(int(index.text), self.parse_unary())
        if tok.kind == "ident" and tok.text.startswith("E_"):
            if not tok.text[2:].isdigit():
                raise FormulaSyntaxError(f"malformed counting index in {tok.text!r}", tok.pos)
            return GlobalCountOver(int(tok.text[2:]), self.parse_unary())
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
    ``f`` up to derived-operator expansion."""

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

    return render(f, 0)


# ---------------------------------------------------------------------------
# Models and evaluation


class UnknownAtomWarning(UserWarning):
    """An atom absent from the model was evaluated (treated as false)."""


@dataclass(frozen=True)
class Model:
    """A graph plus a valuation assigning each node its true atoms."""

    graph: Graph
    valuation: tuple[frozenset[str], ...]
    atoms: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if len(self.valuation) != self.graph.n:
            raise PreconditionError(
                f"valuation covers {len(self.valuation)} nodes, "
                f"graph has {self.graph.n}"
            )

    def known_atoms(self) -> frozenset[str]:
        if self.atoms is not None:
            return self.atoms
        out: set[str] = set()
        for v in self.valuation:
            out |= v
        return frozenset(out)


def model_from_colored_graph(cg: ColoredGraph, atom: str = "p") -> Model:
    """Model in which ``atom`` holds exactly at the red nodes: one take of
    the two shared node valuations at the red mask."""
    table = np.empty(2, dtype=object)
    table[:] = frozenset(), frozenset({atom})
    valuation = tuple(table.take(cg.red_mask.view(np.uint8)).tolist())
    return Model(cg.graph, valuation, atoms=frozenset({atom}))


def _columns(node: Formula, args: list[np.ndarray], model: Model) -> np.ndarray:
    """Extension of ``node`` in ``model`` as a boolean node column, given
    its children's columns ``args``.

    A count never exceeds ``n``, so a neighbour bound is clipped to ``n``
    before numpy compares it: counts are only compared with Python ints
    they can hold.
    """
    g = model.graph
    if isinstance(node, Atom):
        return np.fromiter((node.name in v for v in model.valuation), dtype=bool, count=g.n)
    if isinstance(node, Not):
        return ~args[0]
    if isinstance(node, Or):
        return args[0] | args[1]
    if isinstance(node, NeighborCountOver):
        return _true_neighbors(g, args[0]) > min(node.bound, g.n)
    if isinstance(node, WeakNeighborMajority):
        return 2 * _true_neighbors(g, args[0]) >= np.diff(g.indptr)
    if isinstance(node, GlobalCountOver):
        return np.full(g.n, int(np.count_nonzero(args[0])) > node.bound)
    if isinstance(node, WeakGlobalMajority):
        return np.full(g.n, 2 * int(np.count_nonzero(args[0])) >= g.n)
    raise TypeError(f"evaluation reached unexpanded node {node!r}")


def _true_neighbors(g: Graph, column: np.ndarray) -> np.ndarray:
    """How many of each node's neighbours ``column`` holds at: one
    ``reduceat`` over the CSR rows of the column read at the neighbours.
    A trailing ``False`` keeps every row start in bounds; an empty row,
    where ``reduceat`` reads that one value, counts 0."""
    counts = np.add.reduceat(
        np.append(column[g.indices], False), g.indptr[:-1], dtype=np.int64
    )
    counts[g.indptr[:-1] == g.indptr[1:]] = 0
    return counts


def extension(model: Model, f: Formula) -> frozenset[int]:
    """Set of nodes at which ``f`` holds.

    Warns once per atom the model does not know, in the order the atoms
    first appear in the expanded formula, before evaluating it.
    """
    program, atoms = _prepared(f)
    known = model.known_atoms()
    for name in atoms:
        if name not in known:
            warnings.warn(
                f"atom {name!r} is not part of the model; treated as false",
                UnknownAtomWarning,
                stacklevel=2,
            )
    column = _run(program, lambda node, args: _columns(node, args, model))
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


@lru_cache(maxsize=256)
def _program(core: Formula) -> _Program:
    """The unique subformulas of ``core``, children first and left child
    first; ``core`` comes last.  Each comes with the positions of its
    children in the list and of the children it is the last to read.

    Built once per expanded formula; a tuple, so a cached program cannot
    be changed."""
    # A subformula is keyed by its class, bound and children's positions,
    # so no lookup hashes a whole subtree; ``at`` maps each node object
    # visited to its position.
    index: dict[object, int] = {}
    at: dict[int, int] = {}
    program: list[tuple[Formula, tuple[int, ...]]] = []
    stack = [(core, False)]  # a node, and whether its children are done
    while stack:
        node, ready = stack.pop()
        if id(node) in at:
            continue
        kids = _children(node)
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


def _run(program: _Program, step: Callable[[Formula, list], object]):
    """Evaluate ``program`` children first: ``step(node, args)`` gives a
    node's value from its children's values.  Returns ``core``'s value."""
    values: list = [None] * len(program)
    for j, (node, kids, last_read) in enumerate(program):
        values[j] = step(node, [values[k] for k in kids])
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
    node bitsets of the formula's extension under each of them."""
    nbr = _neighbor_masks(g)
    degrees = g.degrees()
    full = np.uint32((1 << g.n) - 1)

    def extensions(masks: np.ndarray) -> np.ndarray:
        return _run(
            program, lambda node, args: _bitsets(node, args, masks, nbr, degrees, full)
        )

    return extensions


def _bitsets(
    node: Formula,
    args: list[np.ndarray],
    masks: np.ndarray,
    nbr: np.ndarray,
    degrees: tuple[int, ...],
    full: np.uint32,
) -> np.ndarray:
    """Extension of ``node`` under each valuation in ``masks``, as node
    bitsets, given its children's extensions ``args``.

    A count ``c`` meets ``2c >= d`` exactly when ``c >= (d + 1) // 2``, and
    "more than ``b``" is ``c >= b + 1``; thresholds above the most nodes
    that could count are never met, so uint8 popcounts are only compared
    with Python ints they can hold.
    """
    if isinstance(node, Atom):
        return masks
    if isinstance(node, Not):
        return args[0] ^ full
    if isinstance(node, Or):
        return args[0] | args[1]
    if isinstance(node, (NeighborCountOver, WeakNeighborMajority)):
        out = np.zeros_like(masks)
        for i, deg in enumerate(degrees):
            least = (
                node.bound + 1
                if isinstance(node, NeighborCountOver)
                else (deg + 1) // 2
            )
            if least <= deg:
                hit = np.bitwise_count(args[0] & nbr[i]) >= least
                out |= hit.astype(np.uint32) << np.uint32(i)
        return out
    if isinstance(node, (GlobalCountOver, WeakGlobalMajority)):
        n = len(degrees)
        least = node.bound + 1 if isinstance(node, GlobalCountOver) else (n + 1) // 2
        if least > n:
            return np.zeros_like(masks)
        return np.where(np.bitwise_count(args[0]) >= least, full, np.uint32(0))
    raise TypeError(f"evaluation reached unexpanded node {node!r}")


def formula_possible(
    g: Graph, f: Formula, atom: str = "p", cap: int = DEFAULT_CAP
) -> bool:
    """Is ``f`` satisfiable at some node under some valuation of ``atom``?

    Scans all 2^n single-atom valuations in the oracle's chunks, with every
    subformula evaluated as one node bitset per valuation, and stops at the
    first chunk with a satisfying valuation.  Formulas mentioning other
    atoms are rejected.
    """
    _check_cap(g, cap)
    program, used = _prepared(f)
    if not set(used) <= {atom}:
        raise PreconditionError(
            f"satisfiability search is single-atom; formula uses {sorted(used)}"
        )
    extensions = _compile(g, program)
    return any(extensions(masks).any() for masks in _chunks(g.n))
