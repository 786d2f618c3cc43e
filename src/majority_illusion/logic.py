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
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .analysis import IllusionKind
from .coloring import Color, ColoredGraph
from .errors import FormulaSyntaxError, PreconditionError
from .graphs import Graph
from .oracle import DEFAULT_CAP, _chunks, _check_cap, _neighbor_masks

# At 100 levels the deepest expansion and evaluation use about 610 of Python's
# default 1000 frames.
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


def atom_names(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    return frozenset().union(*map(atom_names, _children(f)))


def _too_deep() -> PreconditionError:
    return PreconditionError(
        f"formula nested too deep: more than {MAX_FORMULA_DEPTH} levels"
    )


def _check_depth(f: Formula) -> None:
    """Reject ``f`` if it is nested deeper than :data:`MAX_FORMULA_DEPTH`.

    Expansion, evaluation, hashing and printing recurse once per level, and
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

_KEYWORDS = {"W", "M", "GW", "GM"}


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
        f = self.parse_implies()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return f

    def parse_implies(self) -> Formula:
        operands = [self.parse_or()]
        while (tok := self.peek()) is not None and tok.kind == "arrow":
            self.take()
            operands.append(self.parse_or())
        f = operands.pop()
        while operands:
            f = Implies(operands.pop(), f)
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while (tok := self.peek()) is not None and tok.kind == "pipe":
            self.take()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while (tok := self.peek()) is not None and tok.kind == "amp":
            self.take()
            f = And(f, self.parse_unary())
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
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        if tok.kind == "tilde":
            self.take()
            return Not(self.parse_unary())
        if tok.kind == "diamond":
            self.take()
            bound = self.take_index(tok.pos)
            return NeighborCountOver(bound, self.parse_unary())
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                self.take()
                ctor = {
                    "W": WeakNeighborMajority,
                    "M": NeighborMajority,
                    "GW": WeakGlobalMajority,
                    "GM": GlobalMajority,
                }[tok.text]
                return ctor(self.parse_unary())
            if tok.text.startswith("E_"):
                self.take()
                suffix = tok.text[2:]
                if not suffix.isdigit():
                    raise FormulaSyntaxError(
                        f"malformed counting index in {tok.text!r}", tok.pos
                    )
                return GlobalCountOver(int(suffix), self.parse_unary())
        return self.parse_primary()

    def take_index(self, opener_pos: int) -> int:
        tok = self.peek()
        if tok is None or tok.kind != "number":
            raise FormulaSyntaxError("malformed counting index after '<>'", opener_pos)
        self.take()
        return int(tok.text)

    def parse_primary(self) -> Formula:
        tok = self.take()
        if tok.kind == "lparen":
            f = self.parse_implies()
            closer = self.peek()
            if closer is None or closer.kind != "rparen":
                raise FormulaSyntaxError("unbalanced parenthesis", tok.pos)
            self.take()
            return f
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return Atom(tok.text)
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
        # levels: 0 implies, 1 or, 2 and, 3 unary/primary
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, Implies):
            text = f"{render(node.left, 1)} -> {render(node.right, 0)}"
            need = level > 0
        elif isinstance(node, Or):
            text = f"{render(node.left, 1)} | {render(node.right, 2)}"
            need = level > 1
        elif isinstance(node, And):
            text = f"{render(node.left, 2)} & {render(node.right, 3)}"
            need = level > 2
        else:
            prefix = {
                Not: "~",
                WeakNeighborMajority: "W ",
                NeighborMajority: "M ",
                WeakGlobalMajority: "GW ",
                GlobalMajority: "GM ",
            }.get(type(node))
            if prefix is not None:
                return f"{prefix}{render(node.sub, 3)}"
            if isinstance(node, NeighborCountOver):
                return f"<>{node.bound} {render(node.sub, 3)}"
            if isinstance(node, GlobalCountOver):
                return f"E_{node.bound} {render(node.sub, 3)}"
            raise TypeError(f"unknown formula node {node!r}")
        return f"({text})" if need else text

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
    """Model in which ``atom`` holds exactly at the red nodes."""
    valuation = tuple(
        frozenset({atom}) if c is Color.RED else frozenset() for c in cg.colors
    )
    return Model(cg.graph, valuation, atoms=frozenset({atom}))


class _Evaluator:
    def __init__(self, model: Model):
        self.model = model
        self.all_nodes = frozenset(range(model.graph.n))
        self.known = model.known_atoms()
        self.memo: dict[Formula, frozenset[int]] = {}
        self.warned: set[str] = set()

    def extension(self, f: Formula) -> frozenset[int]:
        cached = self.memo.get(f)
        if cached is not None:
            return cached
        result = self._compute(f)
        self.memo[f] = result
        return result

    def _compute(self, f: Formula) -> frozenset[int]:
        g = self.model.graph
        if isinstance(f, Atom):
            if f.name not in self.known and f.name not in self.warned:
                self.warned.add(f.name)
                warnings.warn(
                    f"atom {f.name!r} is not part of the model; treated as false",
                    UnknownAtomWarning,
                    stacklevel=4,
                )
            return frozenset(
                i for i in self.all_nodes if f.name in self.model.valuation[i]
            )
        if isinstance(f, Not):
            return self.all_nodes - self.extension(f.sub)
        if isinstance(f, Or):
            return self.extension(f.left) | self.extension(f.right)
        if isinstance(f, NeighborCountOver):
            sat = self.extension(f.sub)
            return frozenset(
                i for i in self.all_nodes if len(g.adj[i] & sat) > f.bound
            )
        if isinstance(f, WeakNeighborMajority):
            sat = self.extension(f.sub)
            return frozenset(
                i for i in self.all_nodes if 2 * len(g.adj[i] & sat) >= g.degree(i)
            )
        if isinstance(f, GlobalCountOver):
            sat = self.extension(f.sub)
            return self.all_nodes if len(sat) > f.bound else frozenset()
        if isinstance(f, WeakGlobalMajority):
            sat = self.extension(f.sub)
            return self.all_nodes if 2 * len(sat) >= g.n else frozenset()
        raise TypeError(f"evaluation reached unexpanded node {f!r}")


def extension(model: Model, f: Formula) -> frozenset[int]:
    """Set of nodes at which ``f`` holds."""
    _check_depth(f)
    return _Evaluator(model).extension(expand(f))


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

_NETWORK_KINDS = {
    IllusionKind.MAJORITY_MAJORITY.value,
    IllusionKind.WEAK_MAJORITY_MAJORITY.value,
    IllusionKind.MAJORITY_WEAK_MAJORITY.value,
    IllusionKind.WEAK_MAJORITY_WEAK_MAJORITY.value,
}

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


def _program(core: Formula) -> list[tuple[Formula, tuple[int, ...]]]:
    """The unique subformulas of ``core``, children first, each with the
    positions of its children in the list; ``core`` comes last."""
    index: dict[Formula, int] = {}
    program: list[tuple[Formula, tuple[int, ...]]] = []
    stack = [core]
    while stack:
        node = stack[-1]
        if node in index:
            stack.pop()
            continue
        pending = [c for c in _children(node) if c not in index]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        index[node] = len(program)
        program.append((node, tuple(index[c] for c in _children(node))))
    return program


def _compile(g: Graph, core: Formula) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the expanded formula ``core`` into a function from valuation
    masks (bit ``i`` set: the atom holds at node ``i``) to the node bitsets
    of ``core``'s extension under each of them."""
    program = _program(core)
    last_reader = {k: j for j, (_, kids) in enumerate(program) for k in kids}
    nbr = _neighbor_masks(g)
    degrees = g.degrees()
    full = np.uint32((1 << g.n) - 1)

    def extensions(masks: np.ndarray) -> np.ndarray:
        ext: list[np.ndarray | None] = [None] * len(program)
        for j, (node, kids) in enumerate(program):
            ext[j] = _bitsets(node, [ext[k] for k in kids], masks, nbr, degrees, full)
            for k in kids:
                if last_reader[k] == j:
                    ext[k] = None  # keep only the bitsets still to be read
        return ext[-1]

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
    _check_depth(f)
    used = atom_names(f)
    if not used <= {atom}:
        raise PreconditionError(
            f"satisfiability search is single-atom; formula uses {sorted(used)}"
        )
    extensions = _compile(g, expand(f))
    return any(extensions(masks).any() for masks in _chunks(g.n))
