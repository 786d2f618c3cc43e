import dataclasses
import functools
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majority_illusion import (
    Color,
    ColoredGraph,
    FormulaSyntaxError,
    Graph,
    IllusionKind,
    Model,
    PreconditionError,
    UnknownAtomWarning,
    coloring_from_string,
    complete_graph,
    construct_regular_illusion,
    cycle_graph,
    fast_construct,
    extension,
    format_formula,
    formula_possible,
    illusion_formula,
    make_graph,
    model_check,
    model_from_colored_graph,
    parse_formula,
    parse_graph_text,
    random_coloring,
    write_graph,
)
from majority_illusion import logic
from majority_illusion.logic import (
    AGENT_MAJORITY_ILLUSION,
    AGENT_WEAK_MAJORITY_ILLUSION,
    AGENT_WEAK_MAJORITY_OPPOSITION,
    And,
    Atom,
    FORMULA_KINDS,
    Formula,
    GlobalCountOver,
    GlobalMajority,
    Implies,
    MAX_FORMULA_DEPTH,
    NeighborCountOver,
    NeighborMajority,
    Not,
    Or,
    WeakGlobalMajority,
    WeakNeighborMajority,
    _check_depth,
    _children,
    _compile,
    _prepared,
    _program,
    _tokenize,
    _too_deep,
    expand,
)

from conftest import colored_graphs, graphs, model_from_sets, node_atoms


def triangle_model(colors="RRR"):
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    return model_from_colored_graph(ColoredGraph(g, coloring_from_string(colors)))


def test_parse_weak_opposition_conjunct():
    f = parse_formula("p & W ~p")
    assert f == And(Atom("p"), WeakNeighborMajority(Not(Atom("p"))))


def test_parse_strict_illusion_conjunct():
    f = parse_formula("GM p & M ~p")
    assert f == And(GlobalMajority(Atom("p")), NeighborMajority(Not(Atom("p"))))


def test_parse_counting_operators():
    assert parse_formula("<>2 p") == NeighborCountOver(2, Atom("p"))
    assert parse_formula("E_3 q") == GlobalCountOver(3, Atom("q"))


def test_parse_precedence():
    f = parse_formula("~p & q | r -> s")
    assert f == parse_formula("(((~p) & q) | r) -> s")


def test_parse_arrow_right_associative():
    assert parse_formula("p -> q -> r") == parse_formula("p -> (q -> r)")


@pytest.mark.parametrize(
    "text",
    ["(p", "p)", "<>x p", "<> p", "E_x p", "p @ q", "", "p q"],
)
def test_parse_errors_carry_positions(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.position >= 0


_LONG_RUN = "9" * 5000  # beyond int's default digit limit of 4300


@pytest.mark.parametrize(
    "text, position",
    [(f"<>{_LONG_RUN} p", 2), (f"E_{_LONG_RUN} p", 2), (f"p & <>{_LONG_RUN} p", 6),
     (f"p | E_{_LONG_RUN} p", 6)],
    ids=["<>", "E_", "p & <>", "p | E_"],
)
def test_a_counting_index_int_cannot_read_is_a_syntax_error_at_the_index(text, position):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert str(err.value) == f"counting index of 5000 digits is too long (at position {position})"
    assert err.value.position == position


def formula_trees(atoms, bounds):
    return st.recursive(
        st.sampled_from([Atom(a) for a in atoms]),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            sub.map(WeakNeighborMajority),
            sub.map(NeighborMajority),
            sub.map(WeakGlobalMajority),
            sub.map(GlobalMajority),
            st.tuples(bounds, sub).map(lambda t: NeighborCountOver(*t)),
            st.tuples(bounds, sub).map(lambda t: GlobalCountOver(*t)),
        ),
        max_leaves=12,
    )


formulas = formula_trees("pq", st.integers(0, 3))


@given(formulas)
def test_printer_parser_round_trip(f):
    assert expand(parse_formula(format_formula(f))) == expand(f)


_CORE = {Atom, Not, Or, NeighborCountOver, WeakNeighborMajority, GlobalCountOver, WeakGlobalMajority}


def _formula_classes(cls=Formula):
    for sub in cls.__subclasses__():
        yield sub
        yield from _formula_classes(sub)


def _operands(node):
    values = (getattr(node, field.name) for field in dataclasses.fields(node))
    return [v for v in values if isinstance(v, Formula)]


@pytest.mark.parametrize("cls", list(_formula_classes()), ids=lambda cls: cls.__name__)
def test_every_operator_walks_its_fields_and_expands_to_core(cls):
    """One node of each Formula subclass: ``_children`` gives its formula
    fields in order, its expansion holds core nodes only, and it survives
    the printer.  A new operator fails here until both walks know it."""
    operands = iter([Atom("p"), Not(Atom("q"))])
    values = [
        {"int": 2, "str": "r"}.get(field.type) or next(operands)
        for field in dataclasses.fields(cls)
    ]
    f = cls(*values)
    assert _children(f) == tuple(v for v in values if isinstance(v, Formula))
    level = [expand(f)]
    while level:
        assert {type(node) for node in level} <= _CORE
        level = [c for node in level for c in _operands(node)]
    assert expand(parse_formula(format_formula(f))) == expand(f)


def test_globally_balanced_split_satisfies_both_weak_bounds():
    g = complete_graph(4)
    model = model_from_colored_graph(
        ColoredGraph(g, coloring_from_string("RRBB"))
    )
    f = parse_formula("GW p & GW ~p")
    assert all(model_check(model, i, f) for i in range(4))


def test_neighbor_count_thresholds():
    model = triangle_model("RRR")
    assert model_check(model, 0, parse_formula("<>1 p"))
    assert not model_check(model, 0, parse_formula("<>2 p"))


def test_global_count_thresholds():
    model = triangle_model("RRB")
    assert model_check(model, 0, parse_formula("E_1 p"))
    assert not model_check(model, 0, parse_formula("E_2 p"))


@given(colored_graphs(max_n=7))
def test_pigeonhole_weak_majority_validity(cg):
    model = model_from_colored_graph(cg)
    f = parse_formula("W p | W ~p")
    assert extension(model, f) == frozenset(range(cg.graph.n))


@pytest.mark.filterwarnings("ignore::majority_illusion.UnknownAtomWarning")
@settings(max_examples=50)
@given(colored_graphs(max_n=6), formulas)
def test_duality_of_majority_operators(cg, body):
    model = model_from_colored_graph(cg)
    assert extension(model, NeighborMajority(body)) == extension(
        model, Not(WeakNeighborMajority(Not(body)))
    )
    assert extension(model, GlobalMajority(body)) == extension(
        model, Not(WeakGlobalMajority(Not(body)))
    )


@settings(max_examples=50)
@given(colored_graphs(max_n=6), st.integers(0, 4))
def test_count_modalities_are_monotone_in_the_index(cg, bound):
    model = model_from_colored_graph(cg)
    p = Atom("p")
    assert extension(model, NeighborCountOver(bound + 1, p)) <= extension(
        model, NeighborCountOver(bound, p)
    )
    assert extension(model, GlobalCountOver(bound + 1, p)) <= extension(
        model, GlobalCountOver(bound, p)
    )


def test_agent_formula_shapes():
    strict = illusion_formula(AGENT_MAJORITY_ILLUSION)
    p = Atom("p")
    assert strict == Or(
        And(GlobalMajority(p), NeighborMajority(Not(p))),
        And(GlobalMajority(Not(p)), NeighborMajority(p)),
    )
    assert illusion_formula(IllusionKind.MAJORITY_MAJORITY) == GlobalMajority(strict)
    assert illusion_formula(IllusionKind.WEAK_MAJORITY_MAJORITY) == WeakGlobalMajority(
        strict
    )
    weak = illusion_formula(AGENT_WEAK_MAJORITY_ILLUSION)
    assert illusion_formula(IllusionKind.MAJORITY_WEAK_MAJORITY) == GlobalMajority(weak)


def test_unknown_formula_kind_rejected():
    with pytest.raises(PreconditionError, match="unknown formula kind"):
        illusion_formula("sideways-majority")


def test_contradiction_is_never_possible():
    assert not formula_possible(cycle_graph(4), parse_formula("p & ~p"))


def test_weak_majority_majority_unreachable_on_odd_cycle():
    f = illusion_formula(IllusionKind.WEAK_MAJORITY_MAJORITY)
    assert not formula_possible(cycle_graph(5), f)


def test_majority_weak_majority_reachable_on_samples():
    f = illusion_formula(IllusionKind.MAJORITY_WEAK_MAJORITY)
    for g in (cycle_graph(4), cycle_graph(5), complete_graph(4)):
        assert formula_possible(g, f)


def test_satisfiability_searches_over_the_formulas_one_atom_whatever_its_name():
    for g in (cycle_graph(5), complete_graph(4), cycle_graph(8)):
        for text in ("W {} & ~{}", "GM {} & M ~{}", "{} & ~{}"):
            f_p, f_q = (parse_formula(text.replace("{}", a)) for a in "pq")
            assert formula_possible(g, f_q) == formula_possible(g, f_p)
    assert formula_possible(cycle_graph(5), parse_formula("W q & ~q"))


def test_multi_atom_satisfiability_rejected():
    with pytest.raises(PreconditionError, match="single-atom"):
        formula_possible(cycle_graph(4), parse_formula("p | q"))


def test_satisfiability_cap():
    with pytest.raises(PreconditionError, match="cap"):
        formula_possible(cycle_graph(6), Atom("p"), cap=5)


def test_satisfiability_rejects_graphs_wider_than_the_masks():
    with pytest.raises(PreconditionError, match="32-bit"):
        formula_possible(make_graph(33, []), Atom("p"), cap=40)


def extension_bitsets_reference(g, f, masks=None):
    """Node bitset of ``f``'s extension under each valuation of ``p`` (or
    each of ``masks``), one frozenset valuation at a time."""
    only, none = frozenset({"p"}), frozenset()
    out = []
    for mask in range(1 << g.n) if masks is None else masks:
        valuation = tuple(only if mask >> i & 1 else none for i in range(g.n))
        sat = extension(model_from_sets(g, valuation, extra_atoms="p"), f)
        out.append(sum(1 << i for i in sat))
    return out


# bounds at 0, at every degree and node count, and past uint8
_huge_bounds = st.sampled_from([255, 256, 10**30])
_single_atom_formulas = [
    formula_trees("p", st.one_of(st.integers(0, n), _huge_bounds)) for n in range(9)
]


@st.composite
def graphs_and_single_atom_formulas(draw):
    g = draw(graphs(max_n=8, min_n=0))
    return g, draw(_single_atom_formulas[g.n])


@settings(max_examples=150, deadline=None)
@given(graphs_and_single_atom_formulas())
def test_bitset_kernel_matches_frozenset_extension(case):
    g, f = case
    expected = extension_bitsets_reference(g, f)
    masks = np.arange(1 << g.n, dtype=np.uint32)
    assert _compile(g, _program(expand(f)))(masks).tolist() == expected
    assert formula_possible(g, f) == any(expected)


@settings(max_examples=100, deadline=None)
@given(graphs_and_single_atom_formulas(), st.data())
def test_bitset_kernel_counts_per_node_on_a_strict_slice_of_the_valuations(case, data):
    """A chunk short of every valuation builds no threshold table: each
    counting step counts its own argument, node by node."""
    g, f = case
    lo = data.draw(st.integers(0, (1 << g.n) - 1))
    hi = data.draw(st.integers(lo, (1 << g.n) - (lo == 0)))
    masks = np.arange(lo, hi, dtype=np.uint32)
    expected = extension_bitsets_reference(g, f, masks.tolist())
    assert _compile(g, _program(expand(f)))(masks).tolist() == expected


def test_bitset_satisfiability_on_isolated_nodes_and_huge_bounds():
    g = make_graph(4, [(0, 1)])  # nodes 2 and 3 are isolated
    for text in ("W p & ~p", "<>0 p & ~p", "E_3 p & ~E_4 p", f"<>{10**30} p"):
        f = parse_formula(text)
        assert formula_possible(g, f) == any(extension_bitsets_reference(g, f))


def _nested(depth, wrap):
    f = Atom("p")
    for _ in range(depth - 1):
        f = wrap(f)
    return f


@pytest.mark.parametrize(
    "text",
    [
        " | ".join(["p"] * 3000),
        " -> ".join(["p"] * 3000),
        "~" * 1000 + "p",
        "(" * 1000 + "p" + ")" * 1000,
    ],
)
def test_parse_rejects_deep_nesting(text):
    with pytest.raises(PreconditionError, match="nested too deep"):
        parse_formula(text)


@pytest.mark.parametrize("wrap", [Not, NeighborMajority, lambda f: And(f, Atom("p"))])
def test_depth_limit_is_exact_at_every_entry_point(wrap):
    model = triangle_model("RRB")
    ok = _nested(MAX_FORMULA_DEPTH, wrap)
    assert parse_formula(format_formula(ok)) == ok
    extension(model, ok)
    formula_possible(model.graph, ok)
    deep = wrap(ok)
    # the text of ``deep``: ``ok``'s text in place of the atom of ``wrap(x)``
    text = format_formula(wrap(Atom("x"))).replace("x", format_formula(ok))
    for call in (
        lambda: format_formula(deep),
        lambda: parse_formula(text),
        lambda: extension(model, deep),
        lambda: formula_possible(model.graph, deep),
    ):
        with pytest.raises(PreconditionError, match="nested too deep"):
            call()


def test_formula_errors_are_raised_on_every_call():
    """Programs are cached per formula, but the checks are not: a formula
    far too deep to hash is rejected before any cache sees it, each time,
    and a second atom is rejected by every search."""
    model = triangle_model("RRB")
    very_deep = _nested(50 * MAX_FORMULA_DEPTH, Not)
    two_atoms = parse_formula("p | q")
    for _ in range(2):
        with pytest.raises(PreconditionError, match="nested too deep"):
            format_formula(very_deep)
        with pytest.raises(PreconditionError, match="nested too deep"):
            extension(model, very_deep)
        with pytest.raises(PreconditionError, match="nested too deep"):
            formula_possible(model.graph, very_deep)
        with pytest.raises(PreconditionError, match=r"formula uses \['p', 'q'\]"):
            formula_possible(model.graph, two_atoms)


def _reference_depth(f):
    return 1 + max(map(_reference_depth, _operands(f)), default=0)


@st.composite
def _shared_trees(draw):
    """A formula that reuses subformula objects: each level puts the last
    one under an operator, beside itself or an earlier level."""
    levels = [draw(formulas)]
    for _ in range(draw(st.integers(1, 8))):
        last, other = levels[-1], draw(st.sampled_from(levels))
        levels.append(draw(st.sampled_from([
            Or(last, other), And(other, last), Implies(last, last), Not(last),
            NeighborCountOver(1, last), GlobalMajority(last),
        ])))
    return levels[-1]


@given(st.one_of(formulas, _shared_trees()))
def test_every_node_stores_its_depth(f):
    nodes, stack = {}, [f]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(_operands(node))
    for node in nodes.values():
        assert node.depth == _reference_depth(node)


@pytest.mark.parametrize("kind", FORMULA_KINDS)
def test_a_formula_is_walked_on_its_first_evaluation_only(monkeypatch, kind):
    """The depth check reads the stored depth and the program is kept on
    the formula, so a second call walks no node."""
    model = triangle_model("RRB")
    f = parse_formula(format_formula(illusion_formula(kind)))  # a fresh object
    walked = []
    children = logic._children
    monkeypatch.setattr(logic, "_children", lambda node: walked.append(node) or children(node))
    extension(model, f)
    assert walked
    walked.clear()
    extension(model, f)
    formula_possible(model.graph, f)
    assert walked == []


@pytest.mark.parametrize("value", ["p", None, 3, (Atom("p"),)])
@pytest.mark.parametrize(
    "call",
    [lambda f: extension(triangle_model(), f), lambda f: formula_possible(cycle_graph(5), f),
     format_formula],
    ids=["extension", "formula_possible", "format_formula"],
)
def test_a_value_that_is_no_formula_is_a_type_error(call, value):
    with pytest.raises(TypeError, match="unknown formula node"):
        call(value)


def test_unknown_atom_warns_and_is_false():
    model = triangle_model()
    with pytest.warns(UnknownAtomWarning):
        assert not model_check(model, 0, Atom("mystery"))


def test_model_requires_total_valuation():
    with pytest.raises(PreconditionError, match="valuation of atom 'q' has shape"):
        Model(cycle_graph(4), {"p": np.zeros(4, dtype=bool), "q": np.zeros(3, dtype=bool)})


def test_model_columns_are_read_only_and_shared_with_a_colored_graph():
    cg = ColoredGraph(cycle_graph(4), coloring_from_string("RRBB"))
    assert model_from_colored_graph(cg).valuation["p"] is cg.red
    writable = np.array([True, False, True, False])
    model = Model(cg.graph, {"q": writable, "r": [0, 2, 0, 1]})
    column = model.valuation["q"]
    assert column is not writable and not column.flags.writeable
    writable[1] = True
    assert column.tolist() == [True, False, True, False]
    assert model.valuation["r"].tolist() == [False, True, False, True]
    with pytest.raises(ValueError):
        column[0] = False
    with pytest.raises(TypeError):
        model.valuation["q"] = cg.red


def test_weak_opposition_formula_on_balanced_neighborhood():
    path = make_graph(3, [(0, 1), (1, 2)])
    model = model_from_colored_graph(ColoredGraph(path, (Color.RED, Color.RED, Color.BLUE)))
    f = illusion_formula(AGENT_WEAK_MAJORITY_OPPOSITION)
    # node 1 is red and sees one red, one blue: at least half disagree
    assert model_check(model, 1, f)
    assert not model_check(model, 0, f)


# --- references: the recursive evaluator, parser and printer that the shared
# program walk and the operator table replaced, kept as they were -----------


class ReferenceEvaluator:
    def __init__(self, model):
        self.model = model
        self.all_nodes = frozenset(range(model.graph.n))
        self.known = set(model.valuation)
        self.sets = node_atoms(model)
        self.memo = {}
        self.warned = set()

    def extension(self, f):
        cached = self.memo.get(f)
        if cached is not None:
            return cached
        result = self._compute(f)
        self.memo[f] = result
        return result

    def _compute(self, f):
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
                i for i in self.all_nodes if f.name in self.sets[i]
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


_KEYWORDS = {"W", "M", "GW", "GM"}


class ReferenceParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def parse(self):
        f = self.parse_implies()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return f

    def parse_implies(self):
        operands = [self.parse_or()]
        while (tok := self.peek()) is not None and tok.kind == "arrow":
            self.take()
            operands.append(self.parse_or())
        f = operands.pop()
        while operands:
            f = Implies(operands.pop(), f)
        return f

    def parse_or(self):
        f = self.parse_and()
        while (tok := self.peek()) is not None and tok.kind == "pipe":
            self.take()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unary()
        while (tok := self.peek()) is not None and tok.kind == "amp":
            self.take()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        if self.depth == MAX_FORMULA_DEPTH:
            raise _too_deep()
        self.depth += 1
        f = self.parse_prefixed()
        self.depth -= 1
        return f

    def parse_prefixed(self):
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

    def take_index(self, opener_pos):
        tok = self.peek()
        if tok is None or tok.kind != "number":
            raise FormulaSyntaxError("malformed counting index after '<>'", opener_pos)
        self.take()
        return int(tok.text)

    def parse_primary(self):
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


def reference_format(f):
    def render(node, level):
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


def _outcome(parse, text):
    """The parse result, or the error's type, message and position."""
    try:
        return parse(text)
    except (FormulaSyntaxError, PreconditionError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _reference_parse(text):
    f = ReferenceParser(text).parse()
    _check_depth(f)
    return f


_soup_tokens = st.sampled_from(
    ["p", "q", "W", "M", "GW", "GM", "E_", "E_2", "E_x", "E_0 ", "<>", "<>1 ", "<> x",
     "~", "&", "|", "->", "(", ")", "3", "@", "-", ">", " "]
)
_soups = st.one_of(
    st.lists(st.tuples(_soup_tokens, st.sampled_from(["", " "])).map("".join),
             max_size=14).map("".join),
    formula_trees("pq", st.integers(0, 12)).map(reference_format),
    st.lists(st.tuples(st.sampled_from(["p", "q", "~p", "(p", "q)", "(", ")", "W p"]),
                       st.sampled_from([" -> ", " & ", " | "])).map("".join),
             max_size=8).map(lambda chain: "".join(chain) + "p"),
)


@settings(max_examples=1000, deadline=None)
@given(_soups)
def test_parser_matches_the_reference_on_token_soups(text):
    assert _outcome(parse_formula, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH - 1, MAX_FORMULA_DEPTH,
                                   MAX_FORMULA_DEPTH + 1])
@pytest.mark.parametrize("shape", ["({})", "~{}", "W {}", "<>2 {}", "E_1 {}", "p -> {}",
                                   "{} & p", "p | ({})"])
def test_parser_matches_the_reference_at_the_depth_limit(depth, shape):
    text = "p"
    for _ in range(depth):
        text = shape.format(text)
    assert _outcome(parse_formula, text) == _outcome(_reference_parse, text)


_p, _q = Atom("p"), Atom("q")
# chains of each connective on both sides, at the top and nested
_chains = Implies(
    Implies(_p, _q),
    Implies(Or(Or(_p, _q), Or(_p, _q)), Or(And(And(_p, _q), And(_p, _q)), Not(_q))),
)


@settings(max_examples=500, deadline=None)
@given(formula_trees("pq", st.integers(0, 12)))
@example(_chains)
def test_printer_matches_the_reference(f):
    assert format_formula(f) == reference_format(f)


def _warned(evaluate):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate()
    return result, [str(w.message) for w in caught]


_valuations = st.sampled_from(
    [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
)


# p and q may be in the model; r and s never are
_formulas_over_pqrs = [formula_trees("pqrs", st.integers(0, n + 1)) for n in range(9)]


@st.composite
def models_and_formulas(draw):
    g = draw(graphs(max_n=8, min_n=0))
    valuation = tuple(draw(_valuations) for _ in range(g.n))
    extra = draw(st.sampled_from(["", "pq"]))
    f = draw(_formulas_over_pqrs[g.n])
    return model_from_sets(g, valuation, extra), f


@settings(max_examples=500, deadline=None)
@given(models_and_formulas())
def test_program_walk_matches_the_recursive_evaluator(case):
    model, f = case
    assert _warned(lambda: extension(model, f)) == _warned(
        lambda: ReferenceEvaluator(model).extension(expand(f))
    )


def test_unknown_atoms_warn_left_to_right_and_at_the_caller():
    """On every call, also once the formula's program is cached."""
    model = triangle_model()
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            extension(model, parse_formula("q | r | ~r"))
        assert [str(w.message) for w in caught] == [
            "atom 'q' is not part of the model; treated as false",
            "atom 'r' is not part of the model; treated as false",
        ]
        assert {w.filename for w in caught} == {__file__}


def test_each_expanded_formula_builds_one_program_of_tuples():
    f = illusion_formula(IllusionKind.MAJORITY_WEAK_MAJORITY)
    program, atoms = _prepared(f)
    assert _prepared(f)[0] is program
    assert _prepared(parse_formula(format_formula(f)))[0] == program
    assert isinstance(program, tuple)
    assert all(isinstance(step, tuple) for step in program)
    assert atoms == ("p",)


def test_program_keeps_subformulas_apart_by_their_bound():
    """``<>0 p`` and ``<>1 p`` read the same child: the program keeps them
    as two steps, which a key without the bound would merge."""
    f = parse_formula("<>0 p & ~<>1 p")
    model = model_from_colored_graph(ColoredGraph(cycle_graph(5), coloring_from_string("RRBBB")))
    # nodes 0 and 1 are red: 0, 1, 2 and 4 see a red neighbour, and none sees two
    assert extension(model, f) == {0, 1, 2, 4}
    bounds = [node.bound for node, _, _ in _program(expand(f)) if isinstance(node, NeighborCountOver)]
    assert sorted(bounds) == [0, 1]
    # and the satisfiability scan reads them from two threshold tables
    masks = np.arange(1 << 5, dtype=np.uint32)
    assert _compile(cycle_graph(5), _program(expand(f)))(masks).tolist() == (
        extension_bitsets_reference(cycle_graph(5), f)
    )


@pytest.mark.parametrize(
    "kind, steps",
    [(IllusionKind.MAJORITY_MAJORITY, 14), (IllusionKind.MAJORITY_WEAK_MAJORITY, 24)],
)
def test_programs_fold_double_negations(kind, steps):
    """The expansions of ``&``, ``M`` and ``GM`` make ``~~a``; no program
    step negates a negation (23 and 33 steps unfolded)."""
    program = _prepared(illusion_formula(kind))[0]
    assert len(program) == steps
    negations = [j for j, (node, _, _) in enumerate(program) if isinstance(node, Not)]
    assert not any(program[j][1][0] in negations for j in negations)


@pytest.mark.parametrize(
    "text, steps",
    [
        ("~~p", [(Atom, ())]),
        ("~~~p", [(Atom, ()), (Not, (0,))]),
        ("~~~~(p | ~~p)", [(Atom, ()), (Or, (0, 0))]),
    ],
)
def test_double_negations_fold_down_to_the_core(text, steps):
    program = _program(expand(parse_formula(text)))
    assert [(type(node), kids) for node, kids, _ in program] == steps


# --- the frozenset table the boolean columns replaced, kept verbatim -------


def _frozensets(
    node: Formula, args: list[frozenset[int]], model: Model, all_nodes: frozenset[int]
) -> frozenset[int]:
    """Extension of ``node`` in ``model`` as a node set, given its
    children's extensions ``args``."""
    g = model.graph
    if isinstance(node, Atom):
        sets = node_atoms(model)
        return frozenset(i for i in all_nodes if node.name in sets[i])
    if isinstance(node, Not):
        return all_nodes - args[0]
    if isinstance(node, Or):
        return args[0] | args[1]
    if isinstance(node, NeighborCountOver):
        return frozenset(i for i in all_nodes if len(g.adj[i] & args[0]) > node.bound)
    if isinstance(node, WeakNeighborMajority):
        return frozenset(
            i for i in all_nodes if 2 * len(g.adj[i] & args[0]) >= g.degree(i)
        )
    if isinstance(node, GlobalCountOver):
        return all_nodes if len(args[0]) > node.bound else frozenset()
    if isinstance(node, WeakGlobalMajority):
        return all_nodes if 2 * len(args[0]) >= g.n else frozenset()
    raise TypeError(f"evaluation reached unexpanded node {node!r}")


def every_subformula(model, f):
    """The node set of each of ``f``'s distinct subformulas, in program
    order, from :func:`extension` on each and from the frozenset table."""
    all_nodes = frozenset(range(model.graph.n))
    program = _program(expand(f))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownAtomWarning)
        columns = [extension(model, node) for node, _, _ in program]
    sets: list = []
    for node, kids, _ in program:
        sets.append(_frozensets(node, [sets[k] for k in kids], model, all_nodes))
    return columns, sets


_atom_sets = st.sets(st.sampled_from("pqr")).map(frozenset)
# bounds at 0, at every degree and node count, past uint8 and past int64
_bounds_up_to = [
    st.one_of(st.integers(0, n + 1), st.sampled_from([255, 2**63, 2**64, 10**30]))
    for n in range(13)
]
# p, q and r may hold somewhere; s never does.  An atom that holds nowhere
# is unknown unless the model has it as an extra, all-false column
_formulas_up_to = [formula_trees("pqrs", bounds) for bounds in _bounds_up_to]


def every_operator(f, bound):
    """``f`` under each operator, joined by ``|``: every operator meets
    every drawn formula, whatever its shape."""
    q = Atom("q")
    return functools.reduce(Or, [
        f, Not(f), And(f, q), Implies(f, q), NeighborCountOver(bound, f),
        WeakNeighborMajority(f), NeighborMajority(f), GlobalCountOver(bound, f),
        WeakGlobalMajority(f), GlobalMajority(f),
    ])


@st.composite
def multi_atom_models_and_formulas(draw):
    g = draw(graphs(max_n=12, min_n=0))
    valuation = tuple(draw(_atom_sets) for _ in range(g.n))
    extra = draw(st.sampled_from(["", "pqr"]))
    f = draw(_formulas_up_to[g.n])
    return model_from_sets(g, valuation, extra), every_operator(f, draw(_bounds_up_to[g.n]))


@settings(max_examples=400, deadline=None)
@given(multi_atom_models_and_formulas())
def test_columns_match_the_frozenset_table_and_the_recursive_evaluator(case):
    """The boolean node columns give the node set of every subformula of
    the frozenset table, and the extension and warnings of the recursive
    evaluator, on graphs of 0-12 nodes (isolated nodes included),
    valuations of several atoms, unknown atoms and every operator; they
    build no adjacency sets."""
    model, f = case
    got = _warned(lambda: extension(model, f))
    assert "adj" not in model.graph.__dict__
    columns, sets = every_subformula(model, f)
    assert columns == sets
    assert got == _warned(lambda: ReferenceEvaluator(model).extension(expand(f)))


def _witnesses():
    """Construct witnesses on every construction path, with their coloring,
    its swap, and one random coloring of the same graph; each on its own
    copy of the graph, with no adjacency sets built."""
    rng = random.Random(11)
    for cg in (
        construct_regular_illusion(16, 8),  # bridge and pairings
        construct_regular_illusion(12, 6),  # circulants only
        construct_regular_illusion(45, 6),
        construct_regular_illusion(296, 11),  # both circulants short, bridge
        fast_construct(10, 6),
        fast_construct(30, 20),
    ):
        swapped = tuple(Color.BLUE if c is Color.RED else Color.RED for c in cg.colors)
        for colors in (cg.colors, swapped, random_coloring(cg.graph.n, rng)):
            g = cg.graph
            yield ColoredGraph(Graph(g.n, g.indptr.copy(), g.indices.copy()), colors)


@pytest.mark.parametrize("kind", FORMULA_KINDS)
def test_columns_match_the_frozenset_table_on_construct_witnesses(kind):
    f = illusion_formula(kind)
    for cg in _witnesses():
        model = model_from_colored_graph(cg)
        got = extension(model, f)
        assert "adj" not in cg.graph.__dict__
        columns, sets = every_subformula(model, f)
        assert columns == sets
        assert got == sets[-1]


def test_model_checking_a_parsed_graph_leaves_the_adjacency_sets_unbuilt():
    cg = construct_regular_illusion(60, 9)
    graph, colors = parse_graph_text(write_graph(cg.graph, cg.colors))
    model = model_from_colored_graph(ColoredGraph(graph, colors))
    for kind in FORMULA_KINDS:
        extension(model, illusion_formula(kind))
    assert model_check(model, 3, parse_formula("<>2 p | E_3 W ~p"))
    assert "adj" not in graph.__dict__
