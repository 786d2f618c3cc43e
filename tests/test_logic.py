import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majority_illusion import (
    Color,
    ColoredGraph,
    FormulaSyntaxError,
    IllusionKind,
    Model,
    PreconditionError,
    UnknownAtomWarning,
    coloring_from_string,
    complete_graph,
    cycle_graph,
    extension,
    format_formula,
    formula_possible,
    illusion_formula,
    make_graph,
    model_check,
    model_from_colored_graph,
    parse_formula,
)
from majority_illusion.logic import (
    AGENT_MAJORITY_ILLUSION,
    AGENT_WEAK_MAJORITY_ILLUSION,
    AGENT_WEAK_MAJORITY_OPPOSITION,
    And,
    Atom,
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
    _compile,
    expand,
)

from conftest import colored_graphs, graphs


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


def test_multi_atom_satisfiability_rejected():
    with pytest.raises(PreconditionError, match="single-atom"):
        formula_possible(cycle_graph(4), parse_formula("p | q"))


def test_satisfiability_cap():
    with pytest.raises(PreconditionError, match="cap"):
        formula_possible(cycle_graph(6), Atom("p"), cap=5)


def test_satisfiability_rejects_graphs_wider_than_the_masks():
    with pytest.raises(PreconditionError, match="32-bit"):
        formula_possible(make_graph(33, []), Atom("p"), cap=40)


def extension_bitsets_reference(g, f):
    """Node bitset of ``f``'s extension under each valuation of ``p``, one
    frozenset model at a time."""
    only, none = frozenset({"p"}), frozenset()
    out = []
    for mask in range(1 << g.n):
        valuation = tuple(only if mask >> i & 1 else none for i in range(g.n))
        sat = extension(Model(g, valuation, atoms=frozenset({"p"})), f)
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
    assert _compile(g, expand(f))(masks).tolist() == expected
    assert formula_possible(g, f) == any(expected)


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
    for call in (
        lambda: parse_formula(format_formula(deep)),
        lambda: extension(model, deep),
        lambda: formula_possible(model.graph, deep),
    ):
        with pytest.raises(PreconditionError, match="nested too deep"):
            call()


def test_unknown_atom_warns_and_is_false():
    model = triangle_model()
    with pytest.warns(UnknownAtomWarning):
        assert not model_check(model, 0, Atom("mystery"))


def test_model_requires_total_valuation():
    with pytest.raises(PreconditionError):
        Model(cycle_graph(4), (frozenset(),) * 3)


def test_weak_opposition_formula_on_balanced_neighborhood():
    path = make_graph(3, [(0, 1), (1, 2)])
    model = model_from_colored_graph(ColoredGraph(path, (Color.RED, Color.RED, Color.BLUE)))
    f = illusion_formula(AGENT_WEAK_MAJORITY_OPPOSITION)
    # node 1 is red and sees one red, one blue: at least half disagree
    assert model_check(model, 1, f)
    assert not model_check(model, 0, f)
