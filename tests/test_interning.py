"""Hash-consed expression nodes: every structurally distinct node exists
once while something holds it, and its weight and valuation bound, cached
on first use, equal what the recursive oracle in expr_oracle computes from
scratch.  Products and powers of eta atoms are built as one eta atom."""

import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expr_oracle as oracle
from qmodular import expr, levels
from qmodular.cli import parse_expr
from qmodular.expr import (
    DeltaRef,
    EisensteinAtom,
    EtaAtom,
    GeneratorRef,
    HalfTwist,
    PhiAtom,
    Power,
    Product,
    Scalar,
    Sum,
    WpAtom,
    WptAtom,
    print_expr,
    val_lower,
    weight,
)
from qmodular.identities import REGISTRY as IDENTITIES
from qmodular.levels import basis_skeleton, dimension, expand_expr

from test_cli import random_tree
from test_eta import naive_eta_map
from test_qseries import series_coeff_map

SPACES = [
    (n, w) for n in range(1, 11) for w in range(2, 25, 2) if dimension(n, w) > 0
]


def assert_facts_match_the_oracle(e):
    for x in oracle.subtrees(e):
        assert weight(x) == oracle.weight(x), x
        assert val_lower(x) == oracle.val_lower(x), x
        # a second read answers from the node and does not change
        assert weight(x) == oracle.weight(x) and val_lower(x) == oracle.val_lower(x), x


def test_registry_rows_match_the_oracle():
    for row in levels._REGISTRY.values():
        for e in row:
            assert_facts_match_the_oracle(e)


def test_identity_sides_match_the_oracle():
    assert len(IDENTITIES) == 37
    for case in IDENTITIES.values():
        assert_facts_match_the_oracle(case.lhs)
        assert_facts_match_the_oracle(case.rhs)


def test_basis_skeletons_match_the_oracle():
    for n, w in SPACES:
        for e in basis_skeleton(n, w):
            assert_facts_match_the_oracle(e)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 4, 6, 12]), st.integers(0, 3))
def test_random_trees_match_the_oracle(rng, w, depth):
    e = random_tree(rng, w, depth)
    assert_facts_match_the_oracle(e)
    assert weight(e) == w


def test_equal_parses_are_one_node():
    for src in [
        "E(2,7,0)^3 + 3/2*E(6,7,3)",
        "wp(1/2,0,2)*Delta(4) - 7*wpt(0,1/2,5)^2",
        "E4^2*E6",
        # a one-term sum with a negative coefficient prints in parentheses
        # inside a sum term or after a coefficient
        "2*(-3*E4)",
        "E4 + (-E4)",
        "E4 - (-3*E4)",
    ]:
        assert parse_expr(src) is parse_expr(src)
        assert parse_expr(src) is parse_expr(print_expr(parse_expr(src)))


def test_numeric_parses_are_the_nodes_they_were():
    # a literal stays a Fraction inside the parser; the tree it ends up in
    # is the one the parser built when every literal was a Scalar node
    e4 = EisensteinAtom(4)
    assert parse_expr("(3)") is Scalar(3)
    assert parse_expr("2^3") is Scalar(8)
    assert parse_expr("-(2/3)^2*(3)") is Scalar(Fraction(-4, 3))
    assert parse_expr("-1/2*E4") is Sum([(Fraction(-1, 2), e4)])
    assert parse_expr("(2)*E4*1/2") is e4
    assert parse_expr("2 + 3") is Sum([(2, Scalar(1)), (3, Scalar(1))])
    assert parse_expr("(1 - 1)*E4") is Product([Sum([(1, Scalar(1)), (-1, Scalar(1))]), e4])
    assert parse_expr("twist(3)") is HalfTwist(Scalar(3))
    assert parse_expr("twist((1/2)^2*E4)") is HalfTwist(Sum([(Fraction(1, 4), e4)]))


def test_coefficient_literals_make_no_scalar_node(monkeypatch):
    made = []
    make = expr._node

    def spy(key):
        made.append(key[0])
        return make(key)

    monkeypatch.setattr(expr, "_node", spy)
    skel = basis_skeleton(7, 12)
    coords = [Fraction((-1) ** s * (s + 1), s % 3 + 2) for s in range(len(skel))]
    parse_expr(print_expr(Sum(list(zip(coords, skel)))))
    parse_expr("(2)*E4^2*(3/5)^2 - 7/3*E(8,1,0) + (-1)*Delta(1)^0*E8")
    assert made and Scalar not in made


@pytest.mark.parametrize("n, w", [(1, 24), (5, 8), (7, 12), (10, 6)])
def test_parsed_basis_elements_are_the_skeleton_nodes(n, w):
    skel = basis_skeleton(n, w)
    coords = [Fraction((-1) ** s * (s + 1), s % 3 + 1) for s in range(len(skel))]
    parsed = parse_expr(print_expr(Sum(list(zip(coords, skel)))))
    assert [c for c, _ in parsed.terms] == coords
    for (_, f), e in zip(parsed.terms, skel):
        assert f is e


def test_skeletons_built_twice_share_their_nodes():
    for n, w in SPACES:
        assert all(a is b for a, b in zip(basis_skeleton(n, w), basis_skeleton(n, w)))


@pytest.mark.parametrize(
    "e",
    [
        levels._REGISTRY[(7, 6)][3],
        IDENTITIES["mod1"].rhs,
        basis_skeleton(10, 8)[-1],
        parse_expr("twist(wpt(1/2,0,1))^2 - 5/3*E(2,10,1)*Delta(10)^0*wp(1,0,2)"),
        parse_expr("E4*(eta(1)*eta(2))^8"),
    ],
)
def test_copies_and_pickles_are_equal_hash_equal_and_expand_alike(e):
    want = expand_expr(e, 9)
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and hash(twin) == hash(e)
        assert twin is e
        assert expand_expr(twin, 9) == want


# ---------------------------------------------------------------------------
# eta quotients fold as their nodes are built
# ---------------------------------------------------------------------------

# A plan of a nesting, built by build_plan: ("eta", m, e) is eta(m)^e,
# ("E4",) is E4, ("pow", plan, n) a power and ("prod", plans) a product.
ETA_LEAVES = st.tuples(st.just("eta"), st.integers(1, 12), st.integers(1, 4))


def plans(depth):
    leaves = st.one_of(ETA_LEAVES, ETA_LEAVES, st.just(("E4",)))
    if depth == 0:
        return leaves
    kids = plans(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.just("pow"), kids, st.integers(1, 3)),
        st.tuples(st.just("prod"), st.lists(kids, min_size=1, max_size=3)),
    )


def build_plan(plan):
    kind = plan[0]
    if kind == "eta":
        return Power(EtaAtom([(plan[1], 1)]), plan[2])
    if kind == "E4":
        return EisensteinAtom(4)
    if kind == "pow":
        return Power(build_plan(plan[1]), plan[2])
    return Product([build_plan(p) for p in plan[1]])


def plan_contents(plan):
    """The eta exponents by multiplier and the number of E4 factors of the
    product a plan stands for, counted without folding anything."""
    kind = plan[0]
    if kind == "eta":
        return Counter({plan[1]: plan[2]}), 0
    if kind == "E4":
        return Counter(), 1
    if kind == "pow":
        etas, e4 = plan_contents(plan[1])
        return Counter({m: e * plan[2] for m, e in etas.items()}), e4 * plan[2]
    etas, e4 = Counter(), 0
    for p in plan[1]:
        more, k = plan_contents(p)
        etas, e4 = etas + more, e4 + k
    return etas, e4


@settings(max_examples=200, deadline=None)
@given(plans(3))
@example(("pow", ("pow", ("eta", 1, 1), 2), 12))
@example(("pow", ("pow", ("pow", ("eta", 1, 3), 1), 2), 4))
@example(("pow", ("prod", [("eta", 1, 1), ("eta", 2, 1)]), 8))
@example(("prod", [("E4",), ("pow", ("eta", 1, 2), 12), ("eta", 23, 1)]))
@example(("prod", [("eta", 12, 1), ("prod", [("E4",), ("eta", 12, 1)])]))
def test_eta_nestings_fold_when_built(plan):
    e = build_plan(plan)
    etas, e4 = plan_contents(plan)
    for x in oracle.subtrees(e):
        if type(x) is Product:
            assert sum(type(f) is EtaAtom for f in x.factors) <= 1, x
        assert type(x) is not Power or type(x.base) is not EtaAtom, x
    assert_facts_match_the_oracle(e)
    assert weight(e) == Fraction(sum(etas.values()), 2) + 4 * e4
    lead = Fraction(sum(m * k for m, k in etas.items()), 24)
    assert val_lower(e) == lead
    if not e4:
        assert e is EtaAtom(list(etas.items()))
        if lead.denominator <= 2:
            prec = lead + 3
            assert series_coeff_map(expand_expr(e, prec)) == naive_eta_map(list(etas.items()), prec)


def test_equality_is_structural_when_a_twin_escapes_the_table():
    """Two threads may build the same new node at once; the two must still
    compare and hash equal and serve each other's cache entries."""
    e = parse_expr("3/4*E(2,5,0)^2 + E(4,5,1)")
    key = e._key
    ref = expr._NODES.pop(key)
    try:
        twin = Sum(list(e.terms))
    finally:
        expr._NODES[key] = ref
    assert twin is not e
    assert twin == e and e == twin and hash(twin) == hash(e)
    assert {e: 1}[twin] == 1
    assert expand_expr(twin, 8) == expand_expr(e, 8)
    assert weight(twin) == weight(e) and val_lower(twin) == val_lower(e)


def test_nodes_are_immutable():
    e = DeltaRef(3)
    with pytest.raises(AttributeError):
        e.level = 4
    with pytest.raises(AttributeError):
        del e.level
    assert e.level == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: GeneratorRef(2.0, 2, 0),
        lambda: GeneratorRef(2, 2.0, 0),
        lambda: GeneratorRef(2, 2, True),
        lambda: GeneratorRef(Fraction(2), 2, 0),
        lambda: DeltaRef(2.0),
        lambda: DeltaRef(True),
        lambda: EisensteinAtom(4.0, 1),
        lambda: EisensteinAtom(4, True),
        lambda: PhiAtom(7.0),
        lambda: PhiAtom(True, "divisor"),
        lambda: WpAtom(1, 0, 2.5),
        lambda: WpAtom(1, 0, 2.0),
        lambda: WptAtom(1, 0, True),
        lambda: WptAtom(1, 0, Fraction(2)),
    ],
)
def test_integer_fields_reject_non_ints(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [Sum, Product])
@pytest.mark.parametrize("empty", [(), []])
def test_empty_sums_and_products_fail_when_built(make, empty):
    with pytest.raises(ValueError, match="^empty"):
        make(empty)


@pytest.mark.parametrize(
    "make",
    [lambda x: Sum([(1, x)]), lambda x: Product([DeltaRef(2), x]), lambda x: Power(x, 2), HalfTwist],
    ids=["Sum", "Product", "Power", "HalfTwist"],
)
def test_a_child_that_is_not_a_node_is_rejected(make):
    with pytest.raises(TypeError, match="^.* 4 is not a FormExpr$"):
        make(4)


@pytest.mark.parametrize("exponent", [True, False, 2.0, Fraction(2), -1])
def test_power_exponent_rejects_non_ints(exponent):
    with pytest.raises(ValueError):
        Power(DeltaRef(2), exponent)
