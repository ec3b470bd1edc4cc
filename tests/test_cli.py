"""Command-line interface: the expression grammar, print/parse round-trips,
frozen command outputs, JSON payload shapes, and exit codes."""

import contextlib
import io
import json
import os
import random
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodular import cli, identities, levels
from qmodular.cli import main, parse_expr
from qmodular.errors import ParseError, QModularError
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
    weight,
)
from qmodular.eta import EtaQuotient, level_unit
from qmodular.identities import IdentityCase
from qmodular.levels import basis_skeleton, dimension, expand_expr
from qmodular.qseries import HALF

import parser_oracle


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_atoms():
    assert parse_expr("E4") == EisensteinAtom(4)
    assert parse_expr("Eis(4,5)") == EisensteinAtom(4, 5)
    assert parse_expr("Delta(3)") == DeltaRef(3)
    assert parse_expr("E(4,10,2)") == GeneratorRef(10, 4, 2)
    assert parse_expr("wp(3/2,0,3)") == WpAtom(Fraction(3, 2), 0, 3)
    assert parse_expr("wpt(0,1/2,5)") == WptAtom(0, HALF, 5)
    assert parse_expr("eta(3)") == EtaAtom(EtaQuotient([(3, 1)]))
    assert parse_expr("Phi(7)") == PhiAtom(7)
    assert parse_expr("PhiDiv(7)") == PhiAtom(7, "divisor")
    assert parse_expr("twist(wpt(1/2,0,1))") == HalfTwist(WptAtom(HALF, 0, 1))


def test_parse_arithmetic_shapes():
    assert parse_expr("2^3") == Scalar(8)
    assert parse_expr("-E4") == Sum(((Fraction(-1), EisensteinAtom(4)),))
    assert parse_expr("3/7*E4 - 2*Delta(2)") == Sum(
        (
            (Fraction(3, 7), EisensteinAtom(4)),
            (Fraction(-2), DeltaRef(2)),
        )
    )
    assert parse_expr("(wp(1,0,2) + wp(1,0,3))^2") == Power(
        Sum(
            (
                (Fraction(1), WpAtom(1, 0, 2)),
                (Fraction(1), WpAtom(1, 0, 3)),
            )
        ),
        2,
    )
    assert parse_expr("Delta(2)*E4") == Product((DeltaRef(2), EisensteinAtom(4)))


def test_parse_errors_carry_positions():
    cases = {
        ")": 0,
        "E4 + ": 5,
        "E4 E6": 3,
        "1/0": 3,
        "wp(1,0": 6,
        "twist": 5,
        "twist + E4": 6,
    }
    for src, pos in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert exc.value.position == pos, src


def test_parse_rejects_deep_torsion_offsets():
    with pytest.raises(ParseError):
        parse_expr("wp(1/3,0,3)")
    with pytest.raises(ParseError):
        parse_expr("wpt(0,1/4,5)")


def scanned_tokens(src):
    """The tokens of src as the parser's first lexer found them: rescanning
    from the cursor on every peek."""
    pos, out = 0, []
    while True:
        while pos < len(src) and src[pos].isspace():
            pos += 1
        if pos >= len(src):
            out.append(("eof", "", pos))
            return out
        ch = src[pos]
        j = pos
        if ch.isdecimal():
            while j < len(src) and src[j].isdecimal():
                j += 1
            tok = ("int", src[pos:j], pos)
        elif ch.isalpha():
            while j < len(src) and src[j].isalnum():
                j += 1
            tok = ("name", src[pos:j], pos)
        else:
            tok = ("op", ch, pos)
        out.append(tok)
        pos = tok[2] + len(tok[1])


def test_parse_errors_for_literals_int_refuses():
    # digits that are isdigit but not isdecimal, and a literal longer than
    # int() converts, fail at their position like any other bad token
    long_literal = "7" * 5000
    for src, message in [
        ("Delta(²)", "expected an integer (at position 6)"),
        ("E4^²", "expected an integer (at position 3)"),
        (f"{long_literal}*E4", "integer literal of 5000 digits is too long (at position 0)"),
        (f"E4 + E(4,{long_literal},1)", "integer literal of 5000 digits is too long (at position 9)"),
        (f"E4^{long_literal}", "integer literal of 5000 digits is too long (at position 3)"),
        (f"wp(1/{long_literal},0,2)", "integer literal of 5000 digits is too long (at position 5)"),
    ]:
        assert run("expand", "--expr", src, "--prec", "3") == (2, "", f"error: {message}\n")


# the characters of the mutations: the grammar's, a few it rejects, and
# non-ASCII digits, letters and spaces
ALPHABET = "09aZE_ ()+-*/^,.\t\n\u00b2\u00bd\u00e9\u3000\u0663"
SPACES = [(n, w) for n in range(1, 11) for w in range(2, 25, 2) if dimension(n, w) > 0]

tree_texts = st.builds(
    lambda rng, w: print_expr(random_tree(rng, w, 3)),
    st.randoms(use_true_random=False),
    st.sampled_from([2, 4, 6, 12]),
)


@st.composite
def request_texts(draw):
    """A reduce-session request: a space's basis skeleton with random
    rational coordinates."""
    skeleton = basis_skeleton(*draw(st.sampled_from(SPACES)))
    rng = draw(st.randoms(use_true_random=False))
    coords = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in skeleton]
    return print_expr(Sum(list(zip(coords, skeleton))))


@st.composite
def mutated(draw, texts):
    """A text with one character inserted, deleted or replaced."""
    src = draw(texts)
    k = draw(st.integers(0, len(src)))
    ch = draw(st.sampled_from(ALPHABET + "EDeltaisPhiDvtwp"))
    head, tail = src[:k], src[k + 1 :]
    return draw(st.sampled_from([head + ch + src[k:], head + tail, head + ch + tail]))


# grammar pieces, well-formed or not, to join at random
PIECES = [
    "E(4,10,2)", "E( 2 ,7 ,0 )", "E(2,7,9)", "E(-1,2,3)", "E(4,10)", "E(4/2,10,2)",
    "Delta(3)", "Delta (11)", "Eis(4,5)", "Eis(701,1)", "Eis(4, 1", "Phi(7)", "PhiDiv(1)",
    "eta(3)", "wp(1/2,0,3)", "wpt( - 1 / 2 , 1/2, 5)", "wp(1/0,0,2)", "wp(1/3,1/0,2)",
    "wpt(0,1/4,5)", "twist(", "E4", "E6", "3/4", "1/0", "2", "^2", "^ 10001", "^",
    "+", "-", "*", "/", "(", ")", ",", " ",
]


def parse_outcome(parse, src):
    try:
        return parse(src)
    except QModularError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def check_against_the_oracle(src):
    """parse_expr(src) against the peek/eat_op parser it replaced: the same
    node, or on ASCII sources the same error and position.  Elsewhere a
    letter-like character such as '²' may lex as a name where the oracle
    saw an operator, so only a positioned ParseError is asked."""
    assert parser_oracle._tokenize(src) == scanned_tokens(src)
    expected = parse_outcome(parser_oracle.parse_expr, src)
    got = parse_outcome(parse_expr, src)
    if not isinstance(expected, tuple):
        assert got is expected
    elif expected[0] is ParseError and not src.isascii():
        assert got[0] is ParseError and got[2] is not None, got
    else:
        assert got == expected, src


@pytest.mark.parametrize(
    "sources, examples",
    [
        (st.text(alphabet=ALPHABET, max_size=30), 300),
        (tree_texts, 100),
        (request_texts(), 60),
        (mutated(tree_texts | request_texts()), 100),
        (st.lists(st.sampled_from(PIECES), max_size=6).map("".join), 150),
    ],
    ids=["texts", "trees", "requests", "mutations", "pieces"],
)
def test_parse_matches_the_oracle_parser(sources, examples):
    @settings(max_examples=examples, deadline=None)
    @given(sources)
    def check(src):
        check_against_the_oracle(src)

    check()


def test_parse_matches_the_oracle_parser_on_piece_pairs():
    for a in PIECES:
        for b in PIECES:
            check_against_the_oracle(a + b)


# ---------------------------------------------------------------------------
# print/parse round-trips on random trees
# ---------------------------------------------------------------------------

def eta(m, k=1):
    """eta(m)^k."""
    return Power(EtaAtom(((m, 1),)), k)


ATOM_POOL = {
    2: [
        WpAtom(1, 0, 2),
        WpAtom(Fraction(3, 2), 0, 3),
        WpAtom(2, 0, 5),
        WptAtom(0, HALF, 5),
        WptAtom(1, 0, 2),
        GeneratorRef(10, 2, 1),
        PhiAtom(7),
        PhiAtom(3, "divisor"),
        HalfTwist(WptAtom(HALF, 0, 1)),
        DeltaRef(4),
        DeltaRef(9),
        eta(3, 4),
        Product((eta(1, 3), eta(9))),
    ],
    4: [
        EisensteinAtom(4),
        EisensteinAtom(4, 5),
        DeltaRef(2),
        DeltaRef(10),
        GeneratorRef(10, 4, 3),
        GeneratorRef(5, 4, 1),
        Product((eta(1, 4), eta(2, 4))),
    ],
    6: [
        EisensteinAtom(6),
        DeltaRef(3),
        DeltaRef(7),
        GeneratorRef(7, 6, 3),
        eta(2, 12),
    ],
    8: [EisensteinAtom(8), Product((eta(1, 8), eta(2, 8)))],
    12: [DeltaRef(1), EisensteinAtom(12), eta(1, 24)],
}


def random_tree(rng, w, depth):
    """A random expression of weight w drawn from parseable constructors."""
    choices = ["atom"]
    if depth > 0:
        choices += ["sum", "product", "power"]
    kind = rng.choice(choices)
    if kind == "power" and w in (4, 12):
        base = random_tree(rng, 2 if w == 4 else 6, depth - 1)
        return Power(base, w // weight(base)) if weight(base) else base
    if kind == "product" and w in (4, 6, 12):
        w1 = rng.choice([u for u in (2, 4, 6) if u < w and (w - u) in ATOM_POOL])
        return Product(
            (random_tree(rng, w1, depth - 1), random_tree(rng, w - w1, depth - 1))
        )
    if kind == "sum":
        n = rng.randint(2, 3)
        terms = []
        for _ in range(n):
            c = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 4))
            terms.append((c, random_tree(rng, w, depth - 1)))
        return Sum(tuple(terms))
    return rng.choice(ATOM_POOL[w])


def test_print_parse_round_trip_random_trees():
    rng = random.Random(2024)
    seen = set()
    for _ in range(200):
        w = rng.choice([2, 4, 6, 12])
        t = random_tree(rng, w, 3)
        s = print_expr(t)
        seen.add(s)
        back = parse_expr(s)
        assert print_expr(back) == s, s
        assert weight(back) == weight(t), s
    assert len(seen) > 100  # the generator really does vary


def test_eta_quotients_print_in_the_grammar():
    # a quotient built through the API prints as the product the parser
    # reads back; both expand alike
    for quotient, text in [
        ([(1, 8), (2, 8)], "eta(1)^8*eta(2)^8"),
        ([(1, 24)], "eta(1)^24"),
        ([(9, 1), (1, 3)], "eta(1)^3*eta(9)"),
        ([(1, -8), (2, 16)], "eta(1)^-8*eta(2)^16"),
    ]:
        atom = EtaAtom(EtaQuotient(quotient))
        assert print_expr(atom) == text
        back = parse_expr(text)
        assert print_expr(back) == text and weight(back) == weight(atom)
        assert expand_expr(back, 12) == expand_expr(atom, 12)
    # the empty quotient is the Scalar 1, which prints as the literal
    assert EtaAtom(EtaQuotient([])) is Scalar(1) is parse_expr(print_expr(Scalar(1)))
    # a power of a quotient is the scaled quotient
    product = EtaAtom(EtaQuotient([(1, 4), (2, 4)]))
    assert print_expr(Power(product, 2)) == "eta(1)^8*eta(2)^8"
    assert print_expr(Sum([(-2, product)])) == "-2*eta(1)^4*eta(2)^4"
    # among a product's factors a quotient prints without parentheses, and
    # the parser merges its factors back into the one atom
    assert print_expr(Product((EisensteinAtom(4), EtaAtom([(1, 24)])))) == "E4*eta(1)^24"
    for text in ["E4*eta(1)^24", "eta(1)^24*E4", "E4*eta(1)*eta(23)"]:
        e = parse_expr(text)
        assert print_expr(e) == text and parse_expr(print_expr(e)) is e


@pytest.mark.parametrize(
    "nested, flat",
    [
        ("(eta(1)^2)^12", "Delta(1)"),
        ("((eta(1)^3)^2)^4", "Delta(1)"),
        ("(eta(1)*eta(2))^8", "eta(1)^8*eta(2)^8"),
        ("(eta(1)*E4)*eta(23)", "eta(1)*E4*eta(23)"),
        ("eta(1)^-8*eta(2)^16", "Delta(2)"),
        ("(eta(2)^-1)^-16*eta(1)^-8", "Delta(2)"),
    ],
)
def test_nested_eta_powers_expand_as_their_quotient(nested, flat):
    # each inner power or product is folded as it is built, so the leading
    # exponents 1/12, 1/8 and 1/24 of the inner nodes are never expanded
    want = run("expand", "--expr", flat, "--prec", "30")
    assert want[0] == 0
    assert run("expand", "--expr", nested, "--prec", "30") == want


def test_registered_forms_parse_back_to_themselves():
    # every registry row, both sides of every identity, and every basis
    # element of the spaces N <= 10, weight <= 40, as the node itself
    forms = [e for row in levels._REGISTRY.values() for e in row]
    forms += [e for case in identities.REGISTRY.values() for e in (case.lhs, case.rhs)]
    assert len(identities.REGISTRY) == 37
    for n in range(1, 11):
        for w in range(2, 41, 2):
            if dimension(n, w):
                forms += basis_skeleton(n, w)
    for e in forms:
        assert parse_expr(print_expr(e)) is e, print_expr(e)


def torsion_atom(make, a, b, m):
    """make(a, b, m), or None outside its domain."""
    try:
        return make(a, b, m)
    except (QModularError, ValueError):
        return None


TORSION = [
    x
    for make in (WpAtom, WptAtom)
    for m in range(1, 7)
    for a in range(-m, 2 * m)
    for b in (0, HALF)
    if (x := torsion_atom(make, Fraction(a, 2), b, m)) is not None
]


def atoms_by_weight():
    """Every kind of atom within the CLI caps, by twice its weight: torsion
    values, Phi in both presentations, the level units, the registered
    generators (the level-1 heads above weight 12 too) and E_k with k up to
    the cap.  forms draws eta quotients and Scalars apart, at any weight."""
    out = {4: [*TORSION, *(PhiAtom(n, mode) for n in range(2, 11) for mode in ("weierstrass", "divisor"))]}
    for n in range(1, 11):
        out.setdefault(2 * level_unit(n).rho, []).append(DeltaRef(n))
    for (n, w), row in levels._REGISTRY.items():
        out.setdefault(2 * w, []).extend(GeneratorRef(n, w, s) for s in range(len(row)))
    for k in range(4, cli._MAX_WEIGHT + 1, 2):
        out.setdefault(2 * k, []).extend([EisensteinAtom(k, 1), EisensteinAtom(k, 3)])
        if k > 12:
            out[2 * k].append(GeneratorRef(1, k, 0))
    return out


ATOMS_BY_WEIGHT = atoms_by_weight()

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def eta_atoms(draw, w2):
    """An eta quotient of twice-weight w2: exponents of either sign, its
    last one set so that they add up to w2; the empty quotient at w2 = 0
    (the Scalar 1) among them."""
    factors = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(-6, 6)), max_size=3))
    m = draw(st.integers(1, 12))
    return EtaAtom([*factors, (m, w2 - sum(e for _, e in factors))])


@st.composite
def forms(draw, w2, depth):
    """A tree of twice-weight w2 built through the constructors: sums of
    one weight, products whose factors' weights add to w2 (Scalars among
    them), powers from -3 to 4 (negative on eta bases only, 0 on a base of
    any weight) and twists."""
    kinds = ["eta"]
    if w2 == 0:
        kinds.append("scalar")
    elif w2 in ATOMS_BY_WEIGHT:
        kinds.append("atom")
    if depth:
        kinds += ["sum", "product", "power", "twist"]
    kind = draw(st.sampled_from(kinds))
    if kind == "eta":
        return draw(eta_atoms(w2))
    if kind == "scalar":
        return Scalar(draw(coefficients))
    if kind == "atom":
        return draw(st.sampled_from(ATOMS_BY_WEIGHT[w2]))
    if kind == "twist":
        return HalfTwist(draw(forms(w2, depth - 1)))
    if kind == "sum":
        n = draw(st.integers(1, 3))
        return Sum([(draw(coefficients), draw(forms(w2, depth - 1))) for _ in range(n)])
    if kind == "product":
        cuts = sorted(draw(st.lists(st.integers(0, w2), min_size=0, max_size=2)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, w2])]
        return Product([draw(forms(part, depth - 1)) for part in parts])
    n = draw(st.sampled_from([d for d in (-3, -2, -1, 1, 2, 3, 4) if w2 % d == 0] + [0] * (w2 == 0)))
    if n == 0:
        return Power(draw(forms(2 * draw(st.integers(0, 6)), depth - 1)), 0)
    if n < 0:
        # the empty quotient is the Scalar 1, which takes no negative power
        return Power(draw(eta_atoms(w2 // n).filter(lambda e: type(e) is EtaAtom)), n)
    return Power(draw(forms(w2 // n, depth - 1)), n)


# CI runs this property again at about 5 000 examples
ROUND_TRIP_EXAMPLES = int(os.environ.get("QMODULAR_ROUND_TRIP_EXAMPLES", "60"))


@settings(max_examples=ROUND_TRIP_EXAMPLES, deadline=None)
@given(st.sampled_from([0, 1, 4, 8, 12, 24, 40, 2 * cli._MAX_WEIGHT]).flatmap(lambda w2: forms(w2, 4)))
def test_round_trip_property_on_constructor_built_trees(e):
    assert parse_expr(print_expr(e)) is e, print_expr(e)


def test_structural_round_trip_on_plain_trees():
    rng = random.Random(77)
    for _ in range(60):
        t = random_tree(rng, rng.choice([2, 4]), 2)
        if isinstance(t, Scalar):
            continue
        assert parse_expr(print_expr(t)) == t, print_expr(t)


# ---------------------------------------------------------------------------
# frozen command outputs
# ---------------------------------------------------------------------------


def test_expand_command_frozen():
    code, out, err = run("expand", "--expr", "Phi(5)", "--prec", "5")
    assert code == 0 and err == ""
    assert out == "1 + 6q + 18q^2 + 24q^3 + 42q^4 + O(q^5)\n"


def test_dims_command_frozen():
    assert run("dims", "--level", "10", "--weight", "16") == (0, "25\n", "")
    code, out, _ = run("dims", "--level", "7")
    assert out == "N=7: 1 3 5 5 7 9 9 11\n"
    code, out, _ = run("dims")
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "N=1: 0 1 1 1 1 2 1 2"
    assert lines[9] == "N=10: 3 7 9 13 15 19 21 25"


def test_reduce_command_frozen():
    assert run("reduce", "--expr", "E4", "--level", "2", "--weight", "4") == (
        0,
        "1, 192\n",
        "",
    )
    code, out, _ = run(
        "reduce", "--expr", "wp(1,1/2,2)", "--level", "4", "--weight", "2"
    )
    assert code == 0 and out == "-1/3, 16/3\n"


def test_basis_command_frozen():
    code, out, _ = run("basis", "--level", "2", "--weight", "4", "--prec", "5")
    assert code == 0
    assert out == (
        "M_4(Gamma0(2)): dimension 2, precision 5\n"
        "[0] E(2,2,0)^2 = 1 + 48q + 624q^2 + 1344q^3 + 5232q^4 + O(q^5)\n"
        "[1] Delta(2) = q + 8q^2 + 28q^3 + 64q^4 + O(q^5)\n"
    )


def test_expand_half_grid_text():
    code, out, _ = run("expand", "--expr", "wpt(1/2,0,1)", "--prec", "3")
    assert code == 0
    assert out == "1 - 8q^(1/2) + 24q - 32q^(3/2) + 24q^2 - 48q^(5/2) + O(q^3)\n"


def test_verify_command():
    code, out, _ = run("verify", "--identity", "mod1", "--prec", "30")
    assert code == 0
    assert out == "mod1: PASS (below q^30)\n"
    code, out, _ = run("verify", "--prec", "10")
    assert code == 0
    assert len(out.splitlines()) == len(identities.names())


@pytest.mark.parametrize("argv", [(), ("--identity", "mod1")], ids=["all", "one"])
def test_verify_below_q0_is_an_error(argv):
    # a bound of 0 compares no coefficient, so it cannot pass
    assert run("verify", *argv, "--prec", "0") == (
        2, "", "error: a bound of q^0 compares no coefficient\n"
    )
    assert run("verify", *argv, "--prec", "-1") == (2, "", "error: negative bound -1\n")


def test_bench_command():
    code, out, err = run("bench")
    assert code == 0
    assert out.splitlines()[0] == "E(4,10,2)*E(2,10,0)^335*Delta(10)^336"
    assert out.splitlines()[-1] == "verified"
    assert "q^2018" in out and "81359425707034726336q^2027" in out
    assert err.startswith("bench: expanded below q^2028 in")


def test_bench_json():
    code, out, _ = run("bench", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass" and doc["precision"] == 2028
    assert doc["expr"] == "E(4,10,2)*E(2,10,0)^335*Delta(10)^336"
    assert doc["terms"][:3] == [["2018", "1"], ["2019", "-672"], ["2020", "226131"]]
    assert len(doc["terms"]) == 10


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def test_expand_json_names_an_eta_power():
    code, out, _ = run("expand", "--expr", "eta(1)^24", "--prec", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["expr"] == "eta(1)^24"
    assert doc["terms"] == [["1", "1"], ["2", "-24"]]


def test_expand_json_half_integral_weight():
    code, out, _ = run("expand", "--expr", "eta(12)", "--prec", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "expr": "eta(12)",
        "weight": "1/2",
        "precision": "3",
        "terms": [["1/2", "1"]],
    }


def test_expand_json_half_grid():
    code, out, _ = run(
        "expand", "--expr", "wpt(1/2,0,1)", "--prec", "3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc == {
        "expr": "wpt(1/2,0,1)",
        "weight": "2",
        "precision": "3",
        "terms": [
            ["0", "1"],
            ["1/2", "-8"],
            ["1", "24"],
            ["3/2", "-32"],
            ["2", "24"],
            ["5/2", "-48"],
        ],
    }


def test_reduce_json():
    code, out, _ = run(
        "reduce", "--expr", "E4", "--level", "2", "--weight", "4",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc == {
        "level": 2,
        "weight": 4,
        "coordinates": [["1", "1"], ["192", "1"]],
    }


def test_basis_json():
    code, out, _ = run(
        "basis", "--level", "2", "--weight", "4", "--prec", "4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["level"] == 2 and doc["weight"] == 4
    assert [el["label"] for el in doc["elements"]] == ["E(2,2,0)^2", "Delta(2)"]


def test_dims_json():
    code, out, _ = run("dims", "--level", "7", "--format", "json")
    doc = json.loads(out)
    assert doc == {
        "level": 7,
        "dims": {"2": 1, "4": 3, "6": 5, "8": 5, "10": 7, "12": 9, "14": 9, "16": 11},
    }
    code, out, _ = run("dims", "--level", "3", "--weight", "4", "--format", "json")
    assert code == 0 and json.loads(out) == {"level": 3, "weight": 4, "dimension": 2}


def test_dims_weight_needs_a_level():
    assert run("dims", "--weight", "4") == (2, "", "error: --weight without --level: pick a level\n")


@pytest.mark.parametrize("src, terms", [("2 + 3", [["0", "5"]]), ("1/2", [["0", "1/2"]])])
def test_expand_json_prints_a_constant(src, terms):
    code, out, _ = run("expand", "--expr", src, "--format", "json")
    assert code == 0
    # a sum of constants is one Scalar node, printed as its value
    expr = terms[0][1]
    assert json.loads(out) == {"expr": expr, "weight": "0", "precision": "10", "terms": terms}


def test_verify_json():
    code, out, _ = run("verify", "--identity", "mod1", "--prec", "20",
                       "--format", "json")
    doc = json.loads(out)
    assert doc == [
        {"name": "mod1", "status": "pass", "prec": 20, "first_bad_exponent": None}
    ]


def test_dump_levels_json():
    code, out, _ = run("dump-levels")
    rows = json.loads(out)
    assert len(rows) == 10
    assert rows[1] == {"N": 2, "rho": 4, "nu": 1, "eta": [[1, -8], [2, 16]]}
    assert rows[9] == {
        "N": 10, "rho": 4, "nu": 6,
        "eta": [[1, 2], [2, -4], [5, -10], [10, 20]],
    }


def test_out_writes_file(tmp_path):
    target = tmp_path / "series.txt"
    code, out, _ = run("expand", "--expr", "E4", "--prec", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "1 + 240q + 2160q^2 + O(q^3)\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_not_in_span():
    code, out, err = run(
        "reduce", "--expr", "wpt(1/2,0,1)", "--level", "2", "--weight", "2"
    )
    assert code == 1 and out == ""
    assert err == "error: not in span: first unmatched exponent 1/2\n"


def test_exit_code_weight_mismatch():
    for expr, prec, weights in (
        ("E(2,3,0) + Delta(2)", "5", "2 and 4"),
        ("eta(12)+E4", "4", "1/2 and 4"),
    ):
        code, _, err = run("expand", "--expr", expr, "--prec", prec)
        assert code == 2
        assert err == f"error: sum mixes weights {weights}\n"


@pytest.mark.parametrize(
    "expr, level, wt, expr_weight",
    [
        ("E4", "1", "16", "4"),
        # one line at once, not the weight-600 basis of level 10
        ("E4", "10", "600", "4"),
        # the written weight decides, also for an expression that is zero
        ("E4-E4", "1", "16", "4"),
        ("0", "2", "4", "0"),
        ("eta(12)", "4", "2", "1/2"),
    ],
)
def test_exit_code_reduce_weight_mismatch(expr, level, wt, expr_weight):
    code, out, err = run("reduce", "--expr", expr, "--level", level, "--weight", wt)
    assert (code, out) == (2, "")
    assert err == f"error: the expression has weight {expr_weight} but --weight is {wt}\n"


def test_reduce_at_the_expression_weight():
    assert run("reduce", "--expr", "E4-E4", "--level", "1", "--weight", "4") == (0, "0\n", "")
    assert run("reduce", "--expr", "E4", "--level", "1", "--weight", "4") == (0, "1\n", "")


def test_exit_code_parse_error():
    code, _, err = run("expand", "--expr", "wp(1,0", "--prec", "4")
    assert code == 2
    assert "position 6" in err


def test_exit_code_domain_errors():
    code, _, err = run("expand", "--expr", "Delta(11)", "--prec", "4")
    assert code == 2 and "level must be in 1..10, got 11" in err
    # parses, then fails in the torsion-value domain check
    code, _, err = run("expand", "--expr", "wp(1,2,3)", "--prec", "4")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, position",
    [
        (("dims", "--level", "11"), None),
        (("basis", "--level", "11", "--weight", "4"), None),
        (("reduce", "--level", "11", "--weight", "4", "--expr", "E4"), None),
        (("expand", "--expr", "Delta(11)"), 0),
        (("expand", "--expr", "Phi(11)"), 0),
        (("expand", "--expr", "E(2,11,0)"), 0),
    ],
)
def test_every_unsupported_level_has_one_message(argv, position):
    where = "" if position is None else f" (at position {position})"
    assert run(*argv) == (2, "", f"error: level must be in 1..10, got 11{where}\n")


@pytest.mark.parametrize(
    "expr, message",
    [
        ("wpt(5,0,2)", "offset 5 outside [-1, 1] (at position 0)"),
        ("wpt(-2,0,3)", "offset -2 outside [-3/2, 3/2] (at position 0)"),
        ("wp(1/3,0,2)", "offset 1/3 must have denominator 1 or 2 (at position 3)"),
        ("wp(-1/3,0,2)", "offset -1/3 must have denominator 1 or 2 (at position 3)"),
        ("wp(1/2,1/3,2)", "phase 1/3 must have denominator 1 or 2 (at position 7)"),
    ],
)
def test_torsion_domain_errors_name_the_argument(expr, message):
    assert run("expand", "--expr", expr, "--prec", "4") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "expr, position",
    [
        ("wp(0,0,3)", 0),  # a pole
        ("wp(5,0,3)", 0),
        ("wp(1,3/2,3)", 0),
        ("wp(1,0,0)", 0),
        ("wpt(5,0,3)", 0),
        ("wpt(3/2,1/2,3)", 0),
        ("Eis(3,1)", 0),
        ("Eis(4,0)", 0),
        ("PhiDiv(1)", 0),
        ("Phi(11)", 0),
        ("Delta(11)", 0),
        ("Delta(10)^3*wp(0,0,3)", 12),
    ],
)
@pytest.mark.parametrize("prec", ["0", "9", None])
def test_invalid_atoms_fail_at_every_bound(expr, position, prec):
    # below its valuation an atom is never expanded, so it must fail when
    # it is built
    bound = () if prec is None else ("--prec", prec)
    code, out, err = run("expand", "--expr", expr, *bound)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f" (at position {position})\n")


@pytest.mark.parametrize(
    "name, message",
    [
        ("E(2,7,9)", "no generator E(2,7,9)"),
        ("E(2,11,9)", "level must be in 1..10, got 11"),
        ("E(3,7,9)", "weight must be an even integer >= 2, got 3"),
    ],
)
@pytest.mark.parametrize("prec", [None, "3", "9", "20"])
def test_exit_code_unknown_generator_at_every_bound(name, message, prec):
    # below q^9 a generator of index 9 would vanish by its valuation alone,
    # so the name must fail before anything is expanded
    bound = () if prec is None else ("--prec", prec)
    for argv in (
        ("expand", "--expr", f"E4 + {name}"),
        ("reduce", "--level", "7", "--weight", "4", "--expr", f"E4 + {name}"),
    ):
        code, out, err = run(*argv, *bound)
        assert (code, out) == (2, "")
        assert err == f"error: {message} (at position 5)\n"


def test_exit_code_verify_failure(monkeypatch):
    g = GeneratorRef(2, 2, 0)
    case = IdentityCase(
        name="broken-for-test",
        lhs=g,
        rhs=Sum(((Fraction(2), g),)),
        note="deliberately false",
    )
    monkeypatch.setitem(identities.REGISTRY, "broken-for-test", case)
    code, out, _ = run("verify", "--identity", "broken-for-test", "--prec", "10")
    assert code == 1
    assert out.startswith("broken-for-test: FAIL at q^0")
    code, out, _ = run("verify", "--prec", "10")
    assert code == 1


def test_exit_code_expansion_short_of_its_bound(monkeypatch):
    from test_levels import corrupt_e673

    corrupt_e673(monkeypatch)
    code, out, err = run("expand", "--expr", "E(2,7,0)*E(6,7,3)", "--prec", "12")
    assert code == 2 and out == ""
    assert err == "error: expansion reached q^9, below the requested bound q^12\n"


@pytest.mark.parametrize("opening", ["(", "twist("])
def test_exit_code_deep_nesting(opening):
    src = opening * 3000 + "E4" + ")" * 3000
    code, out, err = run("expand", "--expr", src, "--prec", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: expression nested deeper than")
    assert err.count("\n") == 1 and "position" in err


def test_parse_nesting_cap_boundary():
    depth = cli._MAX_DEPTH
    assert parse_expr("(" * depth + "E4" + ")" * depth) == EisensteinAtom(4, 1)
    with pytest.raises(ParseError):
        parse_expr("(" * (depth + 1) + "E4" + ")" * (depth + 1))


def test_exit_code_exponent_cap():
    cap = cli._MAX_EXPONENT
    assert parse_expr(f"Delta(1)^{cap}") == Power(DeltaRef(1), cap)
    code, out, err = run("expand", "--expr", f"Delta(1)^{cap + 1}", "--prec", "3")
    assert code == 2 and out == ""
    assert err == f"error: exponent {cap + 1} exceeds the cap {cap} (at position 9)\n"
    code, out, err = run("expand", "--expr", f"2^{cap + 1}")
    assert code == 2 and out == "" and err.count("\n") == 1
    # a negative exponent: capped in size, and taken on an eta or a nonzero
    # scalar base only
    assert parse_expr(f"eta(1)^-{cap}") is EtaAtom([(1, -cap)])
    for src, message in [
        (f"eta(1)^-{cap + 1}", f"exponent {-cap - 1} exceeds the cap {cap} (at position 7)"),
        ("Delta(1)^-1", "negative exponent -1 on a base that is not an eta quotient (at position 9)"),
        ("0^ - 1*E4", "negative exponent -1 on zero (at position 3)"),
        ("E4^-x", "expected an integer (at position 4)"),
    ]:
        assert run("expand", "--expr", src, "--prec", "3") == (2, "", f"error: {message}\n")


def test_a_scalar_takes_a_negative_exponent_and_zero_refuses_one():
    # the empty eta quotient is the scalar 1, so its inverse is 1 as well
    e4 = run("expand", "--expr", "E4", "--prec", "3")
    assert e4 == (0, "1 + 240q + 2160q^2 + O(q^3)\n", "")
    assert run("expand", "--expr", "(eta(1)*eta(1)^-1)^-1*E4", "--prec", "3") == e4
    assert parse_expr("(eta(1)*eta(1)^-1)^-1") is Scalar(1)
    assert parse_expr("(2/3)^-2*E4") is parse_expr("9/4*E4")
    assert run("expand", "--expr", "2^-1*E4", "--prec", "3") == (0, "1/2 + 120q + 1080q^2 + O(q^3)\n", "")
    for src, at in [("0^-1*E4", 2), ("(eta(1)*eta(1)^-1 - 1)^2*E4 + (0)^-3*E4", 34)]:
        code, out, err = run("expand", "--expr", src, "--prec", "3")
        assert (code, out) == (2, "") and err.count("\n") == 1, src
        assert err.startswith("error: negative exponent ") and err.endswith(f"on zero (at position {at})\n"), err



def test_a_sum_of_constants_is_its_scalar():
    # the constant terms of a sum fold into one, so a sum of constants takes
    # a negative exponent as the scalar it is
    assert parse_expr("(1 + 1)") is Scalar(2)
    assert parse_expr("(eta(1)*eta(1)^-1 + 1)") is Scalar(2)
    assert parse_expr("1 - 1/2*eta(1)*eta(1)^-1 + 1/4") is Scalar(Fraction(3, 4))
    half = (0, "1/2 + 120q + 1080q^2 + O(q^3)\n", "")
    assert run("expand", "--expr", "(1 + 1)^-1*E4", "--prec", "3") == half
    assert run("expand", "--expr", "(eta(1)*eta(1)^-1 + 1)^-1*E4", "--prec", "3") == half

def test_exit_code_weight_cap():
    cap = cli._MAX_WEIGHT
    assert parse_expr(f"Eis({cap},1)") == EisensteinAtom(cap, 1)
    code, out, err = run("expand", "--expr", f"Eis({cap},1)", "--prec", "1")
    assert (code, out, err) == (0, "1 + O(q^1)\n", "")
    code, out, err = run("expand", "--expr", f"Eis({cap + 1},1)", "--prec", "3")
    assert code == 2 and out == ""
    assert err == f"error: weight {cap + 1} exceeds the cap {cap} (at position 4)\n"


def test_expand_large_eta_multiplier():
    # the Euler factor of eta(m) is allocated below the bound only, not
    # over m slots (8 bytes each) before truncation
    m = 2_400_000
    tracemalloc.start()
    try:
        code, out, err = run("expand", "--expr", f"eta({m})")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "q^100000 + O(q^100010)\n", "")
    assert peak < 8 * m // 10


@pytest.mark.parametrize("command", ["expand", "basis", "reduce", "verify"])
def test_exit_code_prec_cap(command):
    cap = cli._MAX_PREC
    extra = {
        "expand": ["--expr", "E4"],
        "basis": ["--level", "2", "--weight", "4"],
        "reduce": ["--expr", "E4", "--level", "1", "--weight", "4"],
        "verify": [],
    }[command]
    code, out, err = run(command, *extra, "--prec", str(cap + 1))
    assert code == 2 and out == ""
    assert err == f"error: --prec {cap + 1} exceeds the cap {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--expr", "E4("),
        ("basis", "--level", "11", "--weight", "4"),
        ("reduce", "--expr", "E4", "--level", "1", "--weight", "6"),
    ],
    ids=["malformed", "unknown-level", "weight-mismatch"],
)
def test_explicit_prec_cap_reported_first(argv):
    # an explicit --prec past the cap is rejected before the expression,
    # the level or the weight is looked at
    cap = cli._MAX_PREC
    assert run(*argv, "--prec", str(cap + 1)) == (
        2, "", f"error: --prec {cap + 1} exceeds the cap {cap}\n"
    )
    code, out, err = run(*argv, "--prec", "5")
    assert code == 2 and out == "" and "cap" not in err


# the defaults d + 5 (basis) and d + 6 (reduce) past the cap, with
# d = dimension(10, w)
HIGH_DEFAULTS = [
    (("basis", "--level", "10", "--weight", "100000"), 150_006),
    (("reduce", "--expr", "Eis(700,1)^100", "--level", "10", "--weight", "70000"), 105_007),
]


@pytest.mark.parametrize("argv, default", HIGH_DEFAULTS, ids=["basis", "reduce"])
def test_exit_code_default_prec_cap(argv, default):
    cap = cli._MAX_PREC
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err == f"error: the default precision {default} exceeds the cap {cap}\n"
    # an explicit --prec replaces the default, and its own checks answer
    code, out, err = run(*argv, "--prec", "0")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error:") and "cap" not in err


def test_exit_code_unwritable_out(tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run("expand", "--expr", "E4", "--prec", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_unknown_subcommand_exits_via_argparse():
    code, out, err = run("frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# the README's examples
# ---------------------------------------------------------------------------


def readme_cli_examples():
    """(argv, stdout) for each `$ qmodular ...` example in the README's "CLI
    usage" block, except `bench`, whose output has a timing line and an
    abbreviated expansion."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ qmodular ")[1:]:
        command, _, output = chunk.partition("\n")
        argv = shlex.split(command)
        if argv[0] != "bench":
            examples.append((argv, output.rstrip("\n") + "\n"))
    return examples


def test_readme_cli_examples_match_the_cli():
    examples = readme_cli_examples()
    assert [argv[0] for argv, _ in examples] == [
        "expand", "expand", "basis", "dims", "reduce", "verify"
    ]
    for argv, expected in examples:
        assert run(*argv) == (0, expected, ""), argv
