"""Expression trees, graded dimensions, triangular bases, and reduction
of a series to basis coordinates."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmodular.errors import (
    EmptySpace,
    InsufficientPrecision,
    InvalidPrecision,
    InvalidRegistryEntry,
    NotInSpan,
    PoleAtArgument,
    QModularError,
    UnknownGenerator,
    UnknownLevel,
    UnsupportedWeight,
    WeightMismatch,
)
from qmodular.eta import EtaQuotient, delta, level_unit
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
from qmodular import levels
from qmodular.cli import parse_expr
from qmodular.levels import (
    basis,
    basis_skeleton,
    dimension,
    expand_expr,
    generator,
    reduce,
)
from qmodular.qseries import HALF, lincomb, monomial, zero_series
from qmodular.weierstrass import eisenstein, wp_hat, wpt_hat

import expr_oracle as oracle
from test_qseries import series_coeff_map

# which (level, weight) pairs carry registered generator rows
REGISTRY_ROWS = {
    1: (4, 6, 8, 10, 12),
    2: (2, 4),
    3: (2, 4, 6),
    4: (2,),
    5: (2, 4),
    6: (2,),
    7: (2, 4, 6),
    8: (2,),
    9: (2,),
    10: (2, 4),
}


# ---------------------------------------------------------------------------
# expression nodes: weight, valuation floor, printing
# ---------------------------------------------------------------------------


def test_node_weights():
    assert weight(WpAtom(1, 0, 2)) == 2
    assert weight(WptAtom(0, HALF, 1)) == 2
    assert weight(EisensteinAtom(6, 2)) == 6
    assert weight(PhiAtom(5)) == 2
    assert weight(Scalar(Fraction(3, 7))) == 0
    assert weight(DeltaRef(7)) == 6  # rho of the level-7 unit
    assert weight(GeneratorRef(10, 4, 3)) == 4
    assert weight(EtaAtom(EtaQuotient([(1, 24)]))) == 12
    assert weight(HalfTwist(WptAtom(HALF, 0, 1))) == 2
    assert weight(Power(WpAtom(1, 0, 2), 5)) == 10
    assert weight(Product((WpAtom(1, 0, 2), DeltaRef(2)))) == 6
    assert weight(Sum(((Fraction(2), WpAtom(1, 0, 3)), (Fraction(-1), PhiAtom(3))))) == 2


def test_mixed_weight_sum_rejected():
    bad = Sum(((Fraction(1), WpAtom(1, 0, 2)), (Fraction(1), DeltaRef(2))))
    # every call raises: a tree with a mixed sum keeps no weight
    for _ in range(2):
        with pytest.raises(WeightMismatch):
            weight(bad)
        with pytest.raises(WeightMismatch):
            parse_expr("wp(1,0,2) + Delta(2)")
    assert val_lower(bad) == 0
    # a mixed sum under a product, a power, a twist or a sum term: the
    # whole tree has no weight, and the message names the first mixed sum
    # depth first, as the oracle's does; the valuation bound and the
    # expansion still answer
    e4, e6 = EisensteinAtom(4), EisensteinAtom(6)
    mixed = Sum(((1, e6), (1, e4)))
    nested = [
        Sum(((1, Product((e4, mixed))), (1, e6))),  # E4*(E6 + E4) + E6
        Product((e4, mixed)),
        Power(mixed, 3),
        HalfTwist(mixed),
        Sum(((1, e6), (2, mixed))),
        Sum(((1, Sum(((1, e4), (1, e6)))), (1, mixed))),
    ]
    for e in nested:
        with pytest.raises(WeightMismatch) as want:
            oracle.weight(e)
        for _ in range(2):
            with pytest.raises(WeightMismatch) as got:
                weight(e)
            assert str(got.value) == str(want.value), print_expr(e)
        assert val_lower(e) == oracle.val_lower(e)
        assert expand_expr(e, 3) == oracle.expand_expr(e, 3), print_expr(e)
    with pytest.raises(WeightMismatch, match="^sum mixes weights 6 and 4$"):
        weight(nested[0])
    with pytest.raises(WeightMismatch, match="^sum mixes weights 4 and 6$"):
        weight(nested[-1])


def test_valuation_floors():
    assert val_lower(WpAtom(2, 0, 5)) == 0
    assert val_lower(DeltaRef(10)) == 6
    assert val_lower(DeltaRef(1)) == 1
    assert val_lower(GeneratorRef(10, 4, 3)) == 3
    assert val_lower(WptAtom(1, 0, 2)) == 0
    assert val_lower(WptAtom(0, HALF, 2)) == 1
    assert val_lower(WptAtom(HALF, 0, 1)) == 0
    assert val_lower(EtaAtom(EtaQuotient([(1, 24)]))) == 1
    assert val_lower(Power(DeltaRef(2), 7)) == 7
    assert val_lower(Product((DeltaRef(10), GeneratorRef(10, 4, 2)))) == 8
    assert val_lower(Sum(((Fraction(1), DeltaRef(2)), (Fraction(1), EisensteinAtom(4))))) == 0


def test_factories_collapse():
    # the canonical rules, each applied by the constructor of its node
    x, y = WpAtom(1, 0, 2), DeltaRef(2)
    assert Power(x, 0) is Scalar(1)
    assert Power(x, 1) is x
    assert Power(Scalar(Fraction(2, 3)), 3) is Scalar(Fraction(8, 27))
    assert Product([x]) is x
    assert Sum([(Fraction(1), x)]) is x
    s = Sum([(Fraction(2), x)])
    assert isinstance(s, Sum) and s.terms == ((Fraction(2), x),)
    with pytest.raises(ValueError):
        Sum([])
    with pytest.raises(ValueError):
        Product([])
    with pytest.raises(ValueError, match="^negative exponent -1 "):
        Power(x, -1)
    with pytest.raises(ValueError, match="^negative exponent -2 "):
        Power(Scalar(2), -2)
    # Sum: a one-term sum term and a Scalar term fold into the coefficient
    assert Sum([(3, s), (1, y)]) is Sum([(6, x), (1, y)])
    assert Sum([(3, Scalar(Fraction(1, 2))), (1, y)]) is Sum([(Fraction(3, 2), Scalar(1)), (1, y)])
    assert Sum([(Fraction(1, 2), s)]) is x
    assert Sum([(3, Scalar(2))]) is Scalar(6)
    # Product: nested products flatten, Scalars multiply out into a one-term
    # sum, and eta factors merge, or go when their quotient cancels
    assert Product([Product([x, y]), x]) is Product([x, y, x])
    assert Product([Scalar(2), x, Scalar(3)]) is Sum([(6, x)])
    assert Product([Scalar(2), x, y]) is Sum([(2, Product([x, y]))])
    assert Product([Scalar(2), Scalar(3)]) is Scalar(6)
    eta1, eta2 = EtaAtom([(1, 1)]), EtaAtom([(2, 1)])
    assert Product([Product([eta1, x]), eta2]) is Product([EtaAtom([(1, 1), (2, 1)]), x])
    assert Product([x, eta1, Power(eta1, -1)]) is x
    assert Product([eta1, Power(eta1, -1)]) is Scalar(1)
    # Power and EtaAtom: an eta base folds at every exponent, the empty
    # quotient is 1
    assert Power(eta1, -8) is EtaAtom([(1, -8)])
    assert Power(eta1, 0) is Scalar(1) is EtaAtom([])


def test_print_expr_frozen_strings():
    assert print_expr(GeneratorRef(10, 4, 2)) == "E(4,10,2)"
    assert print_expr(DeltaRef(6)) == "Delta(6)"
    assert print_expr(WpAtom(Fraction(3, 2), 0, 3)) == "wp(3/2,0,3)"
    assert print_expr(WptAtom(0, HALF, 5)) == "wpt(0,1/2,5)"
    assert print_expr(EisensteinAtom(4)) == "E4"
    assert print_expr(EisensteinAtom(4, 5)) == "Eis(4,5)"
    assert print_expr(PhiAtom(5)) == "Phi(5)"
    assert print_expr(PhiAtom(5, "divisor")) == "PhiDiv(5)"
    assert print_expr(HalfTwist(WptAtom(HALF, 0, 1))) == "twist(wpt(1/2,0,1))"
    bench = Product(
        (
            GeneratorRef(10, 4, 2),
            Power(GeneratorRef(10, 2, 0), 335),
            Power(DeltaRef(10), 336),
        )
    )
    assert print_expr(bench) == "E(4,10,2)*E(2,10,0)^335*Delta(10)^336"
    assert print_expr(Sum(((Fraction(-3), WpAtom(1, 0, 2)),))) == "-3*wp(1,0,2)"
    two_term = Sum(((Fraction(1), WpAtom(1, 0, 7)), (Fraction(-1, 8), WpAtom(2, 0, 7))))
    assert print_expr(two_term) == "wp(1,0,7) - 1/8*wp(2,0,7)"
    # a sum raised to a power needs parentheses
    p = Power(Sum([(Fraction(1), WpAtom(1, 0, 5)), (Fraction(1), WpAtom(2, 0, 5))]), 2)
    assert print_expr(p) == "(wp(1,0,5) + wp(2,0,5))^2"


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

# rows are weights 2, 4, ..., 16
DIMENSION_TABLE = {
    1: [0, 1, 1, 1, 1, 2, 1, 2],
    2: [1, 2, 2, 3, 3, 4, 4, 5],
    3: [1, 2, 3, 3, 4, 5, 5, 6],
    4: [2, 3, 4, 5, 6, 7, 8, 9],
    5: [1, 3, 3, 5, 5, 7, 7, 9],
    6: [3, 5, 7, 9, 11, 13, 15, 17],
    7: [1, 3, 5, 5, 7, 9, 9, 11],
    8: [3, 5, 7, 9, 11, 13, 15, 17],
    9: [3, 5, 7, 9, 11, 13, 15, 17],
    10: [3, 7, 9, 13, 15, 19, 21, 25],
}


def test_dimension_table():
    for n, row in DIMENSION_TABLE.items():
        got = [dimension(n, w) for w in range(2, 18, 2)]
        assert got == row, n


def test_dimension_examples():
    assert dimension(10, 16) == 25
    assert dimension(1, 2) == 0
    assert dimension(7, 12) == 9
    assert dimension(2, 8) == 3
    assert dimension(10, 200) == 301


def test_dimension_recursion():
    # d(w) = d(w - rho) + nu once both weights are in range
    for n in range(1, 11):
        u = level_unit(n)
        for w in range(u.rho + 2, 120, 2):
            assert dimension(n, w) == dimension(n, w - u.rho) + u.nu, (n, w)


def test_dimension_at_base_weights_is_the_registry_row_length():
    # rows sit at base weights only, and an absent one is empty
    assert set(levels._REGISTRY) == {
        (n, w) for n, weights in REGISTRY_ROWS.items() for w in weights
    }
    for n in range(1, 11):
        for w in range(2, level_unit(n).rho + 1, 2):
            assert dimension(n, w) == len(levels._REGISTRY.get((n, w), ())), (n, w)


def test_dimension_errors():
    with pytest.raises(UnknownLevel):
        dimension(11, 4)
    with pytest.raises(UnknownLevel):
        dimension(0, 4)
    for bad in (3, 0, -2, Fraction(5, 2)):
        with pytest.raises(UnsupportedWeight):
            dimension(2, bad)


# ---------------------------------------------------------------------------
# registered generators
# ---------------------------------------------------------------------------


def test_every_registered_generator_is_unitary():
    for n, weights in REGISTRY_ROWS.items():
        for w in weights:
            for s in range(dimension(n, w)):
                ex, ser = generator(n, w, s, s + 5)
                assert ser.valuation == s
                assert ser.leading == 1
                assert ser.den == 1
                assert weight(ex) == w


def test_level_one_generators():
    for w in (4, 6, 8, 10, 12, 14, 16):
        _, ser = generator(1, w, 0, 5)
        assert ser.valuation == 0 and ser.leading == 1
    _, dser = generator(1, 12, 1, 8)
    assert [dser.coefficient(i) for i in range(8)] == [0, 1, -24, 252, -1472, 4830, -6048, -16744]


E4, E6 = EisensteinAtom(4, 1), EisensteinAtom(6, 1)


def test_level_one_generators_resolve_to_eisenstein_monomials():
    expected = {
        (4, 0): E4,
        (6, 0): E6,
        (8, 0): Power(E4, 2),
        (10, 0): Product((E4, E6)),
        (12, 0): Power(E4, 3),
        (12, 1): DeltaRef(1),
        (14, 0): Product((Power(E4, 2), E6)),
        (400, 0): Power(E4, 100),
    }
    for (w, s), node in expected.items():
        assert levels._resolve_ref(1, w, s) == node, (w, s)


@pytest.mark.parametrize("w, s", [(2, 0), (12, 2), (14, 1)])
def test_level_one_unregistered_generators(w, s):
    with pytest.raises(UnknownGenerator) as exc:
        levels._resolve_ref(1, w, s)
    assert str(exc.value) == f"no generator E({w},1,{s})"


def test_generator_frozen_spots():
    cases = {
        (2, 2, 0): [1, 24, 24, 96, 24, 144, 96, 192],
        (3, 4, 1): [1, 9, 27, 73, 126, 243, 344, 585],
        (5, 2, 0): [1, 6, 18, 24, 42, 6, 72, 48],
        (6, 2, 1): [1, -1, 7, -5, 6, 5, 8, -13],
        (7, 4, 2): [1, 3, 8, 11, 25, 35, 57, 78],
        (9, 2, 1): [1, 3, 0, 7, 6, 0, 8, 15],
        (10, 2, 2): [1, 0, 3, -4, 4, 0, 7, 0],
        (10, 4, 5): [1, 0, 0, 0, 0, 8, 0, 0],
    }
    for (n, w, s), coeffs in cases.items():
        _, ser = generator(n, w, s, s + 8)
        assert [ser.coefficient(i) for i in range(s, s + 8)] == coeffs, (n, w, s)


def test_generator_defining_expressions_print():
    ex, _ = generator(2, 2, 0, 4)
    assert print_expr(ex) == "-3*wp(1,0,2)"
    ex, _ = generator(7, 4, 2, 6)
    assert print_expr(ex) == (
        "3/32*(wp(1,0,7)^2 + wp(2,0,7)^2 + wp(3,0,7)^2)"
        " - 1/32*(wp(1,0,7) + wp(2,0,7) + wp(3,0,7))^2"
    )
    ex, _ = generator(10, 4, 5, 8)
    assert print_expr(ex) == "1/256*wpt(0,1/2,5)^2"


def test_generator_errors():
    with pytest.raises(UnknownGenerator):
        generator(2, 6, 0, 8)  # weight 6 has no registered row at level 2
    with pytest.raises(UnknownGenerator):
        generator(2, 4, 5, 8)
    with pytest.raises(UnknownGenerator):
        generator(1, 2, 0, 8)
    with pytest.raises(UnknownLevel):
        generator(11, 2, 0, 8)
    with pytest.raises(UnsupportedWeight):
        generator(2, 3, 0, 8)
    with pytest.raises(InsufficientPrecision):
        generator(10, 4, 5, 5)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_basis_level2_weight4():
    b = basis(2, 4, 8)
    assert [el.label for el in b.elements] == ["E(2,2,0)^2", "Delta(2)"]
    assert [b.elements[0].series.coefficient(i) for i in range(8)] == [
        1, 48, 624, 1344, 5232, 6048, 17472, 16512,
    ]
    assert [b.elements[1].series.coefficient(i) for i in range(8)] == [
        0, 1, 8, 28, 64, 126, 224, 344,
    ]


def test_basis_level1_weight12():
    b = basis(1, 12, 8)
    assert [el.label for el in b.elements] == ["E4^3", "Delta(1)"]
    assert [b.elements[0].series.coefficient(i) for i in range(4)] == [
        1, 720, 179280, 16954560,
    ]


def test_basis_label_shapes():
    assert [el.label for el in basis(10, 6, 10).elements] == [
        "E(2,10,0)^3",
        "E(4,10,1)*E(2,10,0)",
        "E(4,10,2)*E(2,10,0)",
        "E(4,10,3)*E(2,10,0)",
        "E(4,10,4)*E(2,10,0)",
        "E(4,10,5)*E(2,10,0)",
        "Delta(10)*E(2,10,0)",
        "Delta(10)*E(2,10,1)",
        "Delta(10)*E(2,10,2)",
    ]
    assert [el.label for el in basis(8, 8, 10).elements] == [
        "E(2,8,0)^4",
        "E(2,8,1)*E(2,8,0)^3",
        "Delta(8)*E(2,8,0)^3",
        "Delta(8)*E(2,8,1)*E(2,8,0)^2",
        "Delta(8)^2*E(2,8,0)^2",
        "Delta(8)^2*E(2,8,1)*E(2,8,0)",
        "Delta(8)^3*wpt(1,0,2)",
        "Delta(8)^3*Delta(4)",
        "Delta(8)^4",
    ]
    assert [el.label for el in basis(1, 26, 4).elements] == [
        "E4^5*E6",
        "Delta(1)*E4^2*E6",
    ]


def test_basis_triangular_all_levels_low_weights():
    for n in range(1, 11):
        for w in range(2, 26, 2):
            d = dimension(n, w)
            if d == 0:
                continue
            b = basis(n, w, d + 2)
            assert len(b) == d
            for el in b.elements:
                assert el.series.valuation == el.index, (n, w, el.index)
                assert el.series.leading == 1
                assert el.series.den == 1


def test_skeleton_matches_dimension_and_valuations():
    for n in range(1, 11):
        for w in range(2, 122, 2):
            d = dimension(n, w)
            if d == 0:
                continue
            exprs = basis_skeleton(n, w)
            assert len(exprs) == d
            assert [val_lower(e) for e in exprs] == list(range(d)), (n, w)
            assert all(weight(e) == w for e in exprs)


def _skeleton_level_one(wt: int):
    """The level-1 skeleton in closed form: with wt/2 = 6q + r, 1 <= r <= 6,
    the heads of weights wt, wt - 12, ... times rising powers of Delta_1,
    down to weight 4 (none at weight 2), and Delta_1^(q+1) when r = 6."""
    k = wt // 2
    q, r = divmod(k, 6)
    if r == 0:
        q, r = q - 1, 6
    top = q - 1 if r == 1 else q
    out = []
    for n in range(top + 1):
        out.append(levels._with_delta(1, n, levels._eisenstein_head(wt - 12 * n)))
    if r == 6:
        out.append(Power(DeltaRef(1), q + 1))
    return out


def test_level_one_skeleton_matches_the_closed_form():
    for w in range(4, 401, 2):
        assert basis_skeleton(1, w) == _skeleton_level_one(w), w


def test_basis_errors():
    with pytest.raises(EmptySpace):
        basis(1, 2, 8)
    with pytest.raises(EmptySpace):
        basis_skeleton(1, 2)
    # an empty space is reported before a precision that is too small
    with pytest.raises(EmptySpace):
        basis(1, 2, -1)
    with pytest.raises(InsufficientPrecision):
        basis(2, 4, 1)
    with pytest.raises(UnknownLevel):
        basis(12, 4, 8)


def test_a_fractional_bound_keeps_the_coefficients_below_it():
    # q^4 lies below q^(9/2): every element is expanded below q^5, as
    # expand_expr expands it at that bound
    b = basis(2, 4, Fraction(9, 2))
    assert b.precision == 5
    for el in b.elements:
        assert el.series == expand_expr(el.expr, Fraction(9, 2)) == expand_expr(el.expr, 5)
    assert b.to_json() == basis(2, 4, 5).to_json()


def test_basis_json_shape():
    doc = basis(2, 4, 4).to_json()
    assert doc["level"] == 2 and doc["weight"] == 4 and doc["precision"] == 4
    rows = doc["elements"]
    assert [r["s"] for r in rows] == [0, 1]
    assert rows[0]["label"] == "E(2,2,0)^2"
    assert rows[0]["valuation"] == 0
    assert rows[0]["coefficients"] == [["1", "1"], ["48", "1"], ["624", "1"], ["1344", "1"]]
    # element s starts its listing at its own valuation
    assert rows[1]["coefficients"] == [["1", "1"], ["8", "1"], ["28", "1"]]


# ---------------------------------------------------------------------------
# expansion of expression trees
# ---------------------------------------------------------------------------


def test_expand_expr_precision_consistency():
    """Expanding deeper never changes the coefficients already reported."""
    catalog = [
        GeneratorRef(7, 6, 3),
        Product((GeneratorRef(10, 4, 2), Power(GeneratorRef(10, 2, 0), 5),
                 Power(DeltaRef(10), 4))),
        Power(EtaAtom(EtaQuotient([(1, -8), (2, 16)])), 3),
        Product((EtaAtom(EtaQuotient([(1, 16)])), EtaAtom(EtaQuotient([(1, 8)])))),
        HalfTwist(WptAtom(HALF, 0, 1)),
        Sum(((Fraction(2, 3), EisensteinAtom(4, 5)), (Fraction(1, 3), EisensteinAtom(4, 1)))),
        PhiAtom(7),
        PhiAtom(7, "divisor"),
        Power(Sum([(Fraction(1), WpAtom(1, 0, 5)), (Fraction(1), WpAtom(2, 0, 5))]), 3),
        Product((DeltaRef(9), GeneratorRef(9, 2, 1), GeneratorRef(9, 2, 2))),
    ]
    for ex in catalog:
        lo = expand_expr(ex, 12)
        hi = expand_expr(ex, 19)
        assert lo.den == hi.den or lo.is_zero or hi.truncate(12).den == lo.den
        for e, c in series_coeff_map(lo).items():
            assert hi.coefficient(e) == c, (print_expr(ex), e)
        # and nothing below the bound was dropped
        for e, c in series_coeff_map(hi.truncate(12)).items():
            assert lo.coefficient(e) == c, (print_expr(ex), e)


def test_expand_registered_generators_deeper():
    for n, weights in REGISTRY_ROWS.items():
        for w in weights:
            for s in range(dimension(n, w)):
                ex, ser = generator(n, w, s, s + 6)
                deeper = expand_expr(ex, s + 11)
                for e, c in series_coeff_map(ser).items():
                    assert deeper.coefficient(e) == c


def test_expand_expr_half_grid():
    f = expand_expr(WptAtom(HALF, 0, 1), Fraction(9, 2))
    assert f == wpt_hat(HALF, 0, 1, Fraction(9, 2))
    assert f.den == 2


def test_torsion_atoms_are_cached_by_the_integer_bound():
    # inside a tree a leaf meets bounds off the integer grid; its one
    # expansion to ceil(bound) answers all three.  Phi(2) is stored as its
    # torsion sum -3*wp(1,0,2), which is stored beside its one atom.
    # levels._expand takes its bound in units of 1/24: 9/2, 5 and 13/3.
    cache = levels._CACHE
    for atom, stored in (
        (WpAtom(1, 0, 2), {WpAtom(1, 0, 2)}),
        (WptAtom(1, 0, 2), {WptAtom(1, 0, 2)}),
        (PhiAtom(2), {Sum([(-3, WpAtom(1, 0, 2))]), WpAtom(1, 0, 2)}),
    ):
        levels.expand_cache_clear()
        cache.sync(levels._REGISTRY)
        for b in (108, 120, 104):
            assert levels._expand(atom, b, cache) == levels._expand(atom, b, None)
        assert set(cache.entries) == stored, atom
        info = levels.expand_cache_info()
        assert (info.misses, info.hits) == (len(stored), 2), atom
        assert info.coefficients == 5 * len(stored), atom


def test_atoms_check_their_arguments_when_built():
    for build, error in (
        (lambda: WpAtom(0, 0, 3), PoleAtArgument),
        (lambda: WpAtom(5, 0, 3), ValueError),
        (lambda: WpAtom(1, Fraction(3, 2), 3), ValueError),
        (lambda: WpAtom(1, 0, 0), ValueError),
        (lambda: WpAtom(Fraction(1, 3), 0, 3), ValueError),
        (lambda: WptAtom(5, 0, 3), ValueError),
        (lambda: WptAtom(Fraction(3, 2), HALF, 3), PoleAtArgument),
        (lambda: EisensteinAtom(3, 1), UnsupportedWeight),
        (lambda: EisensteinAtom(4, 0), ValueError),
        (lambda: DeltaRef(11), UnknownLevel),
        (lambda: PhiAtom(1, "divisor"), UnknownLevel),
        (lambda: PhiAtom(11), UnknownLevel),
        (lambda: PhiAtom(3, "typo"), ValueError),
    ):
        with pytest.raises(error):
            build()


def test_expand_expr_square_of_weight_two_head():
    f = expand_expr(Power(GeneratorRef(5, 2, 0), 2), 5)
    assert [f.coefficient(i) for i in range(5)] == [1, 12, 72, 264, 696]


def test_expand_expr_rejects_negative_bound():
    with pytest.raises(InvalidPrecision):
        expand_expr(DeltaRef(2), -1)


def corrupt_e673(monkeypatch):
    """Nudge one coefficient of the registered E(6,7,3), as acceptance
    criterion 7 does: it gains a constant term, below its valuation bound 3."""
    row = levels._REGISTRY[(7, 6)]
    terms = list(row[3].terms)
    terms[1] = (terms[1][0] + Fraction(1, 1000003), terms[1][1])
    monkeypatch.setitem(levels._REGISTRY, (7, 6), row[:3] + (Sum(terms),) + row[4:])


# the product trusts E(6,7,3)'s valuation bound 3, so once that is wrong it
# reaches only q^9 of the q^12 asked
SHORT_PRODUCT = Product((GeneratorRef(7, 2, 0), GeneratorRef(7, 6, 3)))


def test_expansion_short_of_its_bound_raises(monkeypatch):
    clean = expand_expr(SHORT_PRODUCT, 12)
    assert clean.bound == 12
    assert val_lower(SHORT_PRODUCT) == 3
    corrupt_e673(monkeypatch)
    # the cached bound never read the registry, so it is not stale: it is
    # still the claimed one, and expand_expr is what catches the shortfall
    assert val_lower(SHORT_PRODUCT) == oracle.val_lower(SHORT_PRODUCT) == 3
    with pytest.raises(InsufficientPrecision, match=r"reached q\^9, below the requested bound q\^12"):
        expand_expr(SHORT_PRODUCT, 12)
    monkeypatch.undo()
    assert expand_expr(SHORT_PRODUCT, 12) == clean


def test_expansion_short_of_its_bound_raises_under_optimize():
    # python -O strips assert statements; the check must survive them
    script = (
        "from fractions import Fraction\n"
        "from qmodular import levels\n"
        "from qmodular.errors import InsufficientPrecision\n"
        "from qmodular.expr import GeneratorRef, Product, Sum\n"
        "row = levels._REGISTRY[(7, 6)]\n"
        "terms = list(row[3].terms)\n"
        "terms[1] = (terms[1][0] + Fraction(1, 1000003), terms[1][1])\n"
        "levels._REGISTRY[(7, 6)] = row[:3] + (Sum(terms),) + row[4:]\n"
        "e = Product((GeneratorRef(7, 2, 0), GeneratorRef(7, 6, 3)))\n"
        "try:\n"
        "    print('returned', levels.expand_expr(e, 12).bound)\n"
        "except InsufficientPrecision as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised expansion reached q^9"), done.stdout


@pytest.mark.parametrize("e", [DeltaRef(1), DeltaRef(2), EtaAtom([(1, 24)])])
def test_expand_below_the_valuation_rounds_the_bound_up(e):
    # the zero-so-far answer keeps a bound of at least the one requested,
    # rounded up to the half-integer grid
    assert expand_expr(e, Fraction(1, 3)).to_text() == "O(q^(1/2))"


def test_expand_scalar_and_zero_floor():
    f = expand_expr(Scalar(Fraction(5, 3)), 3)
    assert series_coeff_map(f) == {Fraction(0): Fraction(5, 3)}
    # a bound at or below the valuation floor yields a zero-so-far series
    z = expand_expr(DeltaRef(10), 5)
    assert z.is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_delta_powers_expand_consistently(n, a, extra):
    """Power-of-eta folding agrees with repeated series multiplication."""
    u = level_unit(n)
    bound = a * u.nu + 4 + extra
    via_power = expand_expr(Power(DeltaRef(n), a), bound)
    direct = delta(n, bound - (a - 1) * u.nu)
    acc = direct
    for _ in range(a - 1):
        acc = acc * direct
    for e, c in series_coeff_map(via_power).items():
        assert acc.coefficient(e) == c


# ---------------------------------------------------------------------------
# reduction to coordinates
# ---------------------------------------------------------------------------


def test_reduce_frozen_anchors():
    assert reduce(expand_expr(GeneratorRef(2, 2, 0), 12), 4, 2) == [1, 32]
    assert reduce(eisenstein(4, 1, 12), 2, 4) == [1, 192]
    assert reduce(wpt_hat(1, 0, 2, 12).pow(2), 2, 4) == [1, -64]
    assert reduce(wp_hat(1, HALF, 2, 12), 4, 2) == [Fraction(-1, 3), Fraction(16, 3)]
    assert reduce(eisenstein(4, 5, 60), 10, 4) == [1, 0, 0, 0, 0, 192, 0]
    assert reduce(delta(5, 30).substitute_power(2), 10, 4) == [0, 0, 0, 0, 1, 0, -4]


def test_reduce_delta_is_last_basis_vector():
    for n in range(1, 11):
        u = level_unit(n)
        coords = reduce(delta(n, 40), n, u.rho)
        assert coords == [0] * (len(coords) - 1) + [1], n


def test_reduce_round_trip_random_vectors():
    rng = random.Random(7)
    for n in (2, 6, 10):
        for w in (8, 24):
            d = dimension(n, w)
            b = basis(n, w, d + 6)
            for _ in range(5):
                coords = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d)
                ]
                f = None
                for c, el in zip(coords, b.elements):
                    t = el.series.scale(c)
                    f = t if f is None else f + t
                assert reduce(f, n, w) == coords, (n, w)


def test_reduce_not_in_span_integer_tail():
    f = expand_expr(GeneratorRef(2, 2, 0), 9) + monomial(1, 7, 1, 9)
    with pytest.raises(NotInSpan) as exc:
        reduce(f, 2, 2)
    assert exc.value.exponent == 7


def test_reduce_not_in_span_half_exponent():
    f = expand_expr(GeneratorRef(2, 2, 0), 9) + monomial(1, 7, 2, 9)
    with pytest.raises(NotInSpan) as exc:
        reduce(f, 2, 2)
    assert exc.value.exponent == Fraction(7, 2)


def test_reduce_guards():
    with pytest.raises(EmptySpace):
        reduce(delta(1, 20), 1, 2)
    with pytest.raises(EmptySpace):
        reduce(delta(1, 3), 1, 2)
    with pytest.raises(InsufficientPrecision):
        reduce(expand_expr(GeneratorRef(2, 2, 0), 5), 2, 2)


def lincomb_reduce(f, level, wt):
    """The oracle: the forward substitution as it was before the integer
    solve, on the labelled basis with one lincomb per nonzero coordinate.
    It leaves out reduce's guards on the dimension and the bound of f."""
    b = basis(level, wt, math.ceil(f.bound))
    residual = f
    coords = []
    for el in b.elements:
        c = Fraction(residual.coefficient(el.index))
        coords.append(c)
        if c:
            residual = lincomb(((1, residual), (-c, el.series)))
    if not residual.is_zero:
        raise NotInSpan(residual.valuation)
    return coords


def reduce_outcome(solve, f, level, wt):
    """The coordinates with their types, or the NotInSpan exponent (with its
    type) and message."""
    try:
        coords = solve(f, level, wt)
    except NotInSpan as exc:
        return "not in span", exc.exponent, type(exc.exponent), str(exc)
    return [(c, type(c)) for c in coords]


SPACES = [(n, w) for n in range(1, 11) for w in range(2, 25, 2) if dimension(n, w)]


COORDINATES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
PERTURBATION_COEFFICIENTS = st.sampled_from((1, -2, HALF))


@st.composite
def reduce_cases(draw):
    """(level, weight, coordinates, bound of f, perturbation): f is the
    combination of the basis below the bound, which is off the
    integer grid half the time, plus, when drawn, a monomial c q^e at an
    integer or half-integer e from -1 up."""
    n, w = draw(st.sampled_from(SPACES))
    d = dimension(n, w)
    coords = draw(st.lists(COORDINATES, min_size=d, max_size=d))
    bound = Fraction(2 * d + 10 + draw(st.integers(0, 8)), 2)
    perturb = None
    if draw(st.booleans()):
        e = Fraction(draw(st.integers(-2, int(2 * bound) - 1)), 2)
        perturb = e, draw(PERTURBATION_COEFFICIENTS)
    return n, w, coords, bound, perturb


def combination(n, w, coords, bound):
    """sum c_i e_i below the bound; a half-integer bound puts it on the half
    grid, where its odd slots are zero."""
    top = math.ceil(bound)
    f = lincomb(
        (c, el.series) for c, el in zip(coords, basis(n, w, top).elements)
    )
    return f if bound == top else f + zero_series(bound)


@settings(max_examples=100, deadline=None)
@given(reduce_cases())
# a den-2 residual at an odd bound, its odd slots zero: in span
@example((2, 4, [Fraction(1), Fraction(-3, 2)], Fraction(15, 2), None))
# a negative valuation
@example((3, 6, [Fraction(1), 0, Fraction(2)], Fraction(17, 2), (Fraction(-1), 1)))
@example((3, 6, [Fraction(1), 0, Fraction(2)], Fraction(9), (Fraction(-1, 2), -2)))
# the zero series, which is what E4 - E4 expands to
@example((1, 4, [Fraction(0)], Fraction(6), None))
# perturbations at integer and half-integer exponents on the integer and
# half grids
@example((5, 4, [Fraction(1, 2), 3, -1], Fraction(9), (Fraction(7), 1)))
@example((5, 4, [Fraction(1, 2), 3, -1], Fraction(19, 2), (Fraction(11, 2), HALF)))
# elements over a denominator d_i > 1 (E(6,7,3) has d_i = 2) and level 10
@example((7, 12, [Fraction(k, 3) for k in range(9)], Fraction(14), None))
@example((7, 6, [1, 2, 3, Fraction(5, 4), -1], Fraction(11), (Fraction(9, 2), 1)))
@example((10, 4, [Fraction(k - 3, 2) for k in range(7)], Fraction(12), (Fraction(11), -2)))
def test_reduce_matches_the_lincomb_oracle(case):
    n, w, coords, bound, perturb = case
    f = combination(n, w, coords, bound)
    if perturb is not None:
        e, c = perturb
        f = f + monomial(c, e.numerator, e.denominator, bound)
    assert f.bound == bound
    got = reduce_outcome(reduce, f, n, w)
    assert got == reduce_outcome(lincomb_reduce, f, n, w)
    if perturb is None:
        assert got == [(Fraction(c), Fraction) for c in coords]


def double_e220(monkeypatch):
    """Register E(2,2,0) at twice its value: its valuation stays 0 and its
    leading coefficient becomes 2."""
    monkeypatch.setitem(levels._REGISTRY, (2, 2), (Sum([(-6, WpAtom(1, 0, 2))]),))


@pytest.mark.parametrize(
    "edit, spaces, message",
    [
        (corrupt_e673, ((7, 6), (7, 8), (7, 12)), r"^basis element E\(6,7,3\) of M_6"),
        (double_e220, ((2, 2), (2, 4), (2, 10)), r"^basis element E\(2,2,0\) of M_2.*leading 2$"),
    ],
)
def test_reduce_raises_the_registry_error_basis_raises(monkeypatch, edit, spaces, message):
    # each f is known below q^(d + 6), the bound reduce expands the basis to
    fs = {
        (n, w): expand_expr(Sum([(1, ex) for ex in basis_skeleton(n, w)]), dimension(n, w) + 6)
        for n, w in spaces
    }
    edit(monkeypatch)
    for (n, w), f in fs.items():
        with pytest.raises(QModularError) as by_basis:
            basis(n, w, dimension(n, w) + 6)
        with pytest.raises(QModularError) as by_reduce:
            reduce(f, n, w)
        assert type(by_reduce.value) is type(by_basis.value)
        assert str(by_reduce.value) == str(by_basis.value)
    with pytest.raises(InvalidRegistryEntry, match=message):
        reduce(fs[spaces[0]], *spaces[0])


def test_generator_rejects_a_registered_element_that_is_not_unitary(monkeypatch):
    double_e220(monkeypatch)
    with pytest.raises(InvalidRegistryEntry, match=r"^basis element E\(2,2,0\) of M_2.*leading 2$"):
        generator(2, 2, 0, 6)


# ---------------------------------------------------------------------------
# cross-module equalities
# ---------------------------------------------------------------------------


def test_unit_of_level_ten_weight_four_is_rescaled_level_two_unit():
    lhs = expand_expr(GeneratorRef(10, 4, 5), 26)
    rhs = delta(2, 6).substitute_power(5)
    assert series_coeff_map(lhs) == series_coeff_map(rhs.truncate(26))
    via_eta = EtaQuotient([(5, -8), (10, 16)]).expand(26)
    assert series_coeff_map(lhs) == series_coeff_map(via_eta)


def test_unit_of_level_eight_is_rescaled_level_four_unit():
    assert series_coeff_map(delta(8, 20)) == series_coeff_map(
        delta(4, 10).substitute_power(2)
    )
