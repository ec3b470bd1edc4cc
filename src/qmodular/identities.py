"""A registry of exact q-expansion identities, each stated as two
independently expandable expression trees.

Every case pairs two different computation routes for the same form --
torsion-value sums against eta quotients, companion-function polynomials
against classical Eisenstein series, the two presentations of the level
series Phi_N -- so a single check exercises disjoint code paths.  check()
expands both sides to the same bound and reports either PASS or the first
exponent where they disagree, together with both coefficients.

REGISTRY is built on first use: by names(), check(), check_all(), or a
read of identities.REGISTRY.  Importing the module (as `import qmodular`
does) builds none of the 37 identity trees.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import InsufficientPrecision, UnknownIdentity
from .expr import (
    DeltaRef,
    EisensteinAtom,
    GeneratorRef,
    HalfTwist,
    PhiAtom,
    Power,
    Product,
    Sum,
    WpAtom,
    WptAtom,
    weight,
)
from .levels import _poly, _sym, expand_expr
from .qseries import HALF, _as_fraction


IdentityCase = namedtuple("IdentityCase", "name lhs rhs note default_prec", defaults=(200,))


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "name prec first_bad_exponent lhs_coefficient rhs_coefficient",
        defaults=(None, None, None),
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.first_bad_exponent is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self):
        doc = {
            "name": self.name,
            "status": self.status,
            "prec": self.prec,
            "first_bad_exponent": None
            if self.passed
            else str(self.first_bad_exponent),
        }
        if not self.passed:
            doc["lhs_coefficient"] = str(Fraction(self.lhs_coefficient))
            doc["rhs_coefficient"] = str(Fraction(self.rhs_coefficient))
        return doc

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: PASS (below q^{self.prec})"
        return (
            f"{self.name}: FAIL at q^{self.first_bad_exponent} "
            f"(lhs={self.lhs_coefficient}, rhs={self.rhs_coefficient})"
        )


def __getattr__(name):
    if name == "REGISTRY":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _registry() -> "dict[str, IdentityCase]":
    """REGISTRY, built by its first caller."""
    global REGISTRY
    if "REGISTRY" not in globals():
        REGISTRY = {}
        _build()
    return REGISTRY


def _register(name, lhs, rhs, note, default_prec=200):
    assert name not in REGISTRY, name
    assert weight(lhs) == weight(rhs), (name, weight(lhs), weight(rhs))
    REGISTRY[name] = IdentityCase(name, lhs, rhs, note, default_prec)


def _build():
    # companion values on the unit lattice and its double
    V = WptAtom(HALF, 0, 1)
    W = WptAtom(0, HALF, 1)
    T = WptAtom(1, 0, 2)
    U = WptAtom(0, HALF, 2)

    _register(
        "mod1",
        WpAtom(1, HALF, 2),
        Sum([(Fraction(-1, 3), U), (Fraction(-1, 3), T)]),
        "p-value at tau+1/2 on the doubled lattice as a companion-value sum",
    )
    _register(
        "wp2wpt-at-half",
        W,
        Sum([(1, WpAtom(HALF, 0, 1)), (-1, WpAtom(HALF, HALF, 1))]),
        "companion value at 1/2 as a difference of p-values",
    )
    _register(
        "wp2wpt-at-tau-half",
        V,
        Sum([(1, WpAtom(0, HALF, 1)), (-1, WpAtom(HALF, HALF, 1))]),
        "companion value at tau/2 as a difference of p-values",
    )
    _register(
        "delta1-product",
        DeltaRef(1),
        Sum([(Fraction(1, 256), Power(Product((W, V, HalfTwist(V))), 2))]),
        "the discriminant as the squared product of the three half-period "
        "companion values (the third one via the half twist)",
    )
    _register(
        "e2-2-twpa",
        Sum([(-3, WpAtom(1, 0, 2))]),
        Sum([(1, T), (-2, U)]),
        "the weight-2 level-2 generator as a companion-value combination",
    )
    _register(
        "e4-sym",
        EisensteinAtom(4, 1),
        _sym(WpAtom(0, HALF, 1), WpAtom(HALF, 0, 1), 3),
        "E4 as the symmetric square form of two half-period p-values",
    )
    _register(
        "e4-twpa-sym",
        EisensteinAtom(4, 1),
        Sum(
            [
                (HALF, Power(W, 2)),
                (HALF, Power(V, 2)),
                (HALF, Power(HalfTwist(V), 2)),
            ]
        ),
        "E4 as half the sum of squares of the three companion values",
    )
    _register(
        "e4-2tau",
        EisensteinAtom(4, 1),
        _poly(T, U, [(1, 2, 0), (16, 0, 2), (-16, 1, 1)]),
        "E4 as a binary form in the doubled-lattice companion values",
    )
    _register(
        "e4-tau-sym",
        EisensteinAtom(4, 1),
        _poly(V, W, [(1, 2, 0), (1, 0, 2), (-1, 1, 1)]),
        "E4 as a binary form in the unit-lattice companion values",
    )
    _register(
        "e6-2tau",
        EisensteinAtom(6, 1),
        _poly(T, U, [(1, 3, 0), (30, 2, 1), (-96, 1, 2), (64, 0, 3)]),
        "E6 as a cubic form in the doubled-lattice companion values",
    )
    _register(
        "e6-sym",
        EisensteinAtom(6, 1),
        _poly(
            V,
            W,
            [(1, 3, 0), (Fraction(-3, 2), 2, 1), (Fraction(-3, 2), 1, 2), (1, 0, 3)],
        ),
        "E6 as a cubic form in the unit-lattice companion values",
    )
    _register(
        "e8-2tau",
        EisensteinAtom(8, 1),
        _poly(
            T,
            U,
            [(1, 4, 0), (-32, 3, 1), (288, 2, 2), (-512, 1, 3), (256, 0, 4)],
        ),
        "E8 as a quartic form in the doubled-lattice companion values",
    )
    _register(
        "e8-sym",
        EisensteinAtom(8, 1),
        _poly(V, W, [(1, 4, 0), (-2, 3, 1), (3, 2, 2), (-2, 1, 3), (1, 0, 4)]),
        "E8 as a quartic form in the unit-lattice companion values",
    )
    _register(
        "e10-sym",
        EisensteinAtom(10, 1),
        _poly(
            V,
            W,
            [
                (1, 5, 0),
                (Fraction(-5, 2), 4, 1),
                (1, 3, 2),
                (1, 2, 3),
                (Fraction(-5, 2), 1, 4),
                (1, 0, 5),
            ],
        ),
        "E10 as a quintic form in the unit-lattice companion values",
    )
    _register(
        "e12-sym",
        EisensteinAtom(12, 1),
        _poly(
            V,
            W,
            [
                (1, 6, 0),
                (-3, 5, 1),
                (Fraction(4917, 1382), 4, 2),
                (Fraction(-1462, 691), 3, 3),
                (Fraction(4917, 1382), 2, 4),
                (-3, 1, 5),
                (1, 0, 6),
            ],
        ),
        "E12 as a sextic form in the unit-lattice companion values",
    )
    _register(
        "e8-e4sq",
        EisensteinAtom(8, 1),
        Power(EisensteinAtom(4, 1), 2),
        "the one-dimensionality of weight 8 at level 1",
    )
    _register(
        "delta2-sq",
        DeltaRef(2),
        Sum([(Fraction(1, 256), Power(W, 2))]),
        "the level-2 unit as a scaled companion-value square",
    )
    _register(
        "delta4-twpa",
        DeltaRef(4),
        Sum([(Fraction(-1, 16), U)]),
        "the level-4 unit as a scaled companion value",
    )
    _register(
        "delta8-twpa",
        DeltaRef(8),
        Sum([(Fraction(-1, 16), WptAtom(0, HALF, 4))]),
        "the level-8 unit as a scaled companion value",
    )
    _register(
        "delta5-diff-sq",
        DeltaRef(5),
        Sum(
            [
                (
                    Fraction(1, 16),
                    Power(Sum([(1, WpAtom(1, 0, 5)), (-1, WpAtom(2, 0, 5))]), 2),
                )
            ]
        ),
        "the level-5 unit as the squared difference of two torsion values",
    )
    _register(
        "delta6-combo",
        DeltaRef(6),
        Sum(
            [(Fraction(3, 48), WpAtom(1, 0, 2)), (Fraction(-8, 48), WpAtom(1, 0, 3))]
            + [(Fraction(1, 48), WpAtom(k, 0, 6)) for k in range(1, 6)]
        ),
        "the level-6 unit as a linear combination of torsion values",
    )
    w1, w2, w3 = WpAtom(1, 0, 7), WpAtom(2, 0, 7), WpAtom(3, 0, 7)
    _register(
        "e673-h",
        GeneratorRef(7, 6, 3),
        Sum(
            [
                (
                    Fraction(-1, 128),
                    Product(
                        (
                            Sum([(2, w1), (-1, w2), (-1, w3)]),
                            Sum([(2, w2), (-1, w1), (-1, w3)]),
                            Sum([(2, w3), (-1, w1), (-1, w2)]),
                        )
                    ),
                )
            ]
        ),
        "the cubic level-7 element factored into three linear forms",
    )
    _register(
        "e23-twpa",
        Sum([(-3, WpAtom(1, 0, 3))]),
        Sum(
            [
                (-3, WptAtom(HALF, HALF, 3)),
                (1, WptAtom(0, HALF, 3)),
                (1, WptAtom(Fraction(3, 2), 0, 3)),
            ]
        ),
        "the weight-2 level-3 generator as a companion-value combination",
    )
    _register(
        "e25-fold",
        Sum([(Fraction(-3, 4), WpAtom(k, 0, 5)) for k in range(1, 5)]),
        Sum([(Fraction(-3, 2), WpAtom(1, 0, 5)), (Fraction(-3, 2), WpAtom(2, 0, 5))]),
        "folding the level-5 torsion sum by the symmetry k <-> 5-k",
    )
    _register(
        "eis45-sym",
        EisensteinAtom(4, 5),
        _sym(WpAtom(0, HALF, 5), WpAtom(Fraction(5, 2), 0, 5), 3),
        "E4 at 5*tau as the symmetric square form of half-period values",
    )
    _register(
        "eis47-sym",
        EisensteinAtom(4, 7),
        _sym(WpAtom(0, HALF, 7), WpAtom(Fraction(7, 2), 0, 7), 3),
        "E4 at 7*tau as the symmetric square form of half-period values",
    )
    _register(
        "n9-linear",
        Sum([(1, WpAtom(1, 0, 3)), (3, WpAtom(3, 0, 9))]),
        Sum([(1, WpAtom(k, 0, 9)) for k in range(1, 5)]),
        "the linear relation among level-9 torsion values",
    )
    _register(
        "n10-linear",
        Sum([(2, WpAtom(5, 0, 10)), (1, WpAtom(1, 0, 5)), (1, WpAtom(2, 0, 5))]),
        Sum([(1, WpAtom(k, 0, 10)) for k in range(1, 5)]),
        "the linear relation among level-10 torsion values",
    )
    for n in range(2, 11):
        _register(
            f"phi-dual-{n}",
            PhiAtom(n, "weierstrass"),
            PhiAtom(n, "divisor"),
            "the two presentations of the weight-2 level series agree",
            default_prec=300,
        )


def names():
    return list(_registry())


def check(name: str, prec=None) -> IdentityReport:
    """Expand both sides of the named identity below the bound and compare.
    A rational bound is read up to the integer ceil(prec), as expand_expr
    reads it; a bound of 0, which compares nothing, is InsufficientPrecision."""
    case = _registry().get(name)
    if case is None:
        raise UnknownIdentity(f"no identity named {name!r}")
    p = math.ceil(_as_fraction(prec)) if prec is not None else case.default_prec
    if p == 0:
        raise InsufficientPrecision("a bound of q^0 compares no coefficient")
    lhs = expand_expr(case.lhs, p)
    rhs = expand_expr(case.rhs, p)
    diff = lhs - rhs
    if diff.is_zero:
        return IdentityReport(name, p)
    e = diff.valuation
    return IdentityReport(name, p, e, Fraction(lhs.coefficient(e)), Fraction(rhs.coefficient(e)))


def check_all(prec=None):
    """Reports for every registered identity, in registration order.

    With prec=None each case runs at its own default bound."""
    return [check(name, prec) for name in _registry()]
