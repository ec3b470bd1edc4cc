"""Symbolic expression trees over the q-expandable building blocks.

A FormExpr describes how a modular form is assembled from primitive atoms
(torsion values, eta quotients, Eisenstein series, level units, registered
generators) by scaling, addition, multiplication and integer powers.  Trees
are immutable and compare structurally; nothing here expands anything --
expansion lives in levels.expand_expr, which uses the two cheap static
queries every node supports:

* weight(e): the modular weight, an exact Fraction;
* val_lower(e): a lower bound on the leading exponent of the expansion,
  exact for atoms and combined in the obvious way (min over sums, sum over
  products).  It is what makes high-valuation products cheap to expand.

print_expr renders a tree in the same grammar the CLI parses, so
parse(print_expr(e)) round-trips for trees made of grammar constructs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WeightMismatch
from .eta import EtaQuotient, level_unit
from .qseries import _as_fraction
from .weierstrass import wpt_valuation


class FormExpr:
    """Base marker for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Scalar(FormExpr):
    """An exact rational constant (weight 0)."""

    value: Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", _as_fraction(value))


@dataclass(frozen=True)
class GeneratorRef(FormExpr):
    """Reference to the registered generator E^(index) of the given weight
    on the given level; resolved against the level registry at expansion."""

    level: int
    weight: int
    index: int


@dataclass(frozen=True)
class DeltaRef(FormExpr):
    """The level unit Delta_N (an eta quotient; see the level table)."""

    level: int


@dataclass(frozen=True)
class _TorsionAtom(FormExpr):
    """A torsion value at offset a*tau + b on the m-fold cover.  a, b are
    rationals with denominator dividing 2."""

    a: Fraction
    b: Fraction
    m: int

    def __init__(self, a, b, m):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "m", int(m))


class WpAtom(_TorsionAtom):
    """Torsion value of the rescaled p-function."""


class WptAtom(_TorsionAtom):
    """Torsion value of the half-period-shifted companion function."""


@dataclass(frozen=True)
class EtaAtom(FormExpr):
    """An eta quotient as a leaf."""

    quotient: EtaQuotient

    def __init__(self, quotient):
        if not isinstance(quotient, EtaQuotient):
            quotient = EtaQuotient(quotient)
        object.__setattr__(self, "quotient", quotient)


@dataclass(frozen=True)
class EisensteinAtom(FormExpr):
    """The classical Eisenstein series E_k evaluated at m*tau (even k >= 4)."""

    k: int
    m: int = 1


@dataclass(frozen=True)
class PhiAtom(FormExpr):
    """The normalized weight-2 level series Phi_N.  mode selects the
    expansion route ('weierstrass' torsion sum or 'divisor' sigma sum);
    both agree and the identity suite keeps them comparable."""

    level: int
    mode: str = "weierstrass"


@dataclass(frozen=True)
class Sum(FormExpr):
    """Linear combination: tuple of (coefficient, expression) terms, all of
    the same weight."""

    terms: tuple

    def __init__(self, terms):
        items = tuple((_as_fraction(c), e) for c, e in terms)
        for _, e in items:
            if not isinstance(e, FormExpr):
                raise TypeError(f"sum term {e!r} is not a FormExpr")
        object.__setattr__(self, "terms", items)


@dataclass(frozen=True)
class Product(FormExpr):
    """Product of factors (weights add)."""

    factors: tuple

    def __init__(self, factors):
        items = tuple(factors)
        for e in items:
            if not isinstance(e, FormExpr):
                raise TypeError(f"product factor {e!r} is not a FormExpr")
        object.__setattr__(self, "factors", items)


@dataclass(frozen=True)
class Power(FormExpr):
    """Nonnegative integer power of a base expression."""

    base: FormExpr
    exponent: int

    def __init__(self, base, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"power exponent must be a nonnegative int, got {exponent}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


@dataclass(frozen=True)
class HalfTwist(FormExpr):
    """Apply q^(1/2) -> -q^(1/2) to the child's expansion.  Realizes the
    companion value at offsets shifted by (tau+1)/2-type half periods that
    are not directly in the atom domain."""

    child: FormExpr


# ---------------------------------------------------------------------------
# static queries
# ---------------------------------------------------------------------------


def weight(e: FormExpr) -> Fraction:
    """Modular weight of the expression, as an exact Fraction.

    Raises WeightMismatch if a Sum mixes weights."""
    if isinstance(e, Scalar):
        return Fraction(0)
    if isinstance(e, GeneratorRef):
        return Fraction(e.weight)
    if isinstance(e, DeltaRef):
        return Fraction(level_unit(e.level).rho)
    if isinstance(e, (_TorsionAtom, PhiAtom)):
        return Fraction(2)
    if isinstance(e, EtaAtom):
        return e.quotient.weight
    if isinstance(e, EisensteinAtom):
        return Fraction(e.k)
    if isinstance(e, HalfTwist):
        return weight(e.child)
    if isinstance(e, Sum):
        ws = [weight(f) for _, f in e.terms]
        for w in ws[1:]:
            if w != ws[0]:
                raise WeightMismatch(
                    f"sum mixes weights {ws[0]} and {w}"
                )
        return ws[0] if ws else Fraction(0)
    if isinstance(e, Product):
        return sum((weight(f) for f in e.factors), Fraction(0))
    if isinstance(e, Power):
        return weight(e.base) * e.exponent
    raise TypeError(f"not a FormExpr: {e!r}")


def val_lower(e: FormExpr) -> Fraction:
    """A lower bound on the leading exponent of e's q-expansion.

    Exact for every atom; for composites it is the natural combination
    (min over sum terms, sum over product factors), which stays a sound
    bound even when cancellation raises the true valuation."""
    if isinstance(e, (Scalar, WpAtom, EisensteinAtom, PhiAtom)):
        return Fraction(0)
    if isinstance(e, WptAtom):
        return wpt_valuation(e.a, e.b, e.m)
    if isinstance(e, EtaAtom):
        return e.quotient.lead_exponent
    if isinstance(e, DeltaRef):
        return Fraction(level_unit(e.level).nu)
    if isinstance(e, GeneratorRef):
        return Fraction(e.index)
    if isinstance(e, HalfTwist):
        return val_lower(e.child)
    if isinstance(e, Sum):
        if not e.terms:
            return Fraction(0)
        return min(val_lower(f) for _, f in e.terms)
    if isinstance(e, Product):
        return sum((val_lower(f) for f in e.factors), Fraction(0))
    if isinstance(e, Power):
        return val_lower(e.base) * e.exponent
    raise TypeError(f"not a FormExpr: {e!r}")


# ---------------------------------------------------------------------------
# canonicalizing factories
# ---------------------------------------------------------------------------


def make_sum(terms) -> FormExpr:
    """Sum of (coeff, expr) terms with a weight check; a single term with
    coefficient 1 collapses to the bare expression."""
    items = [(Fraction(c), e) for c, e in terms]
    if not items:
        raise ValueError("empty sum")
    s = Sum(items)
    weight(s)  # raises WeightMismatch on mixed weights
    if len(items) == 1 and items[0][0] == 1:
        return items[0][1]
    return s


def make_product(factors) -> FormExpr:
    items = list(factors)
    if not items:
        return Scalar(1)
    if len(items) == 1:
        return items[0]
    return Product(items)


def make_power(base: FormExpr, n: int) -> FormExpr:
    if n == 0:
        return Scalar(1)
    if n == 1:
        return base
    return Power(base, n)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# precedence levels for printing: sums bind loosest, then products, then
# powers; atoms (including function-call forms) never need parentheses.
_LVL_SUM, _LVL_PROD, _LVL_POW, _LVL_ATOM = 0, 1, 2, 3


def _level_of(e: FormExpr) -> int:
    if isinstance(e, Sum):
        return _LVL_SUM if len(e.terms) > 1 else _LVL_PROD
    if isinstance(e, Product):
        return _LVL_PROD
    if isinstance(e, Power):
        return _LVL_POW
    if isinstance(e, Scalar):
        return _LVL_ATOM if e.value >= 0 and e.value.denominator == 1 else _LVL_SUM
    if isinstance(e, EtaAtom):
        n = len(e.quotient.factors)
        if n == 0:
            return _LVL_ATOM
        if n == 1 and e.quotient.factors[0][1] == 1:
            return _LVL_ATOM
        return _LVL_PROD
    return _LVL_ATOM


def _render(e: FormExpr, need: int) -> str:
    s = _to_str(e)
    if _level_of(e) < need:
        return f"({s})"
    return s


def _term_str(c: Fraction, f: FormExpr) -> str:
    """Render one sum term with a positive-or-zero textual coefficient
    (sign handling is the caller's job)."""
    if isinstance(f, Scalar) and f.value == 1:
        return str(c)
    if c == 1:
        return _render(f, _LVL_PROD)
    return f"{c}*{_render(f, _LVL_PROD)}"


def _to_str(e: FormExpr) -> str:
    if isinstance(e, Scalar):
        return str(e.value)
    if isinstance(e, GeneratorRef):
        return f"E({e.weight},{e.level},{e.index})"
    if isinstance(e, DeltaRef):
        return f"Delta({e.level})"
    if isinstance(e, WpAtom):
        return f"wp({e.a},{e.b},{e.m})"
    if isinstance(e, WptAtom):
        return f"wpt({e.a},{e.b},{e.m})"
    if isinstance(e, EtaAtom):
        return str(e.quotient)
    if isinstance(e, EisensteinAtom):
        if e.m == 1 and e.k in (4, 6, 8, 10, 12):
            return f"E{e.k}"
        return f"Eis({e.k},{e.m})"
    if isinstance(e, PhiAtom):
        return f"Phi({e.level})" if e.mode == "weierstrass" else f"PhiDiv({e.level})"
    if isinstance(e, HalfTwist):
        return f"twist({_to_str(e.child)})"
    if isinstance(e, Power):
        return f"{_render(e.base, _LVL_ATOM)}^{e.exponent}"
    if isinstance(e, Product):
        return "*".join(_render(f, _LVL_POW) for f in e.factors)
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        out = []
        for i, (c, f) in enumerate(e.terms):
            if i == 0:
                if c < 0:
                    out.append("-" + _term_str(-c, f))
                else:
                    out.append(_term_str(c, f))
            elif c < 0:
                out.append(" - " + _term_str(-c, f))
            else:
                out.append(" + " + _term_str(c, f))
        return "".join(out)
    raise TypeError(f"not a FormExpr: {e!r}")


def print_expr(e: FormExpr) -> str:
    """Render e in the CLI expression grammar."""
    return _to_str(e)
