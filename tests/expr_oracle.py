"""The static queries as they were before expression nodes cached them:
weight and val_lower recomputed by recursion over the whole tree on every
call.  Kept as the oracle the cached values are tested against."""

from fractions import Fraction

from qmodular.errors import WeightMismatch
from qmodular.eta import level_unit
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
)
from qmodular.weierstrass import wpt_valuation


def weight(e) -> Fraction:
    if isinstance(e, Scalar):
        return Fraction(0)
    if isinstance(e, GeneratorRef):
        return Fraction(e.weight)
    if isinstance(e, DeltaRef):
        return Fraction(level_unit(e.level).rho)
    if isinstance(e, (WpAtom, WptAtom, PhiAtom)):
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
                raise WeightMismatch(f"sum mixes weights {ws[0]} and {w}")
        return ws[0] if ws else Fraction(0)
    if isinstance(e, Product):
        return sum((weight(f) for f in e.factors), Fraction(0))
    if isinstance(e, Power):
        return weight(e.base) * e.exponent
    raise TypeError(f"not a FormExpr: {e!r}")


def val_lower(e) -> Fraction:
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


def subtrees(e):
    """Every node of the tree under e, e included, each once."""
    seen, stack, out = set(), [e], []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, Sum):
            stack.extend(f for _, f in x.terms)
        elif isinstance(x, Product):
            stack.extend(x.factors)
        elif isinstance(x, Power):
            stack.append(x.base)
        elif isinstance(x, HalfTwist):
            stack.append(x.child)
    return out
