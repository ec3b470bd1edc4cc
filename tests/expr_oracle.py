"""Oracles for the expression layer, kept to test the fast paths against.

* weight and val_lower as they were before expression nodes cached them:
  recomputed by recursion over the whole tree on every call, as Fractions.
* expand_expr as it was before bounds became ints in units of 1/24: the
  same evaluator and cache rules, with every bound, valuation and slack a
  Fraction, and val_lower from this module.  Two of its rules stay apart
  from the evaluator's shortcuts: a sum is added term by term with scale
  and +, not by lincomb, and Phi(N) is torsion_oracle.phi_weierstrass, not
  the torsion sum levels._phi_sum.  With the cache off (oracle) it is the
  uncached evaluator the expansion cache is tested against.
"""

import math
from fractions import Fraction

from qmodular import levels
from qmodular.errors import InsufficientPrecision, InvalidPrecision, WeightMismatch
from qmodular.eta import delta, level_unit
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
from qmodular.levels import _resolve_ref
from qmodular.qseries import _as_fraction, constant_series, zero_series
from qmodular.weierstrass import eisenstein, phi_level, wp_hat, wpt_hat, wpt_valuation

from torsion_oracle import phi_weierstrass


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


# ---------------------------------------------------------------------------
# the evaluator with Fraction bounds
# ---------------------------------------------------------------------------


class FractionBoundCache(levels._ExpansionCache):
    """The expansion cache, looked up by a Fraction bound."""

    def get(self, e, bound):
        s = self.entries.get(e)
        if s is None or s.bound < bound:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(e)
        return s.truncate(bound)


CACHE = FractionBoundCache(levels._CACHE_BUDGET)


def _expand(e, bound, cache):
    # nothing below the bound: answer without recursing
    if bound <= val_lower(e):
        return zero_series(bound)
    if isinstance(e, GeneratorRef):
        return _expand(_resolve_ref(e.level, e.weight, e.index), bound, cache)
    if cache is None or isinstance(e, Scalar):
        return _expand_node(e, bound, cache)
    s = cache.get(e, bound)
    if s is None:
        s = _expand_node(e, bound, cache)
        cache.put(e, s)
    return s


def _expand_node(e, bound, cache):
    if isinstance(e, Scalar):
        return constant_series(e.value, bound)
    if isinstance(e, WpAtom):
        return wp_hat(e.a, e.b, e.m, math.ceil(bound))
    if isinstance(e, WptAtom):
        return wpt_hat(e.a, e.b, e.m, math.ceil(bound))
    if isinstance(e, EtaAtom):
        return e.quotient.expand(bound)
    if isinstance(e, EisensteinAtom):
        return eisenstein(e.k, e.m, bound)
    if isinstance(e, PhiAtom):
        if e.mode == "weierstrass":
            return phi_weierstrass(e.level, bound)
        return phi_level(e.level, bound)
    if isinstance(e, DeltaRef):
        return delta(e.level, bound)
    if isinstance(e, HalfTwist):
        return _expand(e.child, bound, cache).half_twist()
    if isinstance(e, Sum):
        acc = None
        for c, f in e.terms:
            t = _expand(f, bound, cache).scale(c)
            acc = t if acc is None else acc + t
        return acc
    if isinstance(e, Product):
        slack = bound - val_lower(e)
        acc = None
        for f in e.factors:
            t = _expand(f, slack + val_lower(f), cache)
            acc = t if acc is None else acc * t
        return acc
    if isinstance(e, Power):
        lo = val_lower(e.base)
        t = _expand(e.base, bound - (e.exponent - 1) * lo, cache)
        return t.pow(e.exponent)
    raise TypeError(f"not a FormExpr: {e!r}")


def oracle(e, prec):
    """q-expansion of e below exponent prec with no cache."""
    b = Fraction(prec)
    return _expand(e, b, None).truncate(b)


def expand_expr(e, prec):
    """q-expansion of e below exponent prec, through CACHE; a bound that the
    integer and half-integer grids round apart bypasses it."""
    b = _as_fraction(prec)
    if b < 0:
        raise InvalidPrecision(f"negative bound {prec}")
    cache = None
    if math.ceil(2 * b) == 2 * math.ceil(b):
        cache = CACHE
        cache.sync(levels._REGISTRY)
    res = _expand(e, b, cache)
    if res.bound < b:
        raise InsufficientPrecision(
            f"expansion reached q^{res.bound}, below the requested bound q^{b}"
        )
    return res.truncate(b)
