"""Symbolic expression trees over the q-expandable building blocks.

A FormExpr describes how a modular form is assembled from primitive atoms
(torsion values, eta quotients, Eisenstein series, level units, registered
generators) by scaling, addition, multiplication and integer powers.  Trees
are immutable and hash-consed: constructing a node returns the live node of
the same class and fields if there is one, found through a weak table, so
the equal subtrees that separate parses, basis skeletons and requests build
are one object while anything holds them.  Equality stays structural
(identity is its fast path), and copy and pickle rebuild a node through its
constructor, so copies are the interned node.  A node's hash is computed
once, at construction, from its children's; nothing here expands anything --
expansion lives in levels.expand_expr, which uses the two static queries
every node supports, each computed on first use from the children's cached
values and then kept on the node as a plain int in a fixed unit:

* the modular weight, cached as twice the weight (_weight2; every weight
  lies in (1/2)Z, since an eta quotient has weight sum(e)/2);
* a lower bound on the leading exponent of the expansion, cached as 24
  times the bound (_lower24; every leading exponent lies in (1/24)Z, since
  an eta quotient's is sum(m e)/24), exact for atoms and combined in the
  obvious way (min over sums, sum over products).  It is what makes
  high-valuation products cheap to expand.

The public weight(e) and val_lower(e) turn these ints into exact Fractions;
levels and make_sum's weight check work on the ints.

print_expr renders a tree in the same grammar the CLI parses, so
parse(print_expr(e)) round-trips for trees made of grammar constructs.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .errors import WeightMismatch
from .eta import EtaQuotient, level_unit
from .qseries import _as_fraction
from .weierstrass import (
    _check_eisenstein,
    _check_phi_level,
    _check_wp,
    _check_wpt,
    wpt_valuation,
)

# Every live node, keyed by (class, *fields), held through a weak reference
# whose callback drops the entry when the node dies, so that the table keeps
# no node that nothing else holds.
_NODES = {}


def _forget(ref):
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _int_field(name: str, value) -> int:
    """value if it is an int; bools, floats and Fractions are rejected, since
    they compare equal to ints but print differently."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


def _node(key):
    """The live node whose key is (class, *normalized fields), made and
    entered in the table if there is none."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(key[0])
    for name, value in zip(node._fields, key[1:]):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_key", key)
    object.__setattr__(node, "_hash", hash(key))
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


class FormExpr:
    """Base of the expression nodes.

    A node holds its fields, its table key and hash, and the cached weight
    (_weight, in halves) and valuation bound (_lower, in 24ths), ints that
    stay unset until first asked for.  Subclasses list their fields in
    _fields, in constructor order."""

    __slots__ = ("_key", "_hash", "_weight", "_lower", "__weakref__")
    _fields = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._key[1:]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class Scalar(FormExpr):
    """An exact rational constant (weight 0)."""

    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        return _node((cls, _as_fraction(value)))


class GeneratorRef(FormExpr):
    """Reference to the registered generator E^(index) of the given weight
    on the given level; resolved against the level registry at expansion."""

    __slots__ = _fields = ("level", "weight", "index")

    def __new__(cls, level, weight, index):
        return _node(
            (
                cls,
                _int_field("generator level", level),
                _int_field("generator weight", weight),
                _int_field("generator index", index),
            )
        )


class DeltaRef(FormExpr):
    """The level unit Delta_N (an eta quotient; see the level table)."""

    __slots__ = _fields = ("level",)

    def __new__(cls, level):
        level = _int_field("Delta level", level)
        level_unit(level)  # raises UnknownLevel
        return _node((cls, level))


class _TorsionAtom(FormExpr):
    """A torsion value at offset a*tau + b on the m-fold cover.  a, b are
    rationals with denominator dividing 2, checked against the domain of
    the subclass's kernel by its _check."""

    __slots__ = _fields = ("a", "b", "m")

    def __new__(cls, a, b, m):
        m = _int_field("torsion cover m", m)
        return _node((cls, *cls._check(a, b, m), m))


class WpAtom(_TorsionAtom):
    """Torsion value of the rescaled p-function."""

    __slots__ = ()
    _check = staticmethod(_check_wp)


class WptAtom(_TorsionAtom):
    """Torsion value of the half-period-shifted companion function."""

    __slots__ = ()
    _check = staticmethod(_check_wpt)


class EtaAtom(FormExpr):
    """An eta quotient as a leaf."""

    __slots__ = _fields = ("quotient",)

    def __new__(cls, quotient):
        if not isinstance(quotient, EtaQuotient):
            quotient = EtaQuotient(quotient)
        return _node((cls, quotient))


class EisensteinAtom(FormExpr):
    """The classical Eisenstein series E_k evaluated at m*tau (even k >= 4)."""

    __slots__ = _fields = ("k", "m")

    def __new__(cls, k, m=1):
        k = _int_field("Eisenstein weight k", k)
        m = _int_field("Eisenstein multiplier m", m)
        _check_eisenstein(k, m)
        return _node((cls, k, m))


class PhiAtom(FormExpr):
    """The normalized weight-2 level series Phi_N, 2 <= N <= 10.  mode
    selects the presentation: 'weierstrass' stands for the torsion sum
    levels.expand_expr resolves it to, 'divisor' for the sigma sum of
    weierstrass.phi_level; both agree and the identity suite compares them."""

    __slots__ = _fields = ("level", "mode")

    def __new__(cls, level, mode="weierstrass"):
        level = _int_field("Phi level", level)
        _check_phi_level(level)
        if mode not in ("weierstrass", "divisor"):
            raise ValueError(f"unknown Phi mode {mode!r}")
        return _node((cls, level, mode))


class Sum(FormExpr):
    """Linear combination: a nonempty tuple of (coefficient, expression)
    terms, all of the same weight."""

    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):
        items = tuple((_as_fraction(c), e) for c, e in terms)
        if not items:
            raise ValueError("empty sum")
        for _, e in items:
            if not isinstance(e, FormExpr):
                raise TypeError(f"sum term {e!r} is not a FormExpr")
        return _node((cls, items))


class Product(FormExpr):
    """Product of a nonempty tuple of factors (weights add)."""

    __slots__ = _fields = ("factors",)

    def __new__(cls, factors):
        items = tuple(factors)
        if not items:
            raise ValueError("empty product")
        for e in items:
            if not isinstance(e, FormExpr):
                raise TypeError(f"product factor {e!r} is not a FormExpr")
        return _node((cls, items))


class Power(FormExpr):
    """Nonnegative integer power of a base expression."""

    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"power exponent must be a nonnegative int, got {exponent!r}")
        if not isinstance(base, FormExpr):
            raise TypeError(f"power base {base!r} is not a FormExpr")
        return _node((cls, base, exponent))


class HalfTwist(FormExpr):
    """Apply q^(1/2) -> -q^(1/2) to the child's expansion.  Realizes the
    companion value at offsets shifted by (tau+1)/2-type half periods that
    are not directly in the atom domain."""

    __slots__ = _fields = ("child",)

    def __new__(cls, child):
        if not isinstance(child, FormExpr):
            raise TypeError(f"twisted expression {child!r} is not a FormExpr")
        return _node((cls, child))


# ---------------------------------------------------------------------------
# static queries
# ---------------------------------------------------------------------------


def weight(e: FormExpr) -> Fraction:
    """Modular weight of the expression, as an exact Fraction.

    Raises WeightMismatch if a Sum mixes weights, on every call: a failure
    is not cached."""
    return Fraction(_weight2(e), 2)


def val_lower(e: FormExpr) -> Fraction:
    """A lower bound on the leading exponent of e's q-expansion, as an exact
    Fraction.

    Exact for every atom; for composites it is the natural combination
    (min over sum terms, sum over product factors), which stays a sound
    bound even when cancellation raises the true valuation."""
    return Fraction(_lower24(e), 24)


def _weight2(e: FormExpr) -> int:
    """Twice the weight of e, computed once per node and kept in _weight."""
    try:
        return e._weight
    except AttributeError:
        pass
    if isinstance(e, Scalar):
        w = 0
    elif isinstance(e, GeneratorRef):
        w = 2 * e.weight
    elif isinstance(e, DeltaRef):
        w = 2 * level_unit(e.level).rho
    elif isinstance(e, (_TorsionAtom, PhiAtom)):
        w = 4
    elif isinstance(e, EtaAtom):
        w = int(2 * e.quotient.weight)
    elif isinstance(e, EisensteinAtom):
        w = 2 * e.k
    elif isinstance(e, HalfTwist):
        w = _weight2(e.child)
    elif isinstance(e, Sum):
        w, *rest = [_weight2(f) for _, f in e.terms]
        for x in rest:
            if x != w:
                raise WeightMismatch(f"sum mixes weights {Fraction(w, 2)} and {Fraction(x, 2)}")
    elif isinstance(e, Product):
        w = sum(_weight2(f) for f in e.factors)
    elif isinstance(e, Power):
        w = _weight2(e.base) * e.exponent
    else:
        raise TypeError(f"not a FormExpr: {e!r}")
    object.__setattr__(e, "_weight", w)
    return w


def _lower24(e: FormExpr) -> int:
    """24 times val_lower(e), computed once per node and kept in _lower."""
    try:
        return e._lower
    except AttributeError:
        pass
    if isinstance(e, (Scalar, WpAtom, EisensteinAtom, PhiAtom)):
        v = 0
    elif isinstance(e, WptAtom):
        v = int(24 * wpt_valuation(e.a, e.b, e.m))
    elif isinstance(e, EtaAtom):
        v = int(24 * e.quotient.lead_exponent)
    elif isinstance(e, DeltaRef):
        v = 24 * level_unit(e.level).nu
    elif isinstance(e, GeneratorRef):
        # the index alone, never the registry, so an edited registry leaves
        # no stale bound here (expand_expr checks the bound it reached)
        v = 24 * e.index
    elif isinstance(e, HalfTwist):
        v = _lower24(e.child)
    elif isinstance(e, Sum):
        v = min(_lower24(f) for _, f in e.terms)
    elif isinstance(e, Product):
        v = sum(_lower24(f) for f in e.factors)
    elif isinstance(e, Power):
        v = _lower24(e.base) * e.exponent
    else:
        raise TypeError(f"not a FormExpr: {e!r}")
    object.__setattr__(e, "_lower", v)
    return v


# ---------------------------------------------------------------------------
# canonicalizing factories
# ---------------------------------------------------------------------------


def make_sum(terms) -> FormExpr:
    """Sum of (coeff, expr) terms with a weight check; a single term with
    coefficient 1 collapses to the bare expression; no terms raise
    ValueError."""
    items = list(terms)
    s = items[0][1] if len(items) == 1 and items[0][0] == 1 else Sum(items)
    _weight2(s)  # raises WeightMismatch on mixed weights
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

# Weights k whose E_k(tau) prints as the shorthand Ek; the CLI parser reads
# the same names.
SHORT_EISENSTEIN_WEIGHTS = (4, 6, 8, 10, 12)

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
        if e.m == 1 and e.k in SHORT_EISENSTEIN_WEIGHTS:
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
