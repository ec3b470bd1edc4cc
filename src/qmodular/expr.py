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
expansion lives in levels.expand_expr, which reads the two facts every node
keeps as plain ints in a fixed unit:

* the modular weight, kept as twice the weight (_weight; every weight lies
  in (1/2)Z, since an eta quotient has weight sum(e)/2), or None under a sum
  that mixes weights;
* a lower bound on the leading exponent of the expansion, kept as 24 times
  the bound (_lower; every leading exponent lies in (1/24)Z, since an eta
  quotient's is sum(m e)/24), exact for atoms and combined in the obvious
  way (min over sums, sum over products).  It is what makes high-valuation
  products cheap to expand.

Construction is canonical: each constructor returns the node of the
canonical form of what it is given, so one form is one node, and no later
stage needs to know a rule.  These are the rules, and the only place they
are applied:

* Sum: a term c*(d*f), its expression a one-term Sum, is the term (c*d)*f;
  a term c*v, its expression a Scalar v, is (c*v)*1, and the terms c*1
  fold into one, where the first of them stood; a lone term 1*f is f, and
  a lone term c*1 is Scalar(c), so a sum of constants is its Scalar.
* Product: a Product among the factors is flattened into them; Scalar
  factors multiply out into the coefficient of a one-term Sum around the
  rest; the EtaAtom factors merge into one, placed where the first of them
  stood, or dropped when their quotient cancels; one factor left is that
  factor.
* Power: an EtaAtom base to any int exponent is the EtaAtom of the scaled
  quotient; a Scalar base to any int exponent is the Scalar of the power,
  and Scalar(0) to a negative one raises ValueError, so the empty quotient
  Scalar(1) takes every exponent as an eta quotient does; any other base
  with a negative exponent raises ValueError; ^0 is Scalar(1) and ^1 the
  base.
* EtaAtom: the empty quotient is Scalar(1).

As each child is built canonical, nested powers and products fold too:
eta(1)^24, (eta(1)^2)^12 and Delta(1)'s quotient are one node, and so are
(E4*eta(1))*eta(23) and E4*eta(1)*eta(23).  Trees that mix weights under a
sum are still built; weight() names the sum that mixes them.

Each node class states its facts in one rule, its _facts method: an atom
from its fields, Sum, Product, Power and HalfTwist from their children's
facts.  Both facts are filled in one pass on first use (FormExpr.__getattr__),
so building a tree costs nothing for them and every later read is a slot
read.  A new node fact is one more value of _facts, kept in one more slot.
The public weight(e) and val_lower(e) turn the ints into exact Fractions.

print_expr renders a tree in the same grammar the CLI parses, and the parse
of that text is the node itself for every tree of one weight, since the
parser builds through the same constructors; each class gives its printed
form in its _print method.
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


# Weights k whose E_k(tau) prints as the shorthand Ek; the CLI parser reads
# the same names.
SHORT_EISENSTEIN_WEIGHTS = (4, 6, 8, 10, 12)

# precedence levels for printing: sums bind loosest, then products, then
# powers; atoms (including function-call forms) never need parentheses.
_LVL_SUM, _LVL_PROD, _LVL_POW, _LVL_ATOM = 0, 1, 2, 3


class FormExpr:
    """Base of the expression nodes.

    A node holds its fields, its table key and hash, and its facts: the
    weight (_weight, in halves, None under a mixed sum) and the valuation
    bound (_lower, in 24ths).  Subclasses list their fields in _fields, in
    constructor order, and each concrete class gives
    * _facts(): (_weight, _lower), from its fields or its children's facts;
    * _print(): (text, precedence level) in the CLI grammar;
    and each class with children gives _mixed(), the message naming the
    first sum under it that mixes weights, depth first.  Each constructor
    returns the canonical node of what it is given (module docstring)."""

    __slots__ = ("_key", "_hash", "_weight", "_lower", "__weakref__")
    _fields = ()

    def __getattr__(self, name):
        # Python asks here only for an attribute it did not find, so a fact
        # is read here once, while its slot is unset; _weight and _lower are
        # filled together
        if name != "_weight" and name != "_lower":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        w, v = self._facts()
        object.__setattr__(self, "_weight", w)
        object.__setattr__(self, "_lower", v)
        return w if name == "_weight" else v

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

    def _facts(self):
        return 0, 0

    def _print(self):
        v = self.value
        return str(v), _LVL_ATOM if v >= 0 and v.denominator == 1 else _LVL_SUM


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

    def _facts(self):
        # the index alone, never the registry, so an edited registry leaves
        # no stale bound here (expand_expr checks the bound it reached)
        return 2 * self.weight, 24 * self.index

    def _print(self):
        return f"E({self.weight},{self.level},{self.index})", _LVL_ATOM


class DeltaRef(FormExpr):
    """The level unit Delta_N (an eta quotient; see the level table)."""

    __slots__ = _fields = ("level",)

    def __new__(cls, level):
        level = _int_field("Delta level", level)
        level_unit(level)  # raises UnknownLevel
        return _node((cls, level))

    def _facts(self):
        unit = level_unit(self.level)
        return 2 * unit.rho, 24 * unit.nu

    def _print(self):
        return f"Delta({self.level})", _LVL_ATOM


class _TorsionAtom(FormExpr):
    """A torsion value (weight 2) at offset a*tau + b on the m-fold cover.
    a, b are rationals with denominator dividing 2, checked against the
    domain of the subclass's kernel by its _check; the subclass prints as
    its _name."""

    __slots__ = _fields = ("a", "b", "m")

    def __new__(cls, a, b, m):
        m = _int_field("torsion cover m", m)
        return _node((cls, *cls._check(a, b, m), m))

    def _print(self):
        return f"{self._name}({self.a},{self.b},{self.m})", _LVL_ATOM


class WpAtom(_TorsionAtom):
    """Torsion value of the rescaled p-function."""

    __slots__ = ()
    _check = staticmethod(_check_wp)
    _name = "wp"

    def _facts(self):
        return 4, 0


class WptAtom(_TorsionAtom):
    """Torsion value of the half-period-shifted companion function."""

    __slots__ = ()
    _check = staticmethod(_check_wpt)
    _name = "wpt"

    def _facts(self):
        return 4, int(24 * wpt_valuation(self.a, self.b, self.m))


class EtaAtom(FormExpr):
    """An eta quotient as a leaf."""

    __slots__ = _fields = ("quotient",)

    def __new__(cls, quotient):
        if not isinstance(quotient, EtaQuotient):
            quotient = EtaQuotient(quotient)
        return _node((cls, quotient)) if quotient.factors else Scalar(1)

    def _facts(self):
        q = self.quotient
        return int(2 * q.weight), int(24 * q.lead_exponent)

    def _print(self):
        # a lone eta(m) is an atom, anything else binds as a power: among a
        # product's factors the parser reads a quotient of several factors
        # back as this atom, since Product merges them
        fs = self.quotient.factors
        atom = len(fs) == 1 and fs[0][1] == 1
        return str(self.quotient), _LVL_ATOM if atom else _LVL_POW


class EisensteinAtom(FormExpr):
    """The classical Eisenstein series E_k evaluated at m*tau (even k >= 4)."""

    __slots__ = _fields = ("k", "m")

    def __new__(cls, k, m=1):
        k = _int_field("Eisenstein weight k", k)
        m = _int_field("Eisenstein multiplier m", m)
        _check_eisenstein(k, m)
        return _node((cls, k, m))

    def _facts(self):
        return 2 * self.k, 0

    def _print(self):
        if self.m == 1 and self.k in SHORT_EISENSTEIN_WEIGHTS:
            return f"E{self.k}", _LVL_ATOM
        return f"Eis({self.k},{self.m})", _LVL_ATOM


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

    def _facts(self):
        return 4, 0

    def _print(self):
        name = "Phi" if self.mode == "weierstrass" else "PhiDiv"
        return f"{name}({self.level})", _LVL_ATOM


class Sum(FormExpr):
    """Linear combination: a nonempty tuple of (coefficient, expression)
    terms, all of the same weight."""

    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):
        items = []
        one = None  # where the constant term c*1 stands in items
        for c, e in terms:
            c = _as_fraction(c)
            if type(e) is Sum and len(e.terms) == 1:
                c, e = c * e.terms[0][0], e.terms[0][1]
            elif type(e) is Scalar:
                c, e = c * e.value, Scalar(1)
                if one is not None:
                    items[one] = (items[one][0] + c, e)
                    continue
                one = len(items)
            elif not isinstance(e, FormExpr):
                raise TypeError(f"sum term {e!r} is not a FormExpr")
            items.append((c, e))
        if not items:
            raise ValueError("empty sum")
        if len(items) == 1:
            c, e = items[0]
            if c == 1 or type(e) is Scalar:  # Scalar(1), as the loop made it
                return e if c == 1 else Scalar(c)
        return _node((cls, tuple(items)))

    def _facts(self):
        # one weight, or None when the terms differ or one of them is None
        ws = {f._weight for _, f in self.terms}
        return ws.pop() if len(ws) == 1 else None, min(f._lower for _, f in self.terms)

    def _mixed(self):
        ws = [f._weight for _, f in self.terms]
        if None in ws:
            return self.terms[ws.index(None)][1]._mixed()
        x = next(x for x in ws if x != ws[0])
        return f"sum mixes weights {Fraction(ws[0], 2)} and {Fraction(x, 2)}"

    def _print(self):
        out = []
        for c, f in self.terms:
            out += [" - " if c < 0 else " + ", _term_str(abs(c), f)]
        out[0] = "-" if out[0] == " - " else ""
        s = "".join(out)
        # a leading minus binds like a sum, as a negative Scalar's does:
        # inside a sum term or after a coefficient it needs parentheses
        return s, _LVL_SUM if len(self.terms) > 1 or s.startswith("-") else _LVL_PROD


class Product(FormExpr):
    """Product of a tuple of at least two factors (weights add), none of
    them a Scalar or a Product and at most one an EtaAtom (module
    docstring)."""

    __slots__ = _fields = ("factors",)

    def __new__(cls, factors):
        items = tuple(factors)
        if not items:
            raise ValueError("empty product")
        c = 1
        # the factor types alone find the common case, nothing to fold
        if not _PLAIN.issuperset(map(type, items)):
            kinds = {*map(type, items)}
            if Product in kinds:
                flat = []
                for e in items:
                    flat += e.factors if type(e) is Product else (e,)
                items, kinds = tuple(flat), {*map(type, flat)}
            for e in items:
                if not isinstance(e, FormExpr):
                    raise TypeError(f"product factor {e!r} is not a FormExpr")
            if Scalar in kinds:
                for e in items:
                    if type(e) is Scalar:
                        c *= e.value
                items = tuple(e for e in items if type(e) is not Scalar)
            if EtaAtom in kinds:
                eta = EtaAtom([p for e in items if type(e) is EtaAtom for p in e.quotient.factors])
                rest = [e for e in items if type(e) is not EtaAtom]
                # every factor before the first eta atom is in rest, in place;
                # a quotient that cancels is the Scalar 1, and goes
                i = [*map(type, items)].index(EtaAtom)
                items = (*rest[:i], eta, *rest[i:]) if type(eta) is EtaAtom else tuple(rest)
            if not items:
                return Scalar(c)
        node = items[0] if len(items) == 1 else _node((cls, items))
        return node if c == 1 else Sum(((c, node),))

    def _facts(self):
        ws = [f._weight for f in self.factors]
        return None if None in ws else sum(ws), sum(f._lower for f in self.factors)

    def _mixed(self):
        return next(f for f in self.factors if f._weight is None)._mixed()

    def _print(self):
        return "*".join(_render(f, _LVL_POW) for f in self.factors), _LVL_PROD


class Power(FormExpr):
    """Integer power, at least 2, of a base that is neither a Scalar nor an
    EtaAtom (module docstring)."""

    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if type(exponent) is not int:
            raise ValueError(f"power exponent must be an int, got {exponent!r}")
        if not isinstance(base, FormExpr):
            raise TypeError(f"power base {base!r} is not a FormExpr")
        if type(base) is EtaAtom:
            return EtaAtom([(m, e * exponent) for m, e in base.quotient.factors])
        if type(base) is Scalar:
            if exponent < 0 and not base.value:
                raise ValueError(f"negative exponent {exponent} on zero")
            return Scalar(base.value**exponent)
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} on a base that is not an eta quotient")
        if exponent < 2:
            return base if exponent else Scalar(1)
        return _node((cls, base, exponent))

    def _facts(self):
        w, n = self.base._weight, self.exponent
        return None if w is None else w * n, self.base._lower * n

    def _mixed(self):
        return self.base._mixed()

    def _print(self):
        return f"{_render(self.base, _LVL_ATOM)}^{self.exponent}", _LVL_POW


class HalfTwist(FormExpr):
    """Apply q^(1/2) -> -q^(1/2) to the child's expansion.  Realizes the
    companion value at offsets shifted by (tau+1)/2-type half periods that
    are not directly in the atom domain."""

    __slots__ = _fields = ("child",)

    def __new__(cls, child):
        if not isinstance(child, FormExpr):
            raise TypeError(f"twisted expression {child!r} is not a FormExpr")
        return _node((cls, child))

    def _facts(self):
        return self.child._weight, self.child._lower

    def _mixed(self):
        return self.child._mixed()

    def _print(self):
        return f"twist({self.child._print()[0]})", _LVL_ATOM


# The node classes a Product keeps as they are among its factors; a factor
# of any other type (a Product, a Scalar, an EtaAtom, or not a node at all)
# sends Product.__new__ down its folding path.
_PLAIN = frozenset((GeneratorRef, DeltaRef, WpAtom, WptAtom, EisensteinAtom, PhiAtom, Sum, Power, HalfTwist))


# ---------------------------------------------------------------------------
# static queries
# ---------------------------------------------------------------------------


def weight(e: FormExpr) -> Fraction:
    """Modular weight of the expression, as an exact Fraction.

    Raises WeightMismatch, naming the first sum that mixes weights, if one
    does; on every call, since a mixed tree keeps no weight."""
    w = e._weight
    if w is None:
        raise WeightMismatch(e._mixed())
    return Fraction(w, 2)


def val_lower(e: FormExpr) -> Fraction:
    """A lower bound on the leading exponent of e's q-expansion, as an exact
    Fraction.

    Exact for every atom; for composites it is the natural combination
    (min over sum terms, sum over product factors), which stays a sound
    bound even when cancellation raises the true valuation."""
    return Fraction(e._lower, 24)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render(e: FormExpr, need: int) -> str:
    s, level = e._print()
    return f"({s})" if level < need else s


def _term_str(c: Fraction, f: FormExpr) -> str:
    """Render one sum term with a positive-or-zero textual coefficient
    (sign handling is the caller's job)."""
    if isinstance(f, Scalar) and f.value == 1:
        return str(c)
    if c == 1:
        return _render(f, _LVL_PROD)
    return f"{c}*{_render(f, _LVL_PROD)}"


def print_expr(e: FormExpr) -> str:
    """Render e in the CLI expression grammar."""
    return e._print()[0]
