"""Spaces of modular forms on Gamma0(N), 1 <= N <= 10.

Per level the module knows:

* a registry of unitary generators E(w, N, s) for the base weights w <= rho,
  where Delta_N has weight rho and valuation nu, each given as an expression
  tree over torsion-value atoms (at level 1, over E4, E6 and Delta_1);
* the dimension of every even-weight space: the length of the registry row
  at the base weight w - s*rho <= rho, plus s*nu, by the unit ladder
  M_w = span(heads) + Delta_N * M_(w - rho) with nu heads per rung;
* how to assemble a unitary upper-triangular basis of any even-weight space
  by multiplying powers of Delta_N into the low-weight generators.

Also here: expand_expr, the precision-aware evaluator for expression trees
(it pushes the target precision down through products using valuation lower
bounds, so sparse high-valuation products cost almost nothing, and keeps
one bounded cache of the expansions it made), and reduce, the forward
substitution that writes a series in basis coordinates.

A reference node is expanded as the expression it stands for and has no
cache entry of its own: E(w,N,s) as its registered expression, Phi(N) as
its torsion sum over the atoms wp(k,0,N), whose entries it so shares with
every other tree (for N = 2, 3 and 7 the sum is the node of E(2,N,0)), and
Delta(N) as the eta atom of its quotient (eta.level_unit).
Only PhiDiv(N) calls weierstrass.phi_level.

reduce works on the integer numerators of the series and of the basis
elements, which it expands through the cache without building the
labelled BasisSet.

Each fact about a space is checked in one place: the level range by
eta.level_unit, a zero-dimensional space by _nonzero_dimension (before any
precision check), and a unitary element of the right valuation by
_check_unitary, which generator and every basis expansion call.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from fractions import Fraction

from .errors import (
    EmptySpace,
    InsufficientPrecision,
    InvalidPrecision,
    InvalidRegistryEntry,
    NotInSpan,
    UnknownGenerator,
    UnsupportedWeight,
)
from .eta import level_unit
from .expr import (
    DeltaRef,
    EisensteinAtom,
    EtaAtom,
    FormExpr,
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
)
from .qseries import HALF, QSeries, _as_fraction, constant_series, lincomb, zero_series
from .weierstrass import eisenstein, phi_level, wp_hat, wpt_hat

__all__ = [
    "dimension",
    "generator",
    "basis_skeleton",
    "basis",
    "BasisElement",
    "BasisSet",
    "expand_expr",
    "expand_cache_info",
    "expand_cache_clear",
    "ExpandCacheInfo",
    "reduce",
]


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def _check_weight(wt: int) -> None:
    if not isinstance(wt, int) or wt < 2 or wt % 2:
        raise UnsupportedWeight(f"weight must be an even integer >= 2, got {wt}")


def dimension(level: int, wt: int) -> int:
    """dim M_wt(Gamma0(level)) for even wt >= 2: s rungs of the unit ladder
    take wt down to a base weight wt - s*rho <= rho, and each rung adds nu
    to the length of the registry row there (an absent row is empty)."""
    unit = level_unit(level)
    _check_weight(wt)
    s = (wt - 1) // unit.rho
    return len(_REGISTRY.get((level, wt - s * unit.rho), ())) + s * unit.nu


# ---------------------------------------------------------------------------
# generator registry (base weights w <= rho)
# ---------------------------------------------------------------------------


def _eisenstein_head(wt: int) -> FormExpr:
    """The level-1 unitary element of valuation 0 and even weight >= 4:
    a monomial in E4 and E6 picked by the parity of wt/2."""
    j = wt // 2
    assert j >= 2
    if j % 2 == 0:
        return Power(EisensteinAtom(4, 1), j // 2)
    return Product((Power(EisensteinAtom(4, 1), (j - 3) // 2), EisensteinAtom(6, 1)))


def _poly(x: FormExpr, y: FormExpr, coeffs) -> Sum:
    """sum over (c, i, j) of c * x^i * y^j."""
    return Sum((c, Product((Power(x, i), Power(y, j)))) for c, i, j in coeffs)


def _sym(x: FormExpr, y: FormExpr, scale=1) -> Sum:
    """scale * (x^2 + y^2 + x*y)."""
    return _poly(x, y, [(scale, 2, 0), (scale, 0, 2), (scale, 1, 1)])


def _build_registry():
    reg = {}

    # N = 1 (weight 2 is empty)
    for w in range(4, 13, 2):
        reg[(1, w)] = (_eisenstein_head(w),)
    reg[(1, 12)] += (DeltaRef(1),)

    # N = 2
    e220 = Sum([(-3, WpAtom(1, 0, 2))])
    reg[(2, 2)] = (e220,)
    reg[(2, 4)] = (Power(GeneratorRef(2, 2, 0), 2), DeltaRef(2))

    # N = 3
    e230 = Sum([(-3, WpAtom(1, 0, 3))])
    e431 = Sum(
        [
            (Fraction(3, 8), Power(WpAtom(1, 0, 3), 2)),
            (Fraction(-1, 8), Power(WpAtom(0, HALF, 3), 2)),
            (Fraction(-1, 8), Power(WpAtom(Fraction(3, 2), 0, 3), 2)),
            (Fraction(-1, 8), Product((WpAtom(0, HALF, 3), WpAtom(Fraction(3, 2), 0, 3)))),
        ]
    )
    reg[(3, 2)] = (e230,)
    reg[(3, 4)] = (Power(GeneratorRef(3, 2, 0), 2), e431)
    reg[(3, 6)] = (
        Power(GeneratorRef(3, 2, 0), 3),
        Product((GeneratorRef(3, 2, 0), GeneratorRef(3, 4, 1))),
        DeltaRef(3),
    )

    # N = 4
    reg[(4, 2)] = (WptAtom(1, 0, 2), DeltaRef(4))

    # N = 5
    e250 = Sum([(Fraction(-3, 4), WpAtom(k, 0, 5)) for k in range(1, 5)])
    e451 = Sum(
        [
            (
                Fraction(9, 48),
                Power(Sum([(1, WpAtom(1, 0, 5)), (1, WpAtom(2, 0, 5))]), 2),
            ),
            (
                Fraction(-12, 48),
                _sym(WpAtom(0, HALF, 5), WpAtom(Fraction(5, 2), 0, 5)),
            ),
        ]
    )
    reg[(5, 2)] = (e250,)
    reg[(5, 4)] = (Power(GeneratorRef(5, 2, 0), 2), e451, DeltaRef(5))

    # N = 6
    reg[(6, 2)] = (
        Sum([(-3, WpAtom(1, 0, 2))]),
        Sum([(Fraction(-1, 4), WpAtom(1, 0, 2)), (Fraction(1, 4), WpAtom(1, 0, 3))]),
        DeltaRef(6),
    )

    # N = 7
    w1, w2, w3 = WpAtom(1, 0, 7), WpAtom(2, 0, 7), WpAtom(3, 0, 7)
    sum7 = Sum([(1, w1), (1, w2), (1, w3)])
    e270 = Sum([(-1, w1), (-1, w2), (-1, w3)])
    e471 = Sum(
        [
            (Fraction(1, 8), Power(sum7, 2)),
            (
                Fraction(-3, 8),
                _sym(WpAtom(0, HALF, 7), WpAtom(Fraction(7, 2), 0, 7)),
            ),
        ]
    )
    sq7 = Sum([(1, Power(w1, 2)), (1, Power(w2, 2)), (1, Power(w3, 2))])
    e472 = Sum([(Fraction(3, 32), sq7), (Fraction(-1, 32), Power(sum7, 2))])
    h1 = Sum([(9, Power(w1, 3)), (9, Power(w2, 3)), (9, Power(w3, 3))])
    h2 = Sum(
        [
            (Fraction(9, 2), Product((Power(wi, 2), wj)))
            for wi in (w1, w2, w3)
            for wj in (w1, w2, w3)
            if wi is not wj
        ]
    )
    h3 = Sum([(27, Product((w1, w2, w3)))])
    e673 = Sum(
        [
            (Fraction(-1, 576), h1),
            (Fraction(3, 576), h2),
            (Fraction(-2, 576), h3),
        ]
    )
    reg[(7, 2)] = (e270,)
    reg[(7, 4)] = (Power(GeneratorRef(7, 2, 0), 2), e471, e472)
    reg[(7, 6)] = (
        Power(GeneratorRef(7, 2, 0), 3),
        Product((GeneratorRef(7, 2, 0), GeneratorRef(7, 4, 1))),
        Product((GeneratorRef(7, 2, 0), GeneratorRef(7, 4, 2))),
        e673,
        DeltaRef(7),
    )

    # N = 8 (the middle element is the level-4 unit, which also lives here)
    reg[(8, 2)] = (WptAtom(1, 0, 2), DeltaRef(4), DeltaRef(8))

    # N = 9
    reg[(9, 2)] = (
        Sum([(-3, WpAtom(3, 0, 9))]),
        Sum([(Fraction(-1, 4), WpAtom(1, 0, 3)), (Fraction(1, 4), WpAtom(3, 0, 9))]),
        DeltaRef(9),
    )

    # N = 10
    e2_10_0 = Sum([(-3, WpAtom(5, 0, 10))])
    e2_10_1 = Sum([(Fraction(-1, 8), WpAtom(1, 0, 2)), (Fraction(1, 8), WpAtom(5, 0, 10))])
    e2_10_2 = Sum(
        [
            (Fraction(1, 16), WpAtom(1, 0, 2)),
            (Fraction(-2, 16), WpAtom(1, 0, 5)),
            (Fraction(-2, 16), WpAtom(2, 0, 5)),
            (Fraction(3, 16), WpAtom(5, 0, 10)),
        ]
    )
    g0, g1, g2 = (GeneratorRef(10, 2, s) for s in range(3))
    reg[(10, 2)] = (e2_10_0, e2_10_1, e2_10_2)
    reg[(10, 4)] = (
        Power(g0, 2),
        Product((g0, g1)),
        Product((g0, g2)),
        Product((g1, g2)),
        Power(g2, 2),
        Sum([(Fraction(1, 256), Power(WptAtom(0, HALF, 5), 2))]),
        DeltaRef(10),
    )

    return reg


_REGISTRY = _build_registry()


def _resolve_ref(level: int, wt: int, index: int) -> FormExpr:
    """Defining expression of the registered generator E(wt, level, index)."""
    level_unit(level)
    _check_weight(wt)
    if level == 1 and index == 0 and wt > 12:
        # the head of every level-1 weight above the registry rows
        return _eisenstein_head(wt)
    row = _REGISTRY.get((level, wt))
    if row is None or not 0 <= index < len(row):
        raise UnknownGenerator(f"no generator E({wt},{level},{index})")
    return row[index]


# ---------------------------------------------------------------------------
# expansion of expression trees
# ---------------------------------------------------------------------------


# Budget of the expansion cache, in stored coefficients (CHANGES.md has the
# sweep it was chosen from).
_CACHE_BUDGET = 12_000


ExpandCacheInfo = namedtuple("ExpandCacheInfo", "hits misses evictions coefficients")


def _cost(s: QSeries) -> int:
    """Coefficients an entry holds; a zero-so-far series counts as one."""
    return max(1, len(s.nums))


class _ExpansionCache:
    """Least-recently-used map from expression node to the longest expansion
    of it computed so far, holding at most `budget` coefficients in all.

    An entry answers every request whose bound it reaches, by truncation.
    find is the one lookup: one that answers counts a hit, one that does
    not a miss, after which the evaluator expands the node and puts it.
    The generator registry is the one input that can change under a node
    (GeneratorRef resolves through it), so every entry is dropped when the
    registry no longer equals the snapshot the entries were made under."""

    def __init__(self, budget: int):
        self.budget = budget
        self.clear()

    def clear(self) -> None:
        self.entries = OrderedDict()
        self.size = 0
        self.hits = self.misses = self.evictions = 0
        self.registry = None

    def sync(self, registry) -> None:
        if registry != self.registry:
            self.entries.clear()
            self.size = 0
            self.registry = dict(registry)

    def find(self, e: FormExpr, bound: int):
        """The entry for e cut below q^(bound/24), counted as a hit and made
        the most recent, or None, counted as a miss, when it stops short."""
        s = self.entries.get(e)
        # s.bound < bound/24
        if s is None or 24 * s.prec < bound * s.den:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(e)
        return s._cut(-(-bound * s.den // 24))

    def put(self, e: FormExpr, s: QSeries) -> None:
        # a shorter entry for e may have been evicted while s was computed
        if e in self.entries:
            self.size -= _cost(self.entries.pop(e))
        cost = _cost(s)
        if cost > self.budget:
            return
        while self.size + cost > self.budget:
            self.size -= _cost(self.entries.popitem(last=False)[1])
            self.evictions += 1
        self.entries[e] = s
        self.size += cost

    def info(self) -> ExpandCacheInfo:
        return ExpandCacheInfo(self.hits, self.misses, self.evictions, self.size)


_CACHE = _ExpansionCache(_CACHE_BUDGET)


def expand_cache_info() -> ExpandCacheInfo:
    """Hits, misses and evictions of the expansion cache since it was last
    cleared, and the coefficients it holds now."""
    return _CACHE.info()


def expand_cache_clear() -> None:
    """Empty the expansion cache and reset its counters."""
    _CACHE.clear()


def _phi_sum(level: int) -> Sum:
    """Phi_N as its torsion sum: -3/(N-1) times the values wp(k, 0, N),
    0 < k < N, folded by parity (each pair {k, N-k} counted once, doubled;
    the middle point of even N counted once).  For N = 2, 3 and 7 this is
    the node of E(2, N, 0)."""
    return Sum(
        (Fraction(-3 if 2 * k == level else -6, level - 1), WpAtom(k, 0, level))
        for k in range(1, level // 2 + 1)
    )


def _expand(e: FormExpr, bound: int, cache) -> QSeries:
    """The expansion of e below q^(bound/24).

    The bound is an int in units of 1/24, as are the valuation bounds
    (FormExpr._lower) it is compared with and moved by, so the recursion does
    its bound arithmetic on ints.  The kernels take an exponent: constants
    and the torsion, Eisenstein and divisor kernels the ceiling of bound/24,
    the eta quotients and the zero series the exact bound/24.

    A reference, E(w,N,s), Phi(N) or Delta(N), is expanded as the node it
    resolves to (its registered expression, its torsion sum, the eta atom
    of its quotient) and stores no entry of its own.

    A power f^n (n >= 3) that misses, with the cache on, climbs one fixed
    binary addition chain (Knuth, TAOCP vol. 2, 4.6.3) where pow would take
    binary powering; where it would run Miller's recurrence, one pass for
    any n, a chain saves nothing.  With low = f._lower and
    slack = bound - n*low, the slack rule of products, f^n is f^(n-1) times
    f for odd n and the square of f^(n/2) for even n, each f^k expanded
    through _expand below slack + k*low, so the product reaches the bound.
    Every step is an ordinary lookup of the node f^k, found or stored like
    any other, so a chain makes at most 2 floor(log2 n) products, and its
    answer does not depend on what the cache holds.  With the cache off, f
    expanded below slack + low is raised to the n-th power."""
    # nothing below the bound: answer without recursing
    if bound <= e._lower:
        return zero_series(Fraction(bound, 24))
    # a reference is expanded as the expression it stands for, which is
    # cached under its own node, so it is not stored a second time
    if isinstance(e, GeneratorRef):
        return _expand(_resolve_ref(e.level, e.weight, e.index), bound, cache)
    if isinstance(e, PhiAtom) and e.mode == "weierstrass":
        return _expand(_phi_sum(e.level), bound, cache)
    if isinstance(e, DeltaRef):
        return _expand(EtaAtom(level_unit(e.level).quotient), bound, cache)
    # a Scalar's expansion is a constant and zeros, cheaper to build than
    # to store
    if cache is None or isinstance(e, Scalar):
        return _expand_node(e, bound, cache)
    s = cache.find(e, bound)
    if s is None:
        s = _expand_node(e, bound, cache)
        cache.put(e, s)
    return s


def _expand_node(e: FormExpr, bound: int, cache) -> QSeries:
    top = -(-bound // 24)
    if isinstance(e, Scalar):
        return constant_series(e.value, top)
    # Torsion atoms expand to the bound's ceiling, top, which fixes the
    # answer's grid at a fractional bound: wp(5/2,1/2,5) is stored on the
    # integer grid below q^1 (its half-integer slots there are zero), on the
    # half grid below q^(1/2).
    if isinstance(e, WpAtom):
        return wp_hat(e.a, e.b, e.m, top)
    if isinstance(e, WptAtom):
        return wpt_hat(e.a, e.b, e.m, top)
    if isinstance(e, EtaAtom):
        return e.quotient.expand(Fraction(bound, 24))
    if isinstance(e, EisensteinAtom):
        return eisenstein(e.k, e.m, top)
    if isinstance(e, PhiAtom):  # the divisor presentation
        return phi_level(e.level, top)
    if isinstance(e, HalfTwist):
        return _expand(e.child, bound, cache).half_twist()
    if isinstance(e, Sum):
        return lincomb((c, _expand(f, bound, cache)) for c, f in e.terms)
    if isinstance(e, Product):
        slack = bound - e._lower
        acc = None
        for f in e.factors:
            t = _expand(f, slack + f._lower, cache)
            acc = t if acc is None else acc * t
        return acc
    if isinstance(e, Power):
        n, base = e.exponent, e.base
        low = base._lower
        slack = bound - n * low
        t = _expand(base, slack + low, cache)
        if cache is not None and n > 2 and t.by_squaring(n):
            # the binary chain: f^(n-1) * f for odd n, (f^(n/2))^2 for even n
            if n % 2:
                return _expand(Power(base, n - 1), slack + (n - 1) * low, cache) * t
            return _expand(Power(base, n // 2), slack + n // 2 * low, cache).pow(2)
        return t.pow(n)
    raise TypeError(f"not a FormExpr: {e!r}")


def expand_expr(e: FormExpr, prec) -> QSeries:
    """q-expansion of the expression tree below exponent prec.

    The evaluation runs on the int ceil(24 prec), the bound in units of 1/24
    (see _expand).  Rounding prec up to a multiple of 1/24 changes no
    answer: every exponent the evaluation compares a bound with lies in
    (1/24)Z, and every grid it rounds a bound to, (1/2)Z or Z, is coarser.

    The answer's bound is prec rounded up on the exponent grid of the series
    the evaluation ends with.  When the integer and half-integer grids round
    prec differently (its fractional part lies in (0, 1/2]), that grid, and
    so the answer, depends on how the tree was evaluated; such requests
    bypass the expansion cache, so that the cache never changes an answer."""
    b = _as_fraction(prec)
    if b < 0:
        raise InvalidPrecision(f"negative bound {prec}")
    bound = -(-24 * b.numerator // b.denominator)
    cache = None
    # ceil(2 b) == 2 ceil(b)
    if -(-bound // 12) == 2 * -(-bound // 24):
        cache = _CACHE
        cache.sync(_REGISTRY)
    res = _expand(e, bound, cache)
    if 24 * res.prec < bound * res.den:
        # the valuation bound trusts the registry: a generator edited to a
        # lower valuation than its index leaves a product short of its bound
        raise InsufficientPrecision(
            f"expansion reached q^{res.bound}, below the requested bound q^{b}"
        )
    return res._cut(-(-bound * res.den // 24))


# ---------------------------------------------------------------------------
# generators and bases
# ---------------------------------------------------------------------------


def _check_unitary(ex: FormExpr, ser: QSeries, level: int, wt: int, index: int) -> None:
    """Check that ser, the expansion of the element ex of M_wt(Gamma0(level))
    below a bound above q^index, is unitary of valuation index on the
    integer grid; the error names ex, printed only when the check fails."""
    # valuation index below the bound leaves nums nonempty
    if ser.den != 1 or ser.val != index or ser.nums[0] != ser.d:
        raise InvalidRegistryEntry(
            f"basis element {print_expr(ex)} of M_{wt}(Gamma0({level})) "
            f"expands with valuation {ser.valuation}, leading {ser.leading}"
        )


def generator(level: int, wt: int, index: int, prec=None):
    """The registered generator as (expression, expansion), validated to be
    unitary of valuation `index` on the integer grid."""
    ex = _resolve_ref(level, wt, index)
    p = _as_fraction(prec) if prec is not None else Fraction(index + 6)
    if p <= index:
        raise InsufficientPrecision(
            f"precision {p} cannot exhibit the leading term at q^{index}"
        )
    ser = expand_expr(ex, p)
    _check_unitary(GeneratorRef(level, wt, index), ser, level, wt, index)
    return ex, ser


def _with_delta(level: int, b: int, core: FormExpr) -> FormExpr:
    if b == 0:
        return core
    if core == DeltaRef(level):
        return Power(DeltaRef(level), b + 1)
    return Product((Power(DeltaRef(level), b), core))


def _row_element(level: int, wt: int, index: int) -> FormExpr:
    """Basis element for a base-weight row: keep structural defining forms
    (unit powers, products, eta units) as-is, name the long linear
    combinations by their registry slot."""
    ex = _resolve_ref(level, wt, index)
    return GeneratorRef(level, wt, index) if isinstance(ex, Sum) else ex


def _nonzero_dimension(level: int, wt: int) -> int:
    """dimension(level, wt), which must be positive: EmptySpace otherwise."""
    d = dimension(level, wt)
    if d == 0:
        raise EmptySpace(f"M_{wt}(Gamma0({level})) is zero-dimensional")
    return d


def basis_skeleton(level: int, wt: int):
    """The expressions of the unitary upper-triangular basis, ordered by
    claimed valuation 0, 1, ..., dim-1 (no expansion happens here)."""
    d = _nonzero_dimension(level, wt)
    unit = level_unit(level)
    rho, nu = unit.rho, unit.nu
    out = []
    b = 0
    ww = wt
    g = GeneratorRef(level, 2, 0)
    while ww > rho:
        # level 1 has no weight-2 generator g, and nu = 1
        heads = [_eisenstein_head(ww) if level == 1 else Power(g, ww // 2)]
        for s in range(1, nu):
            heads.append(Product((GeneratorRef(level, rho, s), Power(g, (ww - rho) // 2))))
        for h in heads:
            out.append(_with_delta(level, b, h))
        b += 1
        ww -= rho
    for s in range(dimension(level, ww)):
        out.append(_with_delta(level, b, _row_element(level, ww, s)))
    assert len(out) == d
    return out


# index is the element's position, which is its valuation
BasisElement = namedtuple("BasisElement", "index label expr series")


class BasisSet(namedtuple("BasisSet", "level weight precision elements")):
    __slots__ = ()

    def __len__(self):
        return len(self.elements)

    def to_json(self):
        els = []
        for el in self.elements:
            coeffs = []
            for x in range(el.index, self.precision):
                c = Fraction(el.series.coefficient(x))
                coeffs.append([str(c.numerator), str(c.denominator)])
            els.append(
                {
                    "s": el.index,
                    "valuation": el.index,
                    "label": el.label,
                    "coefficients": coeffs,
                }
            )
        return {
            "level": self.level,
            "weight": self.weight,
            "precision": self.precision,
            "elements": els,
        }


def _expanded_basis(level: int, wt: int, p: int) -> list:
    """(expression, expansion below q^p) for each element of the skeleton of
    M_wt(Gamma0(level)), each checked to be unitary of valuation equal to
    its index on the integer grid.  Every expansion goes through
    expand_expr, so a space asked for before costs one cache hit per
    element."""
    out = []
    for s, ex in enumerate(basis_skeleton(level, wt)):
        ser = expand_expr(ex, p)
        _check_unitary(ex, ser, level, wt, s)
        out.append((ex, ser))
    return out


def basis(level: int, wt: int, prec) -> BasisSet:
    """Unitary upper-triangular basis of M_wt(Gamma0(level)), each element
    expanded below exponent prec, a rational read up to the integer
    precision ceil(prec), as expand_expr reads it (precision >= dimension
    so every pivot shows)."""
    d = _nonzero_dimension(level, wt)
    p = math.ceil(_as_fraction(prec))
    if p < d:
        raise InsufficientPrecision(
            f"precision {p} below the dimension {d} of M_{wt}(Gamma0({level}))"
        )
    elements = tuple(
        BasisElement(s, print_expr(ex), ex, ser)
        for s, (ex, ser) in enumerate(_expanded_basis(level, wt, p))
    )
    return BasisSet(level, wt, p, elements)


# ---------------------------------------------------------------------------
# reduction to coordinates
# ---------------------------------------------------------------------------


def reduce(f: QSeries, level: int, wt: int):
    """Coordinates of f in the unitary upper-triangular basis, by forward
    substitution on the pivots 0..dim-1.

    The residual must vanish everywhere below f.bound; the first surviving
    exponent otherwise lands in the NotInSpan error.  f must carry at least
    dim + 5 known coefficients so that membership is actually tested, not
    merely interpolated.

    The substitution runs on integer numerators: the residual is one int
    list xs over one denominator den on its own exponent grid, and
    element i, with numerators e over d_i and e[0] == d_i, clears the slot
    of q^i in place by xs <- xs * d_i - xs[slot] * e from that slot on, and
    den <- den * d_i.  The slots below it are not rescaled: a pivot there is
    zero already, and any other slot only has to stay nonzero."""
    d = _nonzero_dimension(level, wt)
    if f.prec < (d + 5) * f.den:
        raise InsufficientPrecision(
            f"series known below q^{f.bound} but dimension {d} needs at least q^{d + 5}"
        )
    elements = _expanded_basis(level, wt, -(-f.prec // f.den))
    r, v = f.den, f.val
    xs = list(f.nums)
    den = f.d
    coords = []
    # element i covers q^i .. q^(ceil(f.bound) - 1), the integer slots of
    # the residual from q^i to its end
    for i, (_, e) in enumerate(elements):
        at = i * r - v
        x = xs[at] if at >= 0 else 0
        coords.append(Fraction(x, den))
        if x:
            tail = slice(at, at + r * len(e.nums), r)
            xs[tail] = [y * e.d - x * z for y, z in zip(xs[tail], e.nums)]
            den *= e.d
    for k, x in enumerate(xs):
        if x:
            raise NotInSpan(Fraction(v + k, r))
    return coords
