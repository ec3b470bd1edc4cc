"""Eta quotients: products of eta(m tau)^e as exact q-expansions.

eta(m tau)^e = q^(m e / 24) * prod_{n>=1} (1 - q^(m n))^e, so a quotient
prod_m eta(m tau)^(e_m) is a rational-exponent prefactor times an integer-
grid power series.  Only quotients whose prefactor exponent lands in (1/2)Z
can be represented here; anything else raises FractionalExponent.

Each Euler factor E(q^m) = prod (1 - q^(m n)) is written term by term from
the pentagonal number theorem (exponents m k(3k-1)/2 and m k(3k+1)/2) by
euler_product, in one list; E(q) is the factor at m = 1.  The test suite
checks them against naive term-by-term binomial products.  The level units
Delta_N are eta quotients, and levels expands Delta(N) as one.

A quotient takes one of two routes, chosen by its factors alone.

* Divisor sums.  At N = 2, 3, 4, 5, 6, 8, 9 and 10, Delta_N is a
  generalized Eisenstein series, or the square of one (F. Diamond and
  J. Shurman, GTM 228, 4.5-4.8; G. Koehler, Eta Products and Theta Series
  Identities, 2011): its coefficients, or its square root's, are sums
  sum_{d|n} chi(n/d) psi(d) d^(k-1) over a few terms, which
  qseries.divisor_sums sieves with no product and no division.  Each such
  row of DELTA_TABLE carries that presentation as data, and a quotient
  that is Delta_N^j, j >= 1, of such a level expands the sieve's series
  and raises it to the power j or 2j.  No cost router
  is needed: the sieve costs O(n log n) and a division O(n^(3/2)), and
  timed below q^400, q^1000 and q^20000 the sieve beat division at every
  one of these levels, by 1.4x to 35x.  Below q^30, where either route
  takes tens of microseconds, it is within about 10% at N = 3, 5, 9 and
  10 and ahead at the others (CHANGES.md).
* Division.  Delta_1 (a cusp form) and Delta_7 (S_3(Gamma_0(7), chi_-7) is
  not 0) have no such presentation, and neither has any other quotient
  (1/Delta_N, products of units, anything the grammar builds).  With g the
  gcd of the exponents, a quotient prod_m E(q^m)^(e_m) is the g-th power
  of the narrow quotient prod_m E(q^m)^(e_m / g): its positive factors are
  powered and multiplied, the product is divided by E(q^m) once per unit
  of each negative e_m / g, and QSeries.pow raises the result to the g-th
  power.  No Euler factor is inverted on its own, so the coefficients of
  every intermediate stay about as wide as the output's (below q^1000,
  E(q)^-8 has coefficients 270 bits wider than Delta_2 = E(q)^-8 E(q^2)^16
  has).  Below q^n, E(q^m) is a series in q^m with O(sqrt(n/m)) nonzero
  terms, so a division by it costs O(n sqrt(n/m)) products, and
  O((n/m)^(3/2)) when the dividend is a series in q^m too; a power of it
  by Miller's recurrence costs O((n/m)^(3/2)).  A quotient whose output is
  itself wide gains nothing from this and can lose: many division units,
  or a dense narrow quotient raised to a high power (1/Delta = E(q)^-24 is
  1/E(q) to the 24th), cost more than inverting the sparse E(q^m) by
  Miller's recurrence in one pass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import FractionalExponent, UnknownLevel
from .qseries import QSeries, _as_fraction, _divide, divisor_sums, zero_series


def euler_function(prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) below q^prec, or below q^0 when prec < 0."""
    return euler_product(1, max(0, prec))


def euler_product(m: int, prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^(m n)) below q^prec, by the pentagonal number
    theorem: 1 + sum_{k>=1} (-1)^k (q^(m k(3k-1)/2) + q^(m k(3k+1)/2)).
    Only the slots below prec are allocated, so a multiplier m far above
    prec costs nothing extra."""
    if m < 1:
        raise ValueError("multiplier must be a positive integer")
    top = max(0, prec)
    arr = [0] * top
    if top:
        arr[0] = 1
    # e = m k(3k-1)/2 and e + m k = m k(3k+1)/2, the k-th pair of exponents
    k, e = 1, m
    while e < top:
        arr[e] = -1 if k % 2 else 1
        if e + m * k < top:
            arr[e + m * k] = arr[e]
        e += m * (3 * k + 1)
        k += 1
    return QSeries._make(1, 0, arr, 1, top)._cut(prec)


def _canonical_factors(factors):
    merged: dict[int, int] = {}
    for m, e in factors:
        if not isinstance(m, int) or not isinstance(e, int):
            raise TypeError("eta factors must be pairs of ints")
        if m < 1:
            raise ValueError(f"eta multiplier must be >= 1, got {m}")
        merged[m] = merged.get(m, 0) + e
    return tuple(sorted((m, e) for m, e in merged.items() if e != 0))


class EtaQuotient(namedtuple("EtaQuotient", "factors")):
    """prod_m eta(m tau)^(e_m), stored as sorted (multiplier, exponent) pairs."""

    __slots__ = ()

    def __new__(cls, factors):
        return super().__new__(cls, _canonical_factors(factors))

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(e for _, e in self.factors), 2)

    @property
    def lead_exponent(self) -> Fraction:
        """Exponent of the leading term: sum of m*e/24."""
        return Fraction(sum(m * e for m, e in self.factors), 24)

    def expand(self, prec) -> QSeries:
        """q-expansion below exponent prec: by the divisor-sum kernel when
        the quotient is Delta_N^j, j >= 1, for a level N with a presentation,
        else by division (module docstring)."""
        s = self.lead_exponent
        if s.denominator not in (1, 2):
            raise FractionalExponent(
                f"leading exponent {s} of this eta quotient is not in (1/2)Z"
            )
        bound = _as_fraction(prec)
        rel = math.ceil(bound - s)
        if rel <= 0:
            # the leading term already sits at or beyond the bound
            return zero_series(bound)
        # Delta_N^j is the g-th power of Delta_N's narrow quotient, with g
        # a multiple of the exponent gcd of Delta_N's own quotient
        g, narrow = _narrow(self.factors)
        unit, g_unit = _PRESENTED.get(narrow, (None, 0))
        if unit is None or g % g_unit:
            root, n = _divided(self.factors, g, rel), g
        else:
            root, n = unit.root(rel), unit.power * (g // g_unit)
        return root.pow(n).shift(s).truncate(bound)

    def __str__(self):
        """The quotient in the expression grammar; "1" when empty."""
        return "*".join(
            (f"eta({m})" if e == 1 else f"eta({m})^{e}") for m, e in self.factors
        ) or "1"


def _narrow(factors):
    """(g, narrow): the gcd g of the exponents (1 when there are none) and
    the factors with every exponent divided by g, whose quotient's g-th
    power is the quotient."""
    g = math.gcd(*[e for _, e in factors]) or 1
    return g, tuple((m, e // g) for m, e in factors)


def _divided(factors, g: int, rel: int) -> QSeries:
    """The narrow quotient of the quotient with these factors and exponent
    gcd g, from q^0 to rel terms: its positive Euler factors powered and
    multiplied, then divided by E(q^m) once per unit of each negative
    e_m / g (module docstring)."""
    narrow = None
    for m, e in factors:
        if e > 0:
            f = euler_product(m, rel).pow(e // g)
            narrow = f if narrow is None else narrow * f
    nums = [1] + [0] * (rel - 1) if narrow is None else narrow.nums
    for m, e in factors:
        if e < 0:
            b = euler_product(m, rel).nums
            for _ in range(-e // g):
                nums = _divide(nums, b)
    return QSeries._make(1, 0, nums, 1, rel)


class LevelUnit(namedtuple("LevelUnit", "level rho nu quotient terms divisor power")):
    """The distinguished cusp form Delta_N: weight rho, valuation nu, its
    eta-quotient presentation, and its divisor-sum presentation

        Delta_N = (sum over terms of c D(chi, psi, k, t) / divisor)^power

    (qseries.divisor_sums), with power 1 or 2; no terms when Delta_N has
    none (N = 1, 7)."""

    __slots__ = ()

    def root(self, rel: int) -> QSeries:
        """The power-th root of Delta_N over its leading q^(nu / power),
        from q^0 to rel terms, by the divisor-sum kernel."""
        v = self.nu // self.power
        nums = divisor_sums(self.terms, v + rel)
        return QSeries._make(1, 0, nums[v:], self.divisor, rel)


def _unit(level, factors, terms=(), divisor=1, power=1) -> LevelUnit:
    """Delta_N from its eta quotient, which fixes its weight and valuation,
    and its divisor-sum presentation, if it has one."""
    q = EtaQuotient(factors)
    return LevelUnit(level, int(q.weight), int(q.lead_exponent), q, tuple(terms), divisor, power)


# the characters of the presentations, as their values over one period:
# the trivial character, the principal characters mod 2 and mod 3, and the
# Kronecker symbols (-3/.) and (5/.)
_ONE, _CHI2, _CHI3 = (1,), (0, 1), (0, 1, 1)
_CHI_M3, _CHI_5 = (0, 1, -1), (0, 1, -1, -1, 1)

DELTA_TABLE = {
    1: _unit(1, [(1, 24)]),
    2: _unit(2, [(1, -8), (2, 16)], [(1, _CHI2, _ONE, 4, 1)]),
    3: _unit(3, [(1, -6), (3, 18)], [(1, _CHI_M3, _ONE, 3, 1)], power=2),
    4: _unit(4, [(2, -4), (4, 8)], [(1, _CHI2, _CHI2, 2, 1)]),
    5: _unit(5, [(1, -2), (5, 10)], [(1, _CHI_5, _ONE, 2, 1)], power=2),
    6: _unit(
        6,
        [(1, 2), (2, -4), (3, -6), (6, 12)],
        [(1, _ONE, _ONE, 2, 2), (-2, _ONE, _ONE, 2, 3), (1, _ONE, _ONE, 2, 6)],
    ),
    7: _unit(7, [(1, -2), (7, 14)]),
    8: _unit(8, [(4, -4), (8, 8)], [(1, _CHI2, _CHI2, 2, 2)]),
    9: _unit(
        9,
        [(3, -2), (9, 6)],
        [(1, _CHI3, _CHI3, 2, 1), (-1, _CHI_M3, _CHI_M3, 2, 1)],
        divisor=6,
    ),
    10: _unit(
        10,
        [(1, 2), (2, -4), (5, -10), (10, 20)],
        [
            (1, _CHI_5, _ONE, 2, 1), (-1, _ONE, _CHI_5, 2, 1),
            (-3, _CHI_5, _ONE, 2, 2), (1, _ONE, _CHI_5, 2, 2),
        ],
        divisor=4,
        power=2,
    ),
}

# narrow quotient -> (unit, exponent gcd of its quotient), for the units
# that have a divisor-sum presentation
_PRESENTED = {
    narrow: (u, g)
    for u in DELTA_TABLE.values()
    if u.terms
    for g, narrow in [_narrow(u.quotient.factors)]
}


def level_unit(level: int) -> LevelUnit:
    """The unit Delta_N of the level.  This is the one check of the level
    range: a level is supported when the table has its unit."""
    if level not in DELTA_TABLE:
        raise UnknownLevel(
            f"level must be in {min(DELTA_TABLE)}..{max(DELTA_TABLE)}, got {level}"
        )
    return DELTA_TABLE[level]


def delta(level: int, prec) -> QSeries:
    """q-expansion of Delta_N below exponent prec."""
    return level_unit(level).quotient.expand(prec)
