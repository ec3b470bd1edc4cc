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

* Presentations.  Every level unit Delta_N has a presentation as a sum
  of series that takes no product and no division, and each row of
  DELTA_TABLE carries it as data; a quotient that is Delta_N^j, j >= 1,
  expands that sum and QSeries.pow raises it to the power j, 2j or 8j.
  At N = 2, 3, 4, 5, 6, 8, 9 and 10, Delta_N is a generalized Eisenstein
  series, or the square of one (F. Diamond and J. Shurman, GTM 228,
  4.5-4.8; G. Koehler, Eta Products and Theta Series Identities, 2011):
  its coefficients, or its square root's, are sums
  sum_{d|n} chi(n/d) psi(d) d^(k-1) over a few terms, which
  qseries.divisor_sums sieves.  Delta_1 = q (eta(tau)^3 q^(-1/8))^8, and
  Jacobi's eta(tau)^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2 + 1/8) has
  about sqrt(2n) terms below q^n.  Delta_7 = F^2 with F = eta(7 tau)^7 /
  eta(tau) in M_3(Gamma_0(7), chi_-7).  That space has dimension 3,
  spanned by two Eisenstein series and the CM form eta(tau)^3 eta(7 tau)^3
  of Q(sqrt -7), which is Theta / 8 for the theta series
  Theta = sum_{u = v mod 2} (u^2 - 7 v^2) q^((u^2 + 7 v^2) / 4) of the
  Hecke character alpha -> alpha^2 on Z[(1 + sqrt -7) / 2].  So
  F = (8 E - Theta) / 64 with E = sum_n sum_{d|n} chi_-7(n/d) d^2 q^n:
  one divisor sum and one loop over O(n) lattice points.  No cost router
  is needed: a presentation costs at most O(n log n), a division
  O(n^(3/2)).
  Timed below q^400, q^1000 and q^20000, the presentation beat division
  at every level, by 1.2x to 35x.  Below q^30, where either route takes
  tens of microseconds, it is within about 10% at N = 3, 5, 9 and 10 and
  ahead at the others but N = 7, where the sieve's six classes and the
  lattice loop make it about 30% slower; Delta_7 pulls ahead between
  q^100 and q^200 (CHANGES.md).
* Division.  No other quotient has a presentation: 1/Delta_N, products
  of units, roots such as eta(3 tau)^-1 eta(9 tau)^3, and anything else
  the grammar builds.  With g the gcd of the exponents, a quotient
  prod_m E(q^m)^(e_m) is the g-th power of the narrow quotient
  prod_m E(q^m)^(e_m / g): its positive factors are powered and
  multiplied, the product is divided by E(q^m) once per unit of each
  negative e_m / g, and QSeries.pow raises the result to the g-th
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
        """q-expansion below exponent prec: from Delta_N's presentation
        when the quotient is Delta_N^j, j >= 1, else by division (module
        docstring)."""
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


def _add_eta_cube(out: list, c: int) -> None:
    """Add c times Jacobi's eta(tau)^3 q^(-1/8) = sum_{n>=0} (-1)^n (2n+1)
    q^(n(n+1)/2) to the int list out, below q^len(out), written term by
    term as euler_product writes E(q^m)."""
    top = len(out)
    # x = (-1)^n (2n+1) c at e = n(n+1)/2
    n, e, x = 0, 0, c
    while e < top:
        out[e] += x
        n += 1
        e += n
        x = -x - 2 * c if n % 2 else -x + 2 * c


def _add_theta_7(out: list, c: int) -> None:
    """Add c times Theta = sum_{u = v mod 2} (u^2 - 7 v^2) q^((u^2 + 7 v^2) / 4),
    over the lattice points (u, v) of Z^2, to the int list out, below
    q^len(out).  Theta = 8 eta(tau)^3 eta(7 tau)^3 (module docstring)."""
    top = 4 * len(out)
    v = b = 0
    while b < top:
        # w counts (u, v) and (u, -v); a u > 0 counts (-u, +-v) too
        w = 2 * c if v else c
        if v % 2 == 0:
            out[b >> 2] -= w * b
        for u in range(2 - v % 2, math.isqrt(top - 1 - b) + 1, 2):
            a = u * u
            out[(a + b) >> 2] += 2 * w * (a - b)
        v += 1
        b = 7 * v * v


class LevelUnit(
    namedtuple("LevelUnit", "level rho nu quotient terms divisor power theta", defaults=((),))
):
    """The distinguished cusp form Delta_N: weight rho, valuation nu, its
    eta-quotient presentation, and the presentation

        Delta_N = q^(nu - power v) ((S + T) / divisor)^power,

    with v = floor(nu / power), S the sum over terms of c D(chi, psi, k, t)
    (qseries.divisor_sums) and T the sum over the (c, add) pairs of theta
    of c times the series that add(out, c) adds to a list: Jacobi's series
    at N = 1 (power 8, no terms) and Theta at N = 7, and none at the other
    levels (module docstring)."""

    __slots__ = ()

    def root(self, rel: int) -> QSeries:
        """(S + T) / divisor, the power-th root of Delta_N over
        q^(nu / power - v), from q^v to rel terms, shifted to q^0."""
        v = self.nu // self.power
        nums = divisor_sums(self.terms, v + rel)
        for c, add in self.theta:
            add(nums, c)
        return QSeries._make(1, 0, nums[v:], self.divisor, rel)


def _unit(level, factors, terms=(), divisor=1, power=1, theta=()) -> LevelUnit:
    """Delta_N from its eta quotient, which fixes its weight and valuation,
    and its presentation."""
    q = EtaQuotient(factors)
    return LevelUnit(
        level, int(q.weight), int(q.lead_exponent), q, tuple(terms), divisor, power, tuple(theta)
    )


# the characters of the presentations, as their values over one period:
# the trivial character, the principal characters mod 2 and mod 3, and the
# Kronecker symbols (-3/.), (5/.) and (-7/.)
_ONE, _CHI2, _CHI3 = (1,), (0, 1), (0, 1, 1)
_CHI_M3, _CHI_5, _CHI_M7 = (0, 1, -1), (0, 1, -1, -1, 1), (0, 1, 1, -1, 1, -1, -1)

DELTA_TABLE = {
    1: _unit(1, [(1, 24)], power=8, theta=[(1, _add_eta_cube)]),
    2: _unit(2, [(1, -8), (2, 16)], [(1, _CHI2, _ONE, 4, 1)]),
    3: _unit(3, [(1, -6), (3, 18)], [(1, _CHI_M3, _ONE, 3, 1)], power=2),
    4: _unit(4, [(2, -4), (4, 8)], [(1, _CHI2, _CHI2, 2, 1)]),
    5: _unit(5, [(1, -2), (5, 10)], [(1, _CHI_5, _ONE, 2, 1)], power=2),
    6: _unit(
        6,
        [(1, 2), (2, -4), (3, -6), (6, 12)],
        [(1, _ONE, _ONE, 2, 2), (-2, _ONE, _ONE, 2, 3), (1, _ONE, _ONE, 2, 6)],
    ),
    7: _unit(
        7,
        [(1, -2), (7, 14)],
        [(8, _CHI_M7, _ONE, 3, 1)],
        divisor=64,
        power=2,
        theta=[(-1, _add_theta_7)],
    ),
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

# narrow quotient -> (unit, exponent gcd of its quotient)
_PRESENTED = {
    narrow: (u, g)
    for u in DELTA_TABLE.values()
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
