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

With g the gcd of the exponents, a quotient prod_m E(q^m)^(e_m) is the g-th
power of the narrow quotient prod_m E(q^m)^(e_m / g): its positive factors
are powered and multiplied, the product is divided by E(q^m) once per unit
of each negative e_m / g, and QSeries.pow raises the result to the g-th
power.  No Euler factor is inverted on its own, so the coefficients of every
intermediate stay about as wide as the output's (below q^1000, E(q)^-8 has
coefficients 270 bits wider than Delta_2 = E(q)^-8 E(q^2)^16 has).  Below
q^n, E(q^m) is a series in q^m with O(sqrt(n/m)) nonzero terms, so a
division by it costs O(n sqrt(n/m)) products, and O((n/m)^(3/2)) when the
dividend is a series in q^m too; a power of it by Miller's recurrence costs
O((n/m)^(3/2)).  A quotient whose output is itself wide gains nothing from
this and can lose: many division units, or a dense narrow quotient raised
to a high power (1/Delta = E(q)^-24 is 1/E(q) to the 24th), cost more than
inverting the sparse E(q^m) by Miller's recurrence in one pass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import FractionalExponent, UnknownLevel
from .qseries import QSeries, _as_fraction, _divide, zero_series


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
        """q-expansion below exponent prec."""
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
        # the g-th power of the narrow quotient (module docstring); a quotient
        # with no factors has g = 0 and expands to 1
        g = math.gcd(*[e for _, e in self.factors]) or 1
        narrow = None
        for m, e in self.factors:
            if e > 0:
                f = euler_product(m, rel).pow(e // g)
                narrow = f if narrow is None else narrow * f
        nums = [1] + [0] * (rel - 1) if narrow is None else narrow.nums
        for m, e in self.factors:
            if e < 0:
                b = euler_product(m, rel).nums
                for _ in range(-e // g):
                    nums = _divide(nums, b)
        return QSeries._make(1, 0, nums, 1, rel).pow(g).shift(s).truncate(bound)

    def __str__(self):
        """The quotient in the expression grammar; "1" when empty."""
        return "*".join(
            (f"eta({m})" if e == 1 else f"eta({m})^{e}") for m, e in self.factors
        ) or "1"


class LevelUnit(namedtuple("LevelUnit", "level rho nu quotient")):
    """The distinguished cusp form Delta_N: weight rho, valuation nu, and its
    eta-quotient presentation."""

    __slots__ = ()


def _unit(level, factors) -> LevelUnit:
    """Delta_N from its eta quotient, which fixes its weight and valuation."""
    q = EtaQuotient(factors)
    return LevelUnit(level, int(q.weight), int(q.lead_exponent), q)


DELTA_TABLE = {
    1: _unit(1, [(1, 24)]),
    2: _unit(2, [(1, -8), (2, 16)]),
    3: _unit(3, [(1, -6), (3, 18)]),
    4: _unit(4, [(2, -4), (4, 8)]),
    5: _unit(5, [(1, -2), (5, 10)]),
    6: _unit(6, [(1, 2), (2, -4), (3, -6), (6, 12)]),
    7: _unit(7, [(1, -2), (7, 14)]),
    8: _unit(8, [(4, -4), (8, 8)]),
    9: _unit(9, [(3, -2), (9, 6)]),
    10: _unit(10, [(1, 2), (2, -4), (5, -10), (10, 20)]),
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
