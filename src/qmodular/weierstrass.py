"""Torsion values of rescaled Weierstrass functions as q-expansions.

Two families, both weight-2 objects on the m-fold cover:

* wp_hat(a, b, m): the rescaled p-function evaluated at z = a/m' tau-style
  torsion points written as (a tau + b-ish) combinations -- concretely the
  expansion

      -1/3 + S(a, b) + sum_{n>=1} [ S(n m + a, b) + S(n m - a, b) - 2 S(n m, 0) ]

  where S(c, b) = -4 sum_{d>=1} d eps^d q^(c d), eps = e^(2 pi i b), is
  the Lambert expansion of 1/sin^2(pi(c tau + b)) up to a factor for c > 0
  (S(0, 1/2) = 1, S at the origin is a pole, and S is even in c).
  Domain: m >= 1, 0 <= a < m with 2a integral, b in {0, 1/2}, and
  (a, b) != (0, 0).

* wpt_hat(a, b, m): the half-period-shifted companion

      sum_{n in Z} [ S((n + 1/2) m + a, b + 1/2 mod 1) - S((n + 1/2) m, 1/2) ]

  for |a| <= m/2, 2a integral, b in {0, 1/2}; the argument is a pole exactly
  when |a| = m/2 and b = 1/2.

Both are weight-2 Eisenstein series with characters (F. Diamond and
J. Shurman, GTM 228, section 4.8): the S terms of one class of c mod m sum
to the divisor sum -4 sum_{d | j, j/d = c mod m} d eps^d at q^j, so each
value is a few terms of qseries.divisor_sums, chi the indicator of a class
of c and psi(d) = eps^d, with k = 2 and t = 1.  Their docstrings state the
terms.

Also here: classical Eisenstein series E_k(m tau) and the divisor-sum
presentation of the weight-2 level series Phi_N (its torsion-sum
presentation is an expression tree over wp_hat values, expanded by
levels.expand_expr).

Each kernel checks its arguments with one function (_check_wp, _check_wpt,
_check_eisenstein, _check_phi_level) that the constructor of the matching
expression node calls as well, so an invalid atom fails when it is built,
whatever bound it is later expanded to.  The level range of Phi_N is the
unit table's, checked by eta.level_unit as every level is.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtArgument, UnknownLevel, UnsupportedWeight
from .eta import level_unit
from .qseries import (
    HALF,
    QSeries,
    _as_fraction,
    _check_phase,
    _indicator,
    _slots,
    bernoulli,
    constant_series,
    divisor_sums,
    lincomb,
    sigma_series,
)


def _torsion_args(a, b, m: int):
    """a and b as Fractions, checked for a torsion value on the m-fold
    cover: b is 0 or 1/2, m >= 1 and a has denominator 1 or 2."""
    a = _as_fraction(a)
    b = _check_phase(b)
    if m < 1:
        raise ValueError(f"cover index must be >= 1, got {m}")
    if a.denominator not in (1, 2):
        raise ValueError(f"torsion offset {a} must have denominator 1 or 2")
    return a, b


def _check_wp(a, b, m: int):
    """The arguments of wp_hat as Fractions (a, b), checked against its
    domain; the WpAtom constructor and wp_hat both call this."""
    a, b = _torsion_args(a, b, m)
    if not (0 <= a < m):
        raise ValueError(f"offset {a} outside [0, {m})")
    if a == 0 and b == 0:
        raise PoleAtArgument("wp_hat at the lattice origin")
    return a, b


def _check_wpt(a, b, m: int):
    """The arguments of wpt_hat as Fractions (a, b), checked against its
    domain; the WptAtom constructor and wpt_hat both call this."""
    a, b = _torsion_args(a, b, m)
    half = Fraction(m, 2)
    if not (-half <= a <= half):
        raise ValueError(f"offset {a} outside [{-half}, {half}]")
    if abs(a) == half and b == HALF:
        raise PoleAtArgument(f"wpt_hat pole at offset {a} with phase 1/2")
    return a, b


def wp_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the rescaled p-function torsion value (see module doc).

    On the grid of a's denominator, with a = sa/den and m = sm/den, it is
    three divisor-sum terms of weight k = 2 and t = 1, over the series
    denominator 3 so that the constant -1/3 is the numerator -1:

        -12 [c = sa mod sm] eps^d,  -12 [c = -sa mod sm] eps^d,  +24 [c = 0 mod sm]

    that is 3 S(c, b) over the classes of a and -a and -6 S(c, 0) over the
    multiples of m.  The constant is -1, or 2 when a = 0, where S(0, 1/2) = 1
    adds 3."""
    a, b = _check_wp(a, b, m)
    den = a.denominator
    pn = _slots(prec, den)
    # offsets and the cover index as steps on the exponent grid
    sa, sm = a.numerator, m * den
    eps = (1, -1) if b else (1,)
    terms = [(-12, _indicator(sa, sm), eps, 2, 1), (-12, _indicator(-sa, sm), eps, 2, 1)]
    nums = divisor_sums(terms + [(24, _indicator(0, sm), (1,), 2, 1)], pn)
    if nums:
        nums[0] = 2 if sa == 0 else -1
    return QSeries._make(den, 0, nums, 3, pn)


def wpt_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the half-period-shifted companion (see module doc).

    On the grid, m counting sm steps, it is three divisor-sum terms of
    weight k = 2 and t = 1:

        -4 [c = (m + 2a)/2 mod m] eps'^d,  -4 [c = (m - 2a)/2 mod m] eps'^d,
        +8 [c = m/2 mod m] (-1)^d

    with eps' = e^(2 pi i (b + 1/2)): the main terms over both signs of n,
    and the base terms, twice.  When |a| = m/2 one main c is 0 and adds the
    constant S(0, 1/2) = 1."""
    a, b = _check_wpt(a, b, m)
    den = 2 if (m % 2 == 1 or a.denominator == 2) else 1
    pn = _slots(prec, den)
    # exponents in halves: base = (n + 1/2) m is h/2 with h = (2n + 1) m,
    # and the main term's c = base + a is (h + 2a)/2, so |c| runs over the
    # classes (m + 2a)/2 and (m - 2a)/2 mod m, and base over m/2 mod m,
    # twice; on the grid each half counts den/2 steps
    a2, sm = int(2 * a), m * den
    eps = (1, -1) if b == 0 else (1,)  # the phase b + 1/2
    terms = [(-4, _indicator((m + s * a2) * den // 2, sm), eps, 2, 1) for s in (1, -1)]
    nums = divisor_sums(terms + [(8, _indicator(sm // 2, sm), (1, -1), 2, 1)], pn)
    if nums and abs(a2) == m:
        nums[0] = 1  # S(0, 1/2), at the one c = 0
    return QSeries._make(den, 0, nums, 1, pn)


def wpt_valuation(a, b, m: int) -> Fraction:
    """Exact leading exponent of wpt_hat(a, b, m): m/2 - |a| when |a| < m/2,
    else 0 (the surviving folded term is the constant 1)."""
    a = _as_fraction(a)
    return Fraction(m, 2) - abs(a) if abs(a) < Fraction(m, 2) else Fraction(0)


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------


def _check_eisenstein(k: int, m: int) -> None:
    """Check the arguments of eisenstein: an even weight k >= 4 and a
    multiplier m >= 1; the EisensteinAtom constructor calls this too."""
    if not isinstance(k, int) or k % 2 == 1 or k < 4:
        raise UnsupportedWeight(f"Eisenstein weight must be even and >= 4, got {k}")
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")


def eisenstein(k: int, m: int, prec) -> QSeries:
    """E_k(m tau) = 1 - (2k/B_k) sum_{n>=1} sigma_{k-1}(n) q^(m n), for even
    k >= 4."""
    _check_eisenstein(k, m)
    pn = _slots(prec)
    coef = Fraction(-2 * k) / bernoulli(k)
    return lincomb(((1, constant_series(1, pn)), (coef, sigma_series(k - 1, m, pn))))


# ---------------------------------------------------------------------------
# the weight-2 level series Phi_N
# ---------------------------------------------------------------------------


def _check_phi_level(N: int) -> None:
    """Check the level of Phi_N: a level of the unit table (eta.level_unit)
    other than 1; the PhiAtom constructor and phi_level both call this."""
    level_unit(N)
    if N < 2:
        raise UnknownLevel(f"Phi_N needs N >= 2, got {N}")


def phi_level(N: int, prec) -> QSeries:
    """Phi_N, the normalized weight-2 form on level N (2 <= N <= 10), in its
    divisor-sum presentation

        1 + 24/(N-1) * sum_{n>=1} (sigma_1(n) - N sigma_1(n/N)) q^n

    below q^ceil(prec).  Its other presentation, -3/(N-1) times the
    parity-folded sum of the torsion values wp_hat(k, 0, N) over 0 < k < N,
    is an expression tree that levels.expand_expr evaluates for Phi(N), so
    the identity suite compares the two."""
    _check_phi_level(N)
    pn = _slots(prec)
    c = Fraction(24, N - 1)
    return lincomb(
        ((1, constant_series(1, pn)), (c, sigma_series(1, 1, pn)), (-N * c, sigma_series(1, N, pn)))
    )
