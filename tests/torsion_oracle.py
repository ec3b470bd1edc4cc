"""The per-multiple integer torsion kernels, kept as test oracles.

_add_s adds one Lambert series S(c, b) into a grid array, one _ramp slice
per residue class of d, and wp_hat, wpt_hat and inv_sin2 call it once for
every multiple c of the cover index below the bound.  The package now
computes each torsion value as the divisor sums of a few residue classes of
c (qseries.divisor_sums); the code here is kept as it was, so the
differential tests compare the two.

phi_weierstrass is the torsion-sum loop weierstrass.phi_level ran for
Phi_N before Phi(N) became an expression tree expanded by
levels.expand_expr; it is kept as the oracle for that route.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from qmodular import weierstrass
from qmodular.errors import FractionalExponent, InvalidPrecision, PoleAtArgument, UnknownLevel
from qmodular.qseries import HALF, QSeries, _as_fraction, _check_phase, lincomb


def _torsion_den(a: Fraction) -> int:
    if a.denominator not in (1, 2):
        raise ValueError(f"torsion offset {a} must have denominator 1 or 2")
    return a.denominator


def _add_s(arr, step: int, alternating: bool, w: int = 1) -> None:
    """Add w * S(c, b) into arr, whose slot k holds the coefficient of
    q^(k/den); terms at or beyond the end of arr are dropped.

    S(c, b) is the Lambert-type expansion of 1/sin^2(pi(c tau + b)) up to a
    factor: -4 sum_{d>=1} d eps^d q^(|c| d) with eps = e^(2 pi i b) for
    c != 0 (S is even in c), the constant 1 at c = 0, b = 1/2, and a pole at
    c = b = 0.  The caller passes the grid step |c| * den, an int, and
    alternating = (b == 1/2)."""
    if step == 0:
        if not alternating:
            raise PoleAtArgument("1/sin^2 at the lattice origin")
        if arr:
            arr[0] += w
        return
    t = -4 * w
    if step >= len(arr):
        return
    if not alternating:
        _ramp(arr, slice(step, None, step), t, t)
        return
    # eps^d = -1 at odd d
    _ramp(arr, slice(step, None, 2 * step), -t, -2 * t)
    if 2 * step < len(arr):
        _ramp(arr, slice(2 * step, None, 2 * step), 2 * t, 2 * t)


def _ramp(arr, at: slice, first: int, step: int) -> None:
    """Add first, first + step, first + 2 step, ... to the slots of arr at
    `at`."""
    seg = arr[at]
    arr[at] = list(map(operator.add, seg, range(first, first + step * len(seg), step)))


def inv_sin2(c, b, prec) -> QSeries:
    """S(c, b), the Lambert-type expansion of 1/sin^2(pi(c tau + b)) up to a
    factor (see _add_s), below exponent prec.

    c is a rational with denominator dividing 2; b is 0 or 1/2."""
    c = _as_fraction(c)
    b = _check_phase(b)
    if c.denominator not in (1, 2):
        raise FractionalExponent(f"frequency {c} not in (1/2)Z")
    den = c.denominator
    pn = math.ceil(_as_fraction(prec) * den)
    if pn < 0:
        raise InvalidPrecision(f"negative bound {prec}")
    arr = [0] * pn
    _add_s(arr, abs(c.numerator), b != 0)
    return QSeries._make(den, 0, arr, 1, pn)


def wp_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the rescaled p-function torsion value (see the
    weierstrass module doc).

    Each S term is accumulated three times over, so that the constant -1/3
    becomes the numerator -1 over the series denominator 3."""
    a = _as_fraction(a)
    alternating = _check_phase(b) != 0
    if m < 1:
        raise ValueError(f"cover index must be >= 1, got {m}")
    if not (0 <= a < m):
        raise ValueError(f"offset {a} outside [0, {m})")
    den = _torsion_den(a)
    if a == 0 and not alternating:
        raise PoleAtArgument("wp_hat at the lattice origin")
    pn = max(0, math.ceil(_as_fraction(prec) * den))
    arr = [0] * pn
    # offsets and the cover index as steps on the exponent grid
    sa, sm = int(a * den), m * den
    _add_s(arr, sa, alternating, 3)
    c = sm
    while c - sa < pn:
        _add_s(arr, c + sa, alternating, 3)
        _add_s(arr, c - sa, alternating, 3)
        _add_s(arr, c, False, -6)
        c += sm
    if arr:
        arr[0] -= 1
    return QSeries._make(den, 0, arr, 3, pn)


def wpt_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the half-period-shifted companion (see the weierstrass
    module doc)."""
    a = _as_fraction(a)
    b = _check_phase(b)
    if m < 1:
        raise ValueError(f"cover index must be >= 1, got {m}")
    if not (-Fraction(m, 2) <= a <= Fraction(m, 2)):
        raise ValueError(f"offset {a} outside [-{m}/2, {m}/2]")
    _torsion_den(a)
    if abs(a) == Fraction(m, 2) and b == HALF:
        raise PoleAtArgument(f"wpt_hat pole at offset {a} with phase 1/2")
    den = 2 if (m % 2 == 1 or a.denominator == 2) else 1
    pn = max(0, math.ceil(_as_fraction(prec) * den))
    arr = [0] * pn
    # exponents in halves: base = (n + 1/2) m is h/2 with h = (2n + 1) m,
    # and the main term's c = base + a is (h + 2a)/2; on the grid each
    # half counts den/2 steps
    a2 = int(2 * a)
    for h in (m, -m):
        while True:
            main = abs(h + a2) * den // 2
            base = abs(h) * den // 2
            if main >= pn and base >= pn:
                break
            _add_s(arr, main, b == 0)  # phase b + 1/2; main = 0 only for b = 0
            _add_s(arr, base, True, -1)
            h += 2 * m if h > 0 else -2 * m
    return QSeries._make(den, 0, arr, 1, pn)


def phi_weierstrass(N: int, prec) -> QSeries:
    """Phi_N as -3/(N-1) times the parity-folded sum of the torsion values
    wp_hat(k, 0, N) over 0 < k < N (each pair {k, N-k} counted once,
    doubled; the middle point of even N counted once), below q^ceil(prec)."""
    if not 2 <= N <= 10:
        raise UnknownLevel(f"Phi_N needs 2 <= N <= 10, got {N}")
    pn = max(0, math.ceil(_as_fraction(prec)))
    # the middle torsion point of even N is its own partner
    return lincomb(
        (Fraction(-3 if 2 * k == N else -6, N - 1), weierstrass.wp_hat(Fraction(k), Fraction(0), N, pn))
        for k in range(1, N // 2 + 1)
    )
