"""The Fraction-coefficient series and torsion kernels, kept as test oracles.

QSeries below stores one int or fractions.Fraction per coefficient, as the
package did before it moved to int numerators over one denominator; _add_s,
inv_sin2, wp_hat and wpt_hat are the torsion kernels that stepped over
Fraction exponents.  The code is kept as it was (wp_hat and wpt_hat without
their caches), so the differential tests compare the integer kernels with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from qmodular.errors import (
    FractionalExponent,
    InvalidPrecision,
    NotInvertible,
    PoleAtArgument,
    UnsupportedTwist,
)
Rat = Union[int, Fraction]

HALF = Fraction(1, 2)

# Products whose operands both have more nonzero terms than this go through
# Kronecker substitution; shorter or sparser ones through the schoolbook loop.
# Measured crossover: dense int operands break even near 24 terms, half-zero
# ones near 32 nonzero terms, and Fraction operands gain 3x or more from 16
# terms on (CHANGES.md has the sweep).
_KRONECKER_MIN = 32


def _norm_coeff(c: Rat) -> Rat:
    """Collapse integral Fractions to int (canonical storage form)."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _numerators(coeffs):
    """(d, [d * c for c in coeffs]) with d the lcm of the coefficient
    denominators, so that every d * c is an int."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _bias(slots: int, k: int) -> int:
    """The int holding 2^(8k - 1), half a slot, in each of `slots` k-byte
    slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * slots, "little")


def _kronecker(a, b, n: int) -> list:
    """The first n coefficients of the product of the int lists a and b, by
    Kronecker substitution.

    Each list becomes one int, coefficient i in the k-byte slot i, and one
    CPython multiplication (Karatsuba) gives the product's coefficients in
    the same slots.  A slot holds its coefficient plus half a slot, so every
    slot is nonnegative and no borrow crosses into the next one; k is wide
    enough for |sum_i a_i b_(j-i)| < min(len a, len b) * max|a| * max|b|
    with a sign bit to spare."""
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    k = (bits + 7) // 8
    half = 1 << (8 * k - 1)

    def pack(xs) -> int:
        raw = b"".join([(x + half).to_bytes(k, "little") for x in xs])
        return int.from_bytes(raw, "little") - _bias(len(xs), k)

    x = pack(a)
    y = x if b is a else pack(b)
    low = (x * y + _bias(n, k)) & ((1 << (8 * k * n)) - 1)
    raw = low.to_bytes(k * n, "little")
    return [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, k * n, k)]


def _miller(f, n: int) -> list:
    """The first len(f) coefficients of f^n by Miller's recurrence, for
    an int list f with f[0] != 0."""
    f0 = f[0]
    g = [_norm_coeff(Fraction(f0) ** n)]
    # an int g_0 (f0 ** n, or a unit f0) makes every g_j an integer
    exact = type(g[0]) is int
    terms = [(k, c) for k, c in enumerate(f) if k and c]
    m = n + 1
    for j in range(1, len(f)):
        s = 0
        for k, c in terms:
            if k > j:
                break
            s += (m * k - j) * c * g[j - k]
        g.append(s // (j * f0) if exact else Fraction(s, j * f0))
    return g


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QSeries:
    """One truncated Puiseux series.

    den    -- exponent denominator D (1 or 2), minimal for the stored data
    val    -- numerator of the leading exponent; leading exponent is val/den
    coeffs -- coeffs[i] is the coefficient of q^((val+i)/den); coeffs[0] != 0
    prec   -- numerator of the precision bound: all exponents < prec/den known

    A series with no known-nonzero coefficient ("zero so far") has
    val == prec and coeffs == ().
    """

    den: int
    val: int
    coeffs: tuple
    prec: int

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(den: int, val: int, coeffs, prec: int) -> "QSeries":
        """Normalize raw data: strip leading zeros, int-ify coefficients,
        and reduce the exponent denominator when that loses no information
        (all supported exponents *and* the precision bound must survive the
        rescaling exactly)."""
        assert den in (1, 2), den
        cs = [_norm_coeff(c) for c in coeffs]
        # strip leading zeros
        k = 0
        while k < len(cs) and cs[k] == 0:
            k += 1
        val += k
        cs = cs[k:]
        if not cs:
            val = prec
        assert len(cs) == prec - val, (len(cs), prec, val)
        if den == 2 and prec % 2 == 0 and val % 2 == 0:
            if all(cs[i] == 0 for i in range(1, len(cs), 2)):
                return QSeries(1, val // 2, tuple(cs[0::2]), prec // 2)
        return QSeries(den, val, tuple(cs), prec)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known ("zero so far")."""
        return not self.coeffs

    @property
    def bound(self) -> Fraction:
        """Precision bound as an exponent: known below this."""
        return Fraction(self.prec, self.den)

    @property
    def valuation(self) -> Fraction:
        """Leading exponent (equals bound for a zero-so-far series)."""
        return Fraction(self.val, self.den)

    @property
    def leading(self):
        return self.coeffs[0] if self.coeffs else None

    def coefficient(self, e) -> Rat:
        """Coefficient of q^e; raises InvalidPrecision beyond the bound."""
        e = _as_fraction(e)
        if e >= self.bound:
            raise InvalidPrecision(f"coefficient of q^{e} not determined (bound {self.bound})")
        t = e * self.den
        if t.denominator != 1:
            return 0
        i = int(t) - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    # -- rescaling helpers -------------------------------------------------

    def _spread(self, g: int):
        """(val, coeffs, prec) with every exponent numerator multiplied by g:
        each coefficient followed by g - 1 zeros."""
        cs = [0] * (len(self.coeffs) * g)
        cs[::g] = self.coeffs
        return self.val * g, cs, self.prec * g

    def _rescale(self, den: int) -> "QSeries":
        """Rewrite on a finer exponent grid (den a multiple of self.den)."""
        if den == self.den:
            return self
        val, cs, prec = self._spread(den // self.den)
        return QSeries(den, val, tuple(cs), prec)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        den = self.den if self.den == other.den else 2
        a, b = self._rescale(den), other._rescale(den)
        prec = min(a.prec, b.prec)
        val = min(a.val, b.val, prec)
        out = [0] * (prec - val)
        for s in (a, b):
            for i, c in enumerate(s.coeffs):
                j = s.val + i - val
                if j < len(out):
                    out[j] += c
        return QSeries.build(den, val, out, prec)

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, self.val, tuple(-c for c in self.coeffs), self.prec)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c) -> "QSeries":
        """Multiply by an exact rational scalar."""
        c = _as_fraction(c)
        if c == 0:
            return QSeries(self.den, self.prec, (), self.prec)
        return QSeries.build(self.den, self.val, [c * x for x in self.coeffs], self.prec)

    def __mul__(self, other: "QSeries") -> "QSeries":
        den = self.den if self.den == other.den else 2
        a, b = self._rescale(den), other._rescale(den)
        val = a.val + b.val
        prec = min(a.prec + b.val, b.prec + a.val)
        n = prec - val
        if n <= 0 or not a.coeffs or not b.coeffs:
            return QSeries.build(den, prec, (), prec)
        ca = a.coeffs[:n]
        cb = b.coeffs[:n]
        if len(ca) > _KRONECKER_MIN and len(cb) > _KRONECKER_MIN:
            na = len(ca) - ca.count(0)
            nb = len(cb) - cb.count(0)
            if min(na, nb) > _KRONECKER_MIN:
                da, ia = _numerators(ca)
                db, ib = _numerators(cb)
                out = _kronecker(ia, ib, n)
                d = da * db
                if d > 1:
                    out = [Fraction(c, d) for c in out]
                return QSeries.build(den, val, out, prec)
            # walk the sparser operand on the outside
            if nb < na:
                ca, cb = cb, ca
        out = [0] * n
        for i, x in enumerate(ca):
            if x == 0:
                continue
            top = n - i
            for j in range(min(len(cb), top)):
                y = cb[j]
                if y != 0:
                    out[i + j] += x * y
        return QSeries.build(den, val, out, prec)

    def pow(self, n: int) -> "QSeries":
        """n-th power for any integer n, on the integer numerators d*f, d the
        lcm of the coefficient denominators, as (d f)^n / d^n.

        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), which
        g = f^n satisfies,

            j f_0 g_j = sum_{k=1..j} ((n+1) k - j) f_k g_(j-k),

        costs one product per known term and nonzero f_k: O(L sqrt(L)) for
        an L-term Euler factor.  Binary powering costs one Kronecker product
        per step instead, so pow takes it for n >= 2 when f has more than
        _KRONECKER_MIN nonzero terms per step.  Either way the result keeps
        f's relative precision (prec - val steps).

        pow(f, 0) is 1 carried to that relative precision and raises
        InvalidPrecision when the window is empty.  A zero-so-far f gives
        zero so far at n * prec for n > 0 and raises NotInvertible for
        n < 0."""
        if not isinstance(n, int):
            raise ValueError("pow exponent must be an integer")
        if n == 0:
            return monomial(1, 0, 1, Fraction(self.prec - self.val, self.den))
        if not self.coeffs:
            if n < 0:
                raise NotInvertible("leading coefficient unknown (zero so far)")
            return QSeries.build(self.den, n * self.prec, (), n * self.prec)
        d, f = _numerators(self.coeffs)
        size = len(f)
        steps = n.bit_length() + bin(n).count("1") - 2
        if n >= 2 and size - f.count(0) > _KRONECKER_MIN * steps:
            g = f
            for bit in bin(n)[3:]:
                g = _kronecker(g, g, size)
                if bit == "1":
                    g = _kronecker(g, f, size)
        else:
            g = _miller(f, n)
        if d > 1:
            scale = Fraction(d) ** -n
            g = [x * scale for x in g]
        return QSeries.build(self.den, n * self.val, g, n * self.val + size)

    __pow__ = pow

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be known."""
        return self.pow(-1)

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q^m (m >= 1): exponents scale by m."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("substitution power must be a positive integer")
        if m == 1:
            return self
        return QSeries.build(self.den, *self._spread(m))

    def half_twist(self) -> "QSeries":
        """Send q^(1/2) to -q^(1/2): negate coefficients at odd numerators.

        Integer-exponent series are unchanged."""
        if self.den == 1:
            return self
        if self.den != 2:
            raise UnsupportedTwist(f"exponent denominator {self.den} does not divide 2")
        cs = [(-c if (self.val + i) % 2 else c) for i, c in enumerate(self.coeffs)]
        return QSeries.build(self.den, self.val, cs, self.prec)

    def truncate(self, bound) -> "QSeries":
        """Forget everything at exponents >= bound (no-op if already shorter)."""
        b = _as_fraction(bound)
        p = math.ceil(b * self.den)
        if p >= self.prec:
            return self
        if p <= self.val:
            return QSeries.build(self.den, p, (), p)
        return QSeries.build(self.den, self.val, self.coeffs[: p - self.val], p)

    def shift(self, s) -> "QSeries":
        """Multiply by q^s for an exact rational s with denominator 1 or 2."""
        s = _as_fraction(s)
        if s.denominator not in (1, 2):
            raise FractionalExponent(f"shift exponent {s} not in (1/2)Z")
        den = self.den if s.denominator == 1 else 2
        a = self._rescale(den)
        d = int(s * den)
        return QSeries.build(den, a.val + d, a.coeffs, a.prec + d)

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Human form, e.g. ``1 + 6q + 18q^2 + 24q^3 + 42q^4 + O(q^5)``.

        Zero coefficients are skipped; fractional data is parenthesized:
        ``(9/2)q^4``, ``q^(5/2)``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = Fraction(self.val + i, self.den)
            parts.append((c, e))
        tail = f"O(q^{_fmt_exp(self.bound)})"
        if not parts:
            return tail
        out = []
        for k, (c, e) in enumerate(parts):
            neg = c < 0
            body = _fmt_term(abs(Fraction(c)), e)
            if k == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        out.append("+ " + tail)
        return " ".join(out)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"QSeries[{self.to_text()}]"


def _fmt_exp(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e})"


def _fmt_term(c: Fraction, e: Fraction) -> str:
    if e == 0:
        return str(c)
    if e == 1:
        q = "q"
    else:
        q = f"q^{_fmt_exp(e)}"
    if c == 1:
        return q
    if c.denominator == 1:
        return f"{c.numerator}{q}"
    return f"({c}){q}"


# -- constructors ------------------------------------------------------------


def monomial(coeff, p, q=1, prec=None) -> QSeries:
    """c * q^(p/q) + O(q^prec).  prec is an exponent bound (int or rational)
    and must exceed p/q."""
    if prec is None:
        raise TypeError("monomial requires a precision bound")
    e = Fraction(p, q)
    if e.denominator not in (1, 2):
        raise FractionalExponent(f"exponent {e} not in (1/2)Z")
    den = e.denominator
    b = _as_fraction(prec)
    pn = math.ceil(b * den)
    vn = int(e * den)
    if pn <= vn:
        raise InvalidPrecision(f"bound {b} does not exceed exponent {e}")
    c = _norm_coeff(_as_fraction(coeff))
    if c == 0:
        return QSeries.build(den, pn, (), pn)
    return QSeries.build(den, vn, [c] + [0] * (pn - vn - 1), pn)


def zero_series(prec) -> QSeries:
    """The zero-so-far series: nothing below exponent prec is nonzero.

    The bound is rounded up to the half-integer grid, as truncate and
    monomial round theirs, so it never falls below prec."""
    p = math.ceil(_as_fraction(prec) * 2)
    return QSeries.build(2, p, (), p)


def one_series(prec) -> QSeries:
    return monomial(1, 0, 1, prec)


def constant_series(value, prec) -> QSeries:
    """The constant value below exponent prec on the integer grid; the
    zero-so-far series at 0 when prec <= 0."""
    p = max(0, math.ceil(_as_fraction(prec)))
    return QSeries.build(1, 0, [value] + [0] * (p - 1) if p else [], p)


def _check_phase(b) -> Fraction:
    """b as a Fraction; it must be 0 or 1/2."""
    b = _as_fraction(b)
    if b not in (0, HALF):
        raise ValueError(f"phase must be 0 or 1/2, got {b}")
    return b


def _add_s(arr, den: int, c, b, w=1) -> None:
    """Add w * S(c, b) into arr, whose slot k holds the coefficient of
    q^(k/den); terms at or beyond the end of arr are dropped.

    S(c, b) is the Lambert-type expansion of 1/sin^2(pi(c tau + b)) up to a
    factor: -4 sum_{d>=1} d eps^d q^(|c| d) with eps = e^(2 pi i b) for
    c != 0 (S is even in c), the constant 1 at c = 0, b = 1/2, and a pole at
    c = b = 0.  b is 0 or 1/2 and c * den must be an integer."""
    if c == 0:
        if b == 0:
            raise PoleAtArgument("1/sin^2 at the lattice origin")
        if arr:
            arr[0] += w
        return
    step = abs(c) * den
    assert step.denominator == 1, (c, den)
    step = int(step)
    t = -4 * w
    alternating = b != 0
    for d, k in enumerate(range(step, len(arr), step), 1):
        arr[k] += -t * d if alternating and d & 1 else t * d


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
    _add_s(arr, den, c, b)
    return QSeries.build(den, 0, arr, pn)


def _torsion_den(a: Fraction) -> int:
    if a.denominator not in (1, 2):
        raise ValueError(f"torsion offset {a} must have denominator 1 or 2")
    return a.denominator


def wp_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the rescaled p-function torsion value (see module doc)."""
    a = _as_fraction(a)
    b = _check_phase(b)
    if m < 1:
        raise ValueError(f"cover index must be >= 1, got {m}")
    if not (0 <= a < m):
        raise ValueError(f"offset {a} outside [0, {m})")
    den = _torsion_den(a)
    if a == 0 and b == 0:
        raise PoleAtArgument("wp_hat at the lattice origin")
    bound = _as_fraction(prec)
    pn = max(0, math.ceil(bound * den))
    arr = [0] * pn
    _add_s(arr, den, a, b)
    n = 1
    while n * m - a < bound:
        c = n * m
        _add_s(arr, den, c + a, b)
        _add_s(arr, den, c - a, b)
        _add_s(arr, den, c, 0, -2)
        n += 1
    if arr:
        arr[0] += Fraction(-1, 3)
    return QSeries.build(den, 0, arr, pn)


def wpt_hat(a, b, m: int, prec) -> QSeries:
    """q-expansion of the half-period-shifted companion (see module doc)."""
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
    bound = _as_fraction(prec)
    pn = max(0, math.ceil(bound * den))
    arr = [0] * pn
    bp = HALF - b  # b + 1/2 mod 1
    for sign in (1, -1):
        n = 0 if sign == 1 else -1
        while True:
            base = (n + HALF) * m  # never zero
            cmain = base + a
            if abs(cmain) >= bound and abs(base) >= bound:
                break
            _add_s(arr, den, cmain, bp)  # cmain = 0 only with bp = 1/2
            _add_s(arr, den, base, HALF, -1)
            n += sign
    return QSeries.build(den, 0, arr, pn)
