"""Truncated q-expansions with exact rational coefficients.

A series is a finite window of a Puiseux expansion in q: exponents live in
(1/D)Z with D in {1, 2}, coefficients are exact rationals, and every series
carries an explicit precision bound ("known for all exponents below
prec/D").  Arithmetic tracks how far results stay trustworthy, so that a
product of series known to different depths never overclaims.

The coefficients are stored as int numerators over one positive common
denominator d, in lowest terms (gcd(d, *nums) == 1), as FLINT's fmpq_poly
stores a rational polynomial.  Every operation works on the numerators and
applies one denominator at the end; the read-only `coeffs` view gives the
coefficients as ints and Fractions.  Sums and scalar multiples go through
one kernel, lincomb.  A product takes one of two paths.  When either
operand has at most _KRONECKER_MIN nonzero terms, a schoolbook loop
multiplies term by term, skipping zeros.  Otherwise the numerators are
packed into big ints (Kronecker substitution), evaluated at the two
points 2^N and -2^N, and two CPython multiplications of half the packed
length give the even and the odd coefficients of the product.  A power
runs Miller's recurrence or binary powering by Kronecker products,
whichever QSeries.by_squaring estimates is cheaper from the length, the
nonzero count and the coefficient width; an exact quotient by a series
with leading term 1 runs _divide, which adds or subtracts where a term of
the divisor is +1 or -1.

Many long operands are series in q^t: an Euler factor prod (1 - q^(m n))
is one in q^m, and an integer-grid series spread onto the half grid has
every other slot zero.  Such numerators are nonzero only at multiples of
t (their stride), and no path multiplies the zero slots between them.  A
product splits the other operand into its t residue sections and
multiplies each by the compressed list; a power, and a quotient of two
series in q^t, work on the compressed lists and spread the result back.

Divisor sums sum_{d|n} chi(n/d) psi(d) d^(k-1), for periodic chi and psi,
come from one sieve, divisor_sums, in O(n log n) with no product and no
division: several such sums at once, merged by residue class before the
sieve.  eta expands eight of the ten level units Delta_N from it, and the
torsion values (weierstrass.wp_hat and wpt_hat, and inv_sin2 here) are
divisor sums too, chi the indicator of a class of c.  sigma_series, its
case chi = psi = 1 with one term, keeps a loop of its own, which is faster
at the lengths the Eisenstein series take.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle, repeat

from .errors import (
    FractionalExponent,
    InvalidPrecision,
    NotInvertible,
    PoleAtArgument,
    UnsupportedTwist,
)

# annotations only, never evaluated
Rat = "int | Fraction"

HALF = Fraction(1, 2)

# Products whose operands both have more nonzero terms than this go through
# Kronecker substitution; shorter or sparser ones through the schoolbook loop.
# Measured crossover on int numerators: dense operands break even between 16
# and 24 terms (near 40 at 200-bit coefficients), half-zero ones near 32
# nonzero terms (CHANGES.md has the sweep).
_KRONECKER_MIN = 32


def _bias(slots: int, k: int) -> int:
    """The int holding 2^(8k - 1), half a slot, in each of `slots` k-byte
    slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * slots, "little")


def _kronecker(a, b, n: int) -> list:
    """The first n coefficients of the product h = f g of the int lists a
    and b, by two-point Kronecker substitution (D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution", 2009).

    Write f(x) = E(x^2) + x O(x^2), with E and O the polynomials of a's
    even and odd coefficients, and likewise h = H_e(x^2) + x H_o(x^2).  E
    and O are packed into one int each, coefficient i in the k-byte slot i,
    which is their value at x^2 = 2^(8k); so f(+-2^N) = E +- 2^N O with
    N = 4k (shift).  Two CPython multiplications (Karatsuba) of half the
    length of one packed list give P+ = h(2^N) = H_e + 2^N H_o and
    P- = h(-2^N) = H_e - 2^N H_o, at x^2 = 2^(8k): (P+ + P-) / 2 holds the
    even coefficients of h and (P+ - P-) / 2^(N+1) the odd ones, each in
    k-byte slots again.  Those are the coefficients of the one-point
    packing, so the same slot width bounds them: k is wide enough for
    |h_j| = |sum_i a_i b_(j-i)| < min(len a, len b) * max|a| * max|b| with
    a sign bit to spare.  A slot is packed and read with half a slot added,
    so every slot is nonnegative and no borrow crosses into the next one."""
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    k = (bits + 7) // 8
    half = 1 << (8 * k - 1)
    shift = 4 * k

    def pack(xs) -> int:
        raw = b"".join([(x + half).to_bytes(k, "little") for x in xs])
        return int.from_bytes(raw, "little") - _bias(len(xs), k)

    def at_points(xs) -> tuple:
        """(f(2^N), f(-2^N)) for the list xs."""
        even = pack(xs[0::2])
        odd = pack(xs[1::2]) << shift
        return even + odd, even - odd

    def unpack(v: int, slots: int) -> list:
        low = (v + _bias(slots, k)) & ((1 << (8 * k * slots)) - 1)
        raw = low.to_bytes(k * slots, "little")
        return [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, k * slots, k)]

    xp, xm = at_points(a)
    if b is a:
        plus, minus = xp * xp, xm * xm
    else:
        yp, ym = at_points(b)
        plus, minus = xp * yp, xm * ym
    out = [0] * n
    out[0::2] = unpack((plus + minus) >> 1, (n + 1) // 2)
    out[1::2] = unpack((plus - minus) >> (shift + 1), n // 2)
    return out


def _stride(nums) -> int:
    """The gcd of the indices of the nonzero entries of nums: every nonzero
    entry sits at a multiple of it (0 when none sits past index 0).

    The first nonzero index t past 0 is the stride when every nonzero
    entry sits at a multiple of t, which two counts of zeros decide, so a
    series in q^t costs no step per term.  Otherwise the scan takes the gcd
    index by index and stops where it reaches 1, so a dense list costs
    three steps."""
    nonzero = compress(range(len(nums)), nums)
    t = next(nonzero, 0) or next(nonzero, 0)
    if t > 1 and len(nums) - nums.count(0) == len(nums[::t]) - nums[::t].count(0):
        return t
    for i in nonzero:
        t = math.gcd(t, i)
        if t == 1:
            break
    return t


def _product(a, b, n: int) -> list:
    """The first n coefficients of the product of the int sequences a and b
    (each at most n long).

    When both have more than _KRONECKER_MIN nonzero terms and the one with
    the larger stride, b, is a series in q^t (t > 1), the product splits
    into t products of about n/t slots: section r of the result, out[r::t],
    is the product of a's section a[r::t] and b[::t], each multiplied by
    this same rule.  So b is packed without its zero slots, and two
    operands in q^t make one product of their compressed lists.  Two long
    operands of stride 1 go through Kronecker substitution; a short or
    sparse one takes the schoolbook loop, the sparser operand outside."""
    na = len(a) - a.count(0)
    nb = len(b) - b.count(0)
    if min(na, nb) > _KRONECKER_MIN:
        ta = _stride(a)
        t = ta if b is a else _stride(b)
        if ta > t:
            a, b, t = b, a, ta
        if t == 1:
            return _kronecker(a, b, n)
        out = [0] * n
        for r in range(t):
            ar = a[r::t]
            if any(ar):
                br = b[: n - r : t]
                # a squaring passes one list, so _kronecker packs it once
                out[r::t] = _product(br if b is a else ar, br, len(range(r, n, t)))
        return out
    if nb < na:
        a, b = b, a
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            top = n - i
            for j, y in terms:
                if j >= top:
                    break
                out[i + j] += x * y
    return out


def _miller(f, n: int):
    """(g, d) with g / d the first len(f) coefficients of f^n, by Miller's
    recurrence, for an int list f with f[0] != 0.

    For n >= 0 or a unit f0 = f[0] every coefficient of f^n is an integer
    and d = 1.  Otherwise the coefficient of q^j is h_j / f0^(j - n) with
    h_j an integer: h_0 = 1 and j h_j = sum_k ((n+1) k - j) f_k f0^(k-1)
    h_(j-k).  Then the h_j are put over the last of those denominators."""
    f0 = f[0]
    exact = n >= 0 or f0 in (1, -1)
    if exact:
        # f0^n, which for a unit f0 and n < 0 is f0^-n
        g = [f0 ** abs(n)]
        terms = [(k, c) for k, c in enumerate(f) if k and c]
    else:
        g = [1]
        terms = [(k, c * f0 ** (k - 1)) for k, c in enumerate(f) if k and c]
    div = f0 if exact else 1
    m = n + 1
    for j in range(1, len(f)):
        s = 0
        for k, c in terms:
            if k > j:
                break
            s += (m * k - j) * c * g[j - k]
        g.append(s // (j * div))
    if exact:
        return g, 1
    top = len(f) - 1
    d = f0 ** (top - n)
    g = [h * f0 ** (top - j) for j, h in enumerate(g)]
    return (g, d) if d > 0 else ([-h for h in g], -d)


def _divide(a, b) -> list:
    """The first len(a) coefficients of the quotient h = a / b of the int
    lists a and b, for b[0] == 1 (b's terms past its end count as zero).

    h_j = a_j - sum_k b_k h_(j-k) over b's nonzero terms with k >= 1, so
    every h_j is an integer and the cost is one step per term of h and
    nonzero b_k.  b's terms are split by coefficient: a term of +1 or -1,
    every term of an Euler factor E(q^m), subtracts or adds h_(j-k) with no
    multiply, and only the others multiply.  When a and b are both series
    in q^t, so is h, and the recurrence runs on the compressed lists a[::t]
    and b[::t]."""
    n = len(a)
    b = b[:n]
    t = math.gcd(_stride(a), _stride(b))
    if t > 1:
        out = [0] * n
        out[::t] = _divide(a[::t], b[::t])
        return out
    terms = [(k, c) for k, c in enumerate(b) if k and c]
    plus = [k for k, c in terms if c == 1]
    minus = [k for k, c in terms if c == -1]
    wide = [(k, c) for k, c in terms if c != 1 and c != -1]
    h = []
    for j, x in enumerate(a):
        for k in plus:
            if k > j:
                break
            x -= h[j - k]
        for k in minus:
            if k > j:
                break
            x += h[j - k]
        for k, c in wide:
            if k > j:
                break
            x -= c * h[j - k]
        h.append(x)
    return h


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _slots(prec, den: int = 1) -> int:
    """ceil(prec * den), the slots below exponent prec on the grid of step
    1/den, or 0 when prec <= 0; an int prec builds no Fraction."""
    b = prec if isinstance(prec, int) else _as_fraction(prec)
    return max(0, math.ceil(b * den))


def _rat(x: int, d: int) -> Rat:
    """x / d as an int when it is integral, else as a Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


class QSeries:
    """One truncated Puiseux series, a slotted immutable value.

    den  -- exponent denominator D (1 or 2), minimal for the stored data
    val  -- numerator of the leading exponent; leading exponent is val/den
    nums -- nums[i] / d is the coefficient of q^((val+i)/den); nums[0] != 0
    d    -- the positive common denominator, gcd(d, *nums) == 1
    prec -- numerator of the precision bound: all exponents < prec/den known

    A series with no known-nonzero coefficient ("zero so far") has
    val == prec, nums == () and d == 1.  Two series are equal, and hash
    alike, when these five fields are; setting or deleting a field raises
    AttributeError.
    """

    __slots__ = ("den", "val", "nums", "d", "prec")

    def __init__(self, den: int, val: int, nums: tuple, d: int, prec: int):
        # the slots' own setters: they pass the __setattr__ that refuses
        # writes, and cost less than object.__setattr__
        _SET_DEN(self, den)
        _SET_VAL(self, val)
        _SET_NUMS(self, nums)
        _SET_D(self, d)
        _SET_PREC(self, prec)

    def _astuple(self) -> tuple:
        return self.den, self.val, self.nums, self.d, self.prec

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return QSeries, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"QSeries is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QSeries is immutable: cannot delete {name!r}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(den: int, val: int, coeffs, prec: int) -> "QSeries":
        """The series with the given rational coefficients from q^(val/den)
        up to the bound prec/den, in canonical form."""
        if den not in (1, 2):
            raise ValueError(f"exponent denominator must be 1 or 2, got {den}")
        cs = list(coeffs)
        if len(cs) != prec - val:
            raise ValueError(f"{len(cs)} coefficients for the window [{val}, {prec})")
        if set(map(type, cs)) <= {int}:
            return QSeries._make(den, val, cs, 1, prec)
        cs = [c if isinstance(c, (int, Fraction)) else _as_fraction(c) for c in cs]
        d = math.lcm(*[c.denominator for c in cs])
        return QSeries._make(den, val, [c.numerator * (d // c.denominator) for c in cs], d, prec)

    @staticmethod
    def _make(den: int, val: int, nums, d: int, prec: int) -> "QSeries":
        """Canonical form of the int numerators nums over d > 0: strip
        leading zeros, divide out gcd(d, *nums), and reduce the exponent
        denominator when that loses no information (all supported exponents
        *and* the precision bound must survive the rescaling exactly)."""
        k = 0
        while k < len(nums) and not nums[k]:
            k += 1
        if k == len(nums):
            if den == 2 and prec % 2 == 0:
                return QSeries(1, prec // 2, (), 1, prec // 2)
            return QSeries(den, prec, (), 1, prec)
        if k:
            nums = nums[k:]
            val += k
        if d != 1:
            g = math.gcd(d, *nums)
            if g != 1:
                d //= g
                nums = [x // g for x in nums]
        if den == 2 and prec % 2 == 0 and val % 2 == 0 and not any(nums[1::2]):
            return QSeries(1, val // 2, tuple(nums[0::2]), d, prec // 2)
        return QSeries(den, val, tuple(nums), d, prec)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """coeffs[i] is the coefficient of q^((val+i)/den): an int when it
        is integral, else a Fraction."""
        if self.d == 1:
            return self.nums
        return tuple(_rat(x, self.d) for x in self.nums)

    @property
    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known ("zero so far")."""
        return not self.nums

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
        return _rat(self.nums[0], self.d) if self.nums else None

    def coefficient(self, e) -> Rat:
        """Coefficient of q^e; raises InvalidPrecision beyond the bound."""
        e = _as_fraction(e)
        if e >= self.bound:
            raise InvalidPrecision(f"coefficient of q^{e} not determined (bound {self.bound})")
        t = e * self.den
        if t.denominator != 1:
            return 0
        i = int(t) - self.val
        if 0 <= i < len(self.nums):
            return _rat(self.nums[i], self.d)
        return 0

    # -- rescaling helpers -------------------------------------------------

    def _spread(self, g: int):
        """(val, nums, prec) with every exponent numerator multiplied by g:
        each numerator followed by g - 1 zeros."""
        if g == 1:
            return self.val, self.nums, self.prec
        nums = [0] * (len(self.nums) * g)
        nums[::g] = self.nums
        return self.val * g, nums, self.prec * g

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        return lincomb(((1, self), (1, other)))

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, self.val, tuple(-x for x in self.nums), self.d, self.prec)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return lincomb(((1, self), (-1, other)))

    def scale(self, c) -> "QSeries":
        """Multiply by an exact rational scalar."""
        return lincomb(((c, self),))

    def __mul__(self, other: "QSeries") -> "QSeries":
        den = self.den if self.den == other.den else 2
        av, an, ap = self._spread(den // self.den)
        bv, bn, bp = other._spread(den // other.den)
        val = av + bv
        prec = min(ap + bv, bp + av)
        n = prec - val
        if n <= 0 or not an or not bn:
            return QSeries._make(den, prec, (), 1, prec)
        out = _product(an[:n], bn[:n], n)
        return QSeries._make(den, val, out, self.d * other.d, prec)

    def pow(self, n: int) -> "QSeries":
        """n-th power for any integer n, on the integer numerators f as
        f^n / d^n.

        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), which
        g = f^n satisfies,

            j f_0 g_j = sum_{k=1..j} ((n+1) k - j) f_k g_(j-k),

        costs one product per known term and nonzero f_k: O(L sqrt(L)) for
        an L-term Euler factor.  Binary powering costs one Kronecker product
        per step instead, whose cost grows with the width of the result;
        pow takes it for n >= 2 where by_squaring estimates it is cheaper.
        Either way the result keeps f's relative precision (prec - val
        steps).  The power of a series in q^t (numerators of stride t) is
        one in q^t too, so either method runs on the ceil(L/t) numerators
        f[::t], and the result is spread back every t slots.

        pow(f, 1) is f itself.  pow(f, 0) is 1 carried to that relative
        precision and raises InvalidPrecision when the window is empty.  A
        zero-so-far f gives zero so far at n * prec for n > 0 and raises
        NotInvertible for n < 0."""
        if not isinstance(n, int):
            raise ValueError("pow exponent must be an integer")
        if n == 1:
            return self
        if n == 0:
            return monomial(1, 0, 1, Fraction(self.prec - self.val, self.den))
        f = self.nums
        if not f:
            if n < 0:
                raise NotInvertible("leading coefficient unknown (zero so far)")
            return QSeries._make(self.den, n * self.prec, (), 1, n * self.prec)
        size = len(f)
        # f in q^t: power the compressed f[::t] and spread the result back;
        # a lone leading term (stride 0) compresses to [f0]
        t = _stride(f) or size
        f = f[::t]
        short = len(f)
        if self.by_squaring(n):
            g = f
            for bit in bin(n)[3:]:
                g = _kronecker(g, g, short)
                if bit == "1":
                    g = _kronecker(g, f, short)
            d = 1
        else:
            g, d = _miller(f, n)
        if t > 1:
            spread = [0] * size
            spread[::t] = g
            g = spread
        if n > 0:
            d *= self.d**n
        elif self.d != 1:
            scale = self.d**-n
            g = [x * scale for x in g]
        return QSeries._make(self.den, n * self.val, g, d, n * self.val + size)

    __pow__ = pow

    def by_squaring(self, n: int) -> bool:
        """Whether pow(n) takes binary powering rather than Miller's
        recurrence, by an estimate of the cost of each on the compressed
        numerators: L of them, nnz nonzero, with b the bit size of the
        wider of the first and the last.

        Miller's recurrence makes about nnz L small products.  Binary
        powering makes steps Kronecker products; each is costed as
        (L + 16)(n b + 256) / 32, linear in the slots and in the width of
        the result's coefficients, about n b bits, which Miller's products
        hardly feel.  So n >= 2 squares when

            32 nnz L > steps (L + 16) (n b + 256).

        b stands in for the widest coefficient, which would cost a pass
        over the numerators: the series here grow along their length, and
        on every shape of the sweep the two give the same route.  The
        constants are fitted on the power shapes of the benchmark workloads
        and a synthetic grid (tests/kernel_sweep.py; CHANGES.md has the
        sweep)."""
        f = self.nums
        if n < 2 or not f:
            return False
        steps = n.bit_length() + n.bit_count() - 2
        nnz = len(f) - f.count(0)
        # 32 nnz L / (L + 16) grows with L, and L <= len(f): when it is at
        # most 256 steps even at len(f), no width lets squaring win
        if 32 * nnz * len(f) <= 256 * steps * (len(f) + 16):
            return False
        f = f[:: _stride(f) or len(f)]
        size = len(f)
        width = n * max(abs(f[0]), abs(f[-1])).bit_length()
        return 32 * nnz * size > steps * (size + 16) * (width + 256)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be known."""
        return self.pow(-1)

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q^m (m >= 1): exponents scale by m."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("substitution power must be a positive integer")
        if m == 1:
            return self
        val, nums, prec = self._spread(m)
        return QSeries._make(self.den, val, nums, self.d, prec)

    def half_twist(self) -> "QSeries":
        """Send q^(1/2) to -q^(1/2): negate coefficients at odd numerators.

        Integer-exponent series are unchanged."""
        if self.den == 1:
            return self
        if self.den != 2:
            raise UnsupportedTwist(f"exponent denominator {self.den} does not divide 2")
        nums = list(self.nums)
        odd = slice(1 - self.val % 2, None, 2)
        nums[odd] = [-x for x in nums[odd]]
        return QSeries(self.den, self.val, tuple(nums), self.d, self.prec)

    def truncate(self, bound) -> "QSeries":
        """Forget everything at exponents >= bound (no-op if already shorter)."""
        b = _as_fraction(bound)
        return self._cut(-(-b.numerator * self.den // b.denominator))

    def _cut(self, p: int) -> "QSeries":
        """Forget everything at exponents >= p/den (no-op if already shorter)."""
        if p >= self.prec:
            return self
        # dropping terms can lower the common denominator
        return QSeries._make(self.den, self.val, self.nums[: max(0, p - self.val)], self.d, p)

    def shift(self, s) -> "QSeries":
        """Multiply by q^s for an exact rational s with denominator 1 or 2."""
        s = _as_fraction(s)
        if s.denominator not in (1, 2):
            raise FractionalExponent(f"shift exponent {s} not in (1/2)Z")
        den = self.den if s.denominator == 1 else 2
        val, nums, prec = self._spread(den // self.den)
        t = int(s * den)
        return QSeries._make(den, val + t, nums, self.d, prec + t)

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Human form, e.g. ``1 + 6q + 18q^2 + 24q^3 + 42q^4 + O(q^5)``.

        Zero coefficients are skipped; fractional data is parenthesized:
        ``(9/2)q^4``, ``q^(5/2)``."""
        out = []
        for i, x in enumerate(self.nums):
            if x == 0:
                continue
            body = _fmt_term(_rat(abs(x), self.d), _rat(self.val + i, self.den))
            sign = "-" if x < 0 else ("+" if out else "")
            out.append(f"{sign} {body}" if out else sign + body)
        out.append(("+ " if out else "") + f"O(q^{_fmt_exp(self.bound)})")
        return " ".join(out)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"QSeries[{self.to_text()}]"


_SET_DEN, _SET_VAL, _SET_NUMS, _SET_D, _SET_PREC = [
    vars(QSeries)[name].__set__ for name in QSeries.__slots__
]


def lincomb(terms) -> QSeries:
    """sum c * s over the (rational c, series s) pairs of terms, on the
    finer grid of the two: one lcm of the denominators, then one pass over
    each term's numerators.  Every term bounds the precision of the result,
    one with c == 0 included."""
    terms = [(_as_fraction(c), s) for c, s in terms]
    if not terms:
        raise ValueError("lincomb needs at least one term")
    den = max(s.den for _, s in terms)
    prec = min(s.prec * (den // s.den) for _, s in terms)
    live = [(c, s) for c, s in terms if c and s.nums]
    val = min([s.val * (den // s.den) for _, s in live] + [prec])
    d = math.lcm(*[c.denominator * s.d for c, s in live])
    out = [0] * (prec - val)
    for c, s in live:
        g = den // s.den
        start = s.val * g - val
        count = min(len(s.nums), (prec - val - start + g - 1) // g)
        if count <= 0:
            continue
        w = c.numerator * (d // (c.denominator * s.d))
        at = slice(start, start + (count - 1) * g + 1, g)
        out[at] = [x + w * y for x, y in zip(out[at], s.nums)]
    return QSeries._make(den, val, out, d, prec)


def _fmt_exp(e: Rat) -> str:
    return str(e) if e.denominator == 1 else f"({e})"


def _fmt_term(c: Rat, e: Rat) -> str:
    if e == 0:
        return str(c)
    q = "q" if e == 1 else f"q^{_fmt_exp(e)}"
    if c == 1:
        return q
    if c.denominator == 1:
        return f"{c.numerator}{q}"
    return f"({c}){q}"


# -- constructors ------------------------------------------------------------


def monomial(coeff, p, q, prec) -> QSeries:
    """c * q^(p/q) + O(q^prec).  prec is an exponent bound (int or rational)
    and must exceed p/q."""
    e = Fraction(p, q)
    if e.denominator not in (1, 2):
        raise FractionalExponent(f"exponent {e} not in (1/2)Z")
    den = e.denominator
    b = _as_fraction(prec)
    pn = math.ceil(b * den)
    vn = int(e * den)
    if pn <= vn:
        raise InvalidPrecision(f"bound {b} does not exceed exponent {e}")
    c = _as_fraction(coeff)
    return QSeries._make(den, vn, [c.numerator] + [0] * (pn - vn - 1), c.denominator, pn)


def zero_series(prec) -> QSeries:
    """The zero-so-far series: nothing below exponent prec is nonzero.

    The bound is rounded up to the half-integer grid, as truncate and
    monomial round theirs, so it never falls below prec."""
    p = math.ceil(_as_fraction(prec) * 2)
    return QSeries._make(2, p, (), 1, p)


def one_series(prec) -> QSeries:
    return monomial(1, 0, 1, prec)


def constant_series(value, prec) -> QSeries:
    """The constant value below exponent prec on the integer grid; the
    zero-so-far series at 0 when prec <= 0."""
    p = _slots(prec)
    c = _as_fraction(value)
    return QSeries._make(1, 0, [c.numerator] + [0] * (p - 1) if p else (), c.denominator, p)


# -- arithmetic generating series --------------------------------------------


def _indicator(r: int, period: int) -> tuple:
    """The indicator of the class r mod period over one period, a character
    for divisor_sums."""
    r %= period
    return (0,) * r + (1,) + (0,) * (period - 1 - r)


def divisor_sums(terms, n: int) -> list:
    """The first n coefficients, from q^0, of the sum over the terms
    (c, chi, psi, k, t) of c D(chi, psi, k, t), where

        D(chi, psi, k, t) = sum_{j>=1} sum_{d|j} chi(j/d) psi(d) d^(k-1) q^(t j)

    for int c, k >= 1 and t >= 1, and chi and psi each given as a tuple of
    int values over one period (chi(x) = chi[x % len(chi)]).  The generalized
    Eisenstein series of weight k with characters chi and psi is one such
    sum plus a constant term, and so is a torsion value of weierstrass: there
    chi is the indicator of a class of c mod the cover index.

    A divisor sieve, with no product and no division.  The pair (d, m) with
    d m = j adds w(m, d) d^(k-1) at slot t j, for w(m, d) = sum c chi(m)
    psi(d) over the terms with this (k, t).  w depends only on m mod L and
    d mod L' (L and L' the lcm of the chi and of the psi periods), so the
    terms are merged into one table, keyed by (k, t) and the class r of m,
    before the sieve.  Only the classes where some chi is nonzero enter it,
    and a class whose merged w is 0 costs nothing: Delta_9's two terms leave
    w nonzero on two of the nine classes of (m, d), and a torsion value whose
    classes of c coincide sums them once.  Each class splits its pairs with d m <= top =
    (n - 1) // t at S = isqrt(top // L), as in Dirichlet's hyperbola method:
    each d <= S adds the constant w(r, d) d^(k-1) over the slots t d m with
    m = r mod L, and each m = r mod L up to top // (S + 1) adds the row
    d -> w(r, d) d^(k-1), d > S, over the slots t m d.  The row is built once
    per class, as long as its first m, r, takes it, and at k = 2 with every
    psi of period 1 it is a range.  Every pair lands once, in about
    S + top / (S L) slice passes per class."""
    out = [0] * n
    lc = lp = 1
    for term in terms:
        lc, lp = math.lcm(lc, len(term[1])), math.lcm(lp, len(term[2]))
    # w[k, t, r] = [w(m, d) for d = 0 .. lp - 1 mod lp] for m = r mod lc,
    # over the classes 1 <= r <= lc where some chi is nonzero
    w = {}
    for c, chi, psi, k, t in terms:
        for r0 in compress(range(len(chi)), chi):
            for r in range(r0 or len(chi), lc + 1, len(chi)):
                ws = w.setdefault((k, t, r), [0] * lp)
                for e in range(lp):
                    ws[e] += c * chi[r0] * psi[e % len(psi)]
    for (k, t, r), ws in w.items():
        top = (n - 1) // t
        if r > top or not any(ws):
            continue
        split = math.isqrt(top // lc)
        d = 1
        while d <= split and d * r <= top:
            v = ws[d % lp] * d ** (k - 1)
            if v:
                at = slice(t * d * r, None, t * d * lc)
                out[at] = map(v.__add__, out[at])
            d += 1
        # the m side: the pairs with d > split, if the class's first m has one
        if d * r > top:
            continue
        if k == 2 and lp == 1:
            row = range(ws[0] * d, ws[0] * (top // r + 1), ws[0])
        else:
            ds = range(d, top // r + 1)
            powers = ds if k == 2 else map(pow, ds, repeat(k - 1))
            row = list(map(operator.mul, cycle(ws[d % lp :] + ws[: d % lp]), powers))
        for m in range(r, top // d + 1, lc):
            # the slice is no longer than the row, which map cuts to it
            at = slice(t * m * d, None, t * m)
            out[at] = map(operator.add, out[at], row)
    return out


def sigma_series(k: int, m: int, prec: int) -> QSeries:
    """Sum over n >= 1 of sigma_k(n) q^(m n), truncated below prec.

    sigma_k(n) is the sum of k-th powers of the positive divisors of n,
    accumulated by a divisor sieve: divisor_sums at chi = psi = 1, k + 1
    and t = m, in a plain loop, which below q^400 runs up to twice as fast
    as that call, and more below q^100 (CHANGES.md)."""
    if k < 0 or m < 1 or prec < 0:
        raise ValueError("sigma_series needs k >= 0, m >= 1, prec >= 0")
    top = (prec - 1) // m if prec > m else 0
    if top < 1:
        return zero_series(prec)
    sig = [0] * (top + 1)
    for d in range(1, top + 1):
        dk = d**k
        for j in range(d, top + 1, d):
            sig[j] += dk
    out = [0] * (prec - m)
    out[::m] = sig[1:]
    return QSeries._make(1, m, out, 1, prec)


def _check_phase(b) -> Fraction:
    """b as a Fraction; it must be 0 or 1/2."""
    b = _as_fraction(b)
    if b not in (0, HALF):
        raise ValueError(f"phase must be 0 or 1/2, got {b}")
    return b


def inv_sin2(c, b, prec) -> QSeries:
    """S(c, b), the Lambert-type expansion of 1/sin^2(pi(c tau + b)) up to a
    factor, below exponent prec: -4 sum_{d>=1} d eps^d q^(|c| d) with
    eps = e^(2 pi i b), the constant 1 at c = 0, b = 1/2, and a pole at
    c = b = 0.

    c is a rational with denominator dividing 2; b is 0 or 1/2.  On the grid
    of c's denominator it is one divisor-sum term of weight k = 2 and t = 1,
    -4 [c' = |c| mod P] eps^d, whose period P lies past the bound, so that
    the class holds |c| alone."""
    c = _as_fraction(c)
    b = _check_phase(b)
    if c.denominator not in (1, 2):
        raise FractionalExponent(f"frequency {c} not in (1/2)Z")
    den = c.denominator
    pn = math.ceil(_as_fraction(prec) * den)
    if pn < 0:
        raise InvalidPrecision(f"negative bound {prec}")
    freq = abs(c.numerator)
    if freq == 0 and b == 0:
        raise PoleAtArgument("1/sin^2 at the lattice origin")
    # a frequency at or past the bound adds nothing
    eps = (1, -1) if b else (1,)
    nums = divisor_sums([(-4, _indicator(freq, pn + 1), eps, 2, 1)] if freq < pn else (), pn)
    if nums and freq == 0:
        nums[0] = 1
    return QSeries._make(den, 0, nums, 1, pn)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the classical recurrence."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    s = Fraction(0)
    for j in range(n):
        bj = bernoulli(j)
        if bj:
            s += math.comb(n + 1, j) * bj
    return -s / (n + 1)
