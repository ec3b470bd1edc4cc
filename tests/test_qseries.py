"""Core series arithmetic: frozen examples, independent oracles, ring axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle
from qmodular import qseries
from qmodular.eta import DELTA_TABLE, delta, euler_product
from qmodular.errors import (
    FractionalExponent,
    InvalidPrecision,
    NotInvertible,
    PoleAtArgument,
)
from qmodular.qseries import (
    HALF,
    QSeries,
    bernoulli,
    inv_sin2,
    monomial,
    one_series,
    sigma_series,
    zero_series,
)

# ---------------------------------------------------------------------------
# independent oracle helpers (plain lists, no QSeries involvement)
# ---------------------------------------------------------------------------


def poly_mul(a, b, n):
    """Truncated product of coefficient lists a, b modulo x^n."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[: n - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def poly_inv(a, n):
    """Inverse of a coefficient list modulo x^n by long division."""
    assert a[0] != 0
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1) / a[0]
    for k in range(1, n):
        s = Fraction(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * inv[k - i]
        inv[k] = -s / a[0]
    return inv


def sigma_bruteforce(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def series_coeff_map(f: QSeries):
    """{exponent: coefficient} for all known-nonzero entries."""
    out = {}
    for i, c in enumerate(f.coeffs):
        if c != 0:
            out[Fraction(f.val + i, f.den)] = Fraction(c)
    return out


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_monomial_integer_grid():
    f = monomial(3, 2, 1, 5)
    assert (f.den, f.val, f.coeffs, f.prec) == (1, 2, (3, 0, 0), 5)
    assert f.to_text() == "3q^2 + O(q^5)"


def test_monomial_half_grid():
    f = monomial(1, 1, 2, 3)
    assert (f.den, f.val, f.coeffs, f.prec) == (2, 1, (1, 0, 0, 0, 0), 6)
    assert f.to_text() == "q^(1/2) + O(q^3)"


def test_monomial_rejects_empty_window():
    with pytest.raises(InvalidPrecision):
        monomial(1, 2, 1, 2)
    with pytest.raises(InvalidPrecision):
        monomial(1, 5, 1, 3)


def test_monomial_rejects_deep_fraction():
    with pytest.raises(FractionalExponent):
        monomial(1, 1, 3, 5)


def test_zero_coefficient_collapses():
    f = monomial(0, 2, 1, 7)
    assert f.is_zero and f.val == f.prec == 7


def test_build_strips_leading_zeros_and_reduces_denominator():
    f = QSeries.build(2, 2, [0, 0, 5, 0, 7, 0], 8)
    # leading zeros stripped -> val 4; all odd numerators zero -> den 1
    assert (f.den, f.val, f.coeffs, f.prec) == (1, 2, (5, 7), 4)


def test_build_keeps_half_grid_when_odd_prec():
    # an odd numerator bound cannot be halved without inventing knowledge
    f = QSeries.build(2, 2, [5, 0, 7, 0, 0], 7)
    assert f.den == 2 and f.prec == 7


def test_integral_fractions_become_ints():
    f = QSeries.build(1, 0, [Fraction(4, 2), Fraction(1, 3)], 2)
    assert isinstance(f.coeffs[0], int) and f.coeffs[0] == 2
    assert isinstance(f.coeffs[1], Fraction)


# ---------------------------------------------------------------------------
# arithmetic: frozen small examples
# ---------------------------------------------------------------------------


def test_add_aligns_grids_and_takes_min_bound():
    a = monomial(1, 0, 1, 4)  # 1 + O(q^4)
    b = monomial(1, 1, 2, Fraction(7, 2))  # q^(1/2) + O(q^(7/2))
    s = a + b
    assert s.den == 2 and s.bound == Fraction(7, 2)
    assert series_coeff_map(s) == {Fraction(0): 1, HALF: 1}


def test_mul_square_binomial():
    a = monomial(1, 0, 1, 4) + monomial(1, 1, 1, 4)  # 1 + q + O(q^4)
    sq = a * a
    assert (sq.den, sq.val, sq.coeffs, sq.prec) == (1, 0, (1, 2, 1, 0), 4)


def test_mul_precision_rule():
    a = monomial(1, 2, 1, 9)  # q^2 + O(q^9): relative depth 7
    b = monomial(1, 3, 1, 5)  # q^3 + O(q^5): relative depth 2
    p = a * b
    assert p.val == 5 and p.prec == min(9 + 3, 5 + 2) == 7


def test_mul_with_zero_so_far():
    z = zero_series(5)
    a = monomial(2, 1, 1, 9)
    p = z * a
    assert p.is_zero and p.bound == 6  # 5 + val 1


def test_pow_zero_keeps_relative_depth():
    a = monomial(5, 3, 1, 10)
    u = a.pow(0)
    assert (u.den, u.val, u.prec) == (1, 0, 7) and u.leading == 1
    with pytest.raises(InvalidPrecision):
        zero_series(4).pow(0)


def test_pow_matches_repeated_mul():
    a = monomial(1, 0, 1, 8) + monomial(-3, 1, 1, 8) + monomial(Fraction(1, 2), 2, 1, 8)
    by_mul = a
    for _ in range(4):
        by_mul = by_mul * a
    assert a.pow(5) == by_mul


def test_invert_geometric():
    a = monomial(1, 0, 1, 6) + monomial(-1, 1, 1, 6)  # 1 - q
    assert a.invert().coeffs == (1, 1, 1, 1, 1, 1)


def test_invert_shifts_valuation():
    a = monomial(2, 3, 1, 8)  # 2q^3 + O(q^8)
    inv = a.invert()
    assert inv.val == -3 and inv.prec == 8 - 6
    assert inv.coeffs == (Fraction(1, 2), 0, 0, 0, 0)


def test_invert_zero_so_far_fails():
    with pytest.raises(NotInvertible):
        zero_series(9).invert()


def test_substitute_power_rescales_and_canonicalizes():
    f = monomial(1, 1, 2, 3)  # q^(1/2) + O(q^3)
    g = f.substitute_power(2)
    assert (g.den, g.val, g.prec) == (1, 1, 6)
    assert g.to_text() == "q + O(q^6)"


def test_half_twist_negates_odd_numerators():
    f = monomial(1, 1, 2, 2) + monomial(1, 1, 1, 2)  # q^(1/2) + q + O(q^2)
    t = f.half_twist()
    assert series_coeff_map(t) == {HALF: -1, Fraction(1): 1}
    assert t.half_twist() == f
    g = monomial(7, 2, 1, 5)
    assert g.half_twist() == g  # integer grid untouched


def test_truncate_and_coefficient():
    f = monomial(1, 0, 1, 9) + monomial(4, 5, 1, 9)
    t = f.truncate(3)
    assert t.prec == 3 and t.coeffs == (1, 0, 0)
    assert f.coefficient(5) == 4
    assert f.coefficient(Fraction(7, 2)) == 0  # implicit half-grid zero
    with pytest.raises(InvalidPrecision):
        f.coefficient(9)


def test_shift_moves_window():
    f = monomial(3, 1, 1, 4)
    g = f.shift(HALF)
    assert (g.den, g.val, g.prec) == (2, 3, 9)
    assert g.coefficient(Fraction(3, 2)) == 3


# ---------------------------------------------------------------------------
# ring axioms (randomized; the 1000-triple sweep lives in the acceptance run)
# ---------------------------------------------------------------------------


def random_series(rng: random.Random) -> QSeries:
    den = rng.choice([1, 2])
    val = rng.randint(-6, 6)
    n = rng.randint(0, 8)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
    ]
    if n:
        while coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return QSeries.build(den, val, coeffs, val + n)


def check_ring_axioms(a: QSeries, b: QSeries, c: QSeries):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # distributivity holds on the window both sides certify
    lhs = a * (b + c)
    rhs = a * b + a * c
    cut = min(lhs.bound, rhs.bound)
    assert lhs.truncate(cut) == rhs.truncate(cut)
    z = zero_series(a.bound + 10)
    assert a + z == a  # adding a deeper zero changes nothing
    assert a + (-a) == QSeries.build(a.den, a.prec, (), a.prec)


def test_ring_axioms_seeded():
    rng = random.Random(20260819)
    for _ in range(150):
        check_ring_axioms(random_series(rng), random_series(rng), random_series(rng))


coeff_strategy = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def qseries_strategy(draw):
    den = draw(st.sampled_from([1, 2]))
    val = draw(st.integers(min_value=-5, max_value=5))
    coeffs = draw(st.lists(coeff_strategy, max_size=7))
    return QSeries.build(den, val, coeffs, val + len(coeffs))


@settings(max_examples=120, deadline=None)
@given(qseries_strategy(), qseries_strategy(), qseries_strategy())
def test_ring_axioms_hypothesis(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    lhs = a * (b + c)
    rhs = a * b + a * c
    cut = min(lhs.bound, rhs.bound)
    assert lhs.truncate(cut) == rhs.truncate(cut)


@settings(max_examples=100, deadline=None)
@given(qseries_strategy())
def test_invert_round_trip(f):
    if f.is_zero:
        return
    p = f * f.invert()
    # known window of the product is the relative depth of f above 0
    assert p.val == 0 and p.leading == 1
    assert all(c == 0 for c in p.coeffs[1:])


def pow_oracle(f: QSeries, n: int) -> QSeries:
    """f^n from the list oracles: poly_mul repeated |n| times, on
    poly_inv(f) when n < 0, over f's relative precision."""
    size = len(f.coeffs)
    base = [Fraction(c) for c in f.coeffs]
    if n < 0:
        base = poly_inv(base, size)
    acc = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for _ in range(abs(n)):
        acc = poly_mul(acc, base, size)
    return QSeries.build(f.den, n * f.val, acc, n * f.val + size)


@settings(max_examples=200, deadline=None)
@given(qseries_strategy())
def test_pow_matches_list_oracles(f):
    if f.is_zero:
        return
    for n in range(-3, 7):
        want = pow_oracle(f, n)
        # pow(0) is the constant 1 on the integer grid, its bound rounded up
        assert f.pow(n) == (one_series(want.bound) if n == 0 else want), n
    assert f.pow(-1) == f.invert()


def test_pow_of_zero_so_far():
    z = zero_series(Fraction(5, 2))
    assert z.pow(3) == zero_series(Fraction(15, 2))
    with pytest.raises(NotInvertible):
        z.pow(-2)
    with pytest.raises(InvalidPrecision):
        z.pow(0)
    with pytest.raises(ValueError):
        monomial(1, 0, 1, 3).pow(HALF)


# ---------------------------------------------------------------------------
# Kronecker products and dense powers (oracle: the schoolbook poly_mul)
# ---------------------------------------------------------------------------

KRON = qseries._KRONECKER_MIN
big_int = st.integers(min_value=-(2**130), max_value=2**130)
WIDE = 2**64 - 1
# 600 terms near +-2^130: packed at 34-byte slots, about 20 kB per operand
NEAR_2_130 = [(-1) ** (i % 3) * (2**130 - 7 * i) for i in range(600)]
NEAR_2_130_B = [(-1) ** (i // 5) * (2**129 + 3 * i) for i in range(600)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(big_int, min_size=1, max_size=40),
    st.lists(big_int, min_size=1, max_size=40),
    st.integers(min_value=1, max_value=90),
    st.booleans(),
)
# the slot-width edges: every product term at the largest magnitude, with
# one sign and with alternating signs, and powers of two
@example([WIDE] * 40, [WIDE] * 40, 79, False)
@example([-WIDE] * 40, [WIDE] * 40, 79, False)
@example([(-1) ** i * WIDE for i in range(40)], [WIDE] * 40, 90, True)
@example([-(2**64)] * 7, [2**64] * 3, 12, False)
# 60 + 60 + bit_length(255) = 128 bits: only the spare sign bit keeps
# h_254 = 255 (2^60 - 1)^2 > 2^127 inside its slot
@example([2**60 - 1] * 255, [2**60 - 1] * 255, 255, True)
@example([0, 0, 0], [5], 4, False)
# an even and an odd n, both inside the full product of 7 slots
@example([3, -1, 4, 1, -5], [9, 2, -6], 6, False)
@example([3, -1, 4, 1, -5], [9, 2, -6], 7, False)
# n past len(a) + len(b) - 1: the top slots are zero
@example([1, -2, 3], [4, 5], 9, False)
@example([2**130, -1], [-(2**130)], 8, False)
# length-1 and length-2 operands: an empty odd half
@example([7], [-3], 1, False)
@example([7], [2, -3], 3, False)
@example([-(2**130)], [-(2**130)], 2, True)
@example([-5, 6], [-5, 6], 4, True)
# unbalanced widths, 3-bit by 146-bit coefficients, as in delta(10, 1000)
@example(
    [(-1) ** i * (i % 8) for i in range(60)],
    [(-1) ** (i // 3) * (2**146 - 1 - i) for i in range(61)],
    120,
    False,
)
# long wide operands, and the square of one
@example(NEAR_2_130, NEAR_2_130_B, 1199, False)
@example(NEAR_2_130, NEAR_2_130, 1000, True)
def test_kronecker_matches_schoolbook_on_int_lists(a, b, n, square):
    """The two-point packing against the schoolbook loop and against the
    one-point packing it replaced (fraction_oracle._kronecker)."""
    if square:
        b = a
    want = poly_mul(a, b, n)
    assert qseries._kronecker(a, b, n) == want
    assert fraction_oracle._kronecker(a, b, n) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_kronecker_matches_the_one_point_packing(la, lb, bits_a, bits_b, square, rng):
    """Longer operands of drawn widths, where schoolbook would be slow: the
    two-point packing against the one-point one, at n from 1 to past the
    full product."""
    a = [rng.choice((-1, 1)) * rng.getrandbits(bits_a) for _ in range(la)]
    b = a if square else [rng.choice((-1, 1)) * rng.getrandbits(bits_b) for _ in range(lb)]
    full = len(a) + len(b) - 1
    for n in {1, 2, len(a), max(full - 1, 1), full, full + 2}:
        assert qseries._kronecker(a, b, n) == fraction_oracle._kronecker(a, b, n), n


def half_grid(f: QSeries):
    """f's coefficients on the half-integer grid, from its valuation up to
    its bound."""
    m = series_coeff_map(f)
    steps = int(2 * (f.bound - f.valuation))
    return [m.get(f.valuation + Fraction(i, 2), Fraction(0)) for i in range(steps)]


def mul_oracle(a: QSeries, b: QSeries) -> QSeries:
    """a * b by poly_mul on the half-integer grid, known below
    min(bound a + valuation b, bound b + valuation a)."""
    val = a.valuation + b.valuation
    bound = min(a.bound + b.valuation, b.bound + a.valuation)
    out = poly_mul(half_grid(a), half_grid(b), int(2 * (bound - val)))
    return QSeries.build(2, int(2 * val), out, int(2 * bound))


@st.composite
def long_qseries_strategy(draw, min_size=0, max_size=3 * KRON, densities=(1.0, 0.5, 0.1)):
    """Series on either grid with up to max_size coefficients: small ints,
    ints above 2^64, Fractions over several denominators, or a mix, at the
    drawn share of nonzero terms."""
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.sampled_from([1, 2]))
    val = draw(st.integers(min_value=-6, max_value=6))
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    density = draw(st.sampled_from(densities))
    kinds = draw(st.sampled_from([(0,), (1,), (2,), (0, 1, 2)]))

    def coeff():
        kind = rng.choice(kinds)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return rng.choice((-1, 1)) * rng.randint(2**64, 2**100)
        return Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 7, 9)))

    coeffs = [coeff() if rng.random() < density else 0 for _ in range(size)]
    return QSeries.build(den, val, coeffs, val + size)


# half the operands are long and mostly nonzero, so that about a fifth of
# the pairs take the Kronecker path
operand_strategy = st.one_of(
    long_qseries_strategy(),
    long_qseries_strategy(min_size=KRON + 1, densities=(1.0, 0.6)),
)


@settings(max_examples=100, deadline=None)
@given(operand_strategy, operand_strategy)
def test_long_products_match_schoolbook(a, b):
    assert a * b == mul_oracle(a, b)
    assert b * a == mul_oracle(a, b)


@settings(max_examples=25, deadline=None)
@given(
    long_qseries_strategy(min_size=KRON + 1, max_size=3 * KRON + 16, densities=(1.0,)),
    st.integers(min_value=2, max_value=6),
)
def test_dense_pow_matches_list_oracles(f, n):
    assert f.pow(n) == pow_oracle(f, n)


def test_kronecker_path_selection(monkeypatch):
    """Products take Kronecker substitution only when both operands have
    more than _KRONECKER_MIN nonzero terms, and pow(n) only for n >= 2 and
    32 nnz L > steps (L + 16) (n b + 256) (QSeries.by_squaring).  A series
    in q^t is packed, or powered by Miller's recurrence, without its zero
    slots."""
    calls = []
    real_kronecker = qseries._kronecker
    real_miller = qseries._miller

    def kronecker(a, b, n):
        calls.append(("kronecker", len(a), len(b), n, a is b))
        return real_kronecker(a, b, n)

    def miller(f, n):
        calls.append(("miller", len(f)))
        return real_miller(f, n)

    monkeypatch.setattr(qseries, "_kronecker", kronecker)
    monkeypatch.setattr(qseries, "_miller", miller)

    def dense(size):
        return QSeries.build(1, 0, [1 + i % 5 for i in range(size)], size)

    def made(thunk):
        calls.clear()
        thunk()
        return [c for c in calls if c[0] == "kronecker"]

    # dense operands take exactly the calls they took before the sections
    assert made(lambda: dense(KRON) * dense(3 * KRON)) == []
    assert made(lambda: dense(KRON + 1) * dense(KRON + 1)) == [
        ("kronecker", KRON + 1, KRON + 1, KRON + 1, False)
    ]
    # a sparse operand, however long, keeps the schoolbook loop
    assert made(lambda: one_series(3 * KRON) * dense(3 * KRON)) == []
    # pow(2) is one squaring, pow(3) a squaring and a product, pow(6) three
    f = dense(KRON + 1)
    assert made(lambda: f.pow(2)) == [("kronecker", KRON + 1, KRON + 1, KRON + 1, True)]
    f = dense(2 * KRON)
    assert len(made(lambda: f.pow(3))) == 2
    assert len(made(lambda: dense(2 * KRON + 1).pow(3))) == 2
    # the cube of dense(L) squares from 27 terms on, b read from its last
    # coefficient 1 + (L - 1) % 5: 32 * 27^2 = 23328 > 2 * 43 * (3 * 2 + 256)
    # = 22532, while 32 * 26^2 = 21632 < 2 * 42 * (3 * 1 + 256) = 21756
    assert made(lambda: dense(26).pow(3)) == []
    assert len(made(lambda: dense(27).pow(3))) == 2
    # 64-bit coefficients: a 128-term series squares to the 6th power and
    # runs Miller's recurrence to the 24th, whose result is 1536 bits wide
    wide = QSeries.build(1, 0, [(-1) ** i * (2**63 + i) for i in range(128)], 128)
    assert len(made(lambda: wide.pow(6))) == 3
    assert made(lambda: wide.pow(24)) == []
    assert len(made(lambda: dense(3 * KRON + 1).pow(6))) == 3
    assert made(lambda: dense(3 * KRON + 1).pow(-1)) == []
    assert made(lambda: dense(3 * KRON + 1).pow(1)) == []

    # a dense 3K-term series times one in q^3: three products of K slots
    k = KRON + 8
    assert made(lambda: dense(3 * k) * dense(k).substitute_power(3)) == [
        ("kronecker", k, k, k, False)
    ] * 3
    # ... unless a section is short: here section 2 holds three terms and
    # takes the schoolbook loop
    a = QSeries.build(1, 0, [0 if i % 3 == 2 and i > 9 else 1 for i in range(3 * k)], 3 * k)
    assert made(lambda: a * dense(k).substitute_power(3)) == [("kronecker", k, k, k, False)] * 2

    # squaring a dense series in q^2 packs one list once, at half length
    f = dense(k).substitute_power(2)
    assert made(lambda: f * f) == [("kronecker", k, k, k, True)]
    assert made(lambda: f.pow(2)) == [("kronecker", k, k, k, True)]

    # an Euler factor in q^m is powered on its ceil(1000/m) compressed terms
    # (b = 1): by binary powering for E(q)^24 (32 * 51 * 1000 = 1632000 >
    # 5 * 1016 * 280) and E(q^m)^6 with m <= 3, by Miller's recurrence for
    # the rest, such as E(q^2)^24 (32 * 37 * 500 = 592000 < 5 * 516 * 280)
    # and E(q^4)^6 (32 * 26 * 250 = 208000 < 3 * 266 * 262)
    squares = {(1, 24): 5, (1, 6): 3, (2, 6): 3, (3, 6): 3}
    for m in range(1, 11):
        size = -(-1000 // m)
        for e in (-8, -1, 6, 24):
            calls.clear()
            euler_product(m, 1000).pow(e)
            if (m, e) in squares:
                assert [c[:4] for c in calls] == [("kronecker", size, size, size)] * squares[m, e]
            else:
                assert calls == [("miller", size)], (m, e)


def routed(f, n, squaring):
    """f.pow(n) as its five fields, with binary powering forced on (for
    every n >= 2) or off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QSeries, "by_squaring", lambda g, k: squaring and k >= 2)
        return f.pow(n)._astuple()


# psi(q) = sum_k q^(k(k+1)/2) = E(q^2)^2 / E(q), the narrow quotient of
# Delta_2 = q psi(q)^8
PSI = QSeries.build(1, 0, [int(math.isqrt(8 * i + 1) ** 2 == 8 * i + 1) for i in range(1000)], 1000)


@pytest.mark.parametrize("m", range(1, 11))
def test_both_pow_routes_agree_on_euler_factors(m):
    f = euler_product(m, 1000)
    for e in (-8, -1, 2, 3, 6, 24):
        assert routed(f, e, True) == routed(f, e, False), e


def test_both_pow_routes_agree_on_psi():
    assert routed(PSI, 8, True) == routed(PSI, 8, False)
    assert PSI.pow(8).nums == delta(2, 1001).nums


@settings(max_examples=80, deadline=None)
@given(
    long_qseries_strategy(min_size=1, max_size=40, densities=(1.0, 0.6)),
    st.integers(min_value=2, max_value=12),
)
def test_both_pow_routes_agree_on_short_dense_powers(f, n):
    # the shapes of reduce-session's powers: up to 40 terms, mostly nonzero
    assert routed(f, n, True) == routed(f, n, False)


def test_pow_one_is_the_series_itself(monkeypatch):
    """pow(1) returns its operand and calls no kernel."""
    calls = []

    def spy(name):
        real = getattr(qseries, name)

        def kernel(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(qseries, name, kernel)

    spy("_kronecker")
    spy("_miller")
    for f in (
        euler_product(1, 1000),
        euler_product(3, 1000),
        QSeries.build(2, -3, [Fraction(1, 3), 0, 5, Fraction(-7, 2)], 1),
        zero_series(Fraction(5, 2)),
    ):
        assert f.pow(1) is f
        assert f**1 is f
    assert calls == []
    # the spies do see the kernels
    euler_product(1, 1000).pow(-1)
    euler_product(1, 1000).pow(2)
    assert calls == ["_miller", "_kronecker"]


@settings(max_examples=100, deadline=None)
@given(qseries_strategy(), st.integers(min_value=1, max_value=5))
def test_substitute_round_trip(f, m):
    g = f.substitute_power(m)
    assert g.bound == f.bound * m
    assert series_coeff_map(g) == {e * m: c for e, c in series_coeff_map(f).items()}


@settings(max_examples=100, deadline=None)
@given(qseries_strategy())
def test_half_twist_involution(f):
    assert f.half_twist().half_twist() == f


# ---------------------------------------------------------------------------
# divisor-power sums
# ---------------------------------------------------------------------------


def test_sigma_series_small_values():
    f = sigma_series(3, 1, 4)
    assert (f.den, f.val, f.coeffs, f.prec) == (1, 1, (1, 9, 28), 4)


def test_sigma_series_against_bruteforce():
    for k in (1, 2, 3, 5, 9):
        f = sigma_series(k, 1, 60)
        for n in range(1, 60):
            assert f.coefficient(n) == sigma_bruteforce(k, n), (k, n)


def test_sigma_series_scaled_argument():
    f = sigma_series(1, 3, 20)
    assert f.val == 3
    for n in range(1, 7):
        assert f.coefficient(3 * n) == sigma_bruteforce(1, n)
    assert f.coefficient(4) == 0 and f.coefficient(5) == 0


def test_sigma_series_empty_window():
    assert sigma_series(1, 7, 5).is_zero


def divisor_sums_bruteforce(terms, n):
    """sum c sum_{d | m} chi(m/d) psi(d) d^(k-1) at slot t m, divisor by
    divisor and term by term."""
    out = [0] * n
    for c, chi, psi, k, t in terms:
        for m in range(1, (n - 1) // t + 1):
            for d in range(1, m + 1):
                if m % d == 0:
                    out[t * m] += c * chi[m // d % len(chi)] * psi[d % len(psi)] * d ** (k - 1)
    return out


characters = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5).map(tuple)
divisor_sum_terms = st.tuples(
    st.integers(min_value=-5, max_value=5),
    characters,
    characters,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10),
)


def residue_class(r, period):
    """The indicator of the class r mod period, value by value over one
    period: the character the torsion kernels send for a class of c."""
    return tuple(1 if x == r % period else 0 for x in range(period))


ALTERNATING = (1, -1)  # psi(d) = (-1)^d, the phase 1/2


@settings(max_examples=200, deadline=None)
@given(st.lists(divisor_sum_terms, max_size=4), st.integers(min_value=0, max_value=200))
# Delta_10's four terms, a pass whose terms cancel, and one term per slot
@example(list(DELTA_TABLE[10].terms), 200)
@example([(1, (0, 1), (1,), 2, 3), (-1, (0, 1), (1,), 2, 3)], 200)
@example([(2, (1,), (1,), 4, 1)], 2)
# the torsion shapes: wp_hat(3/2, 1/2, 10)'s classes of period 20 with the
# alternating psi; wp_hat(5, 1/2, 10), whose classes a and -a coincide;
# wpt_hat(0, 0, 5), whose three classes coincide and cancel; inv_sin2's one
# class with a period past the bound; and the shortest windows
@example([(-12, residue_class(3, 20), ALTERNATING, 2, 1), (-12, residue_class(-3, 20), ALTERNATING, 2, 1),
          (24, residue_class(0, 20), (1,), 2, 1)], 200)
@example([(-12, residue_class(5, 10), ALTERNATING, 2, 1), (-12, residue_class(-5, 10), ALTERNATING, 2, 1),
          (24, residue_class(0, 10), (1,), 2, 1)], 150)
@example([(-4, residue_class(5, 10), ALTERNATING, 2, 1)] * 2 + [(8, residue_class(5, 10), ALTERNATING, 2, 1)], 100)
@example([(-4, residue_class(7, 41), ALTERNATING, 2, 1)], 40)
@example([(-4, residue_class(0, 41), (1,), 2, 1)], 40)
@example(list(DELTA_TABLE[10].terms), 0)
@example(list(DELTA_TABLE[10].terms), 1)
@example([(-12, residue_class(1, 2), ALTERNATING, 2, 1), (24, residue_class(0, 2), (1,), 2, 1)], 2)
def test_divisor_sums_match_the_bruteforce_sums(terms, n):
    assert qseries.divisor_sums(terms, n) == divisor_sums_bruteforce(terms, n)


# ---------------------------------------------------------------------------
# Lambert expansions of 1/sin^2 (oracle: geometric series in x, mapped in)
# ---------------------------------------------------------------------------


def inv_sin2_oracle(c, b, prec):
    """-4 x / (1-x)^2 expanded by naive long division, then x^d -> eps^d q^(cd)."""
    c = Fraction(c)
    eps = 1 if Fraction(b) == 0 else -1
    n = 1
    while c * n < prec:
        n += 1
    one_minus_x = [Fraction(1), Fraction(-1)]
    denom = poly_mul(one_minus_x, one_minus_x, n + 2)
    series_x = poly_mul([Fraction(0), Fraction(-4)], poly_inv(denom, n + 2), n + 2)
    out = {}
    for d in range(1, n + 1):
        coeff = series_x[d] * (eps**d)
        if coeff and c * d < prec:
            out[c * d] = coeff
    return out


@pytest.mark.parametrize(
    "c,b",
    [
        (1, 0),
        (1, HALF),
        (2, 0),
        (Fraction(1, 2), 0),
        (Fraction(1, 2), HALF),
        (Fraction(3, 2), HALF),
        (5, 0),
    ],
)
def test_inv_sin2_against_oracle(c, b):
    f = inv_sin2(c, b, 40)
    assert series_coeff_map(f) == inv_sin2_oracle(c, b, 40)


def test_inv_sin2_frozen_example():
    f = inv_sin2(1, 0, 5)
    assert (f.den, f.val, f.coeffs, f.prec) == (1, 1, (-4, -8, -12, -16), 5)


def test_inv_sin2_alternating_phase():
    f = inv_sin2(1, HALF, 5)
    assert f.coeffs == (4, -8, 12, -16)


def test_inv_sin2_even_in_frequency():
    assert inv_sin2(-3, HALF, 30) == inv_sin2(3, HALF, 30)
    assert inv_sin2(Fraction(-1, 2), 0, 30) == inv_sin2(Fraction(1, 2), 0, 30)


def test_inv_sin2_constant_and_pole():
    f = inv_sin2(0, HALF, 7)
    assert (f.val, f.coeffs) == (0, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(PoleAtArgument):
        inv_sin2(0, 0, 7)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_table():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
        3: Fraction(0),
        7: Fraction(0),
    }
    for n, v in expected.items():
        assert bernoulli(n) == v, n


def test_rendering_examples():
    f = monomial(1, 0, 1, 5) + monomial(-8, 1, 1, 5) + monomial(Fraction(9, 2), 4, 1, 5)
    assert f.to_text() == "1 - 8q + (9/2)q^4 + O(q^5)"
    assert zero_series(6).to_text() == "O(q^6)"
    g = monomial(-16, 1, 2, 2)
    assert g.to_text() == "-16q^(1/2) + O(q^2)"


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: QSeries.build(3, 0, [1], 1), ValueError, "denominator must be 1 or 2"),
        (lambda: QSeries.build(1, 0, [1, 2], 1), ValueError, r"2 coefficients for the window \[0, 1\)"),
        (lambda: one_series(3).shift("1/3"), FractionalExponent, "shift exponent 1/3"),
        (lambda: one_series(3).substitute_power(0), ValueError, "positive integer"),
        (lambda: sigma_series(-1, 1, 5), ValueError, "sigma_series needs"),
        (lambda: sigma_series(1, 0, 5), ValueError, "sigma_series needs"),
        (lambda: sigma_series(1, 1, -1), ValueError, "sigma_series needs"),
        (lambda: inv_sin2(Fraction(1, 3), 0, 5), FractionalExponent, "frequency 1/3"),
        (lambda: inv_sin2(1, 0, -1), InvalidPrecision, "negative bound -1"),
        (lambda: bernoulli(-1), ValueError, "nonnegative"),
        (lambda: qseries._as_fraction(1.5), TypeError, "expected a rational, got float"),
        (lambda: qseries._slots(1.5, 2), TypeError, "expected a rational, got float"),
        (lambda: qseries._slots("x", 2), ValueError, "Invalid literal for Fraction"),
    ],
    ids=[
        "build-den", "build-window", "shift", "substitute", "sigma-k", "sigma-m",
        "sigma-prec", "inv_sin2-frequency", "inv_sin2-bound", "bernoulli", "as_fraction",
        "slots-float", "slots-text",
    ],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


@settings(max_examples=200, deadline=None)
@given(
    prec=st.one_of(st.integers(-50, 50), st.fractions(-20, 20, max_denominator=24)),
    den=st.sampled_from([1, 2]),
    as_text=st.booleans(),
)
@example(prec=True, den=2, as_text=False)
def test_slots_is_the_ceiling_of_the_bound(prec, den, as_text):
    # the kernels' one bound rule: ceil(prec * den) slots, none at or below
    # q^0, from an int, a Fraction or its text alike
    want = max(0, math.ceil(Fraction(prec) * den))
    got = qseries._slots(str(prec) if as_text else prec, den)
    assert got == want and type(got) is int
