"""Differential tests: int numerators over one denominator against the
Fraction-coefficient QSeries and torsion kernels kept in fraction_oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle as old
from qmodular import qseries
from qmodular.errors import NotInvertible, PoleAtArgument
from qmodular.qseries import HALF, QSeries, inv_sin2, lincomb
from qmodular.weierstrass import wp_hat, wpt_hat

KRON = qseries._KRONECKER_MIN


def check_invariant(s: QSeries) -> None:
    """Canonical form: int numerators in lowest terms over d > 0, a nonzero
    leading numerator, and no exponent grid finer than the data needs."""
    assert s.den in (1, 2)
    assert all(type(x) is int for x in s.nums)
    assert len(s.nums) == s.prec - s.val
    assert s.d > 0 and math.gcd(s.d, *s.nums) == 1
    if s.nums:
        assert s.nums[0] != 0
    else:
        assert s.val == s.prec and s.d == 1
    if s.den == 2:
        assert s.prec % 2 or s.val % 2 or any(s.nums[1::2])


def assert_same(new: QSeries, ref: old.QSeries) -> None:
    """new holds the oracle's series: the same coefficients, of the same
    types, on the same grid below the same bound.  The oracle's scale(0)
    leaves a zero-so-far series on the half grid where the canonical form
    is the integer grid, so zero-so-far series compare by their bound."""
    check_invariant(new)
    assert new.bound == ref.bound and new.valuation == ref.valuation
    if ref.is_zero:
        assert new.is_zero
        return
    assert (new.den, new.val, new.coeffs, new.prec) == (ref.den, ref.val, ref.coeffs, ref.prec)
    assert [type(c) for c in new.coeffs] == [type(c) for c in ref.coeffs]
    assert new.to_text() == ref.to_text()


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------

BIG = 2**64


def coefficient(rng, kind):
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randint(BIG, 2**100)
    return Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 7, 9)))


@st.composite
def raw_series(draw, max_size=10, densities=(1.0, 0.5)):
    """(den, val, coeffs, prec): small ints, ints above 2^64, Fractions over
    several denominators or a mix, on either grid."""
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.sampled_from([1, 2]))
    val = draw(st.integers(min_value=-5, max_value=5))
    size = draw(st.integers(min_value=0, max_value=max_size))
    density = draw(st.sampled_from(densities))
    kinds = draw(st.sampled_from([(0,), (1,), (2,), (0, 1, 2)]))
    coeffs = [
        coefficient(rng, rng.choice(kinds)) if rng.random() < density else 0
        for _ in range(size)
    ]
    return den, val, coeffs, val + size


def both(raw):
    return QSeries.build(*raw), old.QSeries.build(*raw)


scalars = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)

# long and mostly nonzero, so that products of two of them take the
# Kronecker path
long_series = raw_series(max_size=3 * KRON, densities=(1.0, 0.6, 0.1))


@settings(max_examples=150, deadline=None)
@given(raw_series(), raw_series(), scalars)
def test_add_sub_scale_match_the_fraction_series(ra, rb, c):
    a, oa = both(ra)
    b, ob = both(rb)
    check_invariant(a)
    assert_same(a, oa)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(-a, -oa)
    assert_same(a.scale(c), oa.scale(c))
    assert_same(a.scale(0), oa.scale(0))


@settings(max_examples=120, deadline=None)
@given(st.one_of(raw_series(), long_series), st.one_of(raw_series(), long_series))
@example(
    (1, 0, [Fraction(i + 1, 3) for i in range(KRON + 5)], KRON + 5),
    (2, 1, [(-1) ** i * (BIG + i) for i in range(2 * KRON)], 2 * KRON + 1),
)
def test_products_match_the_fraction_series(ra, rb):
    a, oa = both(ra)
    b, ob = both(rb)
    assert_same(a * b, oa * ob)
    assert_same(b * a, ob * oa)


@settings(max_examples=80, deadline=None)
@given(raw_series(max_size=8))
@example((1, 2, [Fraction(3, 2), Fraction(-5, 7), 0, BIG], 6))
@example((2, -1, [-4, 6, Fraction(1, 9)], 2))
def test_powers_match_the_fraction_series(raw):
    f, of = both(raw)
    for n in range(-3, 7):
        if of.is_zero and n < 0:
            with pytest.raises(NotInvertible):
                f.pow(n)
        elif of.is_zero and n == 0:
            continue
        else:
            assert_same(f.pow(n), of.pow(n))


@settings(max_examples=10, deadline=None)
@given(raw_series(max_size=3 * KRON, densities=(1.0,)), st.integers(min_value=2, max_value=4))
def test_dense_powers_match_the_fraction_series(raw, n):
    f, of = both(raw)
    assert_same(f.pow(n), of.pow(n))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(scalars | st.just(0), raw_series()), min_size=1, max_size=5))
def test_lincomb_matches_scale_and_add(terms):
    want = None
    for c, raw in terms:
        t = old.QSeries.build(*raw).scale(c)
        want = t if want is None else want + t
    assert_same(lincomb((c, QSeries.build(*raw)) for c, raw in terms), want)


def test_lincomb_needs_a_term():
    with pytest.raises(ValueError):
        lincomb([])


bounds = st.fractions(min_value=-7, max_value=16, max_denominator=6)


@settings(max_examples=120, deadline=None)
@given(raw_series(), bounds, st.integers(min_value=-6, max_value=6), st.integers(1, 4))
def test_window_operations_match_the_fraction_series(raw, b, s2, m):
    f, of = both(raw)
    assert_same(f.truncate(b), of.truncate(b))
    assert_same(f.shift(Fraction(s2, 2)), of.shift(Fraction(s2, 2)))
    assert_same(f.half_twist(), of.half_twist())
    assert_same(f.substitute_power(m), of.substitute_power(m))
    assert f.to_text() == of.to_text()


def test_truncation_lowers_the_denominator():
    # the only coefficient over 5 lies beyond the new bound
    f = QSeries.build(1, 0, [1, 2, Fraction(1, 5)], 3)
    assert f.d == 5 and f.truncate(2).d == 1
    assert f.truncate(2).nums == (1, 2)


def test_zero_so_far_reduces_to_the_integer_grid():
    # zero so far at an even half-grid bound is the same series at half of it
    z = QSeries.build(2, 0, [0, 0, 0, 0], 4)
    assert (z.den, z.val, z.nums, z.d, z.prec) == (1, 2, (), 1, 2)
    assert (QSeries.build(1, 0, [Fraction(1, 3)], 1) - QSeries.build(1, 0, [Fraction(1, 3)], 1)).d == 1


def test_negative_powers_of_a_non_unit_lead():
    # 1 / (2 - q) = 1/2 + q/4 + q^2/8 + ...: the coefficients are put over 2^4
    f = QSeries.build(1, 0, [2, -1, 0, 0], 4)
    g = f.pow(-1)
    assert g.coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    assert (g.nums, g.d) == ((8, 4, 2, 1), 16)
    assert_same(f.pow(-3), old.QSeries.build(1, 0, [2, -1, 0, 0], 4).pow(-3))


# ---------------------------------------------------------------------------
# torsion kernels (wp_hat and wpt_hat)
# ---------------------------------------------------------------------------

WP = [
    (Fraction(a2, 2), b, m)
    for m in range(1, 11)
    for a2 in range(0, 2 * m)
    for b in (0, HALF)
    if (a2, b) != (0, 0)
]
WPT = [
    (Fraction(a2, 2), b, m)
    for m in range(1, 11)
    for a2 in range(-m, m + 1)
    for b in (0, HALF)
    if not (abs(a2) == m and b == HALF)
]
BOUNDS = list(range(0, 41)) + [Fraction(37, 3)]
KERNELS = {"wp_hat": wp_hat, "wpt_hat": wpt_hat}


def test_every_valid_argument_is_covered():
    assert len(WP) == 210 and len(WPT) == 220


@pytest.mark.parametrize("kernel", ["wp_hat", "wpt_hat"])
def test_torsion_kernels_match_the_fraction_kernels(kernel):
    new, ref = KERNELS[kernel], getattr(old, kernel)
    for a, b, m in WP if kernel == "wp_hat" else WPT:
        for bound in BOUNDS:
            assert_same(new(a, b, m, bound), ref(a, b, m, bound))


@pytest.mark.parametrize(
    "kernel,a,b,m",
    [
        ("wp_hat", Fraction(1), 0, 7),
        ("wp_hat", Fraction(5, 2), HALF, 5),
        ("wpt_hat", Fraction(-3, 2), 0, 3),
        ("wpt_hat", Fraction(0), HALF, 5),
    ],
)
def test_torsion_kernels_match_at_a_deep_bound(kernel, a, b, m):
    new, ref = KERNELS[kernel], getattr(old, kernel)
    assert_same(new(a, b, m, 1000), ref(a, b, m, 1000))


def test_torsion_kernel_poles_match():
    for kernel in ("wp_hat", "wpt_hat"):
        new, ref = KERNELS[kernel], getattr(old, kernel)
        a, b, m = (0, 0, 3) if kernel == "wp_hat" else (Fraction(3, 2), HALF, 3)
        for f in (new, ref):
            with pytest.raises(PoleAtArgument):
                f(a, b, m, 10)


def test_inv_sin2_matches_the_fraction_kernel():
    for c2 in range(-20, 21):
        for b in (0, HALF):
            c = Fraction(c2, 2)
            if c == 0 and b == 0:
                with pytest.raises(PoleAtArgument):
                    inv_sin2(c, b, 5)
                continue
            for bound in BOUNDS:
                assert_same(inv_sin2(c, b, bound), old.inv_sin2(c, b, bound))
