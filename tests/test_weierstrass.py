"""Torsion-value expansions: frozen anchors, the product-form oracle,
Eisenstein series, and the two presentations of Phi_N."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsion_oracle as oracle
from qmodular.errors import PoleAtArgument, UnknownLevel, UnsupportedWeight
from qmodular.expr import PhiAtom
from qmodular.levels import expand_expr
from qmodular.qseries import (
    HALF,
    QSeries,
    _as_fraction,
    constant_series,
    inv_sin2,
    monomial,
    one_series,
)
from qmodular.weierstrass import (
    eisenstein,
    phi_level,
    wp_hat,
    wpt_hat,
    wpt_valuation,
)

from test_integer_numerators import WP, WPT
from test_qseries import series_coeff_map

# ---------------------------------------------------------------------------
# wp_hat
# ---------------------------------------------------------------------------


def test_wp_domain_errors():
    with pytest.raises(PoleAtArgument):
        wp_hat(0, 0, 3, 10)
    with pytest.raises(ValueError):
        wp_hat(3, 0, 3, 10)  # offset must stay below the cover index
    with pytest.raises(ValueError):
        wp_hat(-1, 0, 3, 10)
    with pytest.raises(ValueError):
        wp_hat(Fraction(1, 3), 0, 3, 10)
    with pytest.raises(ValueError):
        wp_hat(1, Fraction(1, 3), 3, 10)


def test_wp_constant_term():
    assert wp_hat(1, 0, 2, 5).coefficient(0) == Fraction(-1, 3)
    assert wp_hat(0, HALF, 3, 5).coefficient(0) == Fraction(2, 3)
    assert wp_hat(1, HALF, 2, 5).coefficient(0) == Fraction(-1, 3)


def test_wp_two_torsion_on_double_cover():
    # -3 * wp_hat(1, 0, 2) is the weight-2 level-2 series 1 + 24q + 24q^2 + ...
    f = wp_hat(1, 0, 2, 5).scale(-3)
    assert [f.coefficient(i) for i in range(5)] == [1, 24, 24, 96, 24]


def test_wp_half_offset_grid():
    f = wp_hat(HALF, 0, 1, 4)
    assert f.den == 2
    # -1/3 + S(1/2,0) + sum_n S(n+1/2,0)+S(n-1/2,0)-2S(n,0):
    # q^(1/2) coefficient: -4 (from S(1/2,0)) - 4 (from n=1, S(1/2,0) again) = -8
    assert f.coefficient(HALF) == -8


def test_wp_symmetry_in_the_offset():
    for n in (3, 5, 7, 9, 10):
        for k in range(1, n // 2 + 1):
            lhs = wp_hat(k, 0, n, 25)
            rhs = wp_hat(n - k, 0, n, 25)
            assert lhs == rhs, (k, n)
    assert wp_hat(1, HALF, 4, 25) == wp_hat(3, HALF, 4, 25)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_wp_symmetry_hypothesis(m, data):
    k = data.draw(st.integers(min_value=1, max_value=m - 1))
    assert wp_hat(k, 0, m, 18) == wp_hat(m - k, 0, m, 18)


# ---------------------------------------------------------------------------
# wpt_hat
# ---------------------------------------------------------------------------


def test_wpt_domain_and_poles():
    with pytest.raises(PoleAtArgument):
        wpt_hat(1, HALF, 2, 10)  # |a| = m/2 with phase 1/2
    with pytest.raises(PoleAtArgument):
        wpt_hat(Fraction(-1, 2), HALF, 1, 10)
    with pytest.raises(ValueError):
        wpt_hat(2, 0, 2, 10)  # |a| > m/2
    wpt_hat(1, 0, 2, 10)  # |a| = m/2 with phase 0 is fine


def test_wpt_frozen_double_cover():
    f = wpt_hat(1, 0, 2, 5)
    assert [f.coefficient(i) for i in range(5)] == [1, -8, 24, -32, 24]


def test_wpt_frozen_half_period_full_lattice():
    f = wpt_hat(0, HALF, 1, 3)
    assert f.den == 2
    assert f.coefficient(HALF) == -16
    assert f.valuation == HALF


def test_wpt_frozen_half_period_double_cover():
    f = wpt_hat(0, HALF, 2, 6)
    assert [f.coefficient(i) for i in range(1, 6)] == [-16, 0, -64, 0, -96]


def test_wpt_exact_valuation():
    cases = [
        (Fraction(0), HALF, 1),
        (HALF, 0, 1),
        (HALF, 0, 2),
        (Fraction(1), 0, 2),
        (HALF, HALF, 3),
        (Fraction(-1), 0, 3),
        (Fraction(2), 0, 5),
        (Fraction(-2), HALF, 5),
        (Fraction(5), 0, 10),
    ]
    for a, b, m in cases:
        f = wpt_hat(a, b, m, 12)
        assert f.valuation == wpt_valuation(a, b, m), (a, b, m)
        assert f.leading is not None


def test_wpt_vanishes_at_the_origin():
    # at offset 0 with phase 0 the shifted and unshifted terms cancel exactly
    for m in (1, 2, 3, 5):
        assert wpt_hat(0, 0, m, 15).is_zero


def test_wpt_even_in_a_up_to_nothing():
    # the expansion only sees |a| through folded frequencies
    assert wpt_hat(2, 0, 5, 20) == wpt_hat(-2, 0, 5, 20)


def test_wpt_edge_offset_with_zero_phase_is_constant_one_leading():
    f = wpt_hat(1, 0, 2, 8)
    assert f.coefficient(0) == 1


# ---------------------------------------------------------------------------
# the divisor-sum kernels against the per-multiple kernels
# ---------------------------------------------------------------------------

KERNELS = {"wp_hat": wp_hat, "wpt_hat": wpt_hat, "inv_sin2": inv_sin2}
TORSION_CASES = (
    [("wp_hat", t) for t in WP]
    + [("wpt_hat", t) for t in WPT]
    + [("inv_sin2", (Fraction(c2, 2), b)) for c2 in range(-20, 21) for b in (0, HALF) if (c2, b) != (0, 0)]
)
# the 45 distinct torsion values (a, b, m) that registry-400
# (identities.check_all(400)) expands, each at q^400
REGISTRY_400_TORSION = [
    ("wp_hat", (Fraction(a), b, m))
    for a, b, m in [
        ("0", HALF, 1), ("1/2", 0, 1), ("1/2", HALF, 1), ("1", 0, 2), ("1", HALF, 2),
        ("1", 0, 3), ("1", 0, 4), ("2", 0, 4), ("0", HALF, 5), ("1", 0, 5), ("2", 0, 5),
        ("5/2", 0, 5), ("3", 0, 5), ("4", 0, 5), ("1", 0, 6), ("2", 0, 6), ("3", 0, 6),
        ("4", 0, 6), ("5", 0, 6), ("0", HALF, 7), ("1", 0, 7), ("2", 0, 7), ("3", 0, 7),
        ("7/2", 0, 7), ("1", 0, 8), ("2", 0, 8), ("3", 0, 8), ("4", 0, 8), ("1", 0, 9),
        ("2", 0, 9), ("3", 0, 9), ("4", 0, 9), ("1", 0, 10), ("2", 0, 10), ("3", 0, 10),
        ("4", 0, 10), ("5", 0, 10),
    ]
] + [
    ("wpt_hat", (Fraction(a), b, m))
    for a, b, m in [
        ("0", HALF, 1), ("1/2", 0, 1), ("0", HALF, 2), ("1", 0, 2), ("0", HALF, 3),
        ("1/2", HALF, 3), ("3/2", 0, 3), ("0", HALF, 4),
    ]
]


def test_the_torsion_cases_cover_registry_400():
    assert len(set(REGISTRY_400_TORSION)) == 45
    assert set(REGISTRY_400_TORSION) <= set(TORSION_CASES)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TORSION_CASES),
    st.one_of(st.integers(0, 2000), st.fractions(0, 2000, max_denominator=6)),
)
# n * stride a perfect square (100 * 1, 16 * 4, 2000 * 5), and one off
@example(("wp_hat", (Fraction(0), HALF, 1)), 100)
@example(("wp_hat", (Fraction(0), HALF, 1)), 99)
@example(("wp_hat", (Fraction(0), HALF, 1)), 101)
@example(("wpt_hat", (Fraction(0), HALF, 4)), 16)
@example(("wpt_hat", (Fraction(0), HALF, 4)), 15)
@example(("wp_hat", (Fraction(1), 0, 5)), 2000)
@example(("wp_hat", (Fraction(1), 0, 5)), 1999)
# first >= n, and first == C < n (S(n m, 0) with m = 10 below q^12)
@example(("wp_hat", (Fraction(3), 0, 10)), 2)
@example(("wpt_hat", (Fraction(0), 0, 10)), 3)
@example(("wp_hat", (Fraction(1), 0, 10)), 12)
# pn in {0, 1, 2}
@example(("wp_hat", (Fraction(0), HALF, 1)), 0)
@example(("wp_hat", (Fraction(0), HALF, 1)), 1)
@example(("wp_hat", (Fraction(0), HALF, 1)), 2)
@example(("wpt_hat", (HALF, 0, 1)), 0)
@example(("wpt_hat", (HALF, 0, 1)), HALF)
@example(("wpt_hat", (HALF, 0, 1)), 1)
@example(("inv_sin2", (Fraction(0), HALF)), 0)
@example(("inv_sin2", (Fraction(0), HALF)), 1)
@example(("inv_sin2", (HALF, HALF)), 1)
# |a| = m/2 with b = 0 (a main term at 0), and a = 0 with b = 1/2
@example(("wpt_hat", (Fraction(3, 2), 0, 3)), 400)
@example(("wpt_hat", (Fraction(-1), 0, 2)), 50)
@example(("wp_hat", (Fraction(0), HALF, 7)), 400)
@example(("inv_sin2", (Fraction(0), HALF)), 10)
def test_progressions_match_the_per_multiple_kernels(case, bound):
    name, args = case
    assert KERNELS[name](*args, bound) == getattr(oracle, name)(*args, bound)


for _case in REGISTRY_400_TORSION:
    test_progressions_match_the_per_multiple_kernels = example(_case, 400)(
        test_progressions_match_the_per_multiple_kernels
    )


# ---------------------------------------------------------------------------
# product-form oracle for the half-period value
# ---------------------------------------------------------------------------


def twpa_half_product(prec) -> QSeries:
    """Product-form expansion of wpt_hat at the half-period on the full lattice:

        -16 q^(1/2) prod_{j>=1} (1-q^(2j))^4
                    prod_{j odd} (1-q^(j/2))^4
                    [ prod_{j>=1} (1+q^j)^2 / prod_{j odd} (1-q^(j/2))^2 ]^2

    built literally, binomial by binomial, as an independent cross-check of
    the Lambert-sum route."""
    bound = _as_fraction(prec)
    a = one_series(bound)  # prod (1 - q^(2j))
    j = 2
    while j < bound:
        a = a * (one_series(bound) - monomial(1, j, 1, bound))
        j += 2
    b = one_series(bound)  # prod over odd j of (1 - q^(j/2))
    j = 1
    while Fraction(j, 2) < bound:
        b = b * (one_series(bound) - monomial(1, j, 2, bound))
        j += 2
    c = one_series(bound)  # prod (1 + q^j)
    j = 1
    while j < bound:
        c = c * (one_series(bound) + monomial(1, j, 1, bound))
        j += 1
    bracket = c.pow(2) * b.pow(2).invert()
    tail = a.pow(4) * b.pow(4) * bracket.pow(2)
    return tail.scale(-16).shift(HALF).truncate(bound)


def test_half_period_product_oracle():
    assert twpa_half_product(60) == wpt_hat(0, HALF, 1, 60)


def test_half_period_product_oracle_squares_to_delta2():
    sq = twpa_half_product(20).pow(2).scale(Fraction(1, 256))
    assert [sq.coefficient(i) for i in range(1, 5)] == [1, 8, 28, 64]


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------


def test_eisenstein_frozen_coefficients():
    e4 = eisenstein(4, 1, 4)
    assert [e4.coefficient(i) for i in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein(6, 1, 3)
    assert [e6.coefficient(i) for i in range(3)] == [1, -504, -16632]
    e8 = eisenstein(8, 1, 3)
    assert [e8.coefficient(i) for i in range(3)] == [1, 480, 61920]
    e10 = eisenstein(10, 1, 2)
    assert e10.coefficient(1) == -264
    e12 = eisenstein(12, 1, 2)
    assert e12.coefficient(1) == Fraction(65520, 691)


def test_eisenstein_rescaled_argument():
    e = eisenstein(4, 3, 10)
    assert e.coefficient(0) == 1 and e.coefficient(1) == 0
    assert e.coefficient(3) == 240 and e.coefficient(6) == 2160
    assert e == eisenstein(4, 1, 4).substitute_power(3).truncate(10)


def test_eisenstein_square_identity():
    # E4^2 and E8 both span the one-dimensional weight-8 space on the full group
    assert eisenstein(4, 1, 25).pow(2) == eisenstein(8, 1, 25)


def test_eisenstein_rejects_bad_weights():
    for k in (2, 3, 5, 0, -4):
        with pytest.raises(UnsupportedWeight):
            eisenstein(k, 1, 5)


# ---------------------------------------------------------------------------
# Phi_N in both presentations
# ---------------------------------------------------------------------------


def both_presentations(n, prec):
    """Phi_n below q^prec by the divisor sum and by the torsion sum."""
    return phi_level(n, prec), expand_expr(PhiAtom(n), prec)


def test_phi_frozen_level_5():
    for f in both_presentations(5, 5):
        assert [f.coefficient(i) for i in range(5)] == [1, 6, 18, 24, 42]


def test_phi_frozen_level_7():
    for f in both_presentations(7, 5):
        assert [f.coefficient(i) for i in range(5)] == [1, 4, 12, 16, 28]


def test_phi_level_10_fractional_coefficients():
    for f in both_presentations(10, 3):
        assert f.coefficient(1) == Fraction(8, 3)


def test_phi_modes_agree():
    for n in range(2, 11):
        assert phi_level(n, 40) == expand_expr(PhiAtom(n), 40), n


def test_phi_divisor_small_values():
    f = phi_level(2, 5)
    assert [f.coefficient(i) for i in range(5)] == [1, 24, 24, 96, 24]


PHI_BOUNDS = list(range(61)) + [400, Fraction(9, 2), Fraction(37, 3)]


@pytest.mark.parametrize("n", range(2, 11))
def test_phi_matches_the_torsion_loop(n):
    # the loop phi_level ran before Phi(N) became its torsion-sum tree;
    # QSeries equality compares den, val, nums, d and prec
    for b in PHI_BOUNDS:
        want = oracle.phi_weierstrass(n, b)
        assert phi_level(n, b) == want, (n, b)
        assert expand_expr(PhiAtom(n), b) == want.truncate(b), (n, b)
        assert expand_expr(PhiAtom(n, "divisor"), b) == want.truncate(b), (n, b)


def test_phi_rejects_levels_outside_range():
    with pytest.raises(UnknownLevel):
        phi_level(1, 5)
    with pytest.raises(UnknownLevel):
        phi_level(11, 5)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda p: wp_hat(Fraction(5, 2), HALF, 5, p),
        lambda p: wpt_hat(HALF, 0, 1, p),
        lambda p: eisenstein(4, 2, p),
        lambda p: phi_level(7, p),
        lambda p: constant_series(Fraction(3, 4), p),
    ],
    ids=["wp_hat", "wpt_hat", "eisenstein", "phi_level", "constant_series"],
)
def test_kernels_read_int_fraction_and_text_bounds_alike(kernel):
    # each kernel rounds its bound up on its grid; a bound at or below q^0
    # gives the empty series
    for p in (0, 1, 7, Fraction(13, 2), Fraction(-1, 3), -4):
        assert kernel(p) == kernel(Fraction(p)) == kernel(str(p)), p
    assert kernel(-4) == kernel(0) and not kernel(0).nums
