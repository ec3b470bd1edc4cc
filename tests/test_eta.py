"""Eta quotients against naive binomial-product oracles, plus the Delta_N table."""

import tracemalloc
from fractions import Fraction

import pytest

from qmodular.errors import FractionalExponent, UnknownLevel
from qmodular.eta import (
    DELTA_TABLE,
    EtaQuotient,
    delta,
    euler_function,
    euler_product,
    level_unit,
)

from test_qseries import poly_inv, poly_mul, series_coeff_map

# ---------------------------------------------------------------------------
# naive oracle: multiply the binomials one by one on plain lists
# ---------------------------------------------------------------------------


def naive_euler_product(m, n):
    """Coefficient list of prod_{k>=1} (1 - q^(m k)) modulo q^n."""
    acc = [Fraction(1)] + [Fraction(0)] * (n - 1)
    k = 1
    while m * k < n:
        binom = [Fraction(0)] * (m * k + 1)
        binom[0] = Fraction(1)
        binom[m * k] = Fraction(-1)
        acc = poly_mul(acc, binom, n)
        k += 1
    return acc


def naive_eta_tail(factors, n):
    """Coefficient list of prod_m (prod_k (1 - q^(m k)))^(e_m) modulo q^n."""
    num = [Fraction(1)] + [Fraction(0)] * (n - 1)
    den = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m, e in factors:
        base = naive_euler_product(m, n)
        for _ in range(abs(e)):
            if e > 0:
                num = poly_mul(num, base, n)
            else:
                den = poly_mul(den, base, n)
    return poly_mul(num, poly_inv(den, n), n)


def naive_eta_map(factors, prec):
    """{exponent: coefficient} of the full quotient (prefactor included)."""
    s = Fraction(sum(m * e for m, e in factors), 24)
    n = int(prec - s) + 1
    tail = naive_eta_tail(factors, n)
    out = {}
    for i, c in enumerate(tail):
        if c != 0 and i + s < prec:
            out[i + s] = c
    return out


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def test_euler_function_matches_naive():
    f = euler_function(60)
    naive = naive_euler_product(1, 60)
    assert [Fraction(f.coefficient(i)) for i in range(60)] == naive


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_euler_product_matches_naive(m):
    f = euler_product(m, 41)
    naive = naive_euler_product(m, 41)
    assert [Fraction(f.coefficient(i)) for i in range(41)] == naive


def test_euler_product_allocates_only_below_the_bound():
    # eta(m) at the CLI default bound (its valuation + 10) needs the Euler
    # factor below q^10; a list of m slots would take 8 bytes per slot
    m = 10**7
    tracemalloc.start()
    try:
        f = euler_product(m, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.to_text() == "1 + O(q^10)"
    assert peak < 8 * m // 100
    assert euler_product(3, -4) == euler_function(0).truncate(-4)


# ---------------------------------------------------------------------------
# quotient container
# ---------------------------------------------------------------------------


def test_factors_are_merged_sorted_and_pruned():
    q = EtaQuotient([(2, 3), (1, -8), (2, 13), (3, 4), (3, -4)])
    assert q.factors == ((1, -8), (2, 16))
    assert q == EtaQuotient([(1, -8), (2, 16)])


def test_weight_and_lead_exponent():
    q = EtaQuotient([(1, -8), (2, 16)])
    assert q.weight == 4
    assert q.lead_exponent == 1
    h = EtaQuotient([(1, 4), (2, 4)])
    assert h.weight == 4
    assert h.lead_exponent == Fraction(1, 2)


def test_fractional_prefactor_is_rejected():
    with pytest.raises(FractionalExponent):
        EtaQuotient([(1, 1)]).expand(5)
    with pytest.raises(FractionalExponent):
        EtaQuotient([(3, 2), (2, 1)]).expand(5)


def test_expand_matches_naive_integer_grid():
    for factors in [((1, 24),), ((1, -8), (2, 16)), ((2, -4), (4, 8))]:
        f = EtaQuotient(factors).expand(40)
        assert series_coeff_map(f) == naive_eta_map(factors, 40), factors


def test_expand_matches_naive_half_grid():
    factors = ((1, 4), (2, 4))
    f = EtaQuotient(factors).expand(20)
    assert f.den == 2 and f.valuation == Fraction(1, 2)
    assert series_coeff_map(f) == naive_eta_map(factors, 20)


def test_expand_beyond_window_is_zero_so_far():
    f = EtaQuotient([(1, 24)]).expand(1)  # leading term q is out of reach
    assert f.is_zero and f.bound == 1
    # a bound off the half-integer grid is rounded up, never down
    f = EtaQuotient([(1, 24)]).expand(Fraction(1, 3))
    assert f.is_zero and f.bound == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the Delta_N family
# ---------------------------------------------------------------------------

EXPECTED_TABLE = {
    1: (12, 1, ((1, 24),)),
    2: (4, 1, ((1, -8), (2, 16))),
    3: (6, 2, ((1, -6), (3, 18))),
    4: (2, 1, ((2, -4), (4, 8))),
    5: (4, 2, ((1, -2), (5, 10))),
    6: (2, 2, ((1, 2), (2, -4), (3, -6), (6, 12))),
    7: (6, 4, ((1, -2), (7, 14))),
    8: (2, 2, ((4, -4), (8, 8))),
    9: (2, 2, ((3, -2), (9, 6))),
    10: (4, 6, ((1, 2), (2, -4), (5, -10), (10, 20))),
}


def test_level_table_contents():
    assert set(DELTA_TABLE) == set(range(1, 11))
    for n, (rho, nu, factors) in EXPECTED_TABLE.items():
        u = level_unit(n)
        assert (u.rho, u.nu, u.quotient.factors) == (rho, nu, factors), n
        assert u.quotient.weight == rho
        assert u.quotient.lead_exponent == nu


def test_unknown_level():
    with pytest.raises(UnknownLevel):
        level_unit(11)
    with pytest.raises(UnknownLevel):
        level_unit(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_delta_leading_behaviour(n):
    u = level_unit(n)
    f = delta(n, u.nu + 6)
    assert f.den == 1
    assert f.valuation == u.nu
    assert f.leading == 1


def test_delta1_frozen_coefficients():
    f = delta(1, 7)
    assert [f.coefficient(i) for i in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]


def test_delta2_frozen_coefficients():
    f = delta(2, 5)
    assert [f.coefficient(i) for i in range(1, 5)] == [1, 8, 28, 64]


def test_delta_against_naive_all_levels():
    for n in range(1, 11):
        u = level_unit(n)
        f = delta(n, 25)
        assert series_coeff_map(f) == naive_eta_map(u.quotient.factors, 25), n


def test_delta8_is_rescaled_delta4():
    assert delta(8, 40) == delta(4, 20).substitute_power(2)


def test_delta2_rescaled_by_five():
    f = delta(2, 4).substitute_power(5)
    assert series_coeff_map(f) == {
        Fraction(5): 1,
        Fraction(10): 8,
        Fraction(15): 28,
    }
