"""Eta quotients against naive binomial-product oracles and the per-factor
route, plus the Delta_N table."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmodular import eta, qseries
from qmodular.errors import FractionalExponent, UnknownLevel
from qmodular.eta import (
    DELTA_TABLE,
    EtaQuotient,
    delta,
    euler_function,
    euler_product,
    level_unit,
)
from qmodular.qseries import QSeries, one_series, zero_series

from test_qseries import poly_inv, poly_mul, series_coeff_map

# ---------------------------------------------------------------------------
# naive oracle: multiply the binomials one by one on plain lists
# ---------------------------------------------------------------------------


def naive_euler_product(m, n):
    """Coefficient list of prod_{k>=1} (1 - q^(m k)) modulo q^n (empty when
    n <= 0), one binomial at a time: acc * (1 - q^j) subtracts acc shifted
    by j, from the top down so that each slot reads the old acc."""
    acc = [1] + [0] * (n - 1)
    for j in range(m, n, m):
        for i in range(n - 1, j - 1, -1):
            acc[i] -= acc[i - j]
    return acc[: max(n, 0)]


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
    # a negative bound is an empty window
    assert euler_function(-2) == euler_function(0) == QSeries.build(1, 0, [], 0)


def pentagonal_edges(top_m, top_n):
    """(m, n) for m <= top_m and n <= top_n within 1 of m times a generalized
    pentagonal number k(3k-1)/2, k in Z (k = 0 gives the bounds n <= 0):
    the bounds at which euler_product places its last term or stops just
    short of one."""
    edges = set()
    for m in range(1, top_m + 1):
        k = 0
        while m * k * (3 * k - 1) // 2 <= top_n + 1:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                edges.update((m, n) for n in (m * g - 1, m * g, m * g + 1) if n <= top_n)
            k += 1
    return sorted(edges)


@pytest.mark.parametrize(
    "m, n",
    [pytest.param(m, 41, id=str(m)) for m in (1, 2, 3, 5, 7)]
    + [pytest.param(m, n, id=f"m{m}-n{n}") for m, n in pentagonal_edges(10, 300)],
)
def test_euler_product_matches_naive(m, n):
    f = euler_product(m, n)
    assert f.prec == n
    assert [Fraction(f.coefficient(i)) for i in range(n)] == naive_euler_product(m, n)


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


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: euler_product(0, 5), ValueError, "positive integer"),
        (lambda: EtaQuotient([(1, 1.0)]), TypeError, "pairs of ints"),
        (lambda: EtaQuotient([(0, 1)]), ValueError, "multiplier must be >= 1, got 0"),
    ],
    ids=["euler_product", "non-int", "multiplier"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
        assert type(u.rho) is int and type(u.nu) is int, n
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


# ---------------------------------------------------------------------------
# the narrow-quotient route against the per-factor route
# ---------------------------------------------------------------------------


def per_factor_expand(quotient, prec):
    """The quotient expanded factor by factor: each E(q^m)^e by pow (so a
    negative exponent inverts E(q^m) by Miller's recurrence), multiplied
    into a seed of 1."""
    s = quotient.lead_exponent
    bound = Fraction(prec)
    rel = math.ceil(bound - s)
    if rel <= 0:
        return zero_series(bound)
    acc = one_series(rel)
    for m, e in quotient.factors:
        acc = acc * euler_product(m, rel).pow(e)
    return acc.shift(s).truncate(bound)


def fields(f: QSeries):
    return (f.den, f.val, f.nums, f.d, f.prec)


@st.composite
def quotient_strategy(draw):
    """Factors with multipliers 1..12 and exponents in -24..24, all a
    multiple of a drawn common factor c; the exponent of eta(tau) is drawn
    last, so that the leading exponent lands in (1/2)Z."""
    c = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 8, 12]))
    top = 24 // c
    exps = st.integers(min_value=-top, max_value=top)
    rest = draw(st.dictionaries(st.integers(min_value=2, max_value=12), exps, max_size=4))
    step = 12 // math.gcd(c, 12)
    s = sum(m * e for m, e in rest.items())
    first = draw(st.sampled_from([x for x in range(-top, top + 1) if (s + x) % step == 0]))
    return EtaQuotient([(1, c * first)] + [(m, c * e) for m, e in rest.items()])


def bound_strategy(quotient):
    """An integer, half-integer or off-grid bound from just below the
    leading exponent to about 40 terms above it."""
    offsets = st.sampled_from([1, 2, 3]).flatmap(
        lambda q: st.integers(min_value=-2 * q, max_value=40 * q).map(lambda k: Fraction(k, q))
    )
    return offsets.map(lambda x: (quotient, quotient.lead_exponent + x))


@settings(max_examples=150, deadline=None)
@given(quotient_strategy().flatmap(bound_strategy))
@example((DELTA_TABLE[1].quotient, 1000))
@example((DELTA_TABLE[2].quotient, 1000))
@example((DELTA_TABLE[3].quotient, 1000))
@example((DELTA_TABLE[4].quotient, 1000))
@example((DELTA_TABLE[5].quotient, 1000))
@example((DELTA_TABLE[6].quotient, 1000))
@example((DELTA_TABLE[7].quotient, 1000))
@example((DELTA_TABLE[8].quotient, 1000))
@example((DELTA_TABLE[9].quotient, 1000))
@example((DELTA_TABLE[10].quotient, 1000))
@example((EtaQuotient([(1, -24)]), Fraction(7, 3)))
@example((EtaQuotient([(1, -24)]), -1))
@example((EtaQuotient([(1, 4), (2, 4)]), Fraction(33, 2)))
@example((EtaQuotient([(2, -3), (4, 3), (6, -3), (12, 3)]), 40))
def test_expand_matches_the_per_factor_route(case):
    quotient, bound = case
    assert fields(quotient.expand(bound)) == fields(per_factor_expand(quotient, bound))


def test_a_quotient_with_no_factors_expands_to_one():
    quotient = EtaQuotient([(1, 1), (1, -1)])
    assert quotient.factors == ()
    for bound in (5, Fraction(5, 2), Fraction(1, 3), 0, -2):
        f = quotient.expand(bound)
        assert fields(f) == fields(per_factor_expand(quotient, bound)), bound
    assert quotient.expand(5).to_text() == "1 + O(q^5)"
    assert str(quotient) == "1"
    assert quotient.expand(Fraction(5, 2)) == one_series(3)
    assert quotient.expand(0).is_zero


def test_delta_kernels_stay_near_the_output_width(monkeypatch):
    """While Delta_N is expanded below q^1000, no operand or result of a
    series kernel is more than 8 bits wider than Delta_N's coefficients:
    the division route never inverts an Euler factor on its own, and the
    divisor-sum route's sums are at most Delta_N's times its divisor."""
    seen = []

    def width(xs):
        return max((abs(x).bit_length() for x in xs), default=0)

    def spy(module, name, lists):
        real = getattr(module, name)

        def kernel(*args):
            out = real(*args)
            seen.append(max(map(width, lists(args, out))))
            return out

        monkeypatch.setattr(module, name, kernel)

    spy(qseries, "_product", lambda args, out: (args[0], args[1], out))
    spy(qseries, "_kronecker", lambda args, out: (args[0], args[1], out))
    spy(qseries, "_miller", lambda args, out: (args[0], out[0]))
    spy(qseries, "_divide", lambda args, out: (args[0], args[1], out))
    spy(eta, "_divide", lambda args, out: (args[0], args[1], out))
    spy(eta, "divisor_sums", lambda args, out: (out,))
    for n in range(1, 11):
        seen.clear()
        f = delta(n, 1000)
        assert seen, n
        assert max(seen) <= width(f.nums) + 8, (n, max(seen), width(f.nums))


# ---------------------------------------------------------------------------
# the divisor-sum route against the division route
# ---------------------------------------------------------------------------

PRESENTED = [n for n, u in DELTA_TABLE.items() if u.terms]


def division_route(quotient, bound):
    """The quotient expanded by the division helper alone, as expand does
    for a quotient with no divisor-sum presentation."""
    s = quotient.lead_exponent
    rel = math.ceil(Fraction(bound) - s)
    if rel <= 0:
        return zero_series(bound)
    g = math.gcd(*[e for _, e in quotient.factors])
    return eta._divided(quotient.factors, g, rel).pow(g).shift(s).truncate(bound)


def sturm_bound(n):
    """floor(rho mu(N) / 12) + 1 for Delta_N of weight rho, with mu(N) =
    N prod_{p | N} (1 + 1/p) the index of Gamma_0(N): two forms of
    M_rho(Gamma_0(N)) that agree below q^bound are equal (J. Sturm, 1987)."""
    mu = Fraction(n)
    for p in (2, 3, 5, 7):
        if n % p == 0:
            mu *= 1 + Fraction(1, p)
    return math.floor(level_unit(n).rho * mu / 12) + 1


def test_the_presented_levels():
    assert PRESENTED == [2, 3, 4, 5, 6, 8, 9, 10]
    for n in PRESENTED:
        u = level_unit(n)
        assert u.power in (1, 2) and u.divisor >= 1 and u.nu % u.power == 0, n
    assert (level_unit(1).terms, level_unit(7).terms) == ((), ())
    assert [sturm_bound(n) for n in PRESENTED] == [2, 3, 2, 3, 3, 3, 3, 7]


@pytest.mark.parametrize("n", PRESENTED)
def test_the_divisor_sum_route_matches_the_division_route(n):
    """Delta_N, Delta_N^2 and Delta_N^3 by both routes, field by field.  Both
    sides are forms of M_(j rho)(Gamma_0(N)), whose Sturm bound
    floor(j rho mu(N) / 12) + 1 is at most 7 j <= 21 here (at j = 1: 2, 3,
    2, 3, 3, 3, 3 and 7), so agreement below q^2000 proves each
    presentation rather than samples it."""
    u = level_unit(n)
    for j in (1, 2, 3):
        quotient = EtaQuotient([(m, e * j) for m, e in u.quotient.factors])
        for bound in (0, 1, u.nu, u.nu + 1, Fraction(7, 2), 30, Fraction(401, 2), 1000, 2000):
            assert fields(quotient.expand(bound)) == fields(division_route(quotient, bound)), (j, bound)


def test_the_kernel_takes_exactly_the_powers_of_presented_units(monkeypatch):
    calls = []
    real = eta.divisor_sums

    def kernel(terms, n):
        calls.append(n)
        return real(terms, n)

    monkeypatch.setattr(eta, "divisor_sums", kernel)
    two = DELTA_TABLE[2].quotient.factors
    for n, u in DELTA_TABLE.items():
        for j in (1, 2, 3, -1):
            calls.clear()
            EtaQuotient([(m, e * j) for m, e in u.quotient.factors]).expand(40)
            assert bool(calls) == (j > 0 and n in PRESENTED), (n, j)
    # the square roots of Delta_2 and Delta_9, and Delta_2 times Delta_4,
    # take the division route
    for factors in ([(m, e // 2) for m, e in two], [(3, -1), (9, 3)], list(two) + [(2, -4), (4, 8)]):
        calls.clear()
        EtaQuotient(factors).expand(40)
        assert not calls, factors


# ---------------------------------------------------------------------------
# the division kernel against the product with the inverse
# ---------------------------------------------------------------------------


def spread(xs, t, n):
    """The n-slot list with xs, padded with zeros, at every t-th slot from
    slot 0."""
    slots = len(range(0, n, t))
    out = [0] * n
    out[::t] = (list(xs) + [0] * slots)[:slots]
    return out


def window(f: QSeries, n):
    """The n int numerators of an integer-grid series from q^0."""
    assert (f.den, f.d, f.prec) == (1, 1, n)
    return [0] * f.val + list(f.nums)


ints = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(min_value=-(2**70), max_value=2**70))


@st.composite
def division_strategy(draw):
    """(a, b) of one length n >= 1, b[0] == 1, each a series in q^t for a
    drawn t."""
    n = draw(st.integers(min_value=1, max_value=60))
    ta, tb = draw(st.sampled_from([1, 2, 3, 4, 6])), draw(st.sampled_from([1, 2, 3, 4, 6]))
    a = spread(draw(st.lists(ints, max_size=n)), ta, n)
    b = spread([1] + draw(st.lists(ints, max_size=n)), tb, n)
    return a, b


@settings(max_examples=150, deadline=None)
@given(division_strategy())
@example(([7], [1]))
@example(([0], [1]))
@example(([0, 3], [1, -1]))
@example(([2, 0, 5], [1, 0, 0]))
@example(([1] + [0] * 11, spread([1, -1, -1, 0, 0, 1, 0, 1], 3, 12)))
@example((spread([4, -2, 9, 1], 6, 20), spread([1, 1, -3, 2, 5], 4, 20)))
@example((list(euler_product(10, 300).pow(10).nums), list(euler_product(5, 300).nums)))
def test_divide_matches_the_inverse_product(case):
    a, b = case
    n = len(a)
    want = QSeries.build(1, 0, a, n) * QSeries.build(1, 0, b, n).pow(-1)
    assert qseries._divide(a, b) == window(want, n)
    # b's terms past the window are never read
    assert qseries._divide(a, b + [5, -7]) == window(want, n)


def test_divide_runs_on_compressed_lists(monkeypatch):
    calls = []
    real = qseries._divide

    def divide(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(qseries, "_divide", divide)
    assert qseries._divide([], [1]) == []
    a = spread([1, 2, 3, 4, 5, 6, 7], 6, 40)
    b = spread([1, -1, 2, 0, 3, -5, 1, 1, 2, 9], 4, 40)
    calls.clear()
    h = qseries._divide(a, b)
    assert calls == [40, 20] and not any(h[1::2])
    assert h == window(QSeries.build(1, 0, a, 40) * QSeries.build(1, 0, b, 40).pow(-1), 40)


def loop_divide(a, b):
    """The division recurrence as it was before b's terms were split by
    coefficient: every term multiplies, +1 and -1 included."""
    n = len(a)
    b = b[:n]
    t = math.gcd(qseries._stride(a), qseries._stride(b))
    if t > 1:
        out = [0] * n
        out[::t] = loop_divide(a[::t], b[::t])
        return out
    terms = [(k, c) for k, c in enumerate(b) if k and c]
    h = []
    for j, x in enumerate(a):
        for k, c in terms:
            if k > j:
                break
            x -= c * h[j - k]
        h.append(x)
    return h


@st.composite
def unit_division_strategy(draw):
    """(a, b) of one length n >= 1, b[0] == 1, whose other terms mix +1, -1
    and wide coefficients, each list a series in q^t for a drawn t <= 6."""
    n = draw(st.integers(min_value=1, max_value=80))
    ta, tb = draw(st.integers(min_value=1, max_value=6)), draw(st.integers(min_value=1, max_value=6))
    a = spread(draw(st.lists(ints, max_size=n)), ta, n)
    terms = st.one_of(st.sampled_from([1, -1, 0]), ints)
    b = spread([1] + draw(st.lists(terms, max_size=n)), tb, n)
    return a, b


@settings(max_examples=200, deadline=None)
@given(unit_division_strategy())
# only +1 terms, only -1 terms, only wide ones, and an Euler factor
@example(([3, 1, 4, 1, 5, 9, 2, 6], [1, 1, 0, 1, 1, 0, 0, 1]))
@example(([3, 1, 4, 1, 5, 9, 2, 6], [1, -1, -1, 0, 0, 0, -1, 0]))
@example(([3, 1, 4, 1, 5, 9, 2, 6], [1, 2**70, 0, -3, 0, 0, 0, 5]))
@example((list(euler_product(2, 200).pow(4).nums), list(euler_product(1, 200).nums)))
def test_divide_matches_the_multiplying_loop(case):
    a, b = case
    assert qseries._divide(a, b) == loop_divide(a, b)
