"""The expansion cache in levels._expand: it never changes an answer (a
differential test against the Fraction-bound evaluator of expr_oracle with
its cache off), it never serves an expansion made under an older generator
registry, and its counters show what it did.  The evaluator's int bounds,
in units of 1/24, give the answers of that evaluator through its own cache,
from a cold and from a warm cache; so do the powers, which climb one binary
chain through the cache.

These tests clear the cache themselves, so they pass in a process of their
own as well as after the rest of the suite has filled it."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import expr_oracle
from qmodular import levels, qseries
from qmodular.cli import parse_expr
from qmodular.errors import FractionalExponent
from qmodular.eta import delta, level_unit
from qmodular.expr import (
    DeltaRef,
    EisensteinAtom,
    EtaAtom,
    GeneratorRef,
    PhiAtom,
    Power,
    Product,
    Sum,
    WpAtom,
    WptAtom,
)
from qmodular.identities import REGISTRY as IDENTITIES
from qmodular.levels import (
    _resolve_ref,
    basis_skeleton,
    dimension,
    expand_cache_clear,
    expand_cache_info,
    expand_expr,
    reduce,
)
from qmodular.qseries import HALF

from torsion_oracle import phi_weierstrass


oracle = expr_oracle.oracle


# ---------------------------------------------------------------------------
# differential test
# ---------------------------------------------------------------------------

BASIS_ELEMENTS = [
    ex
    for n in range(1, 11)
    for w in range(2, 13, 2)
    if dimension(n, w)
    for ex in basis_skeleton(n, w)
]
IDENTITY_SIDES = [side for case in IDENTITIES.values() for side in (case.lhs, case.rhs)]
LEAF_ATOMS = [
    WpAtom(1, 0, 7),
    WpAtom(0, HALF, 3),
    WpAtom(Fraction(5, 2), HALF, 5),
    WptAtom(1, 0, 2),
    WptAtom(HALF, 0, 1),
    WptAtom(Fraction(-3, 2), 0, 3),
    WptAtom(0, HALF, 5),
    EisensteinAtom(4, 1),
    EisensteinAtom(6, 5),
] + [PhiAtom(n, mode) for n in (2, 5, 7, 10) for mode in ("weierstrass", "divisor")]
# each leaf alone, then squared: a square hands its base the bound minus the
# base's valuation, so half-valued leaves are also looked up at bounds off
# the integer grid
LEAVES = LEAF_ATOMS + [Power(a, 2) for a in LEAF_ATOMS]

F = Fraction
# bounds requested in rising, falling and fractional order; 17/3 rounds
# up to 6 on both exponent grids, so unlike 1/3, 9/2 and 13/3 it is
# answered from the cache
ORDERS = {
    "rising": (3, 8, 14),
    "falling": (14, 8, 3),
    "fractional": (F(1, 3), F(9, 2), 5, F(13, 3), F(17, 3)),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "exprs",
    [BASIS_ELEMENTS, IDENTITY_SIDES, LEAVES],
    ids=["basis", "identities", "leaves"],
)
def test_cached_expansion_equals_the_uncached_one(order, exprs):
    expand_cache_clear()
    for b in ORDERS[order]:
        for e in exprs:
            # QSeries equality: the same den, val, coeffs and prec
            assert expand_expr(e, b) == oracle(e, b), (e, b)
    info = expand_cache_info()
    assert info.hits > 0 and info.coefficients <= levels._CACHE.budget


def test_evictions_during_the_recursion_change_no_answer(monkeypatch):
    # a budget of a few entries evicts inside almost every expansion,
    # including the shorter entry of the node being expanded
    monkeypatch.setattr(levels._CACHE, "budget", 60)
    expand_cache_clear()
    for b in (6, 11, 4, 11):
        for e in BASIS_ELEMENTS[::3]:
            assert expand_expr(e, b) == oracle(e, b), (e, b)
    info = expand_cache_info()
    assert info.evictions > 0 and info.hits > 0
    assert info.coefficients <= 60
    assert sum(map(levels._cost, levels._CACHE.entries.values())) == info.coefficients


# ---------------------------------------------------------------------------
# staleness
# ---------------------------------------------------------------------------


def test_registry_change_reaches_cached_expansions():
    ref = GeneratorRef(7, 6, 3)
    # E(2,7,0) * (E(6,7,0) + E(6,7,3)).  The corruption below gives
    # E(6,7,3) a constant term, so a product that relied on its valuation
    # bound 3 could not reach its bound (with or without the cache); inside
    # a sum of valuation 0 it can.
    prod = Product(
        (GeneratorRef(7, 2, 0), Sum([(1, GeneratorRef(7, 6, 0)), (1, ref)]))
    )
    exprs = (ref, prod)
    expand_cache_clear()
    clean = [expand_expr(x, 12) for x in exprs]
    hits = expand_cache_info().hits
    assert [expand_expr(x, 12) for x in exprs] == clean
    assert expand_cache_info().hits == hits + 2

    # corrupt the row as acceptance criterion 7 does
    row = levels._REGISTRY[(7, 6)]
    terms = list(row[3].terms)
    terms[1] = (terms[1][0] + F(1, 1000003), terms[1][1])
    levels._REGISTRY[(7, 6)] = row[:3] + (Sum(terms),) + row[4:]
    try:
        broken = [expand_expr(x, 12) for x in exprs]
        assert broken == [oracle(x, 12) for x in exprs]
        assert broken[0] != clean[0] and broken[1] != clean[1]
    finally:
        levels._REGISTRY[(7, 6)] = row
    assert [expand_expr(x, 12) for x in exprs] == clean


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def test_repeated_reduce_is_all_hits():
    level, wt = 10, 12
    d = dimension(level, wt)
    skel = basis_skeleton(level, wt)
    expand_cache_clear()
    f = expand_expr(Sum([(s + 1, ex) for s, ex in enumerate(skel)]), d + 6)
    assert reduce(f, level, wt) == list(range(1, d + 1))
    before = expand_cache_info()
    assert reduce(f, level, wt) == list(range(1, d + 1))
    after = expand_cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == d
    assert after.evictions == before.evictions


def test_counters_from_a_cold_cache():
    expand_cache_clear()
    assert expand_cache_info() == (0, 0, 0, 0)
    e = Power(DeltaRef(2), 3)
    s = expand_expr(e, 10)
    # the power and its base, each one miss and one entry
    info = expand_cache_info()
    assert (info.hits, info.misses, info.evictions) == (0, 2, 0)
    assert info.coefficients == len(s.coeffs) + len(delta(2, 8).coeffs)
    assert expand_expr(e, 7) == s.truncate(7)
    assert expand_cache_info().hits == 1


def test_an_entry_larger_than_the_budget_is_not_stored():
    # the longer expansion replaces the shorter entry, and fits nowhere
    cache = levels._ExpansionCache(5)
    e = EisensteinAtom(4, 1)
    cache.put(e, expand_expr(e, 3))
    assert cache.info() == (0, 0, 0, 3)
    cache.put(e, expand_expr(e, 10))
    assert not cache.entries and cache.info() == (0, 0, 0, 0)


def test_bounds_the_two_grids_round_apart_bypass_the_cache():
    expand_cache_clear()
    for b in (F(1, 3), F(9, 2), F(13, 3)):
        expand_expr(Power(DeltaRef(2), 3), b)
    assert expand_cache_info() == (0, 0, 0, 0)


def test_a_rising_bound_session_keeps_one_entry_per_atom():
    atoms = (WpAtom(1, 0, 7), WptAtom(1, 0, 2), EisensteinAtom(4, 1), PhiAtom(7))
    # Phi(7) is expanded as its torsion sum, the node of E(2,7,0), which is
    # stored with its three atoms; Phi(7) itself is not stored
    stored = set(atoms[:3]) | {_resolve_ref(7, 2, 0)} | {WpAtom(k, 0, 7) for k in (2, 3)}
    expand_cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for b in range(50, 1001, 50):
            for a in atoms:
                expand_expr(a, b)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the longest expansion of each node answers every shorter request
    assert set(levels._CACHE.entries) == stored
    info = expand_cache_info()
    assert info.coefficients == len(stored) * 1000 <= levels._CACHE.budget
    # what stays is those entries, about 30 bytes per stored coefficient
    assert held < 64 * info.coefficients


@pytest.mark.parametrize("level", range(2, 11))
def test_phi_reuses_the_cached_torsion_atoms(level, monkeypatch):
    top = 60
    expand_cache_clear()
    for k in range(1, level // 2 + 1):
        expand_expr(WpAtom(k, 0, level), top)
    calls = []
    monkeypatch.setattr(levels, "wp_hat", lambda *args: calls.append(args))
    for b in (top, 17, top):
        assert expand_expr(PhiAtom(level), b) == phi_weierstrass(level, b).truncate(b)
    assert calls == []
    assert PhiAtom(level) not in levels._CACHE.entries
    assert levels._phi_sum(level) in levels._CACHE.entries


@pytest.mark.parametrize("level", (2, 3, 7))
def test_phi_is_one_hit_on_the_weight_two_head(level):
    # for these levels the torsion sum of Phi(N) is the node of E(2,N,0)
    assert levels._phi_sum(level) is _resolve_ref(level, 2, 0)
    expand_cache_clear()
    head = expand_expr(GeneratorRef(level, 2, 0), 40)
    before = expand_cache_info()
    for b in (40, 25):
        assert expand_expr(PhiAtom(level), b) == head.truncate(b)
    after = expand_cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    assert after.coefficients == before.coefficients


def test_a_level_unit_is_the_entry_of_its_eta_quotient():
    # Delta(1) resolves to the atom of its quotient, which the parse of
    # eta(1)^24 is: the Sum and the quotient miss, and the second lookup of
    # the quotient is the one hit.  Entries: the quotient, 29 coefficients,
    # and the zero Sum; the reference stores no copy.
    expand_cache_clear()
    assert expand_expr(parse_expr("Delta(1) - eta(1)^24"), 30).is_zero
    assert tuple(expand_cache_info()) == (1, 2, 0, 30)
    assert DeltaRef(1) not in levels._CACHE.entries
    assert parse_expr("eta(1)^24") is EtaAtom(level_unit(1).quotient)
    assert parse_expr("eta(1)^24") in levels._CACHE.entries


# ---------------------------------------------------------------------------
# int bounds against the Fraction-bound evaluator
# ---------------------------------------------------------------------------

DIFF_EXPRS = (
    [ex for row in levels._REGISTRY.values() for ex in row]
    + [
        ex
        for n in range(1, 11)
        for w in range(2, 25, 2)
        if dimension(n, w)
        for ex in basis_skeleton(n, w)
    ]
    + IDENTITY_SIDES
    + LEAVES
)
# integers, halves, thirds and 24ths, and the two bounds the two grids
# round apart (13/3) and alike (17/3)
DIFF_BOUNDS = st.one_of(
    st.integers(0, 30),
    st.integers(0, 40).map(lambda k: F(k, 2)),
    st.integers(0, 40).map(lambda k: F(k, 3)),
    st.integers(0, 72).map(lambda k: F(k, 24)),
    st.sampled_from([F(13, 3), F(17, 3)]),
)


def outcome(expand, e, b):
    """The series expand(e, b) as its fields, or the error it raised as its
    type and message."""
    try:
        s = expand(e, b)
    except Exception as exc:
        return type(exc), str(exc)
    return s.den, s.val, s.nums, s.d, s.prec


# off-grid eta atoms, whose leading exponents lie in (1/24)Z outside (1/2)Z:
# at or below that exponent the zero shortcut answers, above it the
# expansion raises FractionalExponent
OFF_GRID = [
    ("eta(1)", F(1, 24), "O(q^(1/2))"),
    ("eta(1)", 0, "O(q^0)"),
    ("eta(1)*eta(23)", 1, "O(q^1)"),
    ("eta(1)*eta(23)", 3, "q - q^2 + O(q^3)"),
    ("eta(1)*eta(2)", F(1, 8), "O(q^(1/2))"),
    ("eta(1)*eta(2)", F(1, 3), FractionalExponent),
    # a nested power of eta(1), folded into Delta's quotient when built, at
    # a bound that bypasses the cache
    ("(eta(1)^2)^12", F(13, 3), "q - 24q^2 + 252q^3 - 1472q^4 + O(q^5)"),
]


@pytest.mark.parametrize("src, b, answer", OFF_GRID)
def test_off_grid_eta_atoms_keep_their_answers(src, b, answer):
    e = parse_expr(src)
    if isinstance(answer, str):
        assert expand_expr(e, b).to_text() == answer
    else:
        with pytest.raises(answer):
            expand_expr(e, b)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@settings(max_examples=150, deadline=None)
@given(e=st.sampled_from(DIFF_EXPRS), b=DIFF_BOUNDS, first=DIFF_BOUNDS)
@example(e=parse_expr("eta(1)"), b=F(1, 24), first=F(1, 2))
@example(e=parse_expr("eta(1)"), b=0, first=1)
@example(e=parse_expr("eta(1)*eta(23)"), b=1, first=3)
@example(e=parse_expr("eta(1)*eta(23)"), b=3, first=1)
@example(e=parse_expr("eta(1)*eta(2)"), b=F(1, 8), first=F(1, 3))
@example(e=parse_expr("eta(1)*eta(2)"), b=F(1, 3), first=F(1, 8))
@example(e=parse_expr("(eta(1)^2)^12"), b=F(13, 3), first=F(1, 3))
def test_int_bounds_match_the_fraction_bound_evaluator(warm, e, b, first):
    # cold: both caches empty; warm: whatever earlier examples left, and e
    # expanded first at another bound
    expr_oracle.CACHE.clear()
    if warm:
        assert outcome(expand_expr, e, first) == outcome(expr_oracle.expand_expr, e, first)
    else:
        expand_cache_clear()
    assert outcome(expand_expr, e, b) == outcome(expr_oracle.expand_expr, e, b)


# ---------------------------------------------------------------------------
# the power chain, a binary ladder: f^n expands as f^(n-1) * f for odd n and
# as (f^(n/2))^2 for even n, each step an entry of the cache
# ---------------------------------------------------------------------------

V, W, T, U = WptAtom(HALF, 0, 1), WptAtom(0, HALF, 1), WptAtom(1, 0, 2), WptAtom(0, HALF, 2)
E270 = GeneratorRef(7, 2, 0)
# bases of valuation 0, of the half-integral valuation 1/2 (so the slack
# moves each step's bound), of integral valuation 1, a sum, and E(2,7,0),
# which resolves through the registry the test edits
CHAIN_BASES = [
    V,
    W,
    T,
    U,
    WptAtom(0, HALF, 5),
    GeneratorRef(10, 2, 1),
    Sum([(1, V), (-2, W)]),
    E270,
]
POLY_FORMS = [
    IDENTITIES[name].rhs
    for name in ("e4-2tau", "e4-tau-sym", "e6-2tau", "e6-sym", "e8-2tau", "e8-sym", "e10-sym", "e12-sym")
]
chain_powers = st.builds(Power, st.sampled_from(CHAIN_BASES), st.integers(1, 9))
drawn_polys = st.builds(
    levels._poly,
    st.sampled_from([V, T]),
    st.sampled_from([W, U]),
    st.lists(
        st.tuples(st.integers(-5, 5).filter(bool), st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[1:],
    ),
)
chain_exprs = st.one_of(
    chain_powers,
    st.sampled_from(POLY_FORMS),
    drawn_polys,
    st.builds(lambda p, q: Product((p, q)), chain_powers, chain_powers),
)
# integral bounds, and bounds the two grids round apart (1/3, 9/2, 13/3:
# the cache bypass) or alike (17/3)
CHAIN_BOUNDS = st.one_of(
    st.integers(0, 40), st.sampled_from([F(1, 3), F(9, 2), F(13, 3), F(17, 3)])
)


def nudged_e270():
    """The registry row (7, 2) with one coefficient of E(2,7,0) moved: a
    new series of the same valuation bound 0."""
    (head,) = levels._REGISTRY[(7, 2)]
    terms = list(head.terms)
    terms[0] = (terms[0][0] + F(1, 1000003), terms[0][1])
    return (Sum(terms),)


@pytest.mark.parametrize("budget", [levels._CACHE_BUDGET, 240], ids=["budget", "shrunk"])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=st.lists(st.tuples(chain_exprs, CHAIN_BOUNDS, st.booleans()), min_size=1, max_size=6))
# a registry edit under a cached step; a fractional bound above cached steps
@example(steps=[(Power(E270, 3), 20, False), (Power(E270, 5), 20, True), (Power(E270, 4), 20, True)])
@example(steps=[(Power(V, 3), 20, False), (Power(V, 5), F(13, 3), False), (Power(V, 5), 20, False)])
@example(steps=[(POLY_FORMS[-1], 30, False), (Power(V, 9), 30, False)])
def test_power_chain_matches_the_oracle(budget, steps, monkeypatch):
    # powers of shared bases, expanded in a drawn order at drawn bounds, each
    # step also flipping the registry row (7, 2) between its two versions or
    # not; the shrunk budget evicts the steps of a chain while it is
    # climbed.  Every power n >= 2 takes binary powering, here and in the
    # oracle, so these short bases climb the chain too.
    monkeypatch.setattr(levels._CACHE, "budget", budget)
    monkeypatch.setattr(qseries.QSeries, "by_squaring", lambda f, n: n >= 2)
    rows = {False: levels._REGISTRY[(7, 2)], True: nudged_e270()}
    edited = False
    expand_cache_clear()
    expr_oracle.CACHE.clear()
    try:
        for e, b, flip in steps:
            edited ^= flip
            levels._REGISTRY[(7, 2)] = rows[edited]
            assert outcome(expand_expr, e, b) == outcome(expr_oracle.expand_expr, e, b), (e, b)
    finally:
        levels._REGISTRY[(7, 2)] = rows[False]
    assert levels._CACHE.size <= budget


def test_a_power_ladder_makes_one_product_per_rung(monkeypatch):
    want = {n: oracle(Power(V, n), 400) for n in (2, 3, 4, 5, 6, 9)}
    expand_cache_clear()
    expand_expr(V, 400)
    squares = []
    kronecker = qseries._kronecker
    monkeypatch.setattr(
        qseries, "_kronecker", lambda a, b, n: squares.append(a is b) or kronecker(a, b, n)
    )
    # V^2 squares V; then V^3 = V^2 * V, V^4 = (V^2)^2, V^5 = V^4 * V and
    # V^6 = (V^3)^2, each from the cached step below it
    assert [expand_expr(Power(V, n), 400) for n in range(2, 7)] == [want[n] for n in range(2, 7)]
    assert squares == [True, False, True, False, True]
    squares.clear()
    before = expand_cache_info()
    # V^9 = V^8 * V and V^8 = (V^4)^2: V, twice, and V^4 are the hits, V^9
    # and V^8 the misses
    assert expand_expr(Power(V, 9), 400) == want[9]
    assert squares == [True, False]
    after = expand_cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 2)


def test_a_short_power_keeps_millers_recurrence(monkeypatch):
    # below q^10 V is too short for binary powering, so V^3 is one pass of
    # Miller's recurrence and not the cached V^2 times V
    want = oracle(Power(V, 3), 10)
    expand_cache_clear()
    expand_expr(Power(V, 2), 10)
    calls = []
    pow_ = qseries.QSeries.pow
    monkeypatch.setattr(qseries.QSeries, "pow", lambda f, n: calls.append(n) or pow_(f, n))
    assert expand_expr(Power(V, 3), 10) == want
    assert calls == [3]


@pytest.mark.parametrize("climbs", [False, True], ids=["kernel", "always"])
def test_a_low_rung_starts_no_deep_climb(climbs, monkeypatch):
    # E4^3999 makes at most 2 floor(log2 3999) = 22 products and squares,
    # after E4^2 and E4^2000 or from a cold cache: the chain is fixed by n,
    # not by what the cache holds.  "always" sends every power n >= 2 to
    # binary powering, so the chain is climbed at q^3; under "kernel" pow's
    # estimate sends these 3-term powers to Miller's recurrence, one pass.
    if climbs:
        monkeypatch.setattr(qseries.QSeries, "by_squaring", lambda f, n: n >= 2)
    e4 = parse_expr("E4")
    want = {n: oracle(Power(e4, n), 3) for n in (2, 2000, 3999)}
    steps = []
    mul, pow_ = qseries.QSeries.__mul__, qseries.QSeries.pow
    monkeypatch.setattr(qseries.QSeries, "__mul__", lambda f, g: steps.append(2) or mul(f, g))
    monkeypatch.setattr(qseries.QSeries, "pow", lambda f, n: steps.append(n) or pow_(f, n))
    for warm in (False, True):
        expand_cache_clear()
        if warm:
            for n in (2, 2000):
                assert expand_expr(Power(e4, n), 3) == want[n]
        steps.clear()
        assert expand_expr(Power(e4, 3999), 3) == want[3999]
        if climbs:
            # products and squares only, no pow of a longer exponent
            assert set(steps) == {2} and len(steps) <= 22
        else:
            assert steps == [3999]
