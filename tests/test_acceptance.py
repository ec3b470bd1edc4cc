"""End-to-end acceptance sweep.

Seven numbered checks, one printed PASS/FAIL line each:

1. frozen-expansion conformance: every catalogued display expansion is
   reproduced coefficient-for-coefficient (68 anchors, levels 1..10);
2. the graded dimension table (80 entries) and the unit-ladder recursion
   d(w) = d(w - rho) + nu across a wide weight range;
3. the weight-2018 stress product: ten leading coefficients of
   E(4,10,2)*E(2,10,0)^335*Delta(10)^336;
4. the full identity registry at its default precisions;
5. algebraic property sweeps: ring axioms on random triples,
   invert/substitute/half-twist round-trips, basis triangularity with
   unit pivots up to weight 200, and reduce round-trips;
6. independent oracles built from naive polynomial arithmetic;
7. a corruption control: nudging one registered coefficient must make
   at least one of checks 1/2/4 fail, then pass again once restored.

Run with -s (or read the captured output) for the per-check lines.
"""

import random
import time
from fractions import Fraction

from qmodular.cli import parse_expr
from qmodular.eta import EtaQuotient, level_unit
from qmodular.expr import Sum, print_expr, val_lower
from qmodular.identities import REGISTRY as IDENTITY_REGISTRY
from qmodular.identities import check, check_all
from qmodular.levels import (
    basis,
    basis_skeleton,
    dimension,
    expand_expr,
    reduce,
)
from qmodular import levels as levels_mod
from qmodular.qseries import HALF, QSeries, inv_sin2, monomial
from qmodular.weierstrass import wpt_hat

from test_eta import naive_eta_map
from test_levels import DIMENSION_TABLE
from test_qseries import inv_sin2_oracle, series_coeff_map

F = Fraction


def _finish(num, failures, detail, t0, budget=None):
    """Print the one-line verdict for a numbered check, then assert."""
    dt = time.time() - t0
    if budget is not None and dt >= budget:
        failures = list(failures) + [f"runtime {dt:.2f}s exceeded the {budget}s budget"]
    status = "PASS" if not failures else "FAIL"
    line = f"[PRIMARY] criterion {num}: {status} -- {detail}; {dt:.2f}s"
    print(line)
    assert not failures, f"{line}; first problems: {failures[:5]}"


# ---------------------------------------------------------------------------
# 1. Frozen display expansions
# ---------------------------------------------------------------------------
# Each anchor is (label, expression source, truncation bound, nonzero terms).
# A term list omits zero coefficients; the check also confirms that every
# coefficient *not* listed is zero below the bound, so the data pins the
# complete expansion window, not just the visible monomials.

ANCHORS = [
    # level 2 / level 3 generators, long windows
    ("cor-E220", "-3*wp(1,0,2)", 7, ((0, 1), (1, 24), (2, 24), (3, 96), (4, 24), (5, 144), (6, 96))),
    ("cor-E230", "-3*wp(1,0,3)", 7, ((0, 1), (1, 12), (2, 36), (3, 12), (4, 84), (5, 72), (6, 36))),
    # level 1 unit (classical tau values)
    ("delta1", "Delta(1)", 9, ((1, 1), (2, -24), (3, 252), (4, -1472), (5, 4830), (6, -6048), (7, -16744), (8, 84480))),
    # level 2
    ("E220", "E(2,2,0)", 5, ((0, 1), (1, 24), (2, 24), (3, 96), (4, 24))),
    ("E420", "9*wp(1,0,2)^2", 5, ((0, 1), (1, 48), (2, 624), (3, 1344), (4, 5232))),
    ("E421-delta2", "1/256*wpt(0,1/2,1)^2", 5, ((1, 1), (2, 8), (3, 28), (4, 64))),
    ("E4-sym", "3*(wp(0,1/2,1)^2 + wp(1/2,0,1)^2 + wp(0,1/2,1)*wp(1/2,0,1))", 5, ((0, 1), (1, 240), (2, 2160), (3, 6720), (4, 17520))),
    # level 3
    ("E230", "E(2,3,0)", 5, ((0, 1), (1, 12), (2, 36), (3, 12), (4, 84))),
    ("E430", "9*wp(1,0,3)^2", 5, ((0, 1), (1, 24), (2, 216), (3, 888), (4, 1752))),
    ("E431", "1/8*(3*wp(1,0,3)^2 - wp(0,1/2,3)^2 - wp(3/2,0,3)^2 - wp(0,1/2,3)*wp(3/2,0,3))", 5, ((1, 1), (2, 9), (3, 27), (4, 73))),
    ("E630", "-27*wp(1,0,3)^3", 5, ((0, 1), (1, 36), (2, 540), (3, 4356), (4, 20556))),
    ("E631", "-3/8*wp(1,0,3)*(3*wp(1,0,3)^2 - wp(0,1/2,3)^2 - wp(3/2,0,3)^2 - wp(0,1/2,3)*wp(3/2,0,3))", 7, ((1, 1), (2, 21), (3, 171), (4, 733), (5, 2166), (6, 5535))),
    ("delta3", "Delta(3)", 7, ((2, 1), (3, 6), (4, 27), (5, 80), (6, 207))),
    # level 4 (the q^3 coefficient of the first unit is -32; a circulated
    # table prints it with the wrong sign)
    ("E240", "wpt(1,0,2)", 5, ((0, 1), (1, -8), (2, 24), (3, -32), (4, 24))),
    ("E241-delta4", "-1/16*wpt(0,1/2,2)", 11, ((1, 1), (3, 4), (5, 6), (7, 8), (9, 13))),
    ("E220-inline", "E(2,2,0)", 2, ((0, 1), (1, 24))),
    # level 5
    ("E250-sum4", "-3/4*(wp(1,0,5)+wp(2,0,5)+wp(3,0,5)+wp(4,0,5))", 5, ((0, 1), (1, 6), (2, 18), (3, 24), (4, 42))),
    ("E250-sum2", "-3/2*(wp(1,0,5)+wp(2,0,5))", 5, ((0, 1), (1, 6), (2, 18), (3, 24), (4, 42))),
    ("n5-sum-sq", "(wp(1,0,5)+wp(2,0,5))^2", 4, ((0, F(4, 9)), (1, F(16, 3)), (2, 32), (3, F(352, 3)))),
    ("n5-diff-sq", "1/16*(wp(1,0,5)-wp(2,0,5))^2", 9, ((2, 1), (3, 2), (4, 5), (5, 10), (6, 20), (7, 26), (8, 45))),
    ("eis4-5", "3*(wp(0,1/2,5)^2 + wp(5/2,0,5)^2 + wp(0,1/2,5)*wp(5/2,0,5))", 11, ((0, 1), (5, 240), (10, 2160))),
    ("E450", "9/4*(wp(1,0,5)+wp(2,0,5))^2", 5, ((0, 1), (1, 12), (2, 72), (3, 264), (4, 696))),
    ("E451", "1/48*(9*(wp(1,0,5)+wp(2,0,5))^2 - 12*(wp(0,1/2,5)^2 + wp(5/2,0,5)^2 + wp(0,1/2,5)*wp(5/2,0,5)))", 5, ((1, 1), (2, 6), (3, 22), (4, 58))),
    ("E452-delta5", "Delta(5)", 5, ((2, 1), (3, 2), (4, 5))),
    # level 6
    ("n6-sum", "wp(1,0,6)+wp(2,0,6)+wp(3,0,6)+wp(4,0,6)+wp(5,0,6)", 5, ((0, F(-5, 3)), (1, -8), (2, -24), (3, -32), (4, -56))),
    ("wp-tau-2tau", "wp(1,0,2)", 5, ((0, F(-1, 3)), (1, -8), (2, -8), (3, -32), (4, -8))),
    ("wp-tau-3tau", "wp(1,0,3)", 5, ((0, F(-1, 3)), (1, -4), (2, -12), (3, -4), (4, -28))),
    ("E260", "E(2,6,0)", 5, ((0, 1), (1, 24), (2, 24), (3, 96), (4, 24))),
    ("E261", "E(2,6,1)", 5, ((1, 1), (2, -1), (3, 7), (4, -5))),
    ("E262-delta6", "Delta(6)", 5, ((2, 1), (3, -2), (4, 3))),
    # level 7
    ("E270", "-(wp(1,0,7)+wp(2,0,7)+wp(3,0,7))", 5, ((0, 1), (1, 4), (2, 12), (3, 16), (4, 28))),
    ("n7-sum-sq", "(wp(1,0,7)+wp(2,0,7)+wp(3,0,7))^2", 5, ((0, 1), (1, 8), (2, 40), (3, 128), (4, 328))),
    ("n7-sq-sum", "3*(wp(1,0,7)^2+wp(2,0,7)^2+wp(3,0,7)^2)", 5, ((0, 1), (1, 8), (2, 72), (3, 224), (4, 584))),
    ("eis4-7", "3*(wp(0,1/2,7)^2 + wp(7/2,0,7)^2 + wp(0,1/2,7)*wp(7/2,0,7))", 21, ((0, 1), (7, 240), (14, 2160))),
    ("E470", "E(4,7,0)", 8, ((0, 1), (1, 8), (2, 40), (3, 128), (4, 328), (5, 656), (6, 1216), (7, 1864))),
    ("E471", "1/8*((wp(1,0,7)+wp(2,0,7)+wp(3,0,7))^2 - 3*(wp(0,1/2,7)^2 + wp(7/2,0,7)^2 + wp(0,1/2,7)*wp(7/2,0,7)))", 9, ((1, 1), (2, 5), (3, 16), (4, 41), (5, 82), (6, 152), (7, 203), (8, 357))),
    ("E472", "1/32*(3*(wp(1,0,7)^2+wp(2,0,7)^2+wp(3,0,7)^2) - (wp(1,0,7)+wp(2,0,7)+wp(3,0,7))^2)", 9, ((2, 1), (3, 3), (4, 8), (5, 11), (6, 25), (7, 35), (8, 57))),
    ("H1", "9*(wp(1,0,7)^3+wp(2,0,7)^3+wp(3,0,7)^3)", 5, ((0, -1), (1, -12), (2, -180), (3, -1200), (4, -5124))),
    ("H2", "9/2*(wp(1,0,7)^2*wp(2,0,7) + wp(1,0,7)^2*wp(3,0,7) + wp(2,0,7)^2*wp(1,0,7) + wp(2,0,7)^2*wp(3,0,7) + wp(3,0,7)^2*wp(1,0,7) + wp(3,0,7)^2*wp(2,0,7))", 5, ((0, -1), (1, -12), (2, -84), (3, -336), (4, -1188))),
    ("H3", "27*wp(1,0,7)*wp(2,0,7)*wp(3,0,7)", 5, ((0, -1), (1, -12), (2, -36), (3, -192), (4, -516))),
    ("E673-prod", "-1/128*(2*wp(1,0,7)-wp(2,0,7)-wp(3,0,7))*(2*wp(2,0,7)-wp(1,0,7)-wp(3,0,7))*(2*wp(3,0,7)-wp(1,0,7)-wp(2,0,7))", 6, ((3, 1), (4, F(9, 2)), (5, 12))),
    ("E670", "E(6,7,0)", 5, ((0, 1), (1, 12), (2, 84), (3, 400), (4, 1476))),
    ("E671", "E(6,7,1)", 5, ((1, 1), (2, 9), (3, 48), (4, 181))),
    ("E672", "E(6,7,2)", 5, ((2, 1), (3, 7), (4, 32))),
    ("E673", "E(6,7,3)", 6, ((3, 1), (4, F(9, 2)), (5, 12))),
    ("E674-delta7", "Delta(7)", 8, ((4, 1), (5, 2), (6, 5), (7, 10))),
    # level 8
    ("E280", "E(2,8,0)", 5, ((0, 1), (1, -8), (2, 24), (3, -32), (4, 24))),
    ("E281", "-1/16*wpt(0,1/2,2)", 6, ((1, 1), (3, 4), (5, 6))),
    ("E282-delta8", "-1/16*wpt(0,1/2,4)", 10, ((2, 1), (6, 4))),
    # level 9
    ("wp-3tau-9tau", "wp(3,0,9)", 9, ((0, F(-1, 3)), (3, -4), (6, -12))),
    ("n9-sum", "wp(1,0,9)+wp(2,0,9)+wp(3,0,9)+wp(4,0,9)", 5, ((0, F(-4, 3)), (1, -4), (2, -12), (3, -16), (4, -28))),
    ("delta9", "Delta(9)", 11, ((2, 1), (5, 2), (8, 5))),
    ("E290", "-3*wp(3,0,9)", 9, ((0, 1), (3, 12), (6, 36))),
    ("E291", "-1/4*(wp(1,0,3)-wp(3,0,9))", 7, ((1, 1), (2, 3), (4, 7), (5, 6))),
    # level 10
    ("wp-tau-2tau-long", "wp(1,0,2)", 6, ((0, F(-1, 3)), (1, -8), (2, -8), (3, -32), (4, -8), (5, -48))),
    ("wp-5tau-10tau", "wp(5,0,10)", 15, ((0, F(-1, 3)), (5, -8), (10, -8))),
    ("n10-pair", "wp(1,0,5)+wp(2,0,5)", 6, ((0, F(-2, 3)), (1, -4), (2, -12), (3, -16), (4, -28), (5, -4))),
    ("n10-sum", "wp(1,0,10)+wp(2,0,10)+wp(3,0,10)+wp(4,0,10)", 6, ((0, F(-4, 3)), (1, -4), (2, -12), (3, -16), (4, -28), (5, -20))),
    ("E2100", "-3*wp(5,0,10)", 15, ((0, 1), (5, 24), (10, 24))),
    ("E2101", "-1/8*(wp(1,0,2)-wp(5,0,10))", 8, ((1, 1), (2, 1), (3, 4), (4, 1), (5, 5), (6, 4), (7, 8))),
    ("E2102", "1/16*(wp(1,0,2)-2*wp(1,0,5)-2*wp(2,0,5)+3*wp(5,0,10))", 8, ((2, 1), (4, 3), (5, -4), (6, 4))),
    ("E4100", "E(4,10,0)", 15, ((0, 1), (5, 48), (10, 624))),
    ("E4101", "E(4,10,1)", 8, ((1, 1), (2, 1), (3, 4), (4, 1), (5, 5), (6, 28), (7, 32))),
    ("E4102", "E(4,10,2)", 8, ((2, 1), (4, 3), (5, -4), (6, 4), (7, 24))),
    ("E4103", "E(4,10,3)", 8, ((3, 1), (4, 1), (5, 7), (7, 17))),
    ("E4104", "E(4,10,4)", 8, ((4, 1), (6, 6), (7, -8))),
    ("E4105", "1/256*wpt(0,1/2,5)^2", 20, ((5, 1), (10, 8), (15, 28))),
    ("E4106-delta10", "Delta(10)", 10, ((6, 1), (7, -2), (8, 3), (9, -6))),
]


def _anchor_failures(anchors=ANCHORS):
    """Labels (with detail) of anchors the engine fails to reproduce."""
    bad = []
    for label, src, bound, pairs in anchors:
        want = {F(e): F(c) for e, c in pairs}
        try:
            got = series_coeff_map(expand_expr(parse_expr(src), bound))
        except Exception as exc:  # a raising anchor is a failing anchor
            bad.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        if got != want:
            diffs = sorted(set(got) ^ set(want) | {e for e in got if e in want and got[e] != want[e]})
            bad.append(f"{label}: first difference at q^{diffs[0]}")
    return bad


def test_criterion_1_display_anchors():
    t0 = time.time()
    failures = _anchor_failures()
    _finish(1, failures, f"{len(ANCHORS)} display expansions reproduced exactly", t0, budget=10)


# ---------------------------------------------------------------------------
# 2. Dimension table and unit-ladder recursion
# ---------------------------------------------------------------------------


def test_criterion_2_dimension_table():
    t0 = time.time()
    failures = []
    entries = 0
    for n, row in DIMENSION_TABLE.items():
        for w, want in zip(range(2, 17, 2), row):
            entries += 1
            got = dimension(n, w)
            if got != want:
                failures.append(f"dimension({n},{w}) = {got}, table says {want}")
    for n in range(1, 11):
        unit = level_unit(n)
        for w in range(2 + unit.rho, 301, 2):
            lhs = dimension(n, w)
            rhs = dimension(n, w - unit.rho) + unit.nu
            if lhs != rhs:
                failures.append(f"recursion broken at N={n}, weight {w}: {lhs} != {rhs}")
    _finish(2, failures, f"{entries} table entries and the ladder recursion to weight 300", t0)


# ---------------------------------------------------------------------------
# 3. Weight-2018 stress product
# ---------------------------------------------------------------------------

# The ten coefficients of q^2018..q^2027, cross-checked by two expansions at
# different working precisions and an out-of-band reconstruction from scratch
# (pentagonal-number eta products, classical series, windowed convolution).
# A circulated figure ends the row with ...726432; the reconstructions all
# yield ...726336, so that variant is treated as an erratum: the verified
# value is asserted here, and reproducing the variant fails the check.
STRESS_WINDOW = [
    1,
    -672,
    226131,
    -50806116,
    8574211132,
    -1159385836896,
    130843082948319,
    -12676560614152160,
    1076314597159060977,
    -81359425707034726336,
]
REFUTED_LAST = -81359425707034726432


def test_criterion_3_stress_product():
    t0 = time.time()
    failures = []
    ser = expand_expr(parse_expr("E(4,10,2)*E(2,10,0)^335*Delta(10)^336"), 2028)
    if ser.val != 2018:
        failures.append(f"valuation {ser.val} != 2018")
    got = [int(ser.coefficient(e)) for e in range(2018, 2028)]
    if got != STRESS_WINDOW:
        failures.append(f"coefficient window mismatch: {got}")
    if got[-1] == REFUTED_LAST:
        failures.append("engine reproduced the refuted ...726432 variant")
    _finish(
        3,
        failures,
        "ten coefficients q^2018..q^2027 verified "
        f"(nine as circulated; the tenth is {STRESS_WINDOW[-1]}, "
        f"the {REFUTED_LAST} variant is a known erratum)",
        t0,
        budget=60,
    )


# ---------------------------------------------------------------------------
# 4. Identity registry
# ---------------------------------------------------------------------------

REQUIRED_IDENTITIES = {
    "mod1",
    "e4-2tau", "e4-sym", "e4-tau-sym", "e4-twpa-sym",
    "e6-2tau", "e6-sym",
    "e8-2tau", "e8-sym",
    "e10-sym", "e12-sym",
    "delta1-product", "delta2-sq", "delta4-twpa", "delta5-diff-sq", "delta6-combo",
    "n9-linear", "n10-linear",
} | {f"phi-dual-{n}" for n in range(2, 11)}


def test_criterion_4_identity_suite():
    t0 = time.time()
    failures = []
    reports = check_all()
    if len(reports) < 15:
        failures.append(f"only {len(reports)} identities registered")
    missing = REQUIRED_IDENTITIES - {r.name for r in reports}
    if missing:
        failures.append(f"missing identities: {sorted(missing)}")
    for r in reports:
        if not r.passed:
            failures.append(r.describe())
        if r.name.startswith("phi-dual") and r.prec != 300:
            failures.append(f"{r.name} ran at precision {r.prec}, not 300")
        if not r.name.startswith("phi-dual") and r.prec != 200:
            failures.append(f"{r.name} ran at precision {r.prec}, not 200")
    sextic = print_expr(IDENTITY_REGISTRY["e12-sym"].rhs)
    for needle in ("4917/1382", "1462/691"):
        if needle not in sextic:
            failures.append(f"e12-sym lost the {needle} coefficient")
    _finish(4, failures, f"{len(reports)} identities at default precisions (200/300)", t0, budget=120)


# ---------------------------------------------------------------------------
# 5. Algebraic property sweeps
# ---------------------------------------------------------------------------


def _random_series(rng, unit=False):
    den = rng.choice((1, 2))
    val = rng.randint(-4, 6)
    length = rng.randint(1, 12)
    coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(length)]
    if unit:
        while coeffs[0] == 0:
            coeffs[0] = F(rng.randint(-9, 9), rng.choice((1, 2)))
    return QSeries.build(den, val, coeffs, val + length)


def _agree(x, y):
    b = min(x.bound, y.bound)
    return series_coeff_map(x.truncate(b)) == series_coeff_map(y.truncate(b))


def test_criterion_5_property_sweeps():
    t0 = time.time()
    failures = []
    rng = random.Random(20260819)

    # ring axioms on 1000 random triples
    for i in range(1000):
        a, b, c = (_random_series(rng) for _ in range(3))
        if not _agree(a + b, b + a):
            failures.append(f"triple {i}: addition not commutative")
        if not _agree((a + b) + c, a + (b + c)):
            failures.append(f"triple {i}: addition not associative")
        if not _agree(a * b, b * a):
            failures.append(f"triple {i}: multiplication not commutative")
        if not _agree((a * b) * c, a * (b * c)):
            failures.append(f"triple {i}: multiplication not associative")
        if not _agree(a * (b + c), a * b + a * c):
            failures.append(f"triple {i}: distributivity broken")
        if failures:
            break

    # invert / substitute / half-twist round-trips
    for i in range(200):
        u = _random_series(rng, unit=True)
        if not _agree(u * u.invert(), monomial(F(1), 0, 1, 1)):
            failures.append(f"invert round-trip {i} broken")
            break
        m = rng.choice((2, 3, 5))
        sub = u.substitute_power(m)
        if series_coeff_map(sub) != {m * e: c for e, c in series_coeff_map(u).items()}:
            failures.append(f"substitute_power round-trip {i} broken")
            break
        if u.half_twist().half_twist() != u:
            failures.append(f"half-twist involution {i} broken")
            break

    # triangular bases: structural sweep to weight 200, full pivots low down
    for n in range(1, 11):
        for w in range(2, 201, 2):
            d = dimension(n, w)
            if d == 0:
                continue
            skel = basis_skeleton(n, w)
            if len(skel) != d or [val_lower(e) for e in skel] != list(range(d)):
                failures.append(f"skeleton ladder broken at N={n}, weight {w}")
    for n in range(1, 11):
        for w in range(2, 25, 2):
            d = dimension(n, w)
            if d == 0:
                continue
            for j, el in enumerate(basis(n, w, d + 4).elements):
                if el.series.coefficient(j) != 1 or any(
                    el.series.coefficient(e) != 0 for e in range(j)
                ):
                    failures.append(f"pivot broken at N={n}, weight {w}, index {j}")
    # deep spot checks at the top of the sweep
    for j, el in enumerate(basis(2, 200, 56).elements):
        if el.series.coefficient(j) != 1 or any(el.series.coefficient(e) != 0 for e in range(j)):
            failures.append(f"pivot broken at N=2, weight 200, index {j}")
    for n in (5, 10):
        skel = basis_skeleton(n, 200)
        d = len(skel)
        for j in (0, 1, d // 2, d - 2, d - 1):
            ser = expand_expr(skel[j], j + 2)
            if ser.coefficient(j) != 1 or any(ser.coefficient(e) != 0 for e in range(j)):
                failures.append(f"pivot broken at N={n}, weight 200, index {j}")

    # reduce round-trips: 100 random coordinate vectors per space
    for n in (2, 6, 10):
        for w in (8, 24):
            d = dimension(n, w)
            elements = basis(n, w, d + 6).elements
            for i in range(100):
                coords = [F(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(d)]
                f = monomial(F(0), 0, 1, d + 6)
                for cf, el in zip(coords, elements):
                    f = f + el.series.scale(cf)
                if reduce(f, n, w) != coords:
                    failures.append(f"reduce round-trip broken at N={n}, weight {w}, vector {i}")
                    break
    _finish(
        5,
        failures,
        "ring axioms (1000 triples), inversion/substitution/twist round-trips, "
        "triangular bases to weight 200, 600 reduce round-trips",
        t0,
    )


# ---------------------------------------------------------------------------
# 6. Independent oracles
# ---------------------------------------------------------------------------


def test_criterion_6_independent_oracles():
    t0 = time.time()
    failures = []
    if series_coeff_map(EtaQuotient(((1, 24),)).expand(50)) != naive_eta_map([(1, 24)], 50):
        failures.append("eta[(1,24)] differs from the naive product below q^50")
    half_product = {e: -16 * c for e, c in naive_eta_map([(1, -4), (2, 8)], 200).items()}
    if series_coeff_map(wpt_hat(0, HALF, 1, 200)) != half_product:
        failures.append("wpt_hat(0,1/2,1) differs from its product form below q^200")
    for c, b in ((1, 0), (1, HALF), (HALF, HALF), (F(3, 2), 0), (2, HALF)):
        if series_coeff_map(inv_sin2(c, b, 100)) != inv_sin2_oracle(c, b, 100):
            failures.append(f"inv_sin2({c},{b}) differs from brute force below q^100")
    _finish(6, failures, "eta, half-period product, and Lambert-kernel oracles agree", t0)


# ---------------------------------------------------------------------------
# 7. Corruption control
# ---------------------------------------------------------------------------


def test_criterion_7_corruption_control():
    t0 = time.time()
    failures = []

    row = levels_mod._REGISTRY[(7, 6)]
    target = row[3]
    assert isinstance(target, Sum)
    terms = list(target.terms)
    terms[1] = (terms[1][0] + F(1, 1000003), terms[1][1])
    corrupted_row = row[:3] + (Sum(terms),) + row[4:]

    clean_anchors = _anchor_failures()
    clean_identity = check("e673-h", 60)
    if clean_anchors or not clean_identity.passed:
        failures.append("baseline not clean before corruption")

    levels_mod._REGISTRY[(7, 6)] = corrupted_row
    try:
        broken_anchors = _anchor_failures()
        try:
            broken_identity_passed = check("e673-h", 60).passed
        except Exception:
            broken_identity_passed = False
        if not broken_anchors and broken_identity_passed:
            failures.append("corrupting a registered coefficient went undetected")
    finally:
        levels_mod._REGISTRY[(7, 6)] = row

    if _anchor_failures() or not check("e673-h", 60).passed:
        failures.append("suite did not recover after restoring the registry")
    detail = "a nudged registry coefficient flips the display anchors"
    if not failures:
        detail += f" ({len(broken_anchors)} anchors and the e673-h identity failed while corrupted)"
    _finish(7, failures, detail, t0)
