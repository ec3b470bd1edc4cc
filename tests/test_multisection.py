"""Differential tests: products and powers that split a series in q^t into
its residue sections, against the stride-blind kernels they replaced.

blind_product, blind_mul and blind_pow are the product dispatch, QSeries
multiplication and QSeries.pow as they were before the sections: every
operand is packed or looped over at full length, zero slots included.  They
share _kronecker and _miller with the package, which test_qseries checks
against schoolbook and long-division oracles."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle
from qmodular import qseries
from qmodular.eta import euler_product
from qmodular.qseries import QSeries, monomial

KRON = qseries._KRONECKER_MIN


def blind_product(a, b, n: int) -> list:
    """The first n coefficients of a * b: Kronecker substitution when both
    have more than _KRONECKER_MIN nonzero terms, else the schoolbook loop
    with the sparser operand outside."""
    na = len(a) - a.count(0)
    nb = len(b) - b.count(0)
    if min(na, nb) > KRON:
        return qseries._kronecker(a, b, n)
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


def blind_mul(a: QSeries, b: QSeries) -> QSeries:
    den = a.den if a.den == b.den else 2
    av, an, ap = a._spread(den // a.den)
    bv, bn, bp = b._spread(den // b.den)
    val = av + bv
    prec = min(ap + bv, bp + av)
    n = prec - val
    if n <= 0 or not an or not bn:
        return QSeries._make(den, prec, (), 1, prec)
    out = blind_product(an[:n], bn[:n], n)
    return QSeries._make(den, val, out, a.d * b.d, prec)


def blind_pow(f: QSeries, n: int) -> QSeries:
    """f^n for a series f with a known leading term: binary powering by
    Kronecker products on the full list when it has more than
    _KRONECKER_MIN nonzero terms per step, else Miller's recurrence."""
    if n == 0:
        return monomial(1, 0, 1, Fraction(f.prec - f.val, f.den))
    nums = f.nums
    size = len(nums)
    steps = n.bit_length() + bin(n).count("1") - 2
    if n >= 2 and size - nums.count(0) > KRON * steps:
        g = nums
        for bit in bin(n)[3:]:
            g = qseries._kronecker(g, g, size)
            if bit == "1":
                g = qseries._kronecker(g, nums, size)
        d = 1
    else:
        g, d = qseries._miller(nums, n)
    if n > 0:
        d *= f.d**n
    elif f.d != 1:
        g = [x * f.d**-n for x in g]
    return QSeries._make(f.den, n * f.val, g, d, n * f.val + size)


def assert_same(new: QSeries, ref: QSeries) -> None:
    """Byte-identical: the same grid, numerators, denominator and bound."""
    assert (new.den, new.val, new.nums, new.d, new.prec) == (
        ref.den,
        ref.val,
        ref.nums,
        ref.d,
        ref.prec,
    )


# ---------------------------------------------------------------------------
# operands on a sub-lattice
# ---------------------------------------------------------------------------


def coefficient(rng, kind):
    if kind == 0:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randint(2**64, 2**100)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.choice((1, 2, 3, 4, 7, 9)))


@st.composite
def lattice_ints(draw, stride, max_terms=3 * KRON):
    """An int list whose nonzero entries sit at offset + k * stride: small
    ints or ints above 2^64, at the drawn share of nonzero terms."""
    rng = draw(st.randoms(use_true_random=False))
    offset = draw(st.integers(min_value=0, max_value=stride - 1))
    terms = draw(st.integers(min_value=1, max_value=max_terms))
    density = draw(st.sampled_from((1.0, 0.7, 0.3)))
    kind = draw(st.sampled_from((0, 1)))
    out = [0] * (offset + terms * stride)
    for k in range(terms):
        if rng.random() < density:
            out[offset + k * stride] = coefficient(rng, kind)
    return out


@st.composite
def lattice_series(
    draw,
    strides=st.integers(min_value=1, max_value=12),
    max_terms=3 * KRON,
    densities=(1.0, 0.7, 0.3),
):
    """A series in q^t times a power of q, on either grid, with small int,
    wide int, Fraction or mixed coefficients: its numerators have stride t
    (doubled when a product spreads an integer-grid series to the half
    grid)."""
    rng = draw(st.randoms(use_true_random=False))
    stride = draw(strides)
    den = draw(st.sampled_from((1, 2)))
    val = draw(st.integers(min_value=-6, max_value=6))
    terms = draw(st.integers(min_value=1, max_value=max_terms))
    density = draw(st.sampled_from(densities))
    kinds = draw(st.sampled_from(((0,), (1,), (2,), (0, 1, 2))))
    coeffs = [0] * ((terms - 1) * stride + 1 + draw(st.integers(0, stride - 1)))
    coeffs[0] = coefficient(rng, rng.choice(kinds))
    for k in range(1, terms):
        if rng.random() < density:
            coeffs[k * stride] = coefficient(rng, rng.choice(kinds))
    return QSeries.build(den, val, coeffs, val + len(coeffs))


def test_stride_is_the_gcd_of_the_nonzero_indices():
    assert qseries._stride([3, 1, 4]) == 1
    assert qseries._stride([1, 0, 0, 2, 0, 0, 5, 0]) == 3
    assert qseries._stride([0, 0, 4, 0, 0, 0, 6]) == 2
    assert qseries._stride([0, 0, 0, 6, 0, 0, 9]) == 3
    assert qseries._stride([7, 0, 0]) == 0
    assert qseries._stride([]) == 0


def loop_stride(nums) -> int:
    """The gcd of the nonzero indices, index by index: _stride as it was
    before it counted zeros."""
    t = 0
    for i, x in enumerate(nums):
        if x:
            t = math.gcd(t, i)
    return t


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.booleans(), max_size=12),
    st.lists(st.integers(min_value=0, max_value=60), max_size=3),
)
# indices 0, 4 and 6: the first index past 0 is 4, the stride 2
@example(2, [True, False, True, True], [])
@example(1, [], [])
def test_stride_matches_the_index_loop(stride, kept, strays):
    # nonzero entries at some multiples of a stride, and a few strays
    nums = [0] * (stride * len(kept))
    nums[::stride] = [int(k) for k in kept]
    for i in strays:
        if i < len(nums):
            nums[i] = 7
    assert qseries._stride(nums) == loop_stride(nums)
    assert qseries._stride(tuple(nums)) == loop_stride(nums)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 5), (1, 12), (2, 3), (4, 6), (2, 2), (3, 9), (7, 7)]),
    st.data(),
)
def test_section_products_match_the_blind_product(strides, data):
    sa, sb = strides
    a = data.draw(lattice_ints(sa, max_terms=2 * KRON + 240 // sa))
    b = data.draw(lattice_ints(sb, max_terms=2 * KRON + 240 // sb))
    n = data.draw(st.integers(min_value=1, max_value=len(a) + len(b)))
    a, b = a[:n], b[:n]
    assert qseries._product(a, b, n) == blind_product(a, b, n)
    assert qseries._product(b, a, n) == blind_product(a, b, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_squares_in_q_t_match_the_blind_product(stride, data):
    a = data.draw(lattice_ints(stride, max_terms=3 * KRON))
    n = data.draw(st.integers(min_value=1, max_value=2 * len(a)))
    a = a[:n]
    assert qseries._product(a, a, n) == blind_product(a, a, n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=KRON + 1, max_value=KRON + 12),
    st.randoms(use_true_random=False),
)
def test_short_sections_take_schoolbook_and_match(stride, reps, rng):
    # b in q^t with more than _KRONECKER_MIN nonzero terms; a nonzero in
    # every other run of t slots, so that each section a[r::t] holds about
    # half of b's count: the split is taken and its sections are short
    n = stride * reps
    b = [0] * n
    b[::stride] = [rng.choice((-1, 1)) * rng.randint(1, 2**70) for _ in range(reps)]
    a = [rng.randint(1, 2**70) if (i // stride) % 2 == 0 else 0 for i in range(n)]
    assert qseries._product(a, b, n) == blind_product(a, b, n)
    assert qseries._product(b, a, n) == blind_product(a, b, n)


@settings(max_examples=80, deadline=None)
@given(lattice_series(), lattice_series())
def test_series_products_match_the_blind_mul(a, b):
    assert_same(a * b, blind_mul(a, b))
    assert_same(b * a, blind_mul(a, b))
    assert_same(a * a, blind_mul(a, a))


def test_euler_quotient_matches_the_blind_mul_on_one_point_packing(monkeypatch):
    # eta(tau)^-8 eta(2 tau)^16 below q^1000 (without the q-power): a dense
    # 1000-term series times one in q^2, so the product splits into two
    # 500-slot sections on the two-point packing; the oracle multiplies the
    # full lists with the one-point packing it replaced
    a = euler_product(1, 1000).pow(-8)
    b = euler_product(2, 1000).pow(16)
    new = a * b
    monkeypatch.setattr(qseries, "_kronecker", fraction_oracle._kronecker)
    ref = blind_mul(blind_pow(euler_product(1, 1000), -8), blind_pow(euler_product(2, 1000), 16))
    assert_same(new, ref)


@settings(max_examples=60, deadline=None)
@given(
    lattice_series(strides=st.just(1)),
    lattice_series(strides=st.integers(min_value=1, max_value=6)),
)
def test_half_grid_times_spread_integer_grid(a, b):
    # a on the half grid, b on the integer grid: the product spreads b's
    # numerators to every other slot before multiplying
    a = QSeries.build(2, 2 * a.val + 1, a.coeffs, 2 * a.val + 1 + len(a.nums))
    b = QSeries.build(1, b.val, b.coeffs, b.prec)
    assert a.den == 2 and b.den == 1
    assert_same(a * b, blind_mul(a, b))
    assert_same(b * a, blind_mul(a, b))


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    lattice_series(strides=st.integers(min_value=2, max_value=12), max_terms=2 * KRON),
    st.integers(min_value=-4, max_value=6),
)
def test_powers_in_q_t_match_the_blind_pow(f, n):
    assert_same(f.pow(n), blind_pow(f, n))


@settings(max_examples=40, deadline=None)
@given(
    lattice_series(strides=st.integers(min_value=2, max_value=6), max_terms=2 * KRON),
    st.integers(min_value=-4, max_value=-1),
    st.sampled_from((2, -3, 5, Fraction(7, 2))),
)
def test_negative_powers_with_a_non_unit_lead(f, n, lead):
    # Miller's rational branch: 1/f0^(j - n) on the compressed list puts the
    # result over another power of f0, which the canonical form divides out
    nums = list(f.coeffs)
    nums[0] = lead
    f = QSeries.build(f.den, f.val, nums, f.prec)
    assert_same(f.pow(n), blind_pow(f, n))


@settings(max_examples=20, deadline=None)
@given(
    lattice_series(
        strides=st.integers(min_value=2, max_value=5),
        max_terms=3 * KRON + 16,
        densities=(1.0,),
    ),
    st.integers(min_value=2, max_value=6),
)
def test_dense_powers_in_q_t_match_the_blind_pow(f, n):
    # binary powering by Kronecker products on the compressed list once it
    # has more than _KRONECKER_MIN nonzero terms per step
    assert_same(f.pow(n), blind_pow(f, n))
