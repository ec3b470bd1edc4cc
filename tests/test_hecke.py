"""Hecke closure of the bases (tests/hecke.py): a slice of the sweep and of
the deep self-check of the level units, the eigenvalues that check the
operator itself, and corrupted coefficients past the depth of reduce that
closure catches."""

import pytest

from qmodular.errors import NotInSpan
from qmodular.eta import delta, level_unit
from qmodular.levels import basis, reduce
from qmodular.qseries import monomial

from hecke import hecke, sweep, unit_sweep


def test_hecke_operators_keep_every_space_up_to_weight_12():
    # every element of every nonzero space with N <= 10 and even weight <= 12
    assert sweep(12, (2, 3)) == 660


@pytest.mark.parametrize(
    "wt, index, p, coords",
    [(4, 0, 2, [9]), (4, 0, 3, [28]), (12, 1, 2, [0, -24]), (12, 1, 3, [0, 252])],
    ids=["T2 E4", "T3 E4", "T2 Delta", "T3 Delta"],
)
def test_level_one_eigenforms(wt, index, p, coords):
    # T_p E4 = sigma_3(p) E4 and T_p Delta = tau(p) Delta
    f = basis(1, wt, 7 * p).elements[index].series
    assert reduce(hecke(f, p, wt, 1, 7), 1, wt) == coords


def test_a_coefficient_past_the_reduce_depth_breaks_closure():
    # M_12(Gamma0(10)) has dimension 19, so reduce compares below q^25; a +1
    # at q^63 hides from it but lands at q^21 of T_3
    f = basis(10, 12, 75).elements[0].series
    bad = f + monomial(1, 63, 1, 75)
    assert reduce(bad.truncate(25), 10, 12) == reduce(f.truncate(25), 10, 12)
    reduce(hecke(f, 3, 12, 10, 25), 10, 12)
    with pytest.raises(NotInSpan, match="not in span: first unmatched exponent 21$"):
        reduce(hecke(bad, 3, 12, 10, 25), 10, 12)


def test_hecke_operators_keep_the_level_units_deep():
    # Delta_N below q^600 for N = 1..10, checked below q^300
    unit_sweep(300)


@pytest.mark.parametrize("N", range(1, 11))
def test_a_deep_coefficient_of_a_level_unit_breaks_closure(N):
    # a +1 at q^(2(P-1)) of Delta_N lands at q^(P-1) of T_2 or U_2, the last
    # exponent reduce compares, and at no lower one
    P, rho = 300, level_unit(N).rho
    bad = delta(N, 2 * P) + monomial(1, 2 * (P - 1), 1, 2 * P)
    with pytest.raises(NotInSpan, match=f"not in span: first unmatched exponent {P - 1}$"):
        reduce(hecke(bad, 2, rho, N, P), N, rho)
