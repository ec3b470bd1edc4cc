"""The dual-route identity registry: every case must pass, defaults must be
honored, and the failure path must report the exact first bad exponent."""

from fractions import Fraction

import pytest

from qmodular import identities, levels
from qmodular.errors import InsufficientPrecision, InvalidPrecision, UnknownIdentity
from qmodular.expr import GeneratorRef, Sum
from qmodular.identities import REGISTRY, IdentityCase, check, check_all, names

ALL_NAMES = [
    "mod1",
    "wp2wpt-at-half",
    "wp2wpt-at-tau-half",
    "delta1-product",
    "e2-2-twpa",
    "e4-sym",
    "e4-twpa-sym",
    "e4-2tau",
    "e4-tau-sym",
    "e6-2tau",
    "e6-sym",
    "e8-2tau",
    "e8-sym",
    "e10-sym",
    "e12-sym",
    "e8-e4sq",
    "delta2-sq",
    "delta4-twpa",
    "delta8-twpa",
    "delta5-diff-sq",
    "delta6-combo",
    "e673-h",
    "e23-twpa",
    "e25-fold",
    "eis45-sym",
    "eis47-sym",
    "n9-linear",
    "n10-linear",
] + [f"phi-dual-{n}" for n in range(2, 11)]


def test_registry_names_frozen():
    assert names() == ALL_NAMES
    assert len(names()) == 37


def test_all_identities_pass_quickly():
    for report in check_all(60):
        assert report.passed, report.describe()
        assert report.prec == 60


@pytest.mark.parametrize(
    "name",
    [
        "mod1",
        "wp2wpt-at-half",
        "delta1-product",
        "e4-sym",
        "e6-2tau",
        "e12-sym",
        "delta2-sq",
        "delta4-twpa",
        "delta5-diff-sq",
        "delta6-combo",
        "delta8-twpa",
        "e673-h",
        "n9-linear",
        "n10-linear",
    ],
)
def test_named_identities_at_deep_precision(name):
    report = check(name, 200)
    assert report.passed, report.describe()


def test_phi_duals_at_their_default_precision():
    for n in range(2, 11):
        report = check(f"phi-dual-{n}")
        assert report.prec == 300
        assert report.passed, report.describe()


def test_default_precision_for_ordinary_cases():
    assert check("mod1", 40).prec == 40
    # the registered default is used when no precision is given
    assert REGISTRY["mod1"].default_prec == 200
    assert REGISTRY["phi-dual-7"].default_prec == 300


def test_report_shape_on_pass():
    r = check("e8-e4sq", 25)
    assert r.passed
    assert r.describe() == "e8-e4sq: PASS (below q^25)"
    assert r.to_json() == {
        "name": "e8-e4sq",
        "status": "pass",
        "prec": 25,
        "first_bad_exponent": None,
    }


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check("no-such-identity", 10)


def test_a_bound_that_compares_nothing_is_refused():
    # below q^0 no coefficient is compared, so no report can pass
    with pytest.raises(InsufficientPrecision, match="compares no coefficient"):
        check("mod1", 0)
    with pytest.raises(InsufficientPrecision):
        check_all(0)
    with pytest.raises(InvalidPrecision, match="negative bound -1"):
        check("mod1", -1)
    assert check("mod1", 1).passed


def test_a_fractional_bound_keeps_the_coefficients_below_it():
    # q^4 lies below q^(9/2), so both sides are compared there too
    r = check("mod1", Fraction(9, 2))
    assert r.prec == 5
    assert r.describe() == "mod1: PASS (below q^5)"
    assert check("mod1", "1/2").prec == 1


def test_failure_reports_first_bad_exponent(monkeypatch):
    g = GeneratorRef(2, 2, 0)
    case = IdentityCase(
        name="broken-for-test",
        lhs=g,
        rhs=Sum(((Fraction(2), g),)),
        note="deliberately false",
    )
    monkeypatch.setitem(REGISTRY, "broken-for-test", case)
    r = check("broken-for-test", 12)
    assert not r.passed
    assert r.first_bad_exponent == 0
    assert r.lhs_coefficient == 1
    assert r.rhs_coefficient == 2
    assert "FAIL at q^0" in r.describe()
    doc = r.to_json()
    assert doc["status"] == "fail"
    assert doc["first_bad_exponent"] == "0"
    assert doc["lhs_coefficient"] == "1"
    assert doc["rhs_coefficient"] == "2"


def test_corrupted_coefficient_is_caught(monkeypatch):
    # same two routes, but one coefficient of the right-hand side nudged:
    # the first divergent exponent is exactly where the nudge acts
    orig = REGISTRY["e23-twpa"]
    lhs_terms = orig.lhs.terms if isinstance(orig.lhs, Sum) else ((Fraction(1), orig.lhs),)
    assert isinstance(orig.rhs, Sum)
    (c0, f0), *rest = orig.rhs.terms
    bad_rhs = Sum(((c0 + Fraction(1, 7), f0),) + tuple(rest))
    monkeypatch.setitem(
        REGISTRY,
        "e23-twpa",
        IdentityCase(orig.name, orig.lhs, bad_rhs, orig.note, orig.default_prec),
    )
    r = check("e23-twpa", 30)
    assert not r.passed
    assert r.first_bad_exponent is not None
    assert r.lhs_coefficient != r.rhs_coefficient


def test_failing_check_expands_each_side_once(monkeypatch):
    # corrupt a registered generator, as acceptance criterion 7 does
    row = levels._REGISTRY[(7, 6)]
    terms = list(row[3].terms)
    terms[1] = (terms[1][0] + Fraction(1, 1000003), terms[1][1])
    monkeypatch.setitem(levels._REGISTRY, (7, 6), row[:3] + (Sum(terms),) + row[4:])
    calls = []
    expand = identities.expand_expr

    def counting_expand(e, prec):
        calls.append(e)
        return expand(e, prec)

    monkeypatch.setattr(identities, "expand_expr", counting_expand)
    r = check("e673-h", 60)
    assert not r.passed
    case = REGISTRY["e673-h"]
    assert calls == [case.lhs, case.rhs]


def test_check_all_reports_every_case():
    reports = check_all(12)
    assert [r.name for r in reports] == ALL_NAMES
    assert all(r.passed for r in reports)
