"""The value types: QSeries, the records of eta, levels and identities, and
ExpandCacheInfo.  Each compares and hashes by its fields, refuses field
assignment, builds from positional or keyword arguments with its defaults,
and prints as Name(field=value, ...), as the frozen dataclasses and the
NamedTuple they replaced did."""

import copy
import pickle
import timeit
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qmodular import levels
from qmodular.eta import EtaQuotient, LevelUnit, level_unit
from qmodular.expr import DeltaRef, EisensteinAtom
from qmodular.identities import IdentityCase, IdentityReport, check
from qmodular.levels import BasisElement, BasisSet, ExpandCacheInfo, basis
from qmodular.qseries import QSeries


def _records():
    """One instance of each record type, and an equal one built apart."""
    b = basis(4, 6, 8)
    lhs, rhs = EisensteinAtom(4), EisensteinAtom(4, 1)
    return [
        (EtaQuotient([(2, 1), (1, 3)]), EtaQuotient(((1, 3), (2, 1)))),
        (level_unit(4), LevelUnit(4, 2, 1, EtaQuotient([(2, -4), (4, 8)]), ((1, (0, 1), (0, 1), 2, 1),), 1, 1)),
        (b.elements[1], BasisElement(*b.elements[1])),
        (b, basis(4, 6, 8)),
        (IdentityCase("e4", lhs, rhs, "E4 twice"), IdentityCase("e4", lhs, rhs, "E4 twice", 200)),
        (check("mod1", 12), IdentityReport("mod1", 12)),
        (ExpandCacheInfo(1, 2, 3, 4), ExpandCacheInfo(hits=1, misses=2, evictions=3, coefficients=4)),
    ]


RECORDS = _records()
IDS = [type(a).__name__ for a, _ in RECORDS]


@pytest.mark.parametrize("a, b", RECORDS, ids=IDS)
def test_records_compare_and_hash_by_their_fields(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(a))
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and type(twin) is type(a)


@pytest.mark.parametrize("a, b", RECORDS, ids=IDS)
def test_records_refuse_assignment(a, b):
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("a, b", RECORDS, ids=IDS)
def test_records_print_their_fields_by_name(a, b):
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in a._fields)
    assert repr(a) == f"{type(a).__name__}({fields})"


def test_record_reprs_read_as_before():
    assert repr(EtaQuotient([(2, 1), (1, 3)])) == "EtaQuotient(factors=((1, 3), (2, 1)))"
    assert repr(ExpandCacheInfo(1, 2, 3, 4)) == (
        "ExpandCacheInfo(hits=1, misses=2, evictions=3, coefficients=4)"
    )
    assert repr(IdentityReport("x", 5)) == (
        "IdentityReport(name='x', prec=5, first_bad_exponent=None, "
        "lhs_coefficient=None, rhs_coefficient=None)"
    )
    assert str(EtaQuotient([(1, 24)])) == "eta(1)^24"


def test_keywords_and_defaults():
    case = IdentityCase(name="n", lhs=DeltaRef(1), rhs=DeltaRef(1), note="same")
    assert case.default_prec == 200
    assert IdentityCase("n", DeltaRef(1), DeltaRef(1), "same", default_prec=300).default_prec == 300
    r = IdentityReport(name="n", prec=7)
    assert (r.first_bad_exponent, r.lhs_coefficient, r.rhs_coefficient) == (None, None, None)
    assert r.passed and r.status == "pass"
    bad = IdentityReport("n", 7, Fraction(3), Fraction(1), Fraction(2))
    assert not bad.passed and bad.describe() == "n: FAIL at q^3 (lhs=1, rhs=2)"
    assert EtaQuotient(factors=[(1, 2), (1, -2)]).factors == ()
    u = level_unit(10)
    fields = dict(terms=u.terms, divisor=u.divisor, power=u.power)
    assert LevelUnit(level=10, rho=u.rho, nu=u.nu, quotient=u.quotient, **fields) == u
    el = BasisElement(index=0, label="x", expr=DeltaRef(1), series=QSeries(1, 0, (1,), 1, 1))
    assert el.index == 0 and el.label == "x"
    with pytest.raises(TypeError):
        IdentityReport("n")


def test_a_basis_set_has_its_elements_length():
    b = basis(10, 4, 12)
    assert len(b) == len(b.elements) == levels.dimension(10, 4) == 7
    assert (b.level, b.weight, b.precision) == (10, 4, 12)
    assert b.to_json()["elements"][2]["valuation"] == 2


def test_expand_cache_info_is_a_tuple():
    levels.expand_cache_clear()
    info = levels.expand_cache_info()
    assert info == (0, 0, 0, 0) and info.hits == 0
    hits, misses, evictions, coefficients = info
    assert coefficients == 0


S = QSeries(2, -1, (3, 0, -5), 4, 6)


def test_series_compare_and_hash_by_their_fields():
    twin = QSeries(den=2, val=-1, nums=(3, 0, -5), d=4, prec=6)
    assert twin == S and not twin != S and twin is not S
    assert hash(S) == hash(twin) == hash((2, -1, (3, 0, -5), 4, 6))
    assert S != QSeries(2, -1, (3, 0, -5), 4, 7)
    assert S != (2, -1, (3, 0, -5), 4, 6)
    assert (S.den, S.val, S.nums, S.d, S.prec) == (2, -1, (3, 0, -5), 4, 6)
    assert len({S, twin, -S}) == 2
    for copied in (copy.copy(S), copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
        assert copied == S and type(copied) is QSeries


def test_series_refuse_assignment():
    for name in ("den", "val", "nums", "d", "prec", "extra"):
        with pytest.raises(AttributeError):
            setattr(S, name, 1)
    for name in ("den", "nums"):
        with pytest.raises(AttributeError):
            delattr(S, name)
    assert not hasattr(S, "__dict__")
    assert S == QSeries(2, -1, (3, 0, -5), 4, 6)


def test_series_repr_is_its_text():
    assert repr(S) == "QSeries[(3/4)q^(-1/2) - (5/4)q^(1/2) + O(q^3)]"


@dataclass(frozen=True)
class _FrozenSeries:
    """The frozen dataclass QSeries was: construction must not be slower."""

    den: int
    val: int
    nums: tuple
    d: int
    prec: int


def test_series_construction_is_no_slower_than_a_frozen_dataclass():
    # seven rounds, each timing QSeries and then the dataclass, so that a
    # slow minute of a shared host falls on both sides
    times = {QSeries: [], _FrozenSeries: []}
    for _ in range(7):
        for cls, ts in times.items():
            ts.append(timeit.timeit(lambda: cls(1, 0, (1, 2), 1, 5), number=20_000))
    assert min(times[QSeries]) <= min(times[_FrozenSeries])
