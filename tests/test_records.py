"""The package's report records: frozen, equal by value within their own
class only, hashed and shown by their compared fields; the plain reports
survive pickle, copy and deepcopy."""

import copy
import pickle
import weakref

import pytest

from nilmult import fdlie, multiplier
from nilmult.multiplier import BoundReport, MultiplierReport
from nilmult.verify import VerifyCase

PLAIN = [
    (
        MultiplierReport(2, 5, ("[y,x,x]", "[y,x,y]")),
        (2, 5, ("[y,x,x]", "[y,x,y]")),
        "MultiplierReport(c=2, dimension=5, basis_words=('[y,x,x]', '[y,x,y]'))",
    ),
    (
        BoundReport(algebra="H(1)", n=3, m=1, dim_m2=5, dim_l3=0, value=5, eq1=8, refined=5),
        ("H(1)", 3, 1, 5, 0, 5, 8, 5),
        "BoundReport(algebra='H(1)', n=3, m=1, dim_m2=5, dim_l3=0, value=5, eq1=8, refined=5)",
    ),
    (
        VerifyCase("x", "d", "p", expected=(1, 2), computed=[3]),
        ("x", "d", "p", (1, 2), [3]),
        "VerifyCase(id='x', description='d', provenance='p', expected=(1, 2), computed=[3])",
    ),
]
PLAIN_IDS = ["MultiplierReport", "BoundReport", "VerifyCase"]


@pytest.mark.parametrize("record, values, text", PLAIN, ids=PLAIN_IDS)
class TestPlainRecords:
    def test_fields_in_order(self, record, values, text):
        names = {
            MultiplierReport: ("c", "dimension", "basis_words"),
            BoundReport: ("algebra", "n", "m", "dim_m2", "dim_l3", "value", "eq1", "refined"),
            VerifyCase: ("id", "description", "provenance", "expected", "computed"),
        }[type(record)]
        assert tuple(getattr(record, name) for name in names) == values
        assert type(record)(*values) == record
        assert type(record)(**dict(zip(names, values))) == record

    def test_frozen(self, record, values, text):
        name = {MultiplierReport: "c", BoundReport: "n", VerifyCase: "id"}[type(record)]
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert type(record)(*values) == record

    def test_equal_by_value_within_the_class(self, record, values, text):
        assert record == type(record)(*values)
        assert not record != type(record)(*values)
        assert record != values
        assert record.__eq__(values) is NotImplemented
        assert record != type(record)(*values[:-1], "other")
        # a record of another class with the same values is not equal
        other = next(r for r, _, _ in PLAIN if type(r) is not type(record))
        assert record.__eq__(other) is NotImplemented

    def test_hash_and_repr(self, record, values, text):
        assert repr(record) == text
        if type(record) is VerifyCase:  # a list value is unhashable, as in a tuple
            with pytest.raises(TypeError):
                hash(record)
            record = VerifyCase(*values[:-1], 3)
            values = (*values[:-1], 3)
        assert hash(record) == hash(values)
        assert hash(record) == hash(type(record)(*values))

    def test_pickle_copy_deepcopy(self, record, values, text):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record) and again == record
        assert copy.copy(record) == record
        deep = copy.deepcopy(record)
        assert deep == record
        assert repr(deep) == text
        with pytest.raises(AttributeError):
            deep.extra = 1

    def test_weak_reference(self, record, values, text):
        assert weakref.ref(record)() is record


def test_verify_case_status():
    assert VerifyCase("a", "d", "p", 1, 1).status == "pass"
    assert VerifyCase("a", "d", "p", 1, 2).status == "fail"
    assert pickle.loads(pickle.dumps(VerifyCase("a", "d", "p", 1, 2))).status == "fail"


def test_bound_report_properties():
    rep = multiplier.bound_report(fdlie.heisenberg(1))
    assert rep == BoundReport("H(1)", 3, 1, 5, 0, 5, 8, 5)
    assert (rep.eq1_slack, rep.refined_slack, rep.is_abelian, rep.saturates_eq1) == (3, 0, False, False)


class TestSeriesReport:
    def test_equality_ignores_the_algebra(self):
        a = fdlie.series(fdlie.heisenberg(1))
        b = fdlie.series(fdlie.LieAlgebra("other", ["p", "q", "r"], {(0, 1): {2: 1}}))
        assert a.algebra is not b.algebra
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.lower, a.nilpotency_class))
        assert a != fdlie.series(fdlie.abelian(3))
        assert a != (a.lower, a.nilpotency_class)

    def test_repr_leaves_out_the_algebra(self):
        rep = fdlie.series(fdlie.heisenberg(1))
        assert repr(rep) == (
            "SeriesReport(lower=(Subspace(dim 3 of Q^3), Subspace(dim 1 of Q^3), "
            "Subspace(dim 0 of Q^3)), nilpotency_class=2)"
        )

    def test_frozen_with_a_cached_upper_series(self):
        rep = fdlie.series(fdlie.heisenberg(1))
        assert rep.upper is rep.upper
        assert [z.rank for z in rep.upper] == [1, 3]
        for name in ("lower", "nilpotency_class", "algebra"):
            with pytest.raises(AttributeError):
                setattr(rep, name, None)
        with pytest.raises(AttributeError):
            rep.extra = 1


class TestPresentation:
    def test_equal_only_to_itself(self):
        pres = multiplier.present(fdlie.heisenberg(1), 2)
        twin = multiplier.Presentation(
            pres.ambient, pres.short_relations, pres.k, pres.c, pres.algebra, pres.images, pres.closure
        )
        assert pres == pres and pres != twin
        assert hash(pres) == object.__hash__(pres)
        assert hash(twin) != hash(pres)

    def test_frozen_with_cached_results(self):
        pres = multiplier.present(fdlie.heisenberg(1), 2)
        assert pres.multiplier is pres.multiplier
        assert pres.closure is pres.closure
        assert pres.epicenter is pres.epicenter
        for name in ("ambient", "k", "c", "images", "closure"):
            with pytest.raises(AttributeError):
                setattr(pres, name, None)

    def test_repr_leaves_out_images_and_closure(self):
        pres = multiplier.present(fdlie.heisenberg(1), 2)
        assert repr(pres) == (
            f"Presentation(ambient={pres.ambient!r}, short_relations={pres.short_relations!r}, "
            "k=2, c=2, algebra=LieAlgebra('H(1)', dim=3))"
        )
        assert repr(pres.ambient) == "FreeNilpotentAlgebra(rank=2, class=4, dim=8)"

    def test_rank_nullity_is_checked(self):
        pres = multiplier.present(fdlie.heisenberg(1), 2)
        with pytest.raises(multiplier.PresentationError):
            multiplier.Presentation(
                pres.ambient, pres.short_relations, pres.k, pres.c, fdlie.abelian(2), pres.images, pres.closure
            )
