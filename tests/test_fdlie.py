"""Structure-constant algebras: validation, constructors, series, quotients,
the dim L^2 = 1 recognition, and the JSON interchange format."""

import json
import random
from fractions import Fraction

import pytest

from nilmult import fdlie, freelie
from nilmult.exactlin import Subspace
from nilmult.fdlie import (
    LieAlgebra,
    NonIdealError,
    ValidationError,
    abelian,
    direct_sum,
    dumps,
    from_free_nilpotent,
    from_json_dict,
    heisenberg,
    loads,
    quotient,
    random_basis_change,
    recognize_derived_dim_one,
    series,
    to_json_dict,
    upper_centrals,
    validate,
)

F = Fraction


def sl2() -> LieAlgebra:
    # [e,f]=h, [e,h]=-2e, [f,h]=2f: simple, so the lower series never drops
    return LieAlgebra(
        "sl2", ("e", "f", "h"),
        {(0, 1): {2: F(1)}, (0, 2): {0: F(-2)}, (1, 2): {1: F(2)}},
    )


class TestValidate:
    def test_abelian_table(self):
        zero = [[{} for _ in range(3)] for _ in range(3)]
        L = validate("flat", ("a", "b", "c"), zero)
        assert L.dim == 3
        assert not any(L.entries())

    def test_antisymmetry_failure_location(self):
        table = [[{} for _ in range(3)] for _ in range(3)]
        table[0][1] = {2: 1}
        table[1][0] = {2: 1}  # should be -1
        with pytest.raises(ValidationError) as exc:
            validate("bad", ("e1", "e2", "e3"), table)
        assert "(1,2)" in str(exc.value)

    def test_nonzero_diagonal_rejected(self):
        table = [[{} for _ in range(2)] for _ in range(2)]
        table[1][1] = {0: 1}
        with pytest.raises(ValidationError):
            validate("bad", ("e1", "e2"), table)

    def test_jacobi_failure_reports_triple(self):
        # [[e2,e3],e1] + [[e3,e1],e2] = -2 e3 while [[e1,e2],e3] = 0
        table = [[{} for _ in range(3)] for _ in range(3)]
        table[0][1], table[1][0] = {2: 1}, {2: -1}
        table[0][2], table[2][0] = {0: 1}, {0: -1}
        table[1][2], table[2][1] = {1: 1}, {1: -1}
        with pytest.raises(ValidationError) as exc:
            validate("bad", ("e1", "e2", "e3"), table)
        assert "Jacobi" in str(exc.value)

    def test_heisenberg_two_table_valid(self):
        h = heisenberg(2)
        table = [
            [dict(h.bracket_basis(i, j)) for j in range(h.dim)]
            for i in range(h.dim)
        ]
        again = validate("H2-copy", h.basis_labels, table)
        assert again.fingerprint == h.fingerprint

    def test_dense_rows_accepted(self):
        table = [
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ]
        L = validate("dense", ("x", "y", "z"), table)
        assert L.bracket_basis(0, 1) == {2: 1}

    def test_sl2_is_valid_but_not_nilpotent(self):
        L = sl2()
        rep = series(L)
        assert not rep.is_nilpotent
        assert rep.lower[-1].rank == 3


class TestConstructors:
    def test_heisenberg_shape(self):
        for m in (1, 2, 3):
            h = heisenberg(m)
            assert h.dim == 2 * m + 1
            rep = series(h)
            assert rep.gamma(2).rank == 1
            assert rep.z(1) == rep.gamma(2)
            for i in range(m):
                assert h.bracket_basis(2 * i, 2 * i + 1) == {2 * m: 1}

    def test_heisenberg_rejects_zero(self):
        with pytest.raises(ValueError):
            heisenberg(0)

    def test_abelian_sum_is_abelian(self):
        s = direct_sum(abelian(2), abelian(3))
        assert s.dim == 5
        assert series(s).nilpotency_class == 1

    def test_heisenberg_plus_line(self):
        s = direct_sum(heisenberg(1), abelian(1))
        assert s.dim == 4
        assert series(s).gamma(2).rank == 1

    def test_direct_sum_commutes_in_dimension_data(self):
        a, b = heisenberg(1), abelian(2)
        left, right = direct_sum(a, b), direct_sum(b, a)
        assert left.dim == right.dim
        assert [g.rank for g in series(left).lower] == [g.rank for g in series(right).lower]
        assert [z.rank for z in series(left).upper] == [z.rank for z in series(right).upper]

    def test_direct_sum_associates_in_dimension_data(self):
        a, b, c = heisenberg(1), abelian(1), heisenberg(2)
        left = direct_sum(direct_sum(a, b), c)
        right = direct_sum(a, direct_sum(b, c))
        assert left.dim == right.dim
        assert [g.rank for g in series(left).lower] == [g.rank for g in series(right).lower]

    def test_relabelled_summands_stay_distinct(self):
        s = direct_sum(heisenberg(1), heisenberg(1))
        assert len(set(s.basis_labels)) == s.dim


class TestSeries:
    def test_abelian(self):
        rep = series(abelian(4))
        assert rep.nilpotency_class == 1
        assert rep.z(1) == Subspace.full(4)

    def test_heisenberg(self):
        rep = series(heisenberg(2))
        assert rep.nilpotency_class == 2
        assert [g.rank for g in rep.lower] == [5, 1, 0]
        assert [z.rank for z in rep.upper] == [1, 5]

    def test_free_nilpotent_two_four(self):
        L = from_free_nilpotent(freelie.free_nilpotent(2, 4))
        rep = series(L)
        assert rep.nilpotency_class == 4
        assert rep.gamma(3).rank == 5

    def test_lower_strictly_decreases_then_hits_zero(self, corpus):
        for L in corpus:
            ranks = [g.rank for g in series(L).lower]
            assert ranks[-1] == 0
            assert all(a > b for a, b in zip(ranks, ranks[1:]))

    def test_upper_strictly_increases_to_full(self, corpus):
        for L in corpus:
            ranks = [z.rank for z in series(L).upper]
            assert ranks[-1] == L.dim
            assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_upper_series_is_computed_when_read(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return upper_centrals(*args, **kwargs)

        monkeypatch.setattr(fdlie, "upper_centrals", counted)
        rep = series(heisenberg(2))
        assert rep.gamma(2).rank == 1
        assert rep.nilpotency_class == 2
        assert calls == []
        assert rep.z(1).rank == 1
        assert [z.rank for z in rep.upper] == [1, 5]
        assert rep.z(2).rank == 5
        assert calls == [5]

    def test_upper_centrals_step_limit(self):
        h = heisenberg(2)
        chain = upper_centrals(h.dim, list(h.entries()), steps=1)
        assert len(chain) == 1
        assert chain[0].rank == 1

    def test_z_beyond_stabilization(self):
        rep = series(abelian(2))
        assert rep.z(3) == Subspace.full(2)


class TestQuotient:
    def test_heisenberg_mod_derived_is_abelian_plane(self):
        h = heisenberg(1)
        q = quotient(h, series(h).gamma(2))
        assert q.dim == 2
        assert series(q).nilpotency_class == 1

    def test_quotient_by_zero_is_identity(self, h2):
        q = quotient(h2, Subspace.zero(h2.dim))
        assert q.fingerprint == h2.fingerprint

    def test_free_nilpotent_mod_gamma3_is_heisenberg(self):
        L = from_free_nilpotent(freelie.free_nilpotent(2, 4))
        q = quotient(L, series(L).gamma(3))
        assert q.dim == 3
        assert series(q).nilpotency_class == 2
        assert recognize_derived_dim_one(q) == (1, 0)

    def test_non_ideal_rejected_with_witness(self, h1):
        line = Subspace(h1.dim, [{0: 1}])  # span{x}, not an ideal
        with pytest.raises(NonIdealError) as exc:
            quotient(h1, line)
        assert exc.value.witness

    def test_series_commutes_with_quotient(self, corpus):
        for L in corpus:
            rep = series(L)
            ideal = Subspace(L.dim, [dict(rep.z(1).integer_rows()[0])])
            q = quotient(L, ideal)
            qrep = series(q)
            for k in range(1, len(rep.lower) + 1):
                expected = rep.gamma(k).sum(ideal).quotient_dim(ideal)
                assert qrep.gamma(k).rank == expected, (L.name, k)

    def test_full_quotient_is_trivial(self):
        a = abelian(1)
        q = quotient(a, Subspace.full(1))
        assert q.dim == 0
        assert series(q).nilpotency_class == 0


class TestRecognizeDerivedDimOne:
    def test_heisenberg_by_construction(self):
        assert recognize_derived_dim_one(heisenberg(2)) == (2, 0)

    def test_direct_sum_by_construction(self):
        L = direct_sum(heisenberg(1), abelian(3))
        assert recognize_derived_dim_one(L) == (1, 3)

    def test_scrambled_double_pair(self):
        L = LieAlgebra(
            "W", ("e1", "e2", "e3", "e4", "e5"),
            {(0, 1): {4: F(1)}, (2, 3): {4: F(1)}},
        )
        assert recognize_derived_dim_one(L) == (2, 0)
        scrambled = random_basis_change(L, random.Random(5), name="W-scrambled")
        assert recognize_derived_dim_one(scrambled) == (2, 0)

    def test_wrong_derived_dimension_rejected(self):
        with pytest.raises(ValueError):
            recognize_derived_dim_one(abelian(2))
        with pytest.raises(ValueError):
            recognize_derived_dim_one(from_free_nilpotent(freelie.free_nilpotent(2, 3)))

    def test_basis_invariance_randomized(self):
        rng = random.Random(113)
        shapes = [(1, 0), (1, 3), (1, 6), (2, 0), (2, 2), (3, 2)]
        trials = 0
        while trials < 100:
            m, r = shapes[trials % len(shapes)]
            L = direct_sum(heisenberg(m), abelian(r)) if r else heisenberg(m)
            assert L.dim <= 9
            moved = random_basis_change(L, rng, name=f"{L.name}#{trials}")
            assert recognize_derived_dim_one(moved) == (m, r), (m, r, trials)
            trials += 1


class TestJson:
    def test_round_trip_corpus(self, corpus):
        for L in corpus:
            back = loads(dumps(L))
            assert back.name == L.name
            assert back.basis_labels == L.basis_labels
            assert back.fingerprint == L.fingerprint

    def test_round_trip_is_textually_stable(self, h2):
        text = dumps(h2)
        assert dumps(loads(text)) == text

    def test_fractional_coefficients(self):
        L = LieAlgebra("frac", ("a", "b", "c"), {(0, 1): {2: F(2, 3)}})
        back = loads(dumps(L))
        assert back.bracket_basis(0, 1) == {2: F(2, 3)}
        assert '"2/3"' in dumps(L)

    def test_indices_are_zero_based(self):
        obj = {
            "name": "tiny", "dim": 3, "basis": ["p", "q", "r"],
            "brackets": [{"i": 0, "j": 1, "value": [[2, "1"]]}],
        }
        L = from_json_dict(obj)
        assert L.bracket_basis(0, 1) == {2: 1}

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda o: o.pop("brackets"), "missing field"),
            (lambda o: o.__setitem__("dim", 4), "basis"),
            (lambda o: o["brackets"][0].__setitem__("i", 1), "i < j"),
            (lambda o: o["brackets"][0].__setitem__("i", True), "integers"),
            (lambda o: o["brackets"][0].__setitem__("j", 7), "out of range"),
            (lambda o: o["brackets"].append({"i": 0, "j": 1, "value": []}), "duplicate pair"),
            (lambda o: o["brackets"][0].__setitem__("value", [[2, "1"], [2, "1"]]), "duplicate index"),
            (lambda o: o["brackets"][0].__setitem__("value", [[5, "1"]]), "out of range"),
            (lambda o: o["brackets"][0].__setitem__("value", [[2, 0.5]]), "rational string"),
            (lambda o: o["brackets"][0].__setitem__("value", [[2, "0.5"]]), "rational string"),
            (lambda o: o["brackets"][0].__setitem__("value", [[2, "1/-2"]]), "rational string"),
            (lambda o: o["brackets"][0].__setitem__("value", [[2, "0"]]), "zero coefficient"),
        ],
    )
    def test_strict_rejections(self, mutate, fragment):
        obj = {
            "name": "tiny", "dim": 3, "basis": ["p", "q", "r"],
            "brackets": [{"i": 0, "j": 1, "value": [[2, "1"]]}],
        }
        mutate(obj)
        with pytest.raises(ValidationError) as exc:
            from_json_dict(json.loads(json.dumps(obj)))
        assert fragment in str(exc.value)

    def test_parsed_tables_are_still_axiom_checked(self):
        obj = {
            "name": "bad", "dim": 3, "basis": ["a", "b", "c"],
            "brackets": [
                {"i": 0, "j": 1, "value": [[2, "1"]]},
                {"i": 0, "j": 2, "value": [[0, "1"]]},
                {"i": 1, "j": 2, "value": [[1, "1"]]},
            ],
        }
        with pytest.raises(ValidationError) as exc:
            from_json_dict(obj)
        assert "Jacobi" in str(exc.value)

    def test_invalid_json_text(self):
        with pytest.raises(ValidationError):
            loads("{not json")

    def test_to_json_dict_sorts_entries(self, h2):
        obj = to_json_dict(h2)
        pairs = [(e["i"], e["j"]) for e in obj["brackets"]]
        assert pairs == sorted(pairs)


class TestRandomBasisChange:
    def test_preserves_series_data(self, h2):
        rng = random.Random(31)
        for t in range(5):
            moved = random_basis_change(h2, rng, name=f"H2-{t}")
            assert [g.rank for g in series(moved).lower] == [5, 1, 0]

    def test_isomorphic_not_identical(self, h2):
        moved = random_basis_change(h2, random.Random(8), name="H2-moved")
        assert moved.dim == h2.dim
        assert moved.fingerprint != h2.fingerprint  # the change of basis shows
