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

import oracles

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
            calls.append(args[0].dim)
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
        chain = upper_centrals(h)
        assert [z.rank for z in chain] == [1, 5]
        assert series(h).z(1).rank == 1

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

    def test_table_matches_brackets_reduced_modulo_the_ideal(self):
        # in a random basis the ideal's rows have pivot entries other than 1;
        # with each summand of H(1)⊕H(1) in its own random basis, only the
        # first summand's brackets hit the pivot of a central line, so the
        # kept brackets leave their residues at unequal scales
        def central_line(rep, rng):
            rows = rep.z(1).integer_rows()
            combo = {}
            for row in rows:
                k = rng.choice((1, 2, -3))
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + k * v
            return Subspace(rep.algebra.dim, [combo])

        h2a1 = direct_sum(heisenberg(2), abelian(1))
        n24 = from_free_nilpotent(freelie.free_nilpotent(2, 4))
        shapes = [
            (lambda rng: random_basis_change(h2a1, rng), central_line),
            (lambda rng: random_basis_change(n24, rng), lambda rep, rng: rep.gamma(3)),
            (
                lambda rng: direct_sum(*(random_basis_change(heisenberg(1), rng) for _ in range(2))),
                central_line,
            ),
        ]
        non_unit = 0
        for moved_of, ideal_of in shapes:
            for seed in range(30):
                rng = random.Random(seed)
                moved = moved_of(rng)
                ideal = ideal_of(series(moved), rng)
                non_unit += any(r[min(r)] != 1 for r in ideal.integer_rows())
                q = quotient(moved, ideal)
                keep = [c for c in range(moved.dim) if c not in ideal.pivots]
                assert q.dim == len(keep)
                for a in range(len(keep)):
                    for b in range(a + 1, len(keep)):
                        residual = oracles.reduce_by_every_pivot(ideal, moved.bracket_basis(keep[a], keep[b]))
                        assert q.bracket_basis(a, b) == {keep.index(c): v for c, v in residual.items()}
        assert non_unit >= 45

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


class TestBoolRefused:
    """A bool used as a basis index or a coefficient is refused on the way
    in, so what ``dumps`` writes ``loads`` reads back."""

    labels = ("x", "y", "z")

    def test_bool_index_and_coefficient(self):
        with pytest.raises(ValidationError, match="index True is not an int"):
            LieAlgebra("b", self.labels, {(0, 1): {True: True}})
        with pytest.raises(TypeError, match="got bool"):
            LieAlgebra("b", self.labels, {(0, 1): {1: True}})
        with pytest.raises(ValidationError, match="must be ints"):
            LieAlgebra("b", self.labels, {(False, 1): {1: 1}})
        with pytest.raises(TypeError, match="got bool"):
            validate("b", self.labels, [[[0, 0, 0], [0, True, 0], [0, 0, 0]]] * 3)

    def test_dumps_loads_round_trip(self):
        # the algebra {True: True} was read as: [x, y] = y
        L = LieAlgebra("b", self.labels, {(0, 1): {1: 1}})
        text = dumps(L)
        assert "true" not in text
        back = loads(text)
        assert back.fingerprint == L.fingerprint and dumps(back) == text


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


class TestIntegerTable:
    """LieAlgebra keeps integer numerators over one denominator; its rational
    views and checks are compared with Fraction references."""

    @staticmethod
    def mixed() -> LieAlgebra:
        # [a,b] = c/2 - 2d/3, [a,c] = 5d/7: class 3, denominators 2, 3, 7
        return LieAlgebra(
            "mixed", ("a", "b", "c", "d"), {(0, 1): {2: F(1, 2), 3: F(-2, 3)}, (0, 2): {3: F(5, 7)}}
        )

    def test_views_round_trip_mixed_denominators(self):
        L = self.mixed()
        assert L.den == 42
        assert L.bracket_basis(0, 1) == {2: F(1, 2), 3: F(-2, 3)}
        assert L.bracket_basis(1, 0) == {2: F(-1, 2), 3: F(2, 3)}
        assert L.bracket_basis(2, 0) == {3: F(-5, 7)}
        assert L.bracket_basis(1, 2) == {} and L.bracket_basis(3, 3) == {}
        assert list(L.entries()) == [(0, 1, {2: F(1, 2), 3: F(-2, 3)}), (0, 2, {3: F(5, 7)})]
        assert all(type(v) is Fraction for _, _, combo in L.entries() for v in combo.values())
        assert L.bracket_vectors({0: 3}, {1: F(1, 3), 2: 7}) == {2: F(1, 2), 3: F(43, 3)}
        text = dumps(L)
        assert '"-2/3"' in text and '"5/7"' in text
        back = loads(text)
        assert back.fingerprint == L.fingerprint
        assert list(back.entries()) == list(L.entries())
        assert dumps(back) == text

    def test_constructions_make_no_fraction(self, fractions_built):
        mixed = self.mixed()
        with fractions_built() as built:
            N = from_free_nilpotent(freelie.FreeNilpotentAlgebra(2, 4))
            moved = random_basis_change(mixed, random.Random(5))
            summed = direct_sum(moved, N)
            cut = quotient(summed, series(summed).gamma(3))
        assert built == []
        assert (N.den, moved.den > 1, summed.den > 1, cut.den > 1) == (1, True, True, True)

    def test_constructions_store_the_least_denominator(self):
        # [x, y] = 2z/3 modulo the central line 2z + u, where z = -u/2, is
        # -u/3: the residue's scale 2 times den 3 shares a 2 with the
        # numerator -2, and the stored denominator is 3, not 6
        t = direct_sum(LieAlgebra("t", ("x", "y", "z"), {(0, 1): {2: F(2, 3)}}), abelian(1))
        line = Subspace(4, [{2: 2, 3: 1}])
        cut = quotient(t, line)
        assert line.integer_rows() == ({2: 2, 3: 1},)
        assert (cut.den, list(cut.entries())) == (3, [(0, 1, {2: F(-1, 3)})])
        moved = random_basis_change(self.mixed(), random.Random(5))
        built = [
            cut,
            moved,
            quotient(moved, series(moved).gamma(3)),
            direct_sum(moved, random_basis_change(heisenberg(1), random.Random(6))),
        ]
        for L in built:
            assert L.den > 1
            text = dumps(L)
            twins = [loads(text), LieAlgebra(L.name, L.basis_labels, {(i, j): c for i, j, c in L.entries()})]
            for twin in twins:
                assert (twin.fingerprint, dumps(twin)) == (L.fingerprint, text)

    def test_integer_table_is_read_as_ints(self, monkeypatch):
        # an integer table makes no Fraction on its way into the algebra
        made, as_fraction = [], fdlie._as_fraction
        monkeypatch.setattr(fdlie, "_as_fraction", lambda x: made.append(x) or as_fraction(x))
        free = freelie.free_nilpotent(3, 3)
        L = from_free_nilpotent(free)
        assert made == [] and L.den == 1 and L._num == free.products()
        assert all(type(v) is int for combo in L._num.values() for v in combo.values())
        # an integral Fraction is kept as its int numerator
        L = LieAlgebra("h", ("x", "y", "z"), {(0, 1): {2: F(4, 2)}})
        assert made == [F(2)] and L.den == 1 and type(L._num[(0, 1)][2]) is int
        with pytest.raises(TypeError, match="float"):
            LieAlgebra("bad", ("x", "y", "z"), {(0, 1): {2: 0.5}})
        with pytest.raises(ValidationError, match="out of range"):
            LieAlgebra("bad", ("x", "y", "z"), {(0, 1): {3: 1}})

    def test_equal_tables_have_equal_fingerprints(self):
        labels = ("x", "y", "z")
        half = [
            LieAlgebra("a", labels, {(0, 1): {2: F(1, 2)}}),
            LieAlgebra("b", labels, {(0, 1): {2: F(2, 4)}, (0, 2): {}}),
            validate("c", labels, [[{}, {2: F(1, 2)}, {}], [{2: F(-1, 2)}, {}, {}], [{}, {}, {}]]),
            validate("d", labels, [
                [[0, 0, 0], [0, 0, F(1, 2)], [0, 0, 0]],
                [[0, 0, F(-1, 2)], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            ]),
        ]
        for text in ("2/4", "1/2"):
            obj = {"name": "e", "dim": 3, "basis": list(labels),
                   "brackets": [{"i": 0, "j": 1, "value": [[2, text]]}]}
            half.append(from_json_dict(obj))
        assert len({L.fingerprint for L in half}) == 1
        one = [LieAlgebra("f", labels, {(0, 1): {2: v}}) for v in (1, F(1), F(3, 3))]
        assert len({L.fingerprint for L in one}) == 1
        assert one[0].fingerprint != half[0].fingerprint

    def test_jacobi_check_matches_full_scan(self):
        rng = random.Random(2024)
        shapes = [
            heisenberg(2),
            direct_sum(heisenberg(1), abelian(3)),
            from_free_nilpotent(freelie.free_nilpotent(2, 4)),
            sl2(),
            self.mixed(),
        ]
        failures = 0
        for t in range(150):
            L = shapes[t % len(shapes)]
            if t % 3:
                L = random_basis_change(L, rng)
            table = {(i, j): dict(combo) for i, j, combo in L.entries()}
            for _ in range(t % 4):  # t % 4 == 0 leaves the table valid
                if table and rng.random() < 0.3:
                    del table[rng.choice(sorted(table))]
                    continue
                i, j = sorted(rng.sample(range(L.dim), 2))
                combo = table.setdefault((i, j), {})
                k = rng.randrange(L.dim)
                combo[k] = combo.get(k, 0) + F(rng.choice((-1, 1)), rng.randint(1, 3))
            expected = oracles.jacobi_failure_by_full_scan(oracles.unchecked("p", L.basis_labels, table))
            if expected is None:
                LieAlgebra("p", L.basis_labels, table)
                continue
            failures += 1
            with pytest.raises(ValidationError) as exc:
                LieAlgebra("p", L.basis_labels, table)
            assert exc.value.location == expected, t
        assert 50 < failures < 150

    def test_check_visits_only_triples_with_a_bracket(self, monkeypatch):
        calls = []
        ibracket = LieAlgebra._ibracket

        def counted(self, x, y):
            calls.append(1)
            return ibracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "_ibracket", counted)
        assert loads(dumps(abelian(300))).dim == 300
        assert calls == []
        assert loads(dumps(heisenberg(40))).fingerprint == heisenberg(40).fingerprint

    def test_basis_change_matches_gauss_jordan_reference(self):
        shapes = [
            heisenberg(2),
            from_free_nilpotent(freelie.free_nilpotent(2, 4)),
            direct_sum(heisenberg(1), abelian(3)),
        ]
        for L in shapes:
            for seed in range(3):
                moved = random_basis_change(L, random.Random(seed))
                table = oracles.basis_change_by_gauss_jordan(L, random.Random(seed))
                assert moved.fingerprint == LieAlgebra("ref", moved.basis_labels, table).fingerprint

    def test_upper_centrals_match_fraction_reference(self):
        rng = random.Random(77)
        shapes = [
            heisenberg(2),
            from_free_nilpotent(freelie.free_nilpotent(2, 4)),
            direct_sum(heisenberg(1), abelian(2)),
            self.mixed(),
        ]
        tables = []
        for L in shapes:
            moved = random_basis_change(L, rng)
            tables.append((moved.basis_labels, list(moved.entries())))
            # each pair rescaled on its own: no longer a Lie bracket, but a
            # bilinear table with unrelated denominators, some entries int
            tables.append((moved.basis_labels, [
                (i, j, {k: v * F(rng.choice((1, -2, 3)), rng.randint(1, 5)) for k, v in combo.items()})
                for i, j, combo in moved.entries()
            ]))
            tables.append((moved.basis_labels, [(i, j, {k: 2 for k in combo}) for i, j, combo in moved.entries()]))
        # a bilinear table whose Z_2 is wrong unless the brackets modulo
        # Z_1 are brought to one scale before the centre is solved
        tables.append((("a", "b", "c", "d"), [(0, 1, {3: -1}), (0, 2, {1: -2, 3: -1}), (0, 3, {3: -2})]))
        # non-nilpotent algebras, whose series stops short of L: aff(1),
        # sl2⊕A(1), and t acting on H(1) by diag(1, −1), alone and ⊕H(1)
        t_h1 = LieAlgebra("t⋉H(1)", ("t", "x", "y", "z"), {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {3: 1}})
        for L, ranks in ((two_dim_nonabelian(), [0]), (direct_sum(sl2(), abelian(1)), [1]),
                         (t_h1, [1]), (direct_sum(t_h1, heisenberg(1)), [2, 4])):
            for moved in (L, random_basis_change(L, rng)):
                assert [Z.rank for Z in series(moved).upper] == ranks, moved.name
                tables.append((moved.basis_labels, list(moved.entries())))
        for labels, entries in tables:
            brackets = {(i, j): combo for i, j, combo in entries}
            table = oracles.unchecked("t", labels, brackets)
            rep = series(table)
            assert list(rep.upper) == oracles.upper_centrals_by_fractions(len(labels), entries)
            for steps in (1, 2, 3):
                assert [rep.z(t) for t in range(1, steps + 1)] == \
                    oracles.upper_centrals_by_fractions(len(labels), entries, steps)

    def test_lower_series_skips_zero_brackets(self, monkeypatch):
        calls = []
        ibracket = LieAlgebra._ibracket

        def counted(self, x, y):
            calls.append(1)
            return ibracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "_ibracket", counted)
        L = loads(dumps(abelian(300)))
        assert [g.rank for g in series(L).lower] == [300, 0]
        assert calls == []

    def test_lower_series_matches_fraction_reference(self):
        rng = random.Random(78)
        shapes = [
            heisenberg(2),
            from_free_nilpotent(freelie.FreeNilpotentAlgebra(2, 4)),
            direct_sum(heisenberg(1), from_free_nilpotent(freelie.FreeNilpotentAlgebra(2, 3))),
            direct_sum(heisenberg(1), abelian(2)),
            self.mixed(),
            sl2(),
        ]
        for L in shapes:
            for moved in (L, random_basis_change(L, rng)):
                assert series(moved).lower == tuple(oracles.lower_centrals_by_fractions(moved)), L.name


def two_dim_nonabelian() -> LieAlgebra:
    # [x, y] = y: solvable, γ₂ = γ₃ = span{y}
    return LieAlgebra("aff1", ("x", "y"), {(0, 1): {1: F(1)}})


def generated_not_nilpotent() -> LieAlgebra:
    # [x, y] = z, [x, z] = z: x and y generate, but γ_t = span{z} for t >= 2
    return LieAlgebra("xz", ("x", "y", "z"), {(0, 1): {2: F(1)}, (0, 2): {2: F(1)}})


class TestGeneratingSeries:
    """The lower central series bracketed against a generating set, against
    the all-pairs series it replaced."""

    @staticmethod
    def shapes() -> list[LieAlgebra]:
        N23 = from_free_nilpotent(freelie.FreeNilpotentAlgebra(2, 3), "N(2,3)")
        small = [abelian(0), abelian(3), sl2(), two_dim_nonabelian(), generated_not_nilpotent(),
                 direct_sum(sl2(), N23)]
        rng = random.Random(1414)
        moved = [random_basis_change(L, rng) for L in small if L.dim]
        return small + moved + oracles.truncation_shapes()

    def test_matches_all_pairs_series(self):
        for L in self.shapes():
            got = fdlie._lower_centrals(L)
            assert [g.integer_rows() for g in got] == \
                [g.integer_rows() for g in oracles.lower_centrals_by_all_pairs(L)], L.name

    def test_not_nilpotent_error_is_unchanged(self):
        stable = {"sl2": 3, "aff1": 1, "xz": 1, "sl2⊕N(2,3)": 3}
        rng = random.Random(1515)
        N23 = from_free_nilpotent(freelie.FreeNilpotentAlgebra(2, 3), "N(2,3)")
        for L in (sl2(), two_dim_nonabelian(), generated_not_nilpotent(), direct_sum(sl2(), N23)):
            dim = stable[L.name]
            for A in (L, random_basis_change(L, rng, name=L.name)):
                with pytest.raises(fdlie.NotNilpotentError) as exc:
                    fdlie.nilpotent_series(A)
                assert str(exc.value) == \
                    f"{L.name} is not nilpotent: lower central series stabilises at dimension {dim}"
                assert exc.value.stabilized == oracles.lower_centrals_by_all_pairs(A)[-1]

    @pytest.mark.parametrize("d, k, budget", [(2, 4, 74), (3, 3, 193)])
    def test_insert_budget(self, d, k, budget, monkeypatch):
        # the table values, then d brackets per generated row and per row of
        # each term: (stored pairs) + d·(dim L + 1 + Σ_{t≥2} rank γ_t); the
        # all-pairs series makes 168 and 448
        L = random_basis_change(from_free_nilpotent(freelie.free_nilpotent(d, k)), random.Random(d + k))
        calls = []
        insert = fdlie._Spanner.insert
        monkeypatch.setattr(fdlie._Spanner, "insert", lambda self, v: calls.append(1) or insert(self, v))
        lower = fdlie._lower_centrals(L)
        assert budget == len(L._num) + d * (L.dim + 1 + sum(g.rank for g in lower[1:]))
        assert 0 < len(calls) <= budget


class TestJacobiParity:
    def test_matches_the_two_bracket_scan(self):
        # random-basis tables, three in four with one perturbed coefficient;
        # the stored-pair check raises what the two-bracket scan finds,
        # or accepts with it
        rng = random.Random(1616)
        shapes = [
            from_free_nilpotent(freelie.free_nilpotent(2, 4)),
            from_free_nilpotent(freelie.free_nilpotent(3, 3)),
            from_free_nilpotent(freelie.free_nilpotent(2, 3)),
            heisenberg(2),
        ]
        rejected = 0
        for t in range(160):
            L = random_basis_change(shapes[t // 4 % 4], rng)
            table = {(i, j): dict(combo) for i, j, combo in L.entries()}
            if t % 4:
                i, j = sorted(rng.sample(range(L.dim), 2))
                combo = table.setdefault((i, j), {})
                k = rng.randrange(L.dim)
                combo[k] = combo.get(k, 0) + F(rng.choice((-1, 1)), rng.randint(1, 3))
            expected = oracles.jacobi_failure_by_brackets(oracles.unchecked("p", L.basis_labels, table))
            if expected is None:
                LieAlgebra("p", L.basis_labels, table)
                continue
            rejected += 1
            with pytest.raises(ValidationError) as exc:
                LieAlgebra("p", L.basis_labels, table)
            assert (str(exc.value), exc.value.location) == expected, t
        assert 100 <= rejected <= 120


class TestPackedJacobi:
    """The packed check against the rational full scan, on random-basis
    tables scaled to entries of each size the packed fields must hold: each
    table as it is, then with one entry moved in the lowest field (column 0)
    or in the highest (column n − 1)."""

    MAGNITUDES = (1, 2**62, 2**64, 2**200)

    def test_matches_full_scan_at_every_magnitude(self):
        rng = random.Random(2525)
        shapes = [
            heisenberg(2),
            direct_sum(heisenberg(1), abelian(2)),
            from_free_nilpotent(freelie.free_nilpotent(2, 3)),
            from_free_nilpotent(freelie.free_nilpotent(3, 2)),
        ]
        outcomes = {True: 0, False: 0}
        opposite = set()  # magnitudes with opposite signs in adjacent fields
        for L in shapes:
            n = L.dim
            for M in self.MAGNITUDES:
                base = {(i, j): {k: v * M for k, v in combo.items()}
                        for i, j, combo in random_basis_change(L, rng).entries()}
                if any(combo.get(q, 0) * combo.get(q + 1, 0) < 0 for combo in base.values() for q in range(n - 1)):
                    opposite.add(M)
                tables = [base]
                for q in (0, n - 1):
                    for delta in (1, M):
                        table = {pair: dict(combo) for pair, combo in base.items()}
                        combo = table.setdefault(tuple(sorted(rng.sample(range(n), 2))), {})
                        combo[q] = combo.get(q, 0) + rng.choice((-1, 1)) * delta
                        tables.append(table)
                for t, table in enumerate(tables):
                    expected = oracles.jacobi_failure_by_full_scan(oracles.unchecked("p", L.basis_labels, table))
                    outcomes[expected is None] += 1
                    if expected is None:
                        LieAlgebra("p", L.basis_labels, table)
                        continue
                    with pytest.raises(ValidationError) as exc:
                        LieAlgebra("p", L.basis_labels, table)
                    assert exc.value.location == expected, (L, M, t)
        assert opposite == set(self.MAGNITUDES)
        # every unmoved table is valid, and every moved one fails
        assert outcomes == {True: 16, False: 64}

    @pytest.mark.parametrize("s", [3, 32, 100])
    def test_a_defect_that_narrow_fields_would_cancel(self, s):
        # [e1, e2] = e1 + 2^s·e2 and [e1, e3] = 2^s·e1 + e3 give the triple
        # (1,2,3) the Jacobi sum (0, −2^(2s), 1), which packs to 0 in fields
        # of 2s bits; the fields of the check are wider than the sum can reach
        table = {(0, 1): {0: 1, 1: 2**s}, (0, 2): {0: 2**s, 2: 1}}
        assert oracles.jacobi_failure_by_full_scan(oracles.unchecked("p", "abc", table)) == (1, 2, 3)
        with pytest.raises(ValidationError) as exc:
            LieAlgebra("p", ("a", "b", "c"), table)
        assert exc.value.location == (1, 2, 3)
