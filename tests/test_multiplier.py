"""Free presentations, nilpotent multipliers, epicenters, and the closed-form
oracles they are checked against."""

import random
import sys
from fractions import Fraction

import pytest

from nilmult import fdlie, multiplier
from nilmult.exactlin import Subspace
from nilmult.fdlie import LieAlgebra, NotNilpotentError, abelian, direct_sum, heisenberg, series
from nilmult.freelie import DIM_CAP, free_nilpotent, witt
from nilmult.multiplier import (
    BoundReport,
    Presentation,
    PresentationError,
    abelian_m2,
    bound_report,
    derived_dim_one_m2,
    direct_sum_m2,
    eq1_bound,
    formula_oracle,
    heisenberg_m2,
    is_capable,
    is_two_capable,
    nilpotent_multiplier,
    present,
    random_lift,
    refined_bound,
    report,
    schur_heisenberg,
    subideal_bracket,
    z_star,
)

import oracles

F = Fraction


def sl2() -> LieAlgebra:
    return LieAlgebra(
        "sl2", ("e", "f", "h"),
        {(0, 1): {2: F(1)}, (0, 2): {0: F(-2)}, (1, 2): {1: F(2)}},
    )


class TestPresent:
    def test_heisenberg_one_weight_two(self, h1):
        pres = present(h1, 2)
        assert pres.ambient is free_nilpotent(2, 4)
        assert pres.relations.rank == 8 - 3
        # the canonical lift realizes the relations as exactly the weight >= 3 part
        assert pres.relations == pres.ambient.gamma(3)

    def test_single_generator(self):
        pres = present(abelian(1), 1)
        assert pres.ambient.dim == 1
        assert pres.relations.rank == 0

    def test_abelian_plane_weight_two(self):
        pres = present(abelian(2), 2)
        assert pres.ambient is free_nilpotent(2, 3)
        assert pres.relations.rank == witt(2, 2) + witt(2, 3)

    def test_onto_map_is_surjective(self, corpus):
        for L in corpus:
            pres = present(L, 1)
            assert len(pres.images) == pres.ambient.dim
            assert Subspace(L.dim, pres.images) == Subspace.full(L.dim)

    def test_relations_contain_deep_stratum(self, corpus):
        for L in corpus:
            k = series(L).nilpotency_class
            pres = present(L, 2)
            assert pres.relations.contains_subspace(pres.ambient.gamma(k + 1))

    def test_dimension_bookkeeping(self, corpus):
        for L in corpus:
            pres = present(L, 1)
            assert pres.ambient.dim - pres.relations.rank == L.dim

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NotNilpotentError) as exc:
            present(sl2(), 1)
        assert exc.value.stabilized.rank == 3

    def test_lift_with_wrong_count(self, h1):
        with pytest.raises(ValueError):
            present(h1, 1, lift=[{0: F(1)}])

    def test_dependent_lift_rejected(self, h2):
        # regression: components inside L^2 must not mask a dependence mod L^2
        bad = [
            {0: F(1), 1: F(-1), 3: F(1), 4: F(2)},
            {1: F(1), 0: F(-1), 2: F(-1), 3: F(1), 4: F(-2)},
            {2: F(1), 0: F(1), 1: F(-1), 3: F(-1), 4: F(-1)},
            {3: F(1), 0: F(2), 1: F(2)},
        ]
        with pytest.raises(ValueError, match="span L modulo"):
            present(h2, 1, lift=bad)

    def test_trivial_algebra(self):
        zero = LieAlgebra("0", (), {})
        pres = present(zero, 2)
        assert pres.ambient.dim == 0
        assert pres.relations.rank == 0

    def test_images_vanish_beyond_the_class(self, corpus):
        for L in corpus:
            k = series(L).nilpotency_class
            pres = present(L, 2)
            assert len(pres.images) == pres.ambient.dim, L.name
            for w in pres.ambient.basis:
                assert bool(pres.images[w.key]) <= (w.length <= k), (L.name, str(w))

    def test_wrong_class_raises_presentation_error(self, h1, monkeypatch):
        # a class-1 report for H(1) makes [x, y] a length-(k+1) word whose
        # image must vanish; it does not, and that is an error, not an assert
        monkeypatch.setattr(multiplier, "series", lambda L: series(abelian(3)))
        with pytest.raises(PresentationError, match="length-2"):
            present(h1, 1, dim_cap=DIM_CAP + 1)

    def test_rank_nullity_is_enforced(self, h1):
        pres = present(h1, 1)
        with pytest.raises(PresentationError, match="rank-nullity"):
            Presentation(pres.ambient, Subspace.zero(pres.ambient.dim), 1, h1, pres.images)


class TestSubidealBracket:
    def test_gamma3_twice_vanishes_in_class_four(self):
        amb = free_nilpotent(2, 4)
        assert subideal_bracket(amb.gamma(3), amb, 2).is_zero

    def test_zero_stays_zero(self):
        amb = free_nilpotent(2, 3)
        z = Subspace.zero(amb.dim)
        for depth in range(4):
            assert subideal_bracket(z, amb, depth).is_zero

    def test_full_ambient_brackets_to_derived(self):
        amb = free_nilpotent(2, 2)
        out = subideal_bracket(Subspace.full(amb.dim), amb, 1)
        assert out == amb.gamma(2)
        assert out.rank == 1

    def test_depth_zero_is_identity(self):
        amb = free_nilpotent(2, 3)
        s = amb.gamma(2)
        assert subideal_bracket(s, amb, 0) is s

    def test_bad_arguments(self):
        amb = free_nilpotent(2, 2)
        with pytest.raises(ValueError):
            subideal_bracket(Subspace.zero(amb.dim + 1), amb, 1)
        with pytest.raises(ValueError):
            subideal_bracket(Subspace.zero(amb.dim), amb, -1)


class TestNilpotentMultiplier:
    def test_heisenberg_one_weight_two(self, h1):
        rep = nilpotent_multiplier(h1, 2)
        assert rep.dimension == 5
        assert rep.basis_words == (
            "[y,x,x]", "[y,x,y]", "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]",
        )

    def test_spec_point_values(self, h1, h2):
        assert nilpotent_multiplier(abelian(2), 2).dimension == 2
        assert nilpotent_multiplier(h1, 1).dimension == 2
        assert nilpotent_multiplier(h2, 1).dimension == 5
        assert nilpotent_multiplier(h2, 2).dimension == 20

    def test_abelian_formula_vs_algorithm(self):
        for n in range(1, 7):
            got = nilpotent_multiplier(abelian(n), 2).dimension
            assert got == abelian_m2(n) == oracles.abelian_two_multiplier(n)

    def test_heisenberg_formulas_vs_algorithm(self):
        for m in (1, 2, 3):
            h = heisenberg(m)
            assert nilpotent_multiplier(h, 1).dimension == schur_heisenberg(m)
            assert nilpotent_multiplier(h, 2).dimension == heisenberg_m2(m)

    def test_direct_sum_law_all_pairs(self):
        parts = [abelian(1), abelian(2), abelian(3), heisenberg(1)]
        for A in parts:
            for B in parts:
                both = nilpotent_multiplier(direct_sum(A, B), 2).dimension
                a = A.dim - series(A).gamma(2).rank
                b = B.dim - series(B).gamma(2).rank
                law = direct_sum_m2(
                    nilpotent_multiplier(A, 2).dimension,
                    nilpotent_multiplier(B, 2).dimension,
                    a, b,
                )
                assert both == law, (A.name, B.name)

    def test_word_count_matches_dimension(self, corpus):
        for L in corpus:
            for c in (1, 2):
                rep = nilpotent_multiplier(L, c)
                assert len(rep.basis_words) == rep.dimension
                ambient_words = {str(w) for w in rep.presentation.ambient.basis}
                assert set(rep.basis_words) <= ambient_words

    def test_weight_three_needs_opt_in(self):
        with pytest.raises(ValueError, match="opt_in_high_weight"):
            nilpotent_multiplier(abelian(2), 3)

    def test_weight_three_abelian(self):
        # for abelian algebras the relations are the whole derived subalgebra,
        # so the weight-c multiplier is exactly the weight-(c+1) stratum
        got = nilpotent_multiplier(abelian(2), 3, opt_in_high_weight=True)
        assert got.dimension == witt(2, 4) == 3
        got = nilpotent_multiplier(abelian(3), 3, opt_in_high_weight=True)
        assert got.dimension == witt(3, 4) == 18

    def test_weight_must_be_positive(self, h1):
        with pytest.raises(ValueError):
            nilpotent_multiplier(h1, 0)

    def test_reports_are_cached(self, h1):
        assert nilpotent_multiplier(h1, 2) is nilpotent_multiplier(h1, 2)

    def test_trivial_algebra(self):
        rep = nilpotent_multiplier(LieAlgebra("0", (), {}), 2)
        assert rep.dimension == 0
        assert rep.basis_words == ()

    def test_invariant_under_random_lifts(self, corpus):
        rng = random.Random(601)
        for L in corpus[:4] + corpus[6:8]:
            canonical = {c: nilpotent_multiplier(L, c).dimension for c in (1, 2)}
            for _ in range(3):
                lift = random_lift(L, rng)
                for c in (1, 2):
                    got = nilpotent_multiplier(L, c, lift=lift).dimension
                    assert got == canonical[c], (L.name, c)


class TestZStar:
    def test_heisenberg_two_epicenter_is_derived(self, h2):
        z = z_star(h2, 1)
        assert z == series(h2).gamma(2)
        assert not z.is_zero

    def test_heisenberg_one_is_capable_both_ways(self, h1):
        assert z_star(h1, 1).is_zero
        assert z_star(h1, 2).is_zero

    def test_single_line_epicenter_is_everything(self):
        a1 = abelian(1)
        assert z_star(a1, 1) == Subspace.full(1)

    def test_weight_range(self, h1):
        with pytest.raises(ValueError):
            z_star(h1, 3)

    def test_contained_in_upper_central_term(self, corpus):
        for L in corpus:
            rep = series(L)
            for c in (1, 2):
                assert rep.z(c).contains_subspace(z_star(L, c)), (L.name, c)

    def test_is_an_ideal(self, corpus):
        for L in corpus:
            z = z_star(L, 1)
            for row in z.integer_rows():
                for j in range(L.dim):
                    out = L.bracket_vectors(dict(row), {j: 1})
                    assert z.contains(out), (L.name, j)

    def test_monotone_in_weight(self, corpus):
        for L in corpus:
            assert z_star(L, 2).contains_subspace(z_star(L, 1)), L.name


class TestClosureMemo:
    @pytest.fixture
    def cold(self, monkeypatch):
        """Empty result caches and closure memo, and a log of closure builds."""
        for name in ("_present_cache", "_mult_cache", "_zstar_cache"):
            monkeypatch.setattr(multiplier, name, {})
        multiplier._closure.cache_clear()
        built = []

        def logged(S, ambient, depth):
            out = subideal_bracket(S, ambient, depth)
            built.append(out)
            return out

        monkeypatch.setattr(multiplier, "subideal_bracket", logged)
        yield built
        multiplier._closure.cache_clear()

    def test_report_builds_each_closure_once(self, cold):
        report(heisenberg(4), 2)
        assert [(s.ambient_dim, s.rank) for s in cold] == [(1212, 1008), (204, 168)]

    def test_memo_keeps_at_most_two_closures(self, cold):
        rng = random.Random(20)
        shapes = [heisenberg(1), direct_sum(heisenberg(1), abelian(1)), abelian(3)]
        for t in range(20):
            report(fdlie.random_basis_change(shapes[t % 3], rng, name=f"L{t}"), 2)
        assert len(cold) == 40
        # one reference from the log and one from getrefcount's argument;
        # anything more is a holder outside this test
        held = [t for t in range(len(cold)) if sys.getrefcount(cold[t]) > 2]
        assert len(held) <= 2
        assert multiplier._closure.cache_info().currsize == 2


class TestCapability:
    def test_heisenberg_one(self, h1):
        assert is_capable(h1)
        assert is_two_capable(h1)

    def test_large_heisenberg(self):
        h3 = heisenberg(3)
        assert not is_capable(h3)
        assert not is_two_capable(h3)

    def test_single_line(self):
        assert not is_capable(abelian(1))

    def test_plane(self):
        # A(2) = H(1)/Z(H(1)) and also fn(2,3)/Z_2(fn(2,3)), so both verdicts hold
        assert is_capable(abelian(2))
        assert is_two_capable(abelian(2))


class TestOracles:
    def test_point_values(self):
        assert abelian_m2(3) == 8
        assert heisenberg_m2(3) == 70
        assert schur_heisenberg(1) == 2
        assert direct_sum_m2(5, 0, 2, 1) == 11
        assert derived_dim_one_m2(4, 1) == 11

    def test_against_independent_forms(self):
        for n in range(0, 9):
            assert abelian_m2(n) == oracles.abelian_two_multiplier(n)
        for m in range(1, 6):
            assert schur_heisenberg(m) == oracles.heisenberg_schur(m)
            assert heisenberg_m2(m) == oracles.heisenberg_two_multiplier(m)

    def test_derived_dim_one_routes_agree(self):
        # H(m) + A(r) has n = 2m + 1 + r; both published routes must agree
        for m in (1, 2, 3):
            for r in (0, 1, 2, 3):
                n = 2 * m + 1 + r
                via_family = derived_dim_one_m2(n, m)
                via_sum = direct_sum_m2(heisenberg_m2(m), abelian_m2(r), 2 * m, r)
                assert via_family == via_sum, (m, r)

    def test_dispatch(self):
        assert formula_oracle("abelian_m2", n=4) == 20
        assert formula_oracle("heisenberg_m2", m=2) == 20
        with pytest.raises(ValueError):
            formula_oracle("nope")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            abelian_m2(-1)
        with pytest.raises(ValueError):
            schur_heisenberg(0)
        with pytest.raises(ValueError):
            heisenberg_m2(0)
        with pytest.raises(ValueError):
            derived_dim_one_m2(2, 1)


class TestBounds:
    def test_abelian_saturates(self):
        rep = bound_report(abelian(4))
        assert isinstance(rep, BoundReport)
        assert rep.value == rep.eq1 == 20
        assert rep.eq1_slack == 0
        assert rep.saturates_eq1
        assert rep.refined is None

    def test_heisenberg_one_refined_tight(self, h1):
        rep = bound_report(h1)
        assert rep.value == 5
        assert rep.eq1 == eq1_bound(3) == 8
        assert rep.refined == refined_bound(3, 1) == 5
        assert rep.refined_slack == 0

    def test_heisenberg_two_strict(self, h2):
        rep = bound_report(h2)
        assert rep.value == 20
        assert rep.eq1 == 40
        assert rep.eq1_slack == 20

    def test_refined_bound_integrality(self):
        for n in range(2, 12):
            for m in range(1, n):
                assert refined_bound(n, m) == oracles.refined_nonabelian_bound(n, m)


class TestReportDict:
    def test_shape_and_values(self, h1):
        out = report(h1, 2)
        assert set(out) == {
            "algebra", "c", "dim_multiplier", "basis_words", "bounds",
            "capable", "two_capable",
        }
        assert out["algebra"] == "H(1)"
        assert out["c"] == 2
        assert out["dim_multiplier"] == 5
        assert out["bounds"] == {"eq1": 8, "refined": 5, "value": 5}
        assert out["capable"] is True
        assert out["two_capable"] is True

    def test_abelian_refined_is_null(self):
        out = report(abelian(3), 2)
        assert out["bounds"]["refined"] is None
        assert out["bounds"]["value"] == out["bounds"]["eq1"] == 8


class TestRandomLift:
    def test_lifts_are_generating(self, corpus):
        rng = random.Random(77)
        for L in corpus:
            lift = random_lift(L, rng)
            d = L.dim - series(L).gamma(2).rank
            assert len(lift) == d
            # must be accepted by present, i.e. independent mod L^2
            pres = present(L, 1, lift=lift)
            assert pres.ambient.rank == d
