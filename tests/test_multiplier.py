"""Free presentations, nilpotent multipliers, epicenters, and the closed-form
oracles they are checked against."""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nilmult
from nilmult import exactlin, fdlie, freelie, multiplier, verify
from nilmult.exactlin import ContainmentError, Subspace
from nilmult.fdlie import LieAlgebra, NotNilpotentError, abelian, direct_sum, heisenberg, series
from nilmult.freelie import (
    DIM_CAP,
    MEMO_SIZE,
    DimensionCapError,
    FreeNilpotentAlgebra,
    HashedKey,
    clear_caches,
    free_nilpotent,
    span_bracket_rows,
    witt,
)
from nilmult.multiplier import (
    BoundReport,
    Presentation,
    PresentationError,
    abelian_m2,
    bound_report,
    derived_dim_one_m2,
    direct_sum_m2,
    eq1_bound,
    heisenberg_m2,
    is_capable,
    is_two_capable,
    nilpotent_multiplier,
    present,
    refined_bound,
    report,
    schur_heisenberg,
    subideal_bracket,
    z_star,
)

import oracles
from oracles import free_gamma, random_lift, relift, truncation_shapes

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
        assert pres.relations == free_gamma(pres.ambient, 3)

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
            assert len(pres.images) == pres.ambient.stratum_starts[pres.k + 1]
            assert Subspace(L.dim, pres.images) == Subspace.full(L.dim)

    def test_relations_contain_deep_stratum(self, corpus):
        for L in corpus:
            k = series(L).nilpotency_class
            pres = present(L, 2)
            assert pres.relations.contains_subspace(free_gamma(pres.ambient, k + 1))

    def test_dimension_bookkeeping(self, corpus):
        for L in corpus:
            pres = present(L, 1)
            assert pres.ambient.dim - pres.relations.rank == L.dim

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NotNilpotentError) as exc:
            present(sl2(), 1)
        assert exc.value.stabilized.rank == 3

    def test_trivial_algebra(self):
        zero = LieAlgebra("0", (), {})
        pres = present(zero, 2)
        assert pres.ambient.dim == 0
        assert pres.relations.rank == 0

    def test_images_vanish_beyond_the_class(self, corpus):
        # only the words of length <= k have images; the bracket of two
        # of them whose lengths add up past k vanishes in L
        for L in corpus:
            k = series(L).nilpotency_class
            pres = present(L, 2)
            F, images = pres.ambient, pres.images
            assert len(images) == F.stratum_starts[k + 1], L.name
            for u in F.basis[: len(images)]:
                for w in F.basis[F.stratum_starts[k + 1 - u.length]: len(images)]:
                    assert not L._ibracket(images[u.key], images[w.key]), (L.name, str(u), str(w))

    def test_wrong_class_raises_presentation_error(self, h1, monkeypatch):
        # a class-1 report for H(1) makes [x, y] a length-(k+1) word whose
        # image must vanish; it does not, and that is an error, not an assert
        monkeypatch.setattr(multiplier, "nilpotent_series", lambda L: series(abelian(3)))
        clear_caches()
        with pytest.raises(PresentationError, match="length-2"):
            present(h1, 1)
        clear_caches()

    @staticmethod
    def claim_class(monkeypatch, k):
        """Make ``present`` read every algebra's own lower series as class k."""
        monkeypatch.setattr(multiplier, "nilpotent_series", lambda L: fdlie.SeriesReport(series(L).lower, k, L))
        clear_caches()

    @staticmethod
    def strata(L):
        """The images of the words of each length 1..k of L's presentation."""
        pres = present(L, 1)
        starts = pres.ambient.stratum_starts
        return [list(pres.images[starts[a]:starts[a + 1]]) for a in range(1, pres.k + 1)]

    def test_wrong_even_length_raises_presentation_error(self, monkeypatch):
        # N(3,4) read as class 3: length 4 pairs the lengths (3, 1) and
        # (2, 2), and [S_2, S_2] holds [[x2,x1],[x3,x1]] ≠ 0
        L = fdlie.random_basis_change(fdlie.from_free_nilpotent(free_nilpotent(3, 4), "N(3,4)"), random.Random(3))
        strata = self.strata(L)[:3]
        assert oracles.class_check_by_words(L, 3) is not None
        with pytest.raises(PresentationError, match="length-4 bracket, of the images of words of lengths 3 and 1"):
            multiplier._check_class(L, 3, strata)
        # without S_3, the (2, 2) bracket alone fails
        with pytest.raises(PresentationError, match="lengths 2 and 2"):
            multiplier._check_class(L, 3, [strata[0], strata[1], []])
        self.claim_class(monkeypatch, 3)
        with pytest.raises(PresentationError, match="length-4"):
            present(L, 1)
        clear_caches()

    def test_only_the_k_1_bracket_fails(self, monkeypatch):
        # N(2,4) read as class 3: S_2 is the line of [x2,x1], so
        # [S_2, S_2] = 0, and only the (3, 1) bracket is non-zero
        L = fdlie.random_basis_change(fdlie.from_free_nilpotent(free_nilpotent(2, 4), "N(2,4)"), random.Random(4))
        strata = self.strata(L)[:3]
        assert oracles.class_check_by_words(L, 3) is not None
        multiplier._check_class(L, 3, [[], strata[1], strata[2]])
        self.claim_class(monkeypatch, 3)
        with pytest.raises(PresentationError, match="length-4 bracket, of the images of words of lengths 3 and 1"):
            present(L, 1)
        clear_caches()

    def test_class_check_matches_word_scan(self, monkeypatch):
        # read as each class up to its own, an algebra fails the check on
        # spans exactly when some word of length k + 1 has a non-zero image:
        # the 24 claims below the class of the 42 in all
        failed = 0
        for L in oracles.truncation_shapes():
            for k in range(1, series(L).nilpotency_class + 1):
                self.claim_class(monkeypatch, k)
                word = oracles.class_check_by_words(L, k)
                if word is None:
                    present(L, 1)
                    continue
                failed += 1
                with pytest.raises(PresentationError, match=f"length-{k + 1}"):
                    present(L, 1)
        clear_caches()
        assert failed == 24

    def test_short_relations_match_all_words_solve(self, corpus):
        # R_{≤k} solved on the words of length 2..k at the pivots of L²
        # equals the solve on every word of length <= k with its whole image
        shapes = list(corpus) + oracles.truncation_shapes() + self.moved_shapes(random.Random(923))
        for L in shapes:
            for c in (1, 2):
                pres = present(L, c)
                assert pres.short_relations == oracles.relations_by_all_words(pres), (L.name, c)

    @staticmethod
    def moved_shapes(rng):
        shapes = [
            heisenberg(1),
            heisenberg(2),
            direct_sum(heisenberg(1), abelian(2)),
            fdlie.from_free_nilpotent(free_nilpotent(2, 3)),
            # class 3 with relations below the class: moved, its relation
            # rows mix Hall words of different lengths
            direct_sum(heisenberg(1), fdlie.from_free_nilpotent(free_nilpotent(2, 3))),
        ]
        return [fdlie.random_basis_change(L, rng, name=f"moved-{L.name}") for L in shapes]

    def test_matches_fraction_reference(self):
        # the integer images are den^(k-1) times the Fraction images of the
        # words of length <= k
        for L in self.moved_shapes(random.Random(919)):
            assert L.den > 1
            for c in (1, 2):
                pres = present(L, c)
                relations, images = oracles.present_by_fractions(L, c)
                assert pres.relations == relations, (L.name, c)
                scale = L.den ** (pres.k - 1)
                short = pres.ambient.stratum_starts[pres.k + 1]
                want = [{r: x * scale for r, x in img.items()} for img in images[:short]]
                assert list(pres.images) == want, (L.name, c)
                assert all(type(x) is int for img in pres.images for x in img.values())

    def test_fractional_lift_matches_fraction_reference(self):
        # a presentation on a fractional lift of L, as the presentation of
        # L rewritten in the basis (lift, rows of L²)
        rng = random.Random(920)
        for L in self.moved_shapes(rng):
            lift = [
                {i: x * (F(1, 2) if t % 2 else F(-2, 3)) for i, x in v.items()}
                for t, v in enumerate(random_lift(L, rng))
            ]
            assert max(x.denominator for v in lift for x in v.values()) > 1
            moved = relift(L, lift)
            for c in (1, 2):
                relations, _ = oracles.present_by_fractions(L, c, lift)
                assert present(moved, c).relations == relations, (L.name, c)

    def test_relations_are_short_relations_plus_deep_block(self, corpus):
        shapes = list(corpus) + self.moved_shapes(random.Random(921))
        for L in shapes:
            for c in (1, 2):
                pres = present(L, c)
                F, k = pres.ambient, pres.k
                assert k == series(L).nilpotency_class
                short = F.stratum_starts[k + 1]
                rows = pres.short_relations.integer_rows()
                assert all(max(r) < short for r in rows), (L.name, c)
                deep = [{j: 1} for j in range(short, F.dim)]
                assert pres.relations == Subspace(F.dim, [*rows, *deep]), (L.name, c)
                assert pres.relations.integer_rows()[: len(rows)] == rows

    def test_rank_nullity_is_enforced(self, h1):
        # R_{≤2} of H(1) is zero; a relation killing the generator x leaves
        # 3 - 1 short words, not dim H(1) = 3
        pres = present(h1, 1)
        bad = Subspace.coordinate_span(pres.ambient.dim, [0])
        with pytest.raises(PresentationError, match="rank-nullity"):
            Presentation(pres.ambient, bad, pres.k, 1, h1, pres.images, pres.closure)


class TestSubidealBracket:
    def test_gamma3_twice_vanishes_in_class_four(self):
        amb = free_nilpotent(2, 4)
        assert subideal_bracket(free_gamma(amb, 3), amb, 2).is_zero

    def test_zero_stays_zero(self):
        amb = free_nilpotent(2, 3)
        z = Subspace.zero(amb.dim)
        for depth in range(4):
            assert subideal_bracket(z, amb, depth).is_zero

    def test_full_ambient_brackets_to_derived(self):
        amb = free_nilpotent(2, 2)
        out = subideal_bracket(Subspace.full(amb.dim), amb, 1)
        assert out == free_gamma(amb, 2)
        assert out.rank == 1

    def test_depth_zero_is_identity(self):
        amb = free_nilpotent(2, 3)
        s = free_gamma(amb, 2)
        assert subideal_bracket(s, amb, 0) is s

    def test_bad_arguments(self):
        amb = free_nilpotent(2, 2)
        with pytest.raises(ValueError):
            subideal_bracket(Subspace.zero(amb.dim + 1), amb, 1)
        with pytest.raises(ValueError):
            subideal_bracket(Subspace.zero(amb.dim), amb, -1)


class TestWeightTruncation:
    """The weight-cut closure of R_{≤k} against the untruncated closure of
    the whole of R."""

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_closure_matches_untruncated(self, c):
        for L in truncation_shapes():
            pres = present(L, c)
            F = pres.ambient
            want = oracles.closure_by_every_word(pres.relations, F, c)
            assert subideal_bracket(pres.relations, F, c) == want, (L.name, c)
            # the presentation's closure brackets R_{≤k} alone
            assert pres.closure == want, (L.name, c)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_subspaces_match_untruncated(self, data):
        F = data.draw(st.sampled_from([FreeNilpotentAlgebra(2, 5), FreeNilpotentAlgebra(3, 4)]))
        depth = data.draw(st.integers(0, 3))
        entry = st.integers(-3, 3).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, F.dim - 1), entry, min_size=1, max_size=4), max_size=5,
        ))
        S = Subspace(F.dim, rows)
        assert subideal_bracket(S, F, depth) == oracles.closure_by_every_word(S, F, depth)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_subspaces_with_a_full_stratum_match_untruncated(self, data):
        # with every unit row of stratum s, a bracketing cut at weight s + 1
        # carries the stratum above instead of forming its products
        F = data.draw(st.sampled_from([FreeNilpotentAlgebra(2, 5), FreeNilpotentAlgebra(3, 4)]))
        K, starts = F.nilpotency_class, F.stratum_starts
        s = data.draw(st.integers(1, K - 1))
        entry = st.integers(-3, 3).filter(bool)
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, F.dim - 1), entry, min_size=1, max_size=4), max_size=5,
        ))
        mixed = data.draw(st.permutations(rows + [{j: 1} for j in range(starts[s], starts[s + 1])]))
        S = Subspace(F.dim, mixed)
        # the first of K - s bracketings is cut at weight s + 1
        assert subideal_bracket(S, F, K - s) == oracles.closure_by_every_word(S, F, K - s)
        # the drawn rows themselves, neither homogeneous nor canonical
        light = starts[s + 2]
        whole = oracles.closure_by_every_word(S, F, 1).integer_rows()
        want = Subspace(F.dim, [{j: v for j, v in row.items() if j < light} for row in whole])
        assert span_bracket_rows(F, mixed, s + 1) == list(want.integer_rows())


_untruncated: dict = {}


def untruncated_closure(pres: Presentation) -> Subspace:
    """The untruncated closure of a presentation, computed once per
    algebra and weight."""
    key = (pres.algebra.name, pres.c)
    if key not in _untruncated:
        _untruncated[key] = oracles.closure_by_every_word(pres.relations, pres.ambient, pres.c)
    return _untruncated[key]


class TestClosureChain:
    """One closure chain per algebra, shared by its presentations at every
    weight: whichever weight is read first, each closure is the untruncated
    one."""

    @pytest.mark.parametrize("order", [(2, 1), (1, 2), (1, 3), (3,)])
    def test_any_query_order_matches_untruncated(self, order):
        for L in truncation_shapes():
            clear_caches()
            for c in order:
                pres = present(L, c)
                assert pres.closure == untruncated_closure(pres), (L.name, order, c)
        clear_caches()

    def test_custom_lift_matches_untruncated(self):
        rng = random.Random(923)
        for L in truncation_shapes():
            moved = relift(L, random_lift(L, rng))
            for c in (1, 2, 3) if L.dim <= 5 else (1, 2):
                pres = present(moved, c)
                want = oracles.closure_by_every_word(pres.relations, pres.ambient, c)
                assert pres.closure == want, (L.name, c)

    def test_weights_share_relations_and_closures(self, h2):
        # the algebra's one memo entry holds its chain and both presentations
        clear_caches()
        one, two = present(h2, 1), present(h2, 2)
        chain = freelie._memo[h2.memo_key]
        assert one.short_relations.integer_rows() == two.short_relations.integer_rows()
        assert two.closure is chain.closures[2]
        assert one.closure is chain.closures[1]
        assert chain.presentations == {1: one, 2: two}
        clear_caches()

    def test_numerator_matches_materialised_relations(self):
        # the numerator R_{≤k} ∩ γ_{c+1} plus a coordinate block, against
        # R ∩ γ_{c+1} read off the materialised relations
        for L in truncation_shapes():
            for c in (1, 2, 3):
                pres = present(L, c)
                F = pres.ambient
                numerator = pres.relations.intersect_suffix(F.stratum_starts[c + 1])
                dimension = numerator.quotient_dim(pres.closure)
                closed = set(pres.closure.pivots)
                words = tuple(str(F.basis[p]) for p in numerator.pivots if p not in closed)
                assert pres.multiplier == multiplier.MultiplierReport(c, dimension, words), (L.name, c)

    @pytest.mark.parametrize("L, c", [(abelian(1), 500), (abelian(3), 3), (heisenberg(1), 3)])
    def test_zero_chain_builds_no_intermediate_ambient(self, L, c, monkeypatch):
        # R_{≤k} = 0 gives C_t = 0 at every t, as [0, F] = 0: a query at
        # weight c asks for F(d, k + c) alone, and at a lower weight for
        # nothing new
        clear_caches()
        asked = []

        def logged(d, cls, dim_cap=DIM_CAP):
            asked.append((d, cls))
            return free_nilpotent(d, cls, dim_cap)

        monkeypatch.setattr(multiplier, "free_nilpotent", logged)
        pres = present(L, c)
        d, k = pres.ambient.rank, pres.k
        assert pres.short_relations.is_zero and pres.closure == Subspace.zero(pres.ambient.dim)
        assert set(asked) == {(d, k + c)}
        assert present(L, 1).closure.is_zero and present(L, c - 1).closure.is_zero
        assert set(asked) == {(d, k + c), (d, k + 1), (d, k + c - 1)}
        # L = F(d, k), so M^(c)(L) is spanned by the words of weight max(k, c) + 1 .. k + c
        assert pres.multiplier.dimension == sum(witt(d, w) for w in range(max(k, c) + 1, k + c + 1))
        clear_caches()

    def test_closure_outside_the_numerator_raises_with_witness(self):
        # each broken closure is given to a presentation built outside the memo
        def with_closure(pres, bad):
            return Presentation(pres.ambient, pres.short_relations, pres.k, pres.c, pres.algebra, pres.images, bad)

        # H(1) at c = 2: the generator x is not in γ_3(F)
        pres = present(heisenberg(1), 2)
        bad = with_closure(pres, Subspace.coordinate_span(pres.ambient.dim, [0]))
        with pytest.raises(ContainmentError, match="not in R") as err:
            bad.multiplier
        assert err.value.witness == {0: 1}
        # N(2,4) at c = 1: [y, x] lies in γ_2(F), but R_{≤4} = 0
        N = fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 4), "N(2,4)")
        pres = present(N, 1)
        yx = pres.ambient.stratum_starts[2]
        bad = with_closure(pres, Subspace._from_rows(pres.ambient.dim, [{yx: 2, pres.ambient.dim - 1: 4}]))
        with pytest.raises(ContainmentError) as err:
            bad.multiplier
        assert err.value.witness == {yx: 1, pres.ambient.dim - 1: 2}


def heisenberg_shapes() -> list[LieAlgebra]:
    rng = random.Random(26)
    shapes = [heisenberg(2), heisenberg(3), heisenberg(4), direct_sum(heisenberg(2), abelian(1))]
    return shapes + [fdlie.random_basis_change(L, rng, name=f"moved-{L.name}") for L in shapes]


class TestHeisenbergChain:
    """For H(m) with m >= 2, and H(m)⊕A(r), C_1 = γ_3(F), so each later
    step is a carry: C_c = γ_{c+2}(F), the coordinate block of the heaviest
    words, and the steps past the first form no product."""

    @staticmethod
    def count_brackets(monkeypatch) -> list[int]:
        calls = [0]
        bracket = FreeNilpotentAlgebra.bracket_row_index

        def counted(self, row, j):
            calls[0] += 1
            return bracket(self, row, j)

        monkeypatch.setattr(FreeNilpotentAlgebra, "bracket_row_index", counted)
        return calls

    @pytest.mark.parametrize("L", heisenberg_shapes(), ids=lambda L: L.name)
    def test_closure_is_the_heaviest_stratum(self, L, monkeypatch):
        clear_caches()
        calls = self.count_brackets(monkeypatch)
        d = L.dim - 1  # dim L² = 1
        for c in (1, 2, 3):
            before = calls[0]
            # the cap is raised only where F(d, 2 + c) is past the default
            pres = present(L, c, dim_cap=max(DIM_CAP, sum(witt(d, n) for n in range(1, c + 3))))
            F = pres.ambient
            assert pres.closure == Subspace.coordinate_span(F.dim, range(F.stratum_starts[c + 2], F.dim)), (L.name, c)
            assert c == 1 or calls[0] == before, (L.name, c)
        clear_caches()

    def test_rank_one_at_a_huge_weight_stays_small(self, monkeypatch):
        # [x, x] = 0: F(1, 1 + c) has one word whatever c is, and the
        # epicenter's first level of brackets is already zero
        clear_caches()
        calls = self.count_brackets(monkeypatch)
        L = abelian(1)
        tracemalloc.start()
        try:
            pres = present(L, 10**6)
            dimension, rank = pres.multiplier.dimension, pres.epicenter.rank
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dimension == 0 and rank == 1
        assert peak < 2**20
        assert calls[0] <= L.dim * pres.ambient.rank
        clear_caches()


class TestClosureCost:
    def test_random_basis_closure_work(self, monkeypatch):
        # the closure of H(1)⊕N(2,3) in a random basis at c = 3: the row
        # entries that the reductions of the inserted products and the
        # clearing of each new pivot from the stored rows touch.  Echelon
        # rows reduced to canonical form at the end touched 1.71 M with the
        # products in bracketing order and the first row kept on each
        # pivot, and 0.87 M with the shortest first and the sparser row
        # kept; rows kept canonical after every insert touch 0.134 M.
        # present builds the closure, so only its bracketings are counted
        n23 = fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)")
        L = fdlie.random_basis_change(direct_sum(heisenberg(1), n23), random.Random(0))
        clear_caches()
        touched = [0]
        bracketing = [False]
        reduce, eliminate, bracket = exactlin._reduce, exactlin._eliminate, multiplier.subideal_bracket

        def counting_reduce(row, by_pivot):
            if bracketing[0]:
                touched[0] += len(row) + sum(len(by_pivot[p]) for p in row if p in by_pivot)
            return reduce(row, by_pivot)

        def counting_eliminate(v, row, p):
            if bracketing[0]:
                touched[0] += len(v) + len(row)
            return eliminate(v, row, p)

        def counted_bracket(S, ambient, depth):
            bracketing[0] = True
            try:
                return bracket(S, ambient, depth)
            finally:
                bracketing[0] = False

        monkeypatch.setattr(exactlin, "_reduce", counting_reduce)
        monkeypatch.setattr(exactlin, "_eliminate", counting_eliminate)
        monkeypatch.setattr(multiplier, "subideal_bracket", counted_bracket)
        pres = present(L, 3)
        assert pres.closure.rank == 853
        assert 0 < touched[0] <= 140_000
        clear_caches()


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
                ambient_words = {str(w) for w in present(L, c).ambient.basis}
                assert set(rep.basis_words) <= ambient_words

    def test_weight_three_past_the_cap_is_refused(self):
        # c = 3 needs no opt-in: the cap alone refuses the ambient F(8, 5)
        # of H(4), and does so before any free algebra is built
        clear_caches()
        with pytest.raises(DimensionCapError, match="rank 8 and class 5 has dimension 7764, cap is 5000"):
            nilpotent_multiplier(heisenberg(4), 3)
        assert not any(isinstance(v, FreeNilpotentAlgebra) for v in freelie._memo.values())
        assert nilpotent_multiplier(heisenberg(4), 3, dim_cap=7764).dimension == 1008

    def test_weight_three_abelian(self):
        # for abelian algebras the relations are the whole derived subalgebra,
        # so the weight-c multiplier is exactly the weight-(c+1) stratum
        got = nilpotent_multiplier(abelian(2), 3)
        assert got.dimension == witt(2, 4) == 3
        got = nilpotent_multiplier(abelian(3), 3)
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
                moved = relift(L, random_lift(L, rng))
                for c in (1, 2):
                    got = nilpotent_multiplier(moved, c).dimension
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
        with pytest.raises(ValueError, match="must be >= 1"):
            z_star(h1, 0)
        with pytest.raises(DimensionCapError):
            z_star(heisenberg(4), 3)

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
                    assert not z.reduce(out), (L.name, j)

    def test_monotone_in_weight(self, corpus):
        for L in corpus:
            assert z_star(L, 2).contains_subspace(z_star(L, 1)), L.name

    def test_weight_three(self, h1, h2):
        assert z_star(h1, 3).is_zero
        # the line of z, the last basis vector of H(2)
        assert z_star(h2, 3) == Subspace.coordinate_span(5, [4])
        assert z_star(abelian(1), 3) == Subspace.full(1)


def epicenter_shapes() -> list[LieAlgebra]:
    """The corpus plus five algebras of class 2 to 4, each also moved to a
    random basis."""
    shapes = [abelian(n) for n in range(1, 7)]
    shapes += [heisenberg(m) for m in range(1, 4)]
    shapes += [
        direct_sum(heisenberg(1), abelian(1)),
        direct_sum(heisenberg(2), abelian(1)),
        # Z*_c is one line from two words whose residuals clear different
        # denominators in a random basis
        direct_sum(heisenberg(2), heisenberg(1)),
        fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)"),
        fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 4), "N(2,4)"),
        fdlie.from_free_nilpotent(FreeNilpotentAlgebra(3, 3), "N(3,3)"),
        direct_sum(heisenberg(1), fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)")),
    ]
    rng = random.Random(808)
    return shapes + [fdlie.random_basis_change(L, rng, name=f"moved-{L.name}") for L in shapes]


class TestEpicenterSolve:
    """Z*_c solved on the words that map to a basis of L, against Z_c of
    the whole of F/[R, F, ..., F]."""

    @pytest.mark.parametrize("c", [1, 2])
    def test_matches_upper_centrals_of_the_quotient(self, c):
        for L in epicenter_shapes():
            pres = present(L, c)
            assert pres.epicenter == oracles.epicenter_by_upper_centrals(pres), (L.name, c)

    def test_weight_three_matches_on_small_algebras(self):
        for L in epicenter_shapes():
            if L.dim <= 4:
                pres = present(L, 3)
                assert pres.epicenter == oracles.epicenter_by_upper_centrals(pres), L.name

    def test_fractional_lifts_match(self):
        # on a fractional lift, as L rewritten in the basis (lift, rows of
        # L²); its epicenter, written back in L's basis, is Z*_c(L)
        rng = random.Random(31)
        for L in epicenter_shapes()[::2]:
            lift = [
                {i: x * (F(1, 2) if t % 2 else F(-2, 3)) for i, x in v.items()}
                for t, v in enumerate(random_lift(L, rng))
            ]
            basis = oracles.lift_basis(L, lift)
            for c in (1, 2):
                pres = present(relift(L, lift), c)
                assert pres.epicenter == oracles.epicenter_by_upper_centrals(pres), (L.name, c)
                back = []
                for row in pres.epicenter.integer_rows():
                    v: dict[int, Fraction] = {}
                    for t, y in row.items():
                        for r, x in basis[t].items():
                            v[r] = v.get(r, 0) + y * x
                    back.append(v)
                assert Subspace(L.dim, back) == z_star(L, c), (L.name, c)

    def test_solve_brackets_only_generators(self, monkeypatch):
        # with the closure built, Z*_2(H(4)) takes the integer residue of
        # at most one bracket [w, g_1, g_2] per word w of a basis of L and
        # pair of generators, and makes no Fraction residual
        clear_caches()
        pres = present(heisenberg(4), 2)
        pres.closure
        calls = {"upper_centrals": 0, "residue": 0, "reduce": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module in (fdlie, multiplier):
            if hasattr(module, "upper_centrals"):
                monkeypatch.setattr(module, "upper_centrals", counting("upper_centrals", module.upper_centrals))
        monkeypatch.setattr(Subspace, "_residue", counting("residue", Subspace._residue))
        monkeypatch.setattr(Subspace, "reduce", counting("reduce", Subspace.reduce))
        assert pres.epicenter == series(heisenberg(4)).gamma(2)
        assert calls["upper_centrals"] == 0 and calls["reduce"] == 0
        assert 0 < calls["residue"] <= 9 * 8**2

    @pytest.mark.parametrize("L, c", [
        (abelian(3), 2), (abelian(4), 2), (abelian(5), 2), (abelian(5), 3),
        (fdlie.random_basis_change(heisenberg(3), random.Random(24), name="moved-H(3)"), 2),
    ], ids=["A(3)-2", "A(4)-2", "A(5)-2", "A(5)-3", "moved-H(3)-2"])
    def test_solve_inserts_one_row_per_word(self, L, c, monkeypatch):
        # with the closure built, the epicenter inserts the tagged row of
        # each of the dim L words off R_{≤k} once, and no other row: no
        # constraint row per coordinate, no push into L
        clear_caches()
        pres = present(L, c)
        pres.closure
        inserts = []
        insert = exactlin._Spanner.insert
        monkeypatch.setattr(exactlin._Spanner, "insert", lambda self, v: inserts.append(v) or insert(self, v))
        want = series(L).gamma(2) if L.name == "moved-H(3)" else Subspace.zero(L.dim)
        assert pres.epicenter == want
        assert len(inserts) == L.dim
        clear_caches()

    def test_lost_rank_raises_presentation_error(self):
        # Z*_1(H(2)⊕H(2)) is spanned by the images of the two words of
        # length 2 off R_{≤2}; sending both to one vector loses a dimension
        L = direct_sum(heisenberg(2), heisenberg(2))
        pres = present(L, 1)
        F = pres.ambient
        pivots = set(pres.short_relations.pivots)
        a, b = [w for w in range(F.stratum_starts[2], F.stratum_starts[3]) if w not in pivots]
        images = list(pres.images)
        images[b] = images[a]
        bad = Presentation(F, pres.short_relations, pres.k, 1, L, tuple(images), pres.closure)
        with pytest.raises(PresentationError, match="rank"):
            bad.epicenter


_FREE_QUOTIENT_SHAPES = {(d, k): fdlie.from_free_nilpotent(FreeNilpotentAlgebra(d, k), f"N({d},{k})")
                         for d, k in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3))}


@st.composite
def generated_algebras(draw) -> tuple[LieAlgebra, int]:
    """(N(d, k)/I, s) for (d, k) in {(2, 3), (3, 2), (2, 4), (4, 2), (3, 3)}
    and I spanned by dim Z − 1 or dim Z − 2 (at least 1) random vectors of
    its centre Z: the algebra, of dimension 4 to 13 (4 to 8 when those
    vectors are independent), and the seed of the
    random basis the tests move it to.  I is drawn from the top, of
    codimension 1 or 2 in Z when its vectors are independent, so L² is
    small and L is often not capable (N(4,2) modulo a hyperplane of Z can
    be H(2))."""
    N = _FREE_QUOTIENT_SHAPES[draw(st.sampled_from(sorted(_FREE_QUOTIENT_SHAPES)))]
    centre = series(N).upper[0].integer_rows()
    coefficients = st.lists(st.integers(-3, 3), min_size=len(centre), max_size=len(centre)).filter(any)
    vectors = []
    for _ in range(max(len(centre) - draw(st.integers(1, 2)), 1)):
        vector = {}
        for y, row in zip(draw(coefficients), centre):
            for j, x in row.items():
                vector[j] = vector.get(j, 0) + y * x
        vectors.append(vector)
    return fdlie.quotient(N, Subspace(N.dim, vectors)), draw(st.integers(0, 2**32))


class TestGeneratedAlgebras:
    """Invariants on quotients of free nilpotent algebras by a central ideal,
    in a random basis, each a different algebra with its own memo entry."""

    @staticmethod
    def check(U, basis_seed, seed):
        # through JSON, so that the Jacobi check of ``loads`` reads each
        # random-basis table with its denominators
        L = fdlie.loads(fdlie.dumps(
            fdlie.random_basis_change(U, random.Random(basis_seed), name=f"{U.name}~{basis_seed}")))
        # M(L) and Z*_1(L) against the exterior square L∧L, which builds no
        # free algebra: dim M(L) = dim L∧L − dim L² and Z*_1(L) = Z^∧(L).
        # It is taken on U, whose table is sparse, and Z^∧(U) moved to L's
        # basis by the P⁻¹ of the same seed
        wedge, derived, centre = oracles.exterior_square(U)
        _, Pinv = oracles.random_basis_matrices(U.dim, random.Random(basis_seed))
        assert nilpotent_multiplier(L, 1).dimension == wedge - derived, L.name
        assert z_star(L, 1) == Subspace(L.dim, oracles.in_basis(centre, Pinv)), L.name
        # basis words depend on the lift, the rest of the report does not
        moved = fdlie.loads(fdlie.dumps(fdlie.random_basis_change(L, random.Random(seed))))
        want, got = report(L, 2), report(moved, 2)
        for key in ("dim_multiplier", "bounds", "capable", "two_capable"):
            assert got[key] == want[key], (L.name, key)
        assert z_star(L, 2).contains_subspace(z_star(L, 1)), L.name
        return L

    @settings(max_examples=50, deadline=None)
    @given(generated_algebras(), st.integers(0, 2**32))
    def test_multiplier_verdicts_and_epicenters(self, drawn, seed):
        U, basis_seed = drawn
        assert U.dim <= 13
        self.check(U, basis_seed, seed)

    @pytest.mark.parametrize("form, shape, capable", [
        (("[x2,x1]", "[x4,x3]"), (2, 0), False),
        (("[x2,x1]",), (1, 2), True),
    ])
    def test_a_hyperplane_of_the_centre_can_leave_a_non_capable_quotient(self, form, shape, capable):
        # N(4,2) modulo the kernel of the form on its centre Z = L² that is
        # 1 on the listed words and 0 on the others: [x2,x1]* + [x4,x3]*,
        # of rank 4 on the generators, leaves H(2), whose Z*_1 is its
        # derived line; [x2,x1]*, of rank 2, leaves the capable H(1)⊕A(2)
        N = _FREE_QUOTIENT_SHAPES[4, 2]
        words = {label: j for j, label in enumerate(N.basis_labels)}
        first, *rest = [words[w] for w in form]
        kernel = [{words[w]: 1} for w in N.basis_labels[4:] if w not in form]
        kernel += [{first: 1, j: -1} for j in rest]
        L = self.check(fdlie.quotient(N, Subspace(N.dim, kernel)), 42, 7)
        assert fdlie.recognize_derived_dim_one(L) == shape
        assert is_capable(L) == capable
        assert z_star(L, 1) == (Subspace.zero(L.dim) if capable else series(L).gamma(2))


class TestCentralLineCriterion:
    """Theorem 3.2: a central line I lies in Z*_c(L) exactly when
    dim M^(c)(L/I) = dim M^(c)(L) + dim(I ∩ γ_{c+1}(L))."""

    @staticmethod
    def check(algebras, weights) -> tuple[int, int]:
        lines = inside = 0
        for L in algebras:
            for c in weights:
                z = z_star(L, c)
                m = nilpotent_multiplier(L, c).dimension
                gamma = series(L).gamma(c + 1)
                for I in verify.central_lines(L, random.Random(5)):
                    quot = nilpotent_multiplier(fdlie.quotient(L, I), c)
                    assert z.contains_subspace(I) == (quot.dimension == m + I.intersect(gamma).rank), \
                        (L.name, c, I.integer_rows())
                    lines += 1
                    inside += z.contains_subspace(I)
        return lines, inside

    @staticmethod
    def algebras() -> list[LieAlgebra]:
        n23 = fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)")
        extra = [
            n23,
            fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 4), "N(2,4)"),
            fdlie.from_free_nilpotent(FreeNilpotentAlgebra(3, 2), "N(3,2)"),
            direct_sum(heisenberg(1), n23),
            direct_sum(heisenberg(2), heisenberg(1)),
        ]
        moved = [
            heisenberg(1), heisenberg(2), heisenberg(3), *extra,
            direct_sum(heisenberg(2), abelian(1)), direct_sum(heisenberg(1), abelian(2)),
        ]
        rng = random.Random(77)
        return verify.corpus(5, 3) + extra + [
            fdlie.random_basis_change(L, rng, name=f"moved-{L.name}") for L in moved
        ]

    def test_weights_one_and_two(self):
        lines, inside = self.check(self.algebras(), (1, 2))
        assert lines > 250 and inside > 10

    def test_weight_three(self):
        lines, inside = self.check([L for L in self.algebras() if L.dim <= 5], (3,))
        assert lines > 50 and inside > 0


class TestClosureMemo:
    """The one bounded memo of free algebras and algebras, each algebra's
    entry with its presentations, and the closures they carry."""

    @pytest.fixture
    def cold(self, monkeypatch):
        """An empty memo, and a log of closure builds."""
        clear_caches()
        built = []

        def logged(S, ambient, depth):
            out = subideal_bracket(S, ambient, depth)
            built.append(out)
            return out

        monkeypatch.setattr(multiplier, "subideal_bracket", logged)
        yield built
        clear_caches()

    def test_report_builds_each_closure_once(self, cold):
        # one chain: C_1 = [R, F] in F(8, 3), then C_2 = [C_1, F] in F(8, 4)
        report(heisenberg(4), 2)
        assert [(s.ambient_dim, s.rank) for s in cold] == [(204, 168), (1212, 1008)]

    def test_report_under_a_raised_cap_builds_each_closure_once(self, cold):
        # the same one chain under any cap: C_1 in F(12, 3), then C_2 in
        # F(12, 4), shared by the multiplier, the bounds and both verdicts
        out = report(heisenberg(6), 2, dim_cap=10**6)
        assert (out["dim_multiplier"], out["capable"], out["two_capable"]) == (572, False, False)
        assert [s.ambient_dim for s in cold] == [650, 5798]

    def test_cap_is_checked_on_every_memo_hit(self, cold):
        pres = present(heisenberg(6), 2, dim_cap=10**6)
        assert present(heisenberg(6), 2, dim_cap=10**6) is pres
        assert present(heisenberg(6), 2, dim_cap=5798) is pres
        # what the memo holds never decides whether a call answers
        with pytest.raises(DimensionCapError, match="rank 12 and class 4 has dimension 5798, cap is 5000"):
            present(heisenberg(6), 2)
        assert present(heisenberg(1), 2).ambient.dim == 8
        with pytest.raises(DimensionCapError, match="dimension 8, cap is 7"):
            nilpotent_multiplier(heisenberg(1), 2, dim_cap=7)
        with pytest.raises(DimensionCapError, match="dimension 8, cap is 7"):
            report(heisenberg(1), 2, dim_cap=7)

    def test_report_solves_the_relations_once(self, cold, monkeypatch):
        sizes = []
        kernel_image = multiplier._kernel_image

        def logged(pairs, offset):
            sizes.append(len(pairs))
            return kernel_image(pairs, offset)

        monkeypatch.setattr(multiplier, "_kernel_image", logged)
        report(heisenberg(4), 2)
        # R_{≤2} on the 28 words of length 2 (no relation involves one of
        # the 8 generators), shared by c = 1 and 2, then Z*_1 and Z*_2, each
        # on the dim L = 9 words off R_{≤2}
        assert sizes == [28, 9, 9]

    def test_cached_queries_hash_no_fraction(self, cold, monkeypatch):
        # an algebra's memo key is hashed once, not with every lookup
        L = fdlie.random_basis_change(heisenberg(2), random.Random(4))
        report(L, 2)
        hashed = []
        fraction_hash = Fraction.__hash__

        def counting(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        assert report(L, 2)["dim_multiplier"] == 20
        assert hashed == []

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("shape", ["H(2)", "H(1)+A(2)", "N(2,4)"])
    def test_report_builds_no_fraction(self, fractions_built, shape, c):
        # loads and report run on integers from the JSON text to the verdicts
        L = {
            "H(2)": heisenberg(2),
            "H(1)+A(2)": direct_sum(heisenberg(1), abelian(2)),
            "N(2,4)": fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 4), "N(2,4)"),
        }[shape]
        text = fdlie.dumps(fdlie.random_basis_change(L, random.Random(11)))
        clear_caches()
        with fractions_built() as built:
            moved = fdlie.loads(text)
            out = report(moved, c)
        clear_caches()
        assert built == [] and moved.den > 1
        assert out["dim_multiplier"] == nilpotent_multiplier(L, c).dimension

    def test_hashed_key(self):
        a, b = HashedKey(("x", (F(1, 2),))), HashedKey(("x", (F(1, 2),)))
        assert a == b and hash(a) == hash(b) == hash(("x", (F(1, 2),)))
        assert a != HashedKey(("x", (F(1, 3),)))
        assert (a, 1) != (1, 1) and a != ("x", (F(1, 2),))

    def test_report_takes_the_lower_series_once(self, cold, monkeypatch):
        calls = []
        lower_centrals = fdlie._lower_centrals

        def counted(L):
            calls.append(L.name)
            return lower_centrals(L)

        monkeypatch.setattr(fdlie, "_lower_centrals", counted)
        report(fdlie.random_basis_change(heisenberg(2), random.Random(3)), 2)
        assert len(calls) == 1

    def test_dropped_presentation_is_freed_without_the_cycle_collector(self, cold):
        # nothing a presentation derives refers back to it, nor does it refer
        # to the algebra's entry, so emptying the memo frees it by reference
        # counting alone
        gc.disable()
        try:
            pres = present(heisenberg(2), 2)
            assert pres.multiplier.dimension == 20
            ref = weakref.ref(pres)
            del pres
            clear_caches()
            assert ref() is None
        finally:
            gc.enable()

    def test_memo_keeps_at_most_memo_size_presentations(self, cold):
        # an algebra's presentations live in its one memo entry, so at most
        # MEMO_SIZE algebras keep one alive
        rng = random.Random(20)
        shapes = [heisenberg(1), direct_sum(heisenberg(1), abelian(1)), abelian(3)]
        alive = []
        for t in range(MEMO_SIZE + 1):
            L = fdlie.random_basis_change(shapes[t % 3], rng, name=f"L{t}")
            report(L, 2)
            alive.append([weakref.ref(present(L, c)) for c in (1, 2)])
        # one closure per presentation of H(1)⊕A(1); H(1) and A(3) have
        # R_{≤k} = 0, so their chains stay 0 and build none
        assert len(cold) == 2 * len(range(1, MEMO_SIZE + 1, 3))
        gc.collect()
        assert sum(any(ref() is not None for ref in refs) for refs in alive) <= MEMO_SIZE

    def test_clear_caches_forgets_everything(self, h1):
        F, pres = free_nilpotent(2, 3), present(h1, 2)
        assert nilmult.clear_caches is clear_caches
        nilmult.clear_caches()
        assert free_nilpotent(2, 3) is not F
        assert present(h1, 2) is not pres

    def test_ambient_is_never_built_twice(self):
        # a presentation kept in use keeps its ambient in the memo too, so
        # free_nilpotent hands out the same algebra the presentation holds
        pres = present(abelian(2), 2)
        for d in range(1, MEMO_SIZE + 2):
            free_nilpotent(d, 1)
            assert present(abelian(2), 2) is pres
        assert present(abelian(2), 2).ambient is free_nilpotent(2, 3)

    def test_a_query_at_one_weight_keeps_every_ambient_of_the_algebra(self):
        # the algebra's entry holds its presentations at c = 1 and 2, so a
        # query at c = 2 alone keeps F(2, 2), the ambient at c = 1, too
        one = present(abelian(2), 1)
        present(abelian(2), 2)
        for d in range(3, MEMO_SIZE + 3):
            free_nilpotent(d, 1)
            present(abelian(2), 2)
        assert free_nilpotent(2, 2) is one.ambient
        assert present(abelian(2), 1) is one


class TestWittOracles:
    """Multipliers whose dimensions are sums of Lyndon-word counts."""

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_abelian(self, c):
        # R = γ_2(F), so M^(c)(A(n)) = γ_{c+1}(F)/γ_{c+2}(F)
        for n in range(1, 5):
            got = nilpotent_multiplier(abelian(n), c).dimension
            assert got == witt(n, c + 1) == oracles.lyndon_count(n, c + 1), (n, c)

    @pytest.mark.parametrize("d, k, c", [(3, 3, 2), (4, 3, 2), (3, 4, 2), (2, 6, 2), (2, 2, 3), (2, 2, 4)])
    def test_free_nilpotent(self, d, k, c):
        # N(d,k) = F/γ_{k+1}(F), so M^(c) = γ_{max(k,c)+1}(F)/γ_{k+c+1}(F)
        L = fdlie.from_free_nilpotent(FreeNilpotentAlgebra(d, k), f"N({d},{k})")
        got = nilpotent_multiplier(L, c).dimension
        assert got == sum(oracles.lyndon_count(d, j) for j in range(max(k, c) + 1, k + c + 1))


class TestChevalleyEilenberg:
    """M(L) = H_2(L), by elimination on the exterior powers of L alone."""

    def test_schur_multiplier_is_h2(self):
        for L in truncation_shapes():
            want = oracles.h2_by_chevalley_eilenberg(L)
            assert nilpotent_multiplier(L, 1).dimension == want, L.name


class TestExteriorSquare:
    """dim M(L) = dim L∧L − dim L² and Z*_1(L) = Z^∧(L), the exterior
    centre, read off the exterior square L∧L alone."""

    def test_schur_multiplier_and_epicenter(self):
        non_capable = 0
        for L in TestCentralLineCriterion.algebras():
            wedge, derived, centre = oracles.exterior_square(L)
            assert nilpotent_multiplier(L, 1).dimension == wedge - derived, L.name
            assert z_star(L, 1) == Subspace(L.dim, centre), L.name
            non_capable += bool(centre)
        assert non_capable >= 5


class TestBeyondThePaper:
    """Weight c = 3 points computed by nilmult, with no closed form in the
    source paper: observations for comparison, not theorems."""

    @pytest.mark.parametrize("m, dim_m3, rank_z3", [
        (1, witt(2, 4) + witt(2, 5), 0),
        (2, witt(4, 4), 1),
        (3, witt(6, 4), 1),
    ])
    def test_heisenberg_weight_three(self, m, dim_m3, rank_z3):
        L = heisenberg(m)
        assert nilpotent_multiplier(L, 3).dimension == dim_m3 == {1: 9, 2: 60, 3: 315}[m]
        assert z_star(L, 3).rank == rank_z3


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


class TestNilpotencyGuard:
    @pytest.mark.parametrize("entry", [
        lambda L: present(L, 1),
        lambda L: present(relift(L, [{0: 1}, {1: 1}, {2: 1}]), 2),
        lambda L: nilpotent_multiplier(L, 2),
        lambda L: z_star(L, 1),
        is_capable,
        is_two_capable,
        lambda L: report(L, 2),
        bound_report,
        fdlie.recognize_derived_dim_one,
        lambda L: random_lift(L, random.Random(0)),
    ])
    def test_every_entry_point_names_the_stable_term(self, entry):
        with pytest.raises(NotNilpotentError, match="sl2 is not nilpotent: lower central series "
                                                    "stabilises at dimension 3") as exc:
            entry(sl2())
        assert exc.value.stabilized == Subspace.full(3)


class TestRandomLift:
    def test_lifts_are_generating(self, corpus):
        rng = random.Random(77)
        for L in corpus:
            lift = random_lift(L, rng)
            d = L.dim - series(L).gamma(2).rank
            assert len(lift) == d
            # independent mod L^2: with the rows of L^2 a basis of L, whose
            # rewritten algebra is presented on d generators
            pres = present(relift(L, lift), 1)
            assert pres.ambient.rank == d
