"""Hall bases, Witt counts, and the collected structure table of free
nilpotent Lie algebras, cross-checked against independent oracles."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nilmult import clear_caches, freelie
from nilmult.exactlin import Subspace
from nilmult.fdlie import from_free_nilpotent, heisenberg
from nilmult.freelie import (
    DimensionCapError,
    FreeNilpotentAlgebra,
    free_nilpotent,
    generator_labels,
    hall_basis,
    mobius,
    span_bracket_rows,
    witt,
)
from nilmult.multiplier import present, report

from oracles import (
    AssocPoly, closure_by_every_word, expand_combination, expand_hall_word, free_gamma, hall_words_by_filter,
    jacobi_table_by_recursion, lyndon_count,
)


class TestWitt:
    def test_generators_themselves(self):
        assert witt(2, 1) == 2

    def test_length_three_pair(self):
        # the two words [y,x,x] and [y,x,y]
        assert witt(2, 3) == 2

    def test_length_four_triple(self):
        assert witt(2, 4) == 3

    def test_pairs_count(self):
        assert witt(4, 2) == 6

    def test_matches_lyndon_enumeration(self):
        for d in range(0, 9):
            for n in range(1, 7):
                assert witt(d, n) == lyndon_count(d, n), (d, n)

    def test_mobius_values(self):
        assert [mobius(n) for n in range(1, 13)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
        ]


class TestHallBasis:
    def test_rank_two_class_one(self):
        assert [str(w) for w in hall_basis(2, 1)] == ["x", "y"]

    def test_rank_two_class_two(self):
        assert [str(w) for w in hall_basis(2, 2)] == ["x", "y", "[y,x]"]

    def test_rank_two_class_four_word_list(self):
        words = [str(w) for w in hall_basis(2, 4)]
        assert words == [
            "x",
            "y",
            "[y,x]",
            "[y,x,x]",
            "[y,x,y]",
            "[y,x,x,x]",
            "[y,x,x,y]",
            "[y,x,y,y]",
        ]

    def test_stratum_sizes_match_witt(self):
        for d in range(1, 9):
            words = hall_basis(d, 6)
            for n in range(1, 7):
                stratum = sum(1 for w in words if w.length == n)
                assert stratum == witt(d, n), (d, n)

    @pytest.mark.parametrize("d, c", [
        (d, c) for d in range(7) for c in range(1, 7) if sum(witt(d, n) for n in range(1, c + 1)) <= 5000
    ] + [(8, 4), (2, 10)])
    def test_matches_the_filter_and_sort_reference(self, d, c):
        reference = hall_words_by_filter(d, c)
        words = hall_basis(d, c)
        assert [(str(w), w.key, w.length, None if w.gen is not None else w.left.key,
                 None if w.gen is not None else w.right.key) for w in words] == [
            (text, key, length, left, right) for key, (text, length, left, right) in enumerate(reference)
        ]
        # the same pass gives the strata: stratum_starts[n] counts the words shorter than n
        lengths = [length for _, length, _, _ in reference]
        starts = FreeNilpotentAlgebra(d, c).stratum_starts
        assert tuple(starts) == (0,) + tuple(sum(1 for m in lengths if m < n) for n in range(1, c + 2))

    def test_hall_condition_holds_structurally(self):
        for w in hall_basis(3, 5):
            if w.gen is None:
                assert w.left.key > w.right.key
                if w.left.gen is None:
                    assert w.right.key >= w.left.right.key

    def test_keys_are_positions(self):
        words = hall_basis(4, 4)
        for i, w in enumerate(words):
            assert w.key == i

    def test_text_is_kept_after_the_first_str(self):
        def spelled(w):
            # the left-normed text, from the word's tree alone
            items, u = [], w
            while not u.is_generator:
                items.append(spelled(u.right))
                u = u.left
            items.append(generator_labels(3)[u.gen])
            return items[0] if len(items) == 1 else "[" + ",".join(reversed(items)) + "]"

        words = hall_basis(3, 5)
        # read longest first, so no bracket finds its factors' text made
        texts = [str(w) for w in reversed(words)][::-1]
        assert texts == [spelled(w) for w in words]
        assert all(str(w) is text for w, text in zip(words, texts))
        assert repr(words[-1]) == f"HallWord({texts[-1]})"

    def test_rank_at_most_one_stops_at_the_first_empty_stratum(self, monkeypatch):
        add, lengths = freelie._add_stratum, []

        def counted(words, starts, length):
            lengths.append(length)
            if len(lengths) > 5:
                raise AssertionError("hall_basis ran on past an empty stratum")
            return add(words, starts, length)

        monkeypatch.setattr(freelie, "_add_stratum", counted)
        for d in (0, 1):
            lengths.clear()
            assert [str(w) for w in hall_basis(d, 10**9)] == list(generator_labels(d))
            assert lengths == [2]

    def test_labels(self):
        assert generator_labels(2) == ("x", "y")
        assert generator_labels(3) == ("x1", "x2", "x3")
        assert generator_labels(0) == ()


class TestReduceBracket:
    def test_alternating(self):
        F = free_nilpotent(2, 4)
        for w in F.basis:
            assert F.bracket_row_index({w.key: 1}, w.key) == {}

    def test_antisymmetry_generator_pair(self):
        F = free_nilpotent(2, 2)
        assert F.bracket_row_index({1: 1}, 0) == {2: 1}
        assert F.bracket_row_index({0: 1}, 1) == {2: -1}

    def test_single_jacobi_step(self):
        # [[y,x,y], x] = [y,x,x,y]: one rewrite, the cross term vanishes
        F = free_nilpotent(2, 4)
        words = {str(w): w for w in F.basis}
        got = F.bracket_row_index({words["[y,x,y]"].key: 1}, words["x"].key)
        assert got == {words["[y,x,x,y]"].key: 1}

    def test_weight_overflow_is_zero(self):
        F = free_nilpotent(2, 4)
        words = {str(w): w for w in F.basis}
        assert F.bracket_row_index({words["[y,x,x]"].key: 1}, words["[y,x]"].key) == {}

    def test_antisymmetry_all_pairs(self):
        for F in (free_nilpotent(2, 4), free_nilpotent(3, 3)):
            for i in range(F.dim):
                for j in range(F.dim):
                    forward = F.bracket_row_index({i: 1}, j)
                    backward = F.bracket_row_index({j: 1}, i)
                    assert forward == {k: -c for k, c in backward.items()}, (i, j)


def _jacobi_defect(F, a, b, c):
    total: dict[int, int] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = F.bracket_row_index({y: 1}, z)
        for k, ck in inner.items():
            for t, ct in F.bracket_row_index({x: 1}, k).items():
                n = total.get(t, 0) + ck * ct
                if n:
                    total[t] = n
                else:
                    del total[t]
    return total


class TestStructureTable:
    def test_jacobi_exhaustive_small(self):
        for F in (free_nilpotent(2, 4), free_nilpotent(3, 3)):
            n = F.dim
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(b + 1, n):
                        assert _jacobi_defect(F, a, b, c) == {}, (a, b, c)

    def test_jacobi_randomized_large(self):
        F = free_nilpotent(6, 4)
        assert F.dim == 406
        rng = random.Random(404)
        for _ in range(10_000):
            a, b, c = (rng.randrange(F.dim) for _ in range(3))
            assert _jacobi_defect(F, a, b, c) == {}, (a, b, c)

    def test_table_against_associative_expansion(self):
        # every basis pair of the rank-2 class-4 algebra, compared inside
        # the degree-4 truncation of the free associative algebra
        F = free_nilpotent(2, 4)
        expansions = [expand_hall_word(w, 4) for w in F.basis]
        for i in range(F.dim):
            for j in range(F.dim):
                direct = expansions[i].commutator(expansions[j])
                collected = expand_combination(F.bracket_row_index({i: 1}, j), F.basis, 4)
                assert direct == collected, (i, j)


_EXPANSIONS = {(d, c): [expand_hall_word(w, c) for w in hall_basis(d, c)] for d, c in ((2, 4), (3, 3))}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_bracket_matches_associative_expansion(data):
    # [row, e_j] for a random integer row, against Σ row_i·(e_i e_j − e_j e_i)
    # in the truncated free associative algebra
    d, c = data.draw(st.sampled_from(sorted(_EXPANSIONS)))
    F = free_nilpotent(d, c)
    coeff = st.integers(min_value=-5, max_value=5).filter(bool)
    row = data.draw(st.dictionaries(st.integers(min_value=0, max_value=F.dim - 1), coeff, max_size=6))
    j = data.draw(st.integers(min_value=0, max_value=F.dim - 1))
    words = _EXPANSIONS[(d, c)]
    expected = AssocPoly({}, c)
    for i, ci in row.items():
        expected = expected + words[i].commutator(words[j]).scale(ci)
    assert expand_combination(F.bracket_row_index(row, j), F.basis, c) == expected


def _pairs_within_class(F):
    """Every pair i < j whose product the class does not cut off."""
    starts, c = F.stratum_starts, F.nilpotency_class
    return [(i, j) for i in range(F.dim) for j in range(i + 1, starts[c - F.weight(i) + 1])]


class TestTableBuild:
    @pytest.mark.parametrize("d, c", [(2, 6), (3, 4), (8, 4)])
    def test_free_view_is_the_table(self, d, c):
        # one layout: each pair once, keyed i < j, and the structure-constant
        # view of F holds exactly that table
        F = FreeNilpotentAlgebra(d, c)
        products = F.products()
        assert all(i < j for i, j in products) and list(products) == sorted(products)
        assert from_free_nilpotent(F)._num == products

    @pytest.mark.parametrize("d, c", [(2, 6), (3, 5), (2, 8), (3, 6), (4, 5), (8, 4)])
    def test_matches_recursive_reference(self, d, c):
        F = FreeNilpotentAlgebra(d, c)
        reference = jacobi_table_by_recursion(F)
        # the table holds the reference's i < j half; its i > j half is the negation
        assert F.products() == {(i, j): combo for (i, j), combo in reference.items() if i < j}
        for (i, j), combo in reference.items():
            if i > j:
                assert combo == {k: -v for k, v in reference[(j, i)].items()}, (i, j)

    @pytest.mark.parametrize("d, c", [(2, 6), (3, 4), (8, 4)])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_any_read_order_gives_the_reference(self, d, c, order):
        # a product is computed on its first read, whatever was read before it
        F = FreeNilpotentAlgebra(d, c)
        pairs = _pairs_within_class(F)
        if order == "reversed":
            pairs.reverse()
        else:
            random.Random(16 * d + c).shuffle(pairs)
        got = {(i, j): F.bracket_row_index({i: 1}, j) for i, j in pairs}
        reference = jacobi_table_by_recursion(F)
        assert {pair: combo for pair, combo in got.items() if combo} == {
            (i, j): combo for (i, j), combo in reference.items() if i < j
        }

    def test_report_computes_a_fraction_of_the_table(self):
        # report(H(4), 2) reads about a quarter of F(8, 4)'s products, and
        # no product is computed before it is read
        clear_caches()
        report(heisenberg(4), 2)
        F = free_nilpotent(8, 4)
        assert len(_pairs_within_class(F)) == 1974
        assert 0 < len(F._table) < 1974 // 2

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert FreeNilpotentAlgebra(8, 4).dim == 1212
        F = FreeNilpotentAlgebra(2, 10)
        assert F.dim == 226
        # read backwards, each product nests the fills of those it rests on
        for i, j in reversed(_pairs_within_class(F)):
            F.bracket_row_index({i: 1}, j)
        assert len(F._table) == len(_pairs_within_class(F))


class TestFreeNilpotent:
    def test_rank_two_class_two_is_heisenberg_shaped(self):
        F = free_nilpotent(2, 2)
        assert F.dim == 3
        assert F.bracket_row_index({1: 1}, 0) == {2: 1}
        for i in range(3):
            for j in range(3):
                if {i, j} != {0, 1}:
                    assert F.bracket_row_index({i: 1}, j) == {}

    def test_single_generator_is_abelian(self):
        for c in (1, 2, 5):
            F = free_nilpotent(1, c)
            assert F.dim == 1
            assert F.bracket_row_index({0: 1}, 0) == {}

    def test_dimension_and_middle_quotient(self):
        F = free_nilpotent(2, 4)
        assert F.dim == 8
        assert free_gamma(F, 3).quotient_dim(free_gamma(F, 5)) == 5

    def test_dim_is_witt_sum(self):
        for d, c in ((2, 4), (3, 3), (4, 2), (5, 2)):
            F = free_nilpotent(d, c)
            assert F.dim == sum(witt(d, n) for n in range(1, c + 1))

    def test_stratum_starts(self):
        F = free_nilpotent(2, 4)
        assert tuple(F.stratum_starts) == (0, 0, 2, 3, 5, 8)
        assert [F.weight(i) for i in range(F.dim)] == [1, 1, 2, 3, 3, 4, 4, 4]

    def test_gamma_chain(self):
        F = free_nilpotent(3, 3)
        ranks = [free_gamma(F, k).rank for k in range(1, 5)]
        assert ranks == [14, 11, 8, 0]

    def test_rank_zero_algebra(self):
        F = free_nilpotent(0, 3)
        assert F.dim == 0
        assert free_gamma(F, 1).rank == 0

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            free_nilpotent(8, 6)
        with pytest.raises(DimensionCapError):
            free_nilpotent(2, 4, dim_cap=7)

    def test_cache_returns_same_object(self):
        assert free_nilpotent(2, 4) is free_nilpotent(2, 4)


class TestSpanBracketRows:
    def test_full_algebra_brackets_to_derived(self):
        F = free_nilpotent(2, 2)
        rows = [{i: 1} for i in range(F.dim)]
        out = span_bracket_rows(F, rows, F.nilpotency_class)
        assert len(out) == 1
        assert out[0] == {2: 1}

    def test_zero_in_zero_out(self):
        F = free_nilpotent(2, 3)
        assert span_bracket_rows(F, [], F.nilpotency_class) == []

    def test_matches_gamma_shift(self):
        # bracketing a whole stratum span against F lands in the next stratum
        F = free_nilpotent(3, 3)
        start = F.stratum_starts[2]
        rows = [{i: 1} for i in range(start, F.dim)]
        out = span_bracket_rows(F, rows, F.nilpotency_class)
        pivots = sorted(min(r) for r in out)
        assert pivots == list(range(F.stratum_starts[3], F.dim))

    def test_ceiling_keeps_only_light_products(self):
        # [F, F] = γ_2(F); cut at weight 3 it is the words of length 2 and 3
        F = FreeNilpotentAlgebra(2, 4)
        rows = [{i: 1} for i in range(F.dim)]
        starts = F.stratum_starts
        assert span_bracket_rows(F, rows, 3) == [{i: 1} for i in range(starts[2], starts[4])]
        assert span_bracket_rows(F, rows, 1) == []
        # a mixed row keeps the products of its light part only
        mixed = {0: 1, starts[3]: 1}
        assert span_bracket_rows(F, [mixed], 3) == span_bracket_rows(F, [{0: 1}], 3)


class TestSpanBracketRules:
    """When the kernel's carry fires, and that the answer is the same when
    it does not."""

    @staticmethod
    def count_work(monkeypatch) -> dict:
        calls = {"bracket": 0, "product": 0, "insert": 0, "canonical": 0}
        bracket = FreeNilpotentAlgebra.bracket_row_index

        def counted_bracket(self, row, j):
            out = bracket(self, row, j)
            calls["bracket"] += 1
            calls["product"] += bool(out)
            return out

        class CountedSpanner(freelie._Spanner):
            __slots__ = ()

            def insert(self, vec):
                calls["insert"] += 1
                return super().insert(vec)

            def canonical(self):
                calls["canonical"] += 1
                return super().canonical()

        monkeypatch.setattr(FreeNilpotentAlgebra, "bracket_row_index", counted_bracket)
        monkeypatch.setattr(freelie, "_Spanner", CountedSpanner)
        return calls

    def test_full_stratum_is_carried_without_products(self, monkeypatch):
        F = free_nilpotent(3, 3)
        starts = F.stratum_starts
        calls = self.count_work(monkeypatch)
        out = span_bracket_rows(F, [{j: 1} for j in range(starts[2], starts[3])], F.nilpotency_class)
        assert calls["bracket"] == 0
        assert out == [{j: 1} for j in range(starts[3], starts[4])]

    def test_relations_of_h3_span_the_weight_3_block(self):
        # R_{≤2} of H(3) brackets onto all 70 words of weight 3 of F(6, 3)
        pres = present(heisenberg(3), 1)
        F = pres.ambient
        starts = F.stratum_starts
        out = span_bracket_rows(F, pres.short_relations.integer_rows(), 3)
        assert out == [{j: 1} for j in range(starts[3], starts[4])] and len(out) == witt(6, 3) == 70

    def test_one_unit_row_short_does_not_carry(self, monkeypatch):
        F = free_nilpotent(3, 3)
        starts = F.stratum_starts
        rows = [{j: 1} for j in range(starts[2] + 1, starts[3])]
        want = closure_by_every_word(Subspace(F.dim, rows), F, 1)
        calls = self.count_work(monkeypatch)
        out = span_bracket_rows(F, rows, F.nilpotency_class)
        assert calls["bracket"] > 0 and calls["insert"] == calls["product"] and calls["canonical"] == 1
        assert out == list(want.integer_rows()) and len(out) < witt(3, 3)
