"""Hall bases, Witt counts, and the collected structure table of free
nilpotent Lie algebras, cross-checked against independent oracles."""

import builtins
import random
import sys

import pytest

from nilmult import freelie
from nilmult.freelie import (
    DimensionCapError,
    FreeNilpotentAlgebra,
    HallTableError,
    free_nilpotent,
    generator_labels,
    hall_basis,
    mobius,
    span_bracket_rows,
    witt,
)

from oracles import expand_combination, expand_hall_word, jacobi_table_by_recursion, lyndon_count


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

    def test_labels(self):
        assert generator_labels(2) == ("x", "y")
        assert generator_labels(3) == ("x1", "x2", "x3")
        assert generator_labels(0) == ()

    def test_custom_labels(self):
        words = hall_basis(2, 2, labels=("a", "b"))
        assert [str(w) for w in words] == ["a", "b", "[b,a]"]
        with pytest.raises(ValueError):
            hall_basis(2, 2, labels=("a",))


class TestReduceBracket:
    def test_alternating(self):
        F = free_nilpotent(2, 4)
        for w in F.basis:
            assert F.reduce_bracket(w, w) == {}

    def test_antisymmetry_generator_pair(self):
        F = free_nilpotent(2, 2)
        x, y = F.basis[0], F.basis[1]
        assert F.reduce_bracket(y, x) == {2: 1}
        assert F.reduce_bracket(x, y) == {2: -1}

    def test_single_jacobi_step(self):
        # [[y,x,y], x] = [y,x,x,y]: one rewrite, the cross term vanishes
        F = free_nilpotent(2, 4)
        words = {str(w): w for w in F.basis}
        got = F.reduce_bracket(words["[y,x,y]"], words["x"])
        assert got == {words["[y,x,x,y]"].key: 1}

    def test_weight_overflow_is_zero(self):
        F = free_nilpotent(2, 4)
        words = {str(w): w for w in F.basis}
        assert F.reduce_bracket(words["[y,x,x]"], words["[y,x]"]) == {}

    def test_foreign_word_rejected(self):
        F = free_nilpotent(2, 4)
        other = free_nilpotent(3, 2)
        with pytest.raises(ValueError):
            F.reduce_bracket(other.basis[0], F.basis[1])

    def test_antisymmetry_all_pairs(self):
        for F in (free_nilpotent(2, 4), free_nilpotent(3, 3)):
            for i in range(F.dim):
                for j in range(F.dim):
                    forward = F.bracket_indices(i, j)
                    backward = F.bracket_indices(j, i)
                    assert forward == {k: -c for k, c in backward.items()}, (i, j)


def _jacobi_defect(F, a, b, c):
    total: dict[int, int] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = F.bracket_indices(y, z)
        for k, ck in inner.items():
            for t, ct in F.bracket_indices(x, k).items():
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
                collected = expand_combination(F.bracket_indices(i, j), F.basis, 4)
                assert direct == collected, (i, j)


class TestTableBuild:
    @pytest.mark.parametrize("d, c", [(2, 6), (3, 5), (2, 8), (3, 6), (4, 5), (8, 4)])
    def test_matches_recursive_reference(self, d, c):
        F = FreeNilpotentAlgebra(d, c)
        assert F._table == jacobi_table_by_recursion(F)

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert FreeNilpotentAlgebra(8, 4).dim == 1212
        assert FreeNilpotentAlgebra(2, 10).dim == 226

    def test_out_of_order_read_raises(self, monkeypatch):
        # visiting every range backwards reads weight-3 products while
        # building weight 4, before they exist; that must not count as zero
        F = FreeNilpotentAlgebra(2, 4)
        monkeypatch.setattr(
            freelie, "range", lambda *args: reversed(builtins.range(*args)), raising=False
        )
        with pytest.raises(HallTableError, match="before it was computed"):
            F._build_table()


class TestFreeNilpotent:
    def test_rank_two_class_two_is_heisenberg_shaped(self):
        F = free_nilpotent(2, 2)
        assert F.dim == 3
        assert F.bracket_indices(1, 0) == {2: 1}
        for i in range(3):
            for j in range(3):
                if {i, j} != {0, 1}:
                    assert F.bracket_indices(i, j) == {}

    def test_single_generator_is_abelian(self):
        for c in (1, 2, 5):
            F = free_nilpotent(1, c)
            assert F.dim == 1
            assert F.bracket_indices(0, 0) == {}

    def test_dimension_and_middle_quotient(self):
        F = free_nilpotent(2, 4)
        assert F.dim == 8
        assert F.gamma(3).quotient_dim(F.gamma(5)) == 5

    def test_dim_is_witt_sum(self):
        for d, c in ((2, 4), (3, 3), (4, 2), (5, 2)):
            F = free_nilpotent(d, c)
            assert F.dim == sum(witt(d, n) for n in range(1, c + 1))

    def test_stratum_starts(self):
        F = free_nilpotent(2, 4)
        assert F.stratum_starts == (0, 0, 2, 3, 5, 8)
        assert [F.weight(i) for i in range(F.dim)] == [1, 1, 2, 3, 3, 4, 4, 4]

    def test_gamma_chain(self):
        F = free_nilpotent(3, 3)
        ranks = [F.gamma(k).rank for k in range(1, 5)]
        assert ranks == [14, 11, 8, 0]
        with pytest.raises(ValueError):
            F.gamma(0)

    def test_rank_zero_algebra(self):
        F = free_nilpotent(0, 3)
        assert F.dim == 0
        assert F.gamma(1).rank == 0

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
        out = span_bracket_rows(F, rows)
        assert len(out) == 1
        assert out[0] == {2: 1}

    def test_zero_in_zero_out(self):
        F = free_nilpotent(2, 3)
        assert span_bracket_rows(F, []) == []

    def test_matches_gamma_shift(self):
        # bracketing a whole stratum span against F lands in the next stratum
        F = free_nilpotent(3, 3)
        start = F.stratum_starts[2]
        rows = [{i: 1} for i in range(start, F.dim)]
        out = span_bracket_rows(F, rows)
        pivots = sorted(min(r) for r in out)
        assert pivots == list(range(F.stratum_starts[3], F.dim))
