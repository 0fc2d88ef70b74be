"""Exact rational linear algebra: row reduction, kernels, lattice operations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilmult import exactlin
from nilmult.exactlin import ContainmentError, Subspace, _as_fraction, _kernel_image, _Spanner
from nilmult.fdlie import from_free_nilpotent, heisenberg, random_basis_change, upper_centrals
from nilmult.freelie import free_nilpotent
from nilmult.multiplier import present, subideal_bracket

import oracles


F = Fraction


def span(*vectors, dim):
    return Subspace(dim, vectors)


def kernel(*equations, dim):
    """Null space of the equations (rows of coefficients) in Q^dim, as one
    ``_kernel_image``: unknown c has its column of the cleared equations as
    its image and e_c as its tag."""
    rows = span(*equations, dim=dim).integer_rows()
    pairs = [({e: row[c] for e, row in enumerate(rows) if c in row}, {c: 1}) for c in range(dim)]
    return Subspace._from_rows(dim, _kernel_image(pairs, len(rows))[1])


class TestRref:
    def test_identity_fixed_point(self):
        u = span([1, 0], [0, 1], dim=2)
        assert u.integer_rows() == ({0: 1}, {1: 1})
        assert u.rank == 2

    def test_dependent_rows(self):
        u = span([1, 2], [2, 4], dim=2)
        assert u.rank == 1
        assert list(u.rational_rows()) == [{0: 1, 1: 2}]

    def test_hand_elimination(self):
        u = span([0, 1, 1], [1, 0, 1], [1, 1, 0], dim=3)
        assert u.rank == 3
        assert u == Subspace.full(3)
        assert u.integer_rows() == ({0: 1}, {1: 1}, {2: 1})

    def test_idempotent(self):
        rng = random.Random(2024)
        for _ in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            once = span(*[[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], dim=cols)
            twice = span(*once.rational_rows(), dim=cols)
            assert once == twice
            assert once.integer_rows() == twice.integer_rows()
            assert once.rank == twice.rank

    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 7)
            equations = [
                [F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(cols)]
                for _ in range(rows)
            ]
            assert span(*equations, dim=cols).rank + kernel(*equations, dim=cols).rank == cols


class TestKernel:
    def test_identity_kernel_is_zero(self):
        k = kernel([1, 0, 0], [0, 1, 0], [0, 0, 1], dim=3)
        assert k.rank == 0
        assert k.is_zero

    def test_difference_functional(self):
        k = kernel([1, -1], dim=2)
        assert k.rank == 1
        assert k == span([1, 1], dim=2)

    def test_solutions_substitute_back(self):
        k = kernel([1, 2, 3], dim=3)
        assert k.rank == 2
        for row in k.rational_rows():
            dot = sum(coeff * F(1 + c) for c, coeff in row.items())
            assert dot == 0

    def test_solutions_are_canonical(self):
        # the solutions for the free columns 1 and 2 both start on column 0
        k = kernel([1, 1, 1], dim=3)
        assert k.pivots == (0, 1)
        assert k.reduce([0, 1, -1]) == {}
        assert k == span([1, -1, 0], [1, 0, -1], dim=3)


class TestSumIntersect:
    def test_sum_of_coordinate_lines(self):
        u = span([1, 0, 0], dim=3)
        w = span([0, 1, 0], dim=3)
        assert u.sum(w) == Subspace.coordinate_span(3, [0, 1])

    def test_sum_idempotent(self):
        u = span([1, 2, 0], [0, 0, 5], dim=3)
        assert u.sum(u) == u

    def test_sum_of_diagonals(self):
        u = span([1, 1], dim=2)
        w = span([1, -1], dim=2)
        assert u.sum(w) == Subspace.full(2)

    def test_intersect_coordinate_planes(self):
        u = Subspace.coordinate_span(3, [0, 1])
        w = Subspace.coordinate_span(3, [1, 2])
        assert u.intersect(w) == span([0, 1, 0], dim=3)

    def test_intersect_with_zero(self):
        u = span([1, 2, 3], dim=3)
        assert u.intersect(Subspace.zero(3)).is_zero

    def test_skew_intersection_is_zero(self):
        u = span([1, 1, 0], [0, 0, 1], dim=3)
        w = span([1, 1, 1], dim=3)
        assert u.intersect(w).rank == 1  # (1,1,1) = (1,1,0) + (0,0,1)
        v = span([1, 2, 0], [0, 0, 1], dim=3)
        assert v.intersect(span([1, 1, 1], dim=3)).is_zero

    def test_intersection_members_lie_in_both(self):
        rng = random.Random(11)
        for _ in range(20):
            dim = rng.randrange(2, 8)
            u = span(*[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(3)], dim=dim)
            w = span(*[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(3)], dim=dim)
            both = u.intersect(w)
            for row in both.integer_rows():
                assert not u.reduce(row)
                assert not w.reduce(row)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            span([1], dim=1).sum(span([1, 0], dim=2))
        with pytest.raises(ValueError):
            span([1], dim=1).intersect(span([1, 0], dim=2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modular_law(data):
    dim = data.draw(st.integers(min_value=1, max_value=12))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
    u = Subspace(dim, data.draw(st.lists(vec, max_size=4)))
    w = Subspace(dim, data.draw(st.lists(vec, max_size=4)))
    assert u.sum(w).rank + u.intersect(w).rank == u.rank + w.rank


class TestQuotientDim:
    def test_plane_over_line(self):
        u = Subspace.coordinate_span(3, [0, 1])
        w = span([1, 0, 0], dim=3)
        assert u.quotient_dim(w) == 1

    def test_self_quotient(self):
        u = span([1, 2], [0, 1], dim=2)
        assert u.quotient_dim(u) == 0

    def test_non_containment_reports_witness(self):
        u = span([1, 0, 0], dim=3)
        w = span([0, 1, 0], dim=3)
        with pytest.raises(ContainmentError) as exc:
            u.quotient_dim(w)
        witness = exc.value.witness
        assert witness
        assert u.reduce(witness)


class TestReduce:
    def test_member_reduces_to_nothing(self):
        u = span([1, 1, 0], [0, 0, 2], dim=3)
        assert u.reduce([2, 2, 7]) == {}

    def test_residual_avoids_pivot_columns(self):
        # the residual must be the canonical representative mod the subspace,
        # so no pivot column of the subspace may survive in it
        u = span([0, 1, 0, 0, 1], [0, 0, 0, 0, 3], dim=5)
        r = u.reduce({0: 1, 1: 2, 4: 5})
        assert set(r) == {0}
        assert r[0] == 1

    def test_residuals_witness_dependence(self):
        # two vectors congruent mod the subspace get opposite residuals;
        # a trailing component inside the subspace must not mask that
        u = span([0, 0, 0, 0, 1], dim=5)
        v2 = {0: F(-1), 1: F(1), 2: F(-1), 3: F(1), 4: F(-2)}
        v3 = {0: F(1), 1: F(-1), 2: F(1), 3: F(-1), 4: F(-1)}
        r2, r3 = u.reduce(v2), u.reduce(v3)
        assert r2 == {c: -x for c, x in r3.items()}

    def test_rejects_floats(self):
        u = span([1, 0], dim=2)
        with pytest.raises(TypeError):
            u.reduce([0.5, 1])

    def test_out_of_range_index(self):
        u = span([1, 0], dim=2)
        with pytest.raises(ValueError):
            u.reduce({5: F(1)})

    def test_negative_index(self):
        u = Subspace(3, [{0: 1}])
        with pytest.raises(ValueError, match="index -2 outside"):
            u.reduce({-2: 5})

    def test_residual_is_rational(self):
        u = span([2, 1, 0], [0, 3, 1], dim=3)
        r = u.reduce({0: 1, 2: 1})
        assert r and all(type(x) is Fraction for x in r.values())


_small_fraction = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 1, 2, 3, 5])
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_matches_reference(data):
    dim = data.draw(st.integers(min_value=1, max_value=10))
    vec = st.lists(_small_fraction, min_size=dim, max_size=dim)
    S = Subspace(dim, data.draw(st.lists(vec, max_size=6)))
    rows = list(S.rational_rows())
    if data.draw(st.booleans()) and rows:
        # a member: a random rational combination of the basis
        coeffs = data.draw(st.lists(_small_fraction, min_size=len(rows), max_size=len(rows)))
        v = {}
        for k, row in zip(coeffs, rows):
            for c, x in row.items():
                v[c] = v.get(c, 0) + k * x
        v = {c: x for c, x in v.items() if x}
        member = True
    else:
        v = dict(enumerate(data.draw(vec)))
        member = None
    got = S.reduce(v)
    assert got == oracles.reduce_by_every_pivot(S, v)
    if member:
        assert got == {}
    assert not set(got) & set(S.pivots)
    diff = {c: v.get(c, 0) - got.get(c, 0) for c in set(v) | set(got)}
    assert Subspace(dim, list(S.integer_rows()) + [diff]).rank == S.rank


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_residue_is_the_integer_form_of_reduce(data):
    # a canonical basis whose pivot entries need not be 1: row p holds a on
    # its pivot and small integers on the free columns after it
    dim = data.draw(st.integers(min_value=2, max_value=9))
    pivots = sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1)))
    free = [c for c in range(dim) if c not in pivots]
    rows = []
    for p in pivots:
        row = {p: data.draw(st.integers(2, 6))}
        for c in free:
            if c > p and (x := data.draw(st.integers(-4, 4))):
                row[c] = x
        rows.append(row)
    S = Subspace(dim, rows)
    assert S.pivots == tuple(pivots)
    assume(any(r[min(r)] != 1 for r in S.integer_rows()))
    vectors = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            # a member: an integer combination of the basis rows
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            v = {}
            for k, row in zip(coeffs, S.integer_rows()):
                for c, x in row.items():
                    v[c] = v.get(c, 0) + k * x
            v = {c: x for c, x in v.items() if x}
        else:
            v = {c: x for c in range(dim) if (x := data.draw(st.integers(-5, 5)))}
        scale, residue = S._residue(v)
        assert scale >= 1 and all(type(x) is int for x in residue.values())
        assert not set(residue) & set(S.pivots)
        assert S.reduce(v) == {c: F(x, scale) for c, x in residue.items()} == oracles.reduce_by_every_pivot(S, v)
        assert (not residue) == (Subspace(dim, [*S.integer_rows(), v]).rank == S.rank)
        assert (not residue) == S.contains_subspace(Subspace(dim, [v]))
        vectors.append(v)
    # _residues brings them to one scale, the lcm of theirs
    common, residues = S._residues(vectors)
    assert common == math.lcm(*(S._residue(v)[0] for v in vectors))
    assert len(residues) == len(vectors)
    for v, w in zip(vectors, residues):
        assert all(type(x) is int for x in w.values())
        assert {c: F(x, common) for c, x in w.items()} == S.reduce(v)


# images of up to seven unknowns over int and tuple coordinates, with int
# and Fraction values (zeros included), empty images and all-zero maps
_image = st.dictionaries(
    st.one_of(st.integers(min_value=0, max_value=3), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.one_of(st.integers(min_value=-3, max_value=3), _small_fraction),
    max_size=4,
)


def kernel_of_images(images):
    """Canonical rows of {x : Σ_t x_t · images[t] = 0} by one ``_kernel_image``:
    the coordinates are numbered in order of appearance, and unknown t's
    image, cleared to (s_t, s_t · image), is tagged with s_t · e_t, so the
    tags of the combinations that cancel are the kernel in x.  The tags are
    independent, so the rank is the number of unknowns."""
    cols, pairs = {}, []
    for t, image in enumerate(images):
        s, row = oracles.as_scaled_image(image)
        pairs.append(({cols.setdefault(col, len(cols)): v for col, v in row.items()}, {t: s}))
    rank, rows = _kernel_image(pairs, len(cols))
    assert rank == len(images)
    return rows


class TestKernelOfMap:
    """The kernel of a linear map x ↦ Σ_t x_t · images[t], solved as one
    ``_kernel_image``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_image, max_size=7))
    def test_matches_fraction_gauss_jordan(self, images):
        rows = kernel_of_images(images)
        rref = [{t: F(y, r[min(r)]) for t, y in r.items()} for r in rows]
        assert rref == oracles.kernel_by_fractions(images)
        for r in rows:
            assert r[min(r)] > 0 and math.gcd(*r.values()) == 1
            image = {}
            for t, y in r.items():
                for col, v in images[t].items():
                    image[col] = image.get(col, 0) + y * v
            assert not any(image.values())

    def test_hand_cases(self):
        assert kernel_of_images([]) == []
        # explicit zeros are dropped, not inserted
        assert kernel_of_images([{}, {"a": 0}, {(1, 2): F(0)}]) == [{0: 1}, {1: 1}, {2: 1}]
        # x0/2 + x1/3 = 0; the scales 2 and 3 sit in the tags
        assert kernel_of_images([{(0, 0): F(1, 2)}, {(0, 0): F(1, 3)}]) == [{0: 2, 1: -3}]
        # equal scales: the tagged row comes out primitive
        assert kernel_of_images([{0: F(1, 2)}, {0: F(-1, 2)}, {1: 1}]) == [{0: 1, 1: 1}]
        # an int value is scaled with the Fraction values of its unknown
        assert kernel_of_images([{1: 1, 2: 1}, {1: 1, 2: F(1, 2)}]) == []

    def test_rank_counts_dependent_tags(self):
        # two equal rows: their difference cancels on the image and on the
        # tag alike, so no row comes out and the rank falls to 1
        assert _kernel_image([({0: 1}, {0: 1}), ({0: 1}, {0: 1})], 1) == (1, [])
        # the tags need not be units: the cancelling combination's tag
        assert _kernel_image([({0: 2}, {0: 1, 1: 1}), ({0: 1}, {1: 1})], 1) == (2, [{0: 1, 1: -1}])


# independent rows over eight columns, then combinations of them
_row = st.dictionaries(st.integers(0, 7), st.integers(-4, 4).filter(bool), min_size=1, max_size=5)


def _rows_and_combinations(data) -> list[dict[int, int]]:
    """Drawn rows, then integer combinations of them, in a drawn order."""
    base = data.draw(st.lists(_row, max_size=6))
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    dependent = []
    for w in data.draw(st.lists(weights, max_size=4)):
        combo = {}
        for x, row in zip(w, base):
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + x * v
        dependent.append({c: v for c, v in combo.items() if v})
    return data.draw(st.permutations([*base, *dependent]))


class TestSpanner:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_insertion_order_gives_the_fraction_rref(self, data):
        order = _rows_and_combinations(data)
        want = oracles.rref_by_fractions(order, 8)
        for _ in range(2):
            order = data.draw(st.permutations(order))
            copies = [dict(r) for r in order]
            sp = _Spanner()
            for row in copies:
                before = sp.rank
                assert sp.insert(row) == (sp.rank == before + 1)
            assert copies == order  # insert leaves its argument alone
            assert all(min(r) == p for p, r in sp.rows.items())
            rows = sp.canonical()
            assert [{c: F(v, r[min(r)]) for c, v in r.items()} for r in rows] == want
            assert all(r[min(r)] > 0 and math.gcd(*r.values()) == 1 for r in rows)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_are_canonical_after_every_insert(self, data):
        # the stored rows are the RREF of what was inserted so far, and the
        # one reduction both insert and Subspace._residue run agrees with
        # the walk over every pivot
        order = _rows_and_combinations(data)
        sp = _Spanner()
        for t, row in enumerate(order):
            sp.insert(row)
            rows = [sp.rows[p] for p in sorted(sp.rows)]
            assert [{c: F(v, r[min(r)]) for c, v in r.items()} for r in rows] == \
                oracles.rref_by_fractions(order[: t + 1], 8)
            assert all(min(r) == p and r[p] > 0 and math.gcd(*r.values()) == 1 for p, r in sp.rows.items())
            v = data.draw(_row)
            scale, residue = exactlin._reduce(v, sp.rows)
            assert scale >= 1 and not set(residue) & set(sp.rows)
            S = Subspace._from_rows(8, rows)
            assert {c: F(x, scale) for c, x in residue.items()} == oracles.reduce_by_every_pivot(S, v)


class TestSubspaceBasics:
    def test_canonical_equality(self):
        a = span([2, 4, 0], [1, 2, 1], dim=3)
        b = span([1, 2, 0], [0, 0, 1], [3, 6, 5], dim=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_pivot_entries_are_one_and_isolated(self):
        u = span([3, 1, 4], [1, 5, 9], dim=3)
        rows = list(u.rational_rows())
        for i, p in enumerate(u.pivots):
            assert rows[i][p] == 1
            assert all(p not in row for j, row in enumerate(rows) if j != i)
        # every trusted producer must hand over canonical rows as well
        for name, S in _trusted_subspaces():
            _assert_canonical(name, S)

    def test_intersect_suffix_matches_generic_intersection(self):
        rng = random.Random(3)
        for _ in range(15):
            dim = rng.randrange(2, 9)
            u = span(*[[rng.randint(-2, 2) for _ in range(dim)] for _ in range(4)], dim=dim)
            start = rng.randrange(dim + 1)
            suffix = Subspace.coordinate_span(dim, range(start, dim))
            assert u.intersect_suffix(start) == u.intersect(suffix)

    def test_contains_subspace(self):
        u = Subspace.coordinate_span(4, [0, 1, 2])
        w = span([1, 1, 0, 0], dim=4)
        assert u.contains_subspace(w)
        assert not w.contains_subspace(u)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index -1 outside"):
            Subspace(3, [{-1: 1}, {0: 2}])

    def test_full_and_zero(self):
        assert Subspace.full(3).rank == 3
        assert Subspace.zero(3).rank == 0
        assert Subspace.full(0).rank == 0


class TestExactInput:
    def test_one_check_matches_fraction_reference(self, monkeypatch):
        # the constructor and reduce read each vector through _cleared
        cleared, calls = exactlin._cleared, []
        monkeypatch.setattr(exactlin, "_cleared", lambda vec, n: calls.append(n) or cleared(vec, n))
        rng = random.Random(19)

        def draw(n):
            values = [0, F(0), 1, -3, F(2, 3), F(-5, 4), F(7, 6), F(4, 2)]
            vec = {c: rng.choice(values) for c in rng.sample(range(n), rng.randint(0, n))}
            return vec if rng.random() < 0.5 else [vec.get(c, 0) for c in range(n)]

        def as_dict(vec):
            return dict(vec) if isinstance(vec, dict) else dict(enumerate(vec))

        for _ in range(80):
            n = rng.randint(1, 6)
            vectors = [draw(n) for _ in range(rng.randint(0, 4))]
            calls.clear()
            S = Subspace(n, vectors)
            assert calls == [n] * len(vectors)
            want = oracles.rref_by_fractions([as_dict(v) for v in vectors], n)
            assert list(S.rational_rows()) == want
            assert S.integer_rows() == tuple(oracles.int_row(row) for row in want)
            for _ in range(3):
                v = draw(n)
                calls.clear()
                assert S.reduce(v) == oracles.reduce_by_every_pivot(S, v)
                assert calls == [n]


class TestBoolRefused:
    """A bool is an int to Python, but True as an index or a coefficient is
    a caller's mistake: it is refused, not read as 1."""

    def test_bool_index(self):
        with pytest.raises(TypeError, match="index True is a bool"):
            Subspace(3, [{True: 1}])
        with pytest.raises(TypeError, match="index False is a bool"):
            Subspace.full(3).reduce({False: 1})

    def test_bool_coefficient(self):
        with pytest.raises(TypeError, match="got bool"):
            Subspace(3, [{1: True}])
        with pytest.raises(TypeError, match="got bool"):
            Subspace(3, [[0, False, 1]])
        with pytest.raises(TypeError, match="got bool"):
            Subspace.full(3).reduce({0: True})
        with pytest.raises(TypeError, match="got bool"):
            _as_fraction(True)


class TestConstructorsCheckInput:
    """Every public constructor refuses what ``Subspace(n, vectors)`` refuses:
    an ambient dimension or a column that is not an int, a bool included, a
    negative dimension, and a column off 0..n-1."""

    @pytest.mark.parametrize("build", [
        lambda n: Subspace(n), lambda n: Subspace(n, [{0: 1}]), Subspace.zero, Subspace.full,
        lambda n: Subspace.coordinate_span(n, [0]),
    ])
    def test_ambient_dimension(self, build):
        with pytest.raises(ValueError, match="ambient dimension -1 is negative"):
            build(-1)
        with pytest.raises(TypeError, match="ambient dimension True is a bool"):
            build(True)
        with pytest.raises(TypeError, match="ambient dimension 3.0 is a float"):
            build(3.0)
        assert build(3).ambient_dim == 3

    @pytest.mark.parametrize("build", [
        lambda cols: Subspace(3, [{c: 1 for c in cols}]),
        lambda cols: Subspace.coordinate_span(3, cols),
    ])
    def test_columns(self, build):
        with pytest.raises(ValueError, match="vector index 5 outside ambient dimension 3"):
            build([5])
        with pytest.raises(ValueError, match="vector index -1 outside"):
            build([0, -1])
        with pytest.raises(TypeError, match="vector index True is a bool"):
            build([True, 2])
        with pytest.raises(TypeError, match="vector index 1.0 is a float"):
            build([1.0])
        assert build([2]).pivots == (2,)

    def test_a_zero_entry_is_checked_too(self):
        with pytest.raises(ValueError, match="vector index 7 outside"):
            Subspace(3, [{7: 0}])
        with pytest.raises(TypeError, match="vector index False is a bool"):
            Subspace.full(3).reduce({False: 0})


def _assert_canonical(name, S):
    rows = S.integer_rows()
    pivots = S.pivots
    assert len(set(pivots)) == len(pivots) == S.rank, name
    for row, p in zip(rows, pivots):
        assert p == min(row), name
        assert not any(q in row for q in pivots if q != p), name
    assert Subspace(S.ambient_dim, rows) == S, name


def _trusted_subspaces():
    """Subspaces built by every producer that skips re-canonicalisation."""
    rng = random.Random(5)
    h2 = random_basis_change(heisenberg(2), rng)
    n24 = random_basis_change(from_free_nilpotent(free_nilpotent(2, 4)), rng)
    yield "kernel", kernel([1, 1, 1], dim=3)
    yield "kernel 2x4", kernel([1, 2, 0, 3], [0, 1, 1, 1], dim=4)
    for c in (1, 2):
        yield f"epicenter H(2) random basis c={c}", present(h2, c).epicenter
    for L in (h2, n24):
        for t, Z in enumerate(upper_centrals(L)):
            yield f"upper_centrals {L.name} Z{t + 1}", Z
    pres = present(heisenberg(3), 2)
    yield "present H(3) relations", pres.relations
    pres_h2 = present(h2, 2)
    yield "present H(2) random basis relations", pres_h2.relations
    F = pres.ambient
    for depth in (1, 2):
        yield f"subideal_bracket depth {depth}", subideal_bracket(pres.relations, F, depth)
    numerator = pres.relations.intersect_suffix(F.stratum_starts[3])
    yield "intersect_suffix", numerator
    yield "intersect", pres_h2.relations.intersect(oracles.free_gamma(pres_h2.ambient, 2))
    for _ in range(10):
        dim = rng.randrange(2, 8)
        u = span(*[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(3)], dim=dim)
        w = span(*[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(4)], dim=dim)
        yield "intersect random", u.intersect(w)
        yield "intersect_suffix random", u.intersect_suffix(rng.randrange(dim + 1))
