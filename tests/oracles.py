"""Independent reference computations used to pin expected test values.

Nothing here imports the algorithms under test beyond plain data access
(Hall words are walked as binary trees).  The point is that each oracle
reaches the same numbers by a structurally different route:

* ``lyndon_count`` enumerates Lyndon words with Duval's algorithm, giving
  the basic-commutator counts without touching the Mobius formula.
* ``AssocPoly`` embeds bracket expressions into the truncated free
  associative algebra, where [a, b] = ab - ba literally; agreement on
  every basis pair certifies the whole structure-constant table.
* the closed forms at the bottom are hand-derived dimension formulas,
  kept as one-liners so a reviewer can re-derive them by hand.
* ``hall_words_by_filter`` is the Hall basis by testing every pair of
  each length against the Hall rule and sorting the survivors, the
  reference for the in-order pass of ``hall_basis``; ``free_gamma`` reads
  γ_k(F) off a free algebra's stratum starts.
* ``jacobi_table_by_recursion`` is the memoised recursive Jacobi rewriting
  that the weight-ordered table build replaced, kept as its reference.
* ``reduce_by_every_pivot`` is the walk-every-pivot reduction that the
  pivot-indexed ``Subspace.reduce`` replaced, kept as its reference.
* ``closure_by_every_word`` is the untruncated [S, F, ..., F] that the
  weight-cut ``subideal_bracket`` replaced: every row with every word,
  every product kept whole.
* the ``Fraction``-table references at the bottom are the rational code
  that the integer structure constants of ``LieAlgebra`` replaced: the full
  Jacobi scan, the Gauss-Jordan basis change, the lower central series and
  the generator images of ``present``, and the ``upper_centrals`` loop.
  They read an algebra only through ``bracket_basis``; the last three still
  solve with nilmult's elimination engine, which has tests of its own (the
  last two as a ``_kernel_image`` with unit tags).
  ``int_row`` clears a rational vector to its primitive integer row by
  Fractions, the reference for ``exactlin._cleared``, and ``unchecked``
  builds an algebra on a rational table without the Jacobi check, for the
  tests that hand a broken table to the references.
* ``epicenter_by_upper_centrals`` is the epicenter from Z_c of the whole
  of F/[R, F, ..., F], which the solve on a basis of L replaced; it takes
  Z_c with the ``Fraction`` ad-row loop above.
* ``lower_centrals_by_all_pairs`` is the lower central series that
  bracketed every row of each term with every basis vector a stored pair
  joins to it, and ``jacobi_failure_by_brackets`` the Jacobi scan that
  expanded each term with two table brackets; the generating-set series
  and the check that reads each inner bracket off the table replaced them.
* ``relations_by_all_words`` is the relation solve that the solve on the
  words of length 2 to k, read at the pivots of L², replaced: every word of
  length <= k against its whole image, inserted first to last.
  ``class_check_by_words`` is the scan of every word of length k + 1 that
  the check on the spans of the strata replaced.
* ``random_lift`` and ``truncation_shapes`` are input generators, not
  references: a random generating lift of L for the lift-invariance tests,
  drawn with nilmult's own series and elimination engine, and nine
  algebras of class 1 to 4, each also in a random basis.  ``relift``
  rewrites L in the basis (lift vectors, rows of L²), whose default lift
  is the given one, so a presentation of it is one of L on that lift.
* ``h2_by_chevalley_eilenberg`` is the Schur multiplier as the homology
  H_2(L) of the Chevalley-Eilenberg complex, by its own integer elimination
  on the exterior powers of L; it never builds a free algebra.
* ``exterior_square`` is Z*_1(L) as the exterior centre Z^∧(L) and
  dim M(L) as dim L∧L − dim L², with L∧L = Λ²L / im(d_3) for the d_3 of
  ``h2_by_chevalley_eilenberg``; it solves by its own integer elimination
  and ``kernel_by_fractions``.  ``random_basis_matrices`` redraws the P
  of ``random_basis_change`` from the same seed, and ``in_basis`` moves
  coordinate rows to that basis.
* ``kernel_by_fractions`` is plain ``Fraction`` Gauss-Jordan elimination,
  the reference for the one tagged kernel solve ``_kernel_image``, which
  ``as_scaled_image`` clears an exact image for as its (scale, integer
  row), and ``rref_by_fractions`` the same elimination on a list of rows,
  the reference for the row space ``_Spanner`` builds in any insertion
  order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# Lyndon words (Duval) as an independent count of basic commutators


def lyndon_words(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """All Lyndon words over {0..alphabet_size-1} of length <= max_length.

    Standard Duval generation: repeatedly extend w periodically, bump the
    last letter, and pop trailing maximal letters.
    """
    if alphabet_size < 1:
        return []
    words: list[tuple[int, ...]] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        words.append(tuple(w))
        while len(w) < max_length:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
    return sorted(words, key=lambda t: (len(t), t))


def lyndon_count(alphabet_size: int, length: int) -> int:
    """Number of Lyndon words of the exact length; equals the Witt number."""
    return sum(
        1 for w in lyndon_words(alphabet_size, length) if len(w) == length
    )


# ---------------------------------------------------------------------------
# Truncated free associative algebra: the faithful model of a free Lie algebra

Word = tuple[int, ...]


class AssocPoly:
    """Noncommutative polynomial with integer coefficients, degree-truncated.

    Supports exactly what the bracket oracle needs: addition, subtraction,
    concatenation product, and the commutator.  Monomials are tuples of
    generator indices; anything beyond the truncation degree is dropped.
    """

    __slots__ = ("coeffs", "max_degree")

    def __init__(self, coeffs: dict[Word, int], max_degree: int):
        self.max_degree = max_degree
        self.coeffs = {w: c for w, c in coeffs.items() if c and len(w) <= max_degree}

    @classmethod
    def generator(cls, index: int, max_degree: int) -> "AssocPoly":
        return cls({(index,): 1}, max_degree)

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return AssocPoly(out, self.max_degree)

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return AssocPoly(out, self.max_degree)

    def __mul__(self, other: "AssocPoly") -> "AssocPoly":
        out: dict[Word, int] = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                if len(wa) + len(wb) > self.max_degree:
                    continue
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return AssocPoly(out, self.max_degree)

    def scale(self, k) -> "AssocPoly":
        if isinstance(k, Fraction) and k.denominator != 1:
            raise ValueError("expansion coefficients stay integral")
        k = int(k)
        return AssocPoly({w: k * c for w, c in self.coeffs.items()}, self.max_degree)

    def commutator(self, other: "AssocPoly") -> "AssocPoly":
        return self * other - other * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AssocPoly)
            and self.max_degree == other.max_degree
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"AssocPoly({self.coeffs!r})"


def expand_hall_word(word, max_degree: int) -> AssocPoly:
    """Image of a Hall word under the embedding into the associative algebra.

    A leaf maps to its generator; a composite [u, v] maps to uv - vu.  Only
    the tree shape of ``word`` is consulted (``gen``, ``left``, ``right``).
    """
    if word.gen is not None:
        return AssocPoly.generator(word.gen, max_degree)
    return expand_hall_word(word.left, max_degree).commutator(
        expand_hall_word(word.right, max_degree)
    )


def expand_combination(combo, basis, max_degree: int) -> AssocPoly:
    """Expand a {basis index: coefficient} combination of Hall words."""
    out = AssocPoly({}, max_degree)
    for k, coeff in combo.items():
        out = out + expand_hall_word(basis[k], max_degree).scale(coeff)
    return out


def hall_words_by_filter(d: int, c: int) -> list[tuple[str, int, int | None, int | None]]:
    """The Hall words of length <= c on d generators as (text, length, left
    key, right key), a word's key being its position in the list.

    Each length tests every pair (u, v) of shorter words against the Hall
    rule (u > v, and v >= t when u = [s, t]) and sorts the survivors by the
    keys of u, then v: the enumeration that the in-order pass of
    ``hall_basis`` replaced.  It stops at the first empty stratum.
    """
    labels = ("x", "y") if d == 2 else tuple(f"x{i + 1}" for i in range(d))
    words = [(label, 1, None, None) for label in labels]
    strata = {1: list(range(d))}
    for n in range(2, c + 1):
        pairs = sorted(
            (u, v)
            for a in range(1, n) for u in strata[a] for v in strata[n - a]
            if u > v and (words[u][2] is None or v >= words[u][3])
        )
        if not pairs:
            break
        strata[n] = []
        for u, v in pairs:
            left = words[u][0] if words[u][2] is None else words[u][0][1:-1]  # left-normed
            strata[n].append(len(words))
            words.append((f"[{left},{words[v][0]}]", n, u, v))
    return words


def free_gamma(F, k: int):
    """γ_k(F) of a free nilpotent algebra F, 1 <= k <= class + 1: the span of
    its words of weight >= k."""
    from nilmult.exactlin import Subspace

    return Subspace.coordinate_span(F.dim, range(F.stratum_starts[k], F.dim))


# ---------------------------------------------------------------------------
# Hand-derived closed forms (independent of the package's closed forms)


def abelian_two_multiplier(n: int) -> int:
    # n(n-1)(n+1)/3: count of basic commutators of weight 3 on n letters
    return n * (n - 1) * (n + 1) // 3


def heisenberg_schur(m: int) -> int:
    return 2 if m == 1 else 2 * m * m - m - 1


def heisenberg_two_multiplier(m: int) -> int:
    return 5 if m == 1 else (8 * m**3 - 2 * m) // 3


def derived_dim_one_two_multiplier(n: int, m: int) -> int:
    # dim L^2 = 1, dim L = n, alternating-form rank 2m
    return n * (n - 1) * (n - 2) // 3 + (3 if m == 1 else 0)


def direct_sum_two_multiplier(dim_a: int, dim_b: int, a: int, b: int) -> int:
    # a, b are the abelianization dimensions of the two summands
    return dim_a + dim_b + a * a * b + b * b * a


def general_bound(n: int) -> int:
    # the weight-3 count again: the universal bound for dim M2 + dim L^3
    return abelian_two_multiplier(n)


def refined_nonabelian_bound(n: int, m: int) -> int:
    # (n-m)((n+2m-2)(n-m-1) + 3(m-1))/3 + 3, integral for every n > m >= 1
    num = (n - m) * ((n + 2 * m - 2) * (n - m - 1) + 3 * (m - 1))
    assert num % 3 == 0
    return num // 3 + 3


# ---------------------------------------------------------------------------
# Reference reduction modulo a subspace


def reduce_by_every_pivot(S, vector) -> dict[int, Fraction]:
    """Residual of ``vector`` modulo S in plain ``Fraction`` arithmetic.

    One ascending pass over *every* basis row of S clears its pivot column
    wherever the running vector has one.  It reads only S's pivots and
    integer rows, so it is the reference that the pivot-indexed
    ``Subspace.reduce`` is checked against.
    """
    items = vector.items() if isinstance(vector, dict) else enumerate(vector)
    v = {c: Fraction(x) for c, x in items if x}
    for p, row in zip(S.pivots, S.integer_rows()):
        x = v.get(p)
        if not x:
            continue
        factor = x / row[p]
        for c, rv in row.items():
            n = v.get(c, Fraction(0)) - factor * rv
            if n:
                v[c] = n
            else:
                v.pop(c, None)
    return v


# ---------------------------------------------------------------------------
# Reference structure table of a free nilpotent algebra


def jacobi_table_by_recursion(F) -> dict[tuple[int, int], dict[int, int]]:
    """[e_i, e_j] for every basis pair of F by memoised Jacobi recursion.

    It scans every pair i > j and rewrites [[a,b],v] with v < b as
    [[a,v],b] + [a,[b,v]], recursing into whatever products that needs,
    so it assumes nothing about the order in which products become
    available.  The chains stay shallow (under 120 frames up to rank 10,
    class 4), so the default recursion limit suffices.
    """
    cls = F.nilpotency_class
    basis = F.basis
    pair_index = {(w.left.key, w.right.key): w.key for w in basis if w.gen is None}
    memo: dict[tuple[int, int], dict[int, int]] = {}

    def bracket(i: int, j: int) -> dict[int, int]:
        # i > j assumed here
        got = memo.get((i, j))
        if got is not None:
            return got
        u, v = basis[i], basis[j]
        if u.length + v.length > cls:
            out: dict[int, int] = {}
        elif u.gen is not None or v.key >= u.right.key:
            out = {pair_index[(i, j)]: 1}
        else:
            # [[a,b],v] with v < b: Jacobi gives [[a,v],b] + [a,[b,v]]
            a, b = u.left.key, u.right.key
            out = {}
            for k, cv in signed(a, v.key).items():
                for m, cm in signed(k, b).items():
                    out[m] = out.get(m, 0) + cv * cm
            for k, cv in signed(b, v.key).items():
                for m, cm in signed(a, k).items():
                    out[m] = out.get(m, 0) + cv * cm
            out = {m: c for m, c in out.items() if c}
        memo[(i, j)] = out
        return out

    def signed(i: int, j: int) -> dict[int, int]:
        if i == j:
            return {}
        if i > j:
            return bracket(i, j)
        return {k: -c for k, c in bracket(j, i).items()}

    table = {}
    for i in range(F.dim):
        for j in range(i):
            if basis[i].length + basis[j].length <= cls:
                combo = bracket(i, j)
                if combo:
                    table[(i, j)] = combo
                    table[(j, i)] = {k: -c for k, c in combo.items()}
    return table


def closure_by_every_word(S, F, depth: int):
    """[S, F, ..., F] with ``depth`` bracketings inside F, untruncated.

    Each round brackets every basis row of the current span with every
    basis word of F and keeps each product whole: no weight is cut ahead
    of time, so only the class of F bounds anything.  Products are read
    straight from the structure table, indexed by left factor, so the
    pairs the table leaves out (the zero products) cost nothing.
    """
    from nilmult.exactlin import Subspace

    partners: dict[int, list] = {}
    for (i, j), combo in F.products().items():  # [e_i, e_j], held for i < j only
        partners.setdefault(i, []).append((j, combo))
        partners.setdefault(j, []).append((i, {k: -c for k, c in combo.items()}))
    current = S
    for _ in range(depth):
        products = []
        for row in current.integer_rows():
            by_word: dict[int, dict[int, int]] = {}
            for i, ci in row.items():
                for j, combo in partners.get(i, ()):
                    out = by_word.setdefault(j, {})
                    for k, ck in combo.items():
                        out[k] = out.get(k, 0) + ci * ck
            products.extend(by_word.values())
        current = Subspace(F.dim, products)
    return current


def central_lines_by_fractions(L, rng) -> list:
    """The 1-dimensional central subspaces of ``verify.central_lines``, built
    from the rational RREF rows of Z(L): each row, the pairwise sums and
    three seeded random combinations, in that order, without repeats."""
    from nilmult.exactlin import Subspace
    from nilmult.fdlie import series

    rows = list(series(L).z(1).rational_rows())
    vectors = list(rows)
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            pair = rows[a].keys() | rows[b].keys()
            vectors.append({k: rows[a].get(k, 0) + rows[b].get(k, 0) for k in pair})
    for _ in range(3):
        coeffs = [rng.randint(-2, 2) for _ in rows]
        vectors.append({k: sum(c * row.get(k, 0) for c, row in zip(coeffs, rows)) for k in range(L.dim)})
    lines = {Subspace(L.dim, [v]): None for v in vectors}
    return [line for line in lines if line.rank == 1]


def random_lift(L, rng) -> list[dict[int, Fraction]]:
    """A random minimal generating lift of L: the default lift (the
    coordinates off the pivots of L²) plus small noise, redrawn until it
    still spans L modulo L²."""
    from nilmult.exactlin import _Spanner
    from nilmult.fdlie import nilpotent_series

    derived = nilpotent_series(L).gamma(2)
    keep = [col for col in range(L.dim) if col not in derived.pivots]
    while True:
        vectors = []
        for base in keep:
            v = {base: Fraction(1)}
            for col in range(L.dim):
                coeff = rng.randint(-2, 2)
                if coeff and col != base:
                    v[col] = Fraction(coeff)
            vectors.append(v)
        sp = _Spanner()
        if all(sp.insert(int_row(derived.reduce(v))) for v in vectors):
            return vectors


def truncation_shapes():
    """Nine algebras of class 1 to 4, each also moved to a random basis."""
    from nilmult import fdlie
    from nilmult.freelie import FreeNilpotentAlgebra

    shapes = [
        fdlie.heisenberg(1),
        fdlie.heisenberg(2),
        fdlie.heisenberg(3),
        fdlie.abelian(3),
        fdlie.from_free_nilpotent(FreeNilpotentAlgebra(3, 3), "N(3,3)"),
        fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 4), "N(2,4)"),
        fdlie.direct_sum(fdlie.heisenberg(1), fdlie.from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)")),
        fdlie.direct_sum(fdlie.heisenberg(1), fdlie.abelian(2)),
        fdlie.direct_sum(fdlie.heisenberg(2), fdlie.abelian(1)),
    ]
    rng = random.Random(922)
    return shapes + [fdlie.random_basis_change(L, rng, name=f"moved-{L.name}") for L in shapes]


# ---------------------------------------------------------------------------
# The integer-table scans that the generating-set series and the
# stored-pair Jacobi check replaced


def lower_centrals_by_all_pairs(L):
    """γ_1, γ_2, ... of L, each row of a term bracketed with every basis
    vector that a stored pair joins to the row's support; ends at 0, or
    repeats the term where the series stabilises."""
    from nilmult.exactlin import Subspace, _Spanner

    partners: dict[int, set[int]] = {}
    for i, j in L._num:
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    chain = [Subspace.full(L.dim)]
    while chain[-1].rank:
        sp = _Spanner()
        for row in chain[-1].integer_rows():
            for j in sorted(set().union(*(partners.get(i, ()) for i in row))):
                sp.insert(L._ibracket(row, {j: 1}))
        chain.append(Subspace._from_rows(L.dim, sp.canonical()))
        if chain[-1].rank == chain[-2].rank:
            break
    return chain


def jacobi_failure_by_brackets(L):
    """(message, location) of the first failing triple, or None.

    The triples with a stored pair are visited sorted, and each term
    [[e_a, e_b], e_c] is two brackets on L's integer table.
    """
    n = L.dim
    triples = set()
    for a, b in L._num:
        triples.update(tuple(sorted((a, b, t))) for t in range(n) if t != a and t != b)
    for i, j, k in sorted(triples):
        acc: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in L._ibracket(L._ibracket({a: 1}, {b: 1}), {c: 1}).items():
                acc[t] = acc.get(t, 0) + v
        if any(acc.values()):
            return (f"Jacobi identity fails on basis triple ({i + 1},{j + 1},{k + 1})", (i + 1, j + 1, k + 1))
    return None


# ---------------------------------------------------------------------------
# Rational references for the integer structure-constant table


def int_row(vec) -> dict[int, int]:
    """The primitive integer row of a mapping or sequence of rationals, its
    leading entry positive: the vector scaled by a rational, by Fractions."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    frac = {c: Fraction(v) for c, v in items if v}
    if not frac:
        return {}
    den = math.lcm(*(f.denominator for f in frac.values()))
    ints = {c: int(f * den) for c, f in frac.items()}
    g = math.gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


def unchecked(name, labels, table):
    """An algebra on a rational bracket table {(i, j): {k: value}}, i < j,
    built without the checks of ``LieAlgebra``: zero entries and empty
    pairs are dropped and the values cleared of denominators by hand."""
    from nilmult.fdlie import LieAlgebra

    rows = {pair: {k: Fraction(v) for k, v in combo.items() if v} for pair, combo in table.items()}
    rows = {pair: combo for pair, combo in rows.items() if combo}
    den = math.lcm(*(v.denominator for combo in rows.values() for v in combo.values()))
    num = {pair: {k: int(v * den) for k, v in combo.items()} for pair, combo in rows.items()}
    return LieAlgebra._from_num(name, labels, den, num)


def fraction_table(L) -> dict[tuple[int, int], dict[int, Fraction]]:
    """[e_i, e_j] for every ordered pair with a non-zero bracket."""
    n = L.dim
    return {(i, j): b for i in range(n) for j in range(n) if (b := L.bracket_basis(i, j))}


def fraction_bracket(table, x, y) -> dict[int, Fraction]:
    """[x, y] by bilinear expansion over a ``fraction_table``, in Fractions."""
    out: dict[int, Fraction] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, ck in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + xi * yj * ck
    return {k: v for k, v in out.items() if v}


def jacobi_failure_by_full_scan(L):
    """First basis triple (1-based) whose Jacobi sum is non-zero, or None.

    Every triple i < j < k is visited in order, so this is the location the
    validator must report.
    """
    n = L.dim
    table = fraction_table(L)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, v in fraction_bracket(table, table.get((a, b), {}), {c: 1}).items():
                        acc[t] = acc.get(t, Fraction(0)) + v
                if any(acc.values()):
                    return (i + 1, j + 1, k + 1)
    return None


def _inverse_by_gauss_jordan(P):
    """The inverse of a square Fraction matrix, or None if it is singular."""
    n = len(P)
    aug = [list(P[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def basis_change_by_gauss_jordan(L, rng) -> dict[tuple[int, int], dict[int, Fraction]]:
    """The bracket table of L in a random basis b_i = sum_j P[i][j] e_j.

    P is drawn exactly as ``random_basis_change`` draws it (row by row from
    randint(-3, 3), redrawn while singular) and inverted by Gauss-Jordan
    elimination in Fractions, so one seed gives the same table.
    """
    return _table_in_basis(L, *random_basis_matrices(L.dim, rng))


def random_basis_matrices(n: int, rng):
    """(P, P⁻¹) for the P that ``random_basis_change`` draws from ``rng`` for
    an n-dimensional algebra: row by row from randint(-3, 3), redrawn while
    singular, and inverted by Gauss-Jordan elimination in Fractions."""
    while True:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        Pinv = _inverse_by_gauss_jordan(P)
        if Pinv is not None:
            return P, Pinv


def in_basis(rows, Pinv) -> list[dict[int, Fraction]]:
    """Rows of coordinates on the basis e rewritten on b_i = sum_j P[i][j] e_j:
    since e_j = sum_i P⁻¹[j][i] b_i, a row c becomes c·P⁻¹."""
    n = len(Pinv)
    return [{i: x for i in range(n) if (x := sum(c * Pinv[j][i] for j, c in row.items()))} for row in rows]


def lift_basis(L, lift) -> list[dict[int, Fraction]]:
    """The basis of L that ``relift`` rewrites it in: the lift vectors,
    then the rational RREF rows of L²."""
    from nilmult.fdlie import nilpotent_series

    derived = nilpotent_series(L).gamma(2)
    vectors = [{i: Fraction(x) for i, x in v.items() if x} for v in lift]
    return vectors + list(derived.rational_rows())


def relift(L, lift):
    """L rewritten in the basis ``lift_basis(L, lift)``.

    Its L² is the span of the last basis vectors, so its default lift is
    the lift vectors: a presentation of it is the presentation of L whose
    generators map to ``lift``.  The basis change is inverted in Fractions.
    """
    basis = lift_basis(L, lift)
    n = L.dim
    P = [[v.get(j, Fraction(0)) for j in range(n)] for v in basis]
    Pinv = _inverse_by_gauss_jordan(P) if len(P) == n else None
    if Pinv is None:
        raise ValueError("lift is not a basis of L modulo L²")
    table = _table_in_basis(L, P, Pinv)
    return unchecked(f"{L.name}@lift", [f"b{i + 1}" for i in range(n)], table)


def _table_in_basis(L, P, Pinv) -> dict[tuple[int, int], dict[int, Fraction]]:
    """The bracket table of L in the basis b_i = sum_j P[i][j] e_j."""
    n = L.dim
    new_basis = [{j: P[i][j] for j in range(n) if P[i][j]} for i in range(n)]
    table = fraction_table(L)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            prod = fraction_bracket(table, new_basis[i], new_basis[j])
            combo = {}
            for k in range(n):
                v = sum(prod.get(t, 0) * Pinv[t][k] for t in prod)
                if v:
                    combo[k] = v
            if combo:
                brackets[(i, j)] = combo
    return brackets


def lower_centrals_by_fractions(L):
    """gamma_1, gamma_2, ... of L, each bracketed with every basis vector in
    Fractions; ends at 0, or repeats the term where the series stabilises."""
    from nilmult.exactlin import Subspace

    table = fraction_table(L)
    lower = [Subspace.full(L.dim)]
    while lower[-1].rank:
        rows = lower[-1].rational_rows()
        lower.append(Subspace(L.dim, [fraction_bracket(table, r, {j: 1}) for r in rows for j in range(L.dim)]))
        if lower[-1].rank == lower[-2].rank:
            break
    return lower


def present_by_fractions(L, c: int, lift=None):
    """(relations, images) of the free presentation, images in Fractions.

    Each generator maps to its lift vector and each longer Hall word to the
    Fraction bracket of its factors' images; the relations are the kernel of
    the resulting map onto L.
    """
    from nilmult.exactlin import Subspace, _kernel_image
    from nilmult.freelie import free_nilpotent

    table = fraction_table(L)
    lower = lower_centrals_by_fractions(L)
    if lower[-1].rank:
        raise ValueError(f"{L.name} is not nilpotent")
    k = len(lower) - 1
    derived = lower[min(1, k)]
    if lift is None:
        lift = [{col: Fraction(1)} for col in range(L.dim) if col not in derived.pivots]
    F = free_nilpotent(L.dim - derived.rank, k + c)
    images: list[dict[int, Fraction]] = []
    for w in F.basis:
        if w.is_generator:
            images.append({i: Fraction(x) for i, x in lift[w.gen].items() if x})
        elif w.length > k + 1:
            images.append({})
        else:
            images.append(fraction_bracket(table, images[w.left.key], images[w.right.key]))
    # one common denominator keeps the map, so each word takes a unit tag
    den = math.lcm(*(x.denominator for img in images for x in img.values()))
    pairs = [({r: int(x * den) for r, x in img.items()}, {col: 1}) for col, img in enumerate(images)]
    return Subspace._from_rows(F.dim, _kernel_image(pairs, L.dim)[1]), images


def relations_by_all_words(pres):
    """R_{≤k} of a presentation by the all-words tagged solve: every word of
    length <= k, the generators too, tagged with itself against its whole
    integer image, inserted first to last into one ``_Spanner``; the rows
    that start in the tag columns, shifted back, are R_{≤k} in F's
    coordinates."""
    from nilmult.exactlin import Subspace, _Spanner

    offset = pres.algebra.dim
    sp = _Spanner()
    for w, image in enumerate(pres.images):
        sp.insert({**image, offset + w: 1})
    rows = [{c - offset: v for c, v in r.items()} for r in sp.canonical() if min(r) >= offset]
    return Subspace._from_rows(pres.ambient.dim, rows)


def class_check_by_words(L, k: int):
    """The first Hall word of length k + 1 whose image in L is non-zero, as
    text, or None: the per-word scan, each word's image the bracket of its
    factors' images, the generators sent to the units off the pivots of L²."""
    from nilmult.fdlie import series
    from nilmult.freelie import free_nilpotent

    derived = series(L).gamma(2)
    gens = [{col: 1} for col in range(L.dim) if col not in derived.pivots]
    images = []
    for w in free_nilpotent(len(gens), k + 1).basis:
        image = gens[w.gen] if w.is_generator else L._ibracket(images[w.left.key], images[w.right.key])
        if image and w.length == k + 1:
            return str(w)
        images.append(image)
    return None


def upper_centrals_by_fractions(n: int, entries, steps=None):
    """Z_1, Z_2, ... of an n-dim bracket table, with Fraction ad-rows.

    Each term is the null space of the constraint rows, solved as one
    ``_kernel_image``: unknown c has its column of the rows as its image
    and e_c as its tag."""
    from nilmult.exactlin import Subspace, _kernel_image, _Spanner

    adrows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, combo in entries:
        for k, c in combo.items():
            for key, col, v in (((k, j), i, c), ((k, i), j, -c)):
                row = adrows.setdefault(key, {})
                row[col] = row.get(col, 0) + Fraction(v)
    chain = []
    sp = _Spanner()
    for row in adrows.values():
        sp.insert(int_row(row))
    while True:
        constraints = sp.canonical()
        columns = [({e: m[c] for e, m in enumerate(constraints) if c in m}, {c: 1}) for c in range(n)]
        Z = Subspace._from_rows(n, _kernel_image(columns, len(constraints))[1])
        if steps is None and chain and Z.rank == chain[-1].rank:
            break
        chain.append(Z)
        if steps is not None and len(chain) == steps:
            break
        if Z.rank == n or (len(chain) >= 2 and Z.rank == chain[-2].rank):
            break
        sp = _Spanner()
        for m in constraints:
            for j in range(n):
                row: dict[int, Fraction] = {}
                for k, mk in m.items():
                    for i, c in adrows.get((k, j), {}).items():
                        row[i] = row.get(i, 0) + mk * c
                sp.insert(int_row(row))
    while steps is not None and len(chain) < steps:
        chain.append(chain[-1])
    return chain


# ---------------------------------------------------------------------------
# Reference epicenter


def epicenter_by_upper_centrals(pres):
    """Z*_c(L) from the whole algebra F/C, C = [R, F, ..., F].

    It writes out the structure table of F/C on the words off the pivots
    of C, every kept pair with weight sum within the class reduced modulo
    C, takes Z_c of that table with ``upper_centrals_by_fractions`` and
    pushes it into L through the ``Fraction`` images of
    ``present_by_fractions``, on the presentation's default lift.  Its
    unknowns are all of F/C, not a basis of L, and it tests every word, not
    only the generators.
    """
    from nilmult.exactlin import Subspace

    F = pres.ambient
    closure = pres.closure
    closed_pivots = set(closure.pivots)
    keep = [col for col in range(F.dim) if col not in closed_pivots]
    pos = {col: t for t, col in enumerate(keep)}
    cls = F.nilpotency_class
    entries = []
    for a in range(len(keep)):
        wa = F.weight(keep[a])
        for b in range(a + 1, len(keep)):
            if wa + F.weight(keep[b]) > cls:
                break  # weights ascend with the index
            combo = F.bracket_row_index({keep[a]: 1}, keep[b])
            if not combo:
                continue
            residual = closure.reduce(combo)
            if residual:
                entries.append((a, b, {pos[t]: v for t, v in residual.items()}))
    Zc = upper_centrals_by_fractions(len(keep), entries, steps=pres.c)[-1]
    _, images = present_by_fractions(pres.algebra, pres.c)
    pushed = []
    for row in Zc.integer_rows():
        v: dict[int, Fraction] = {}
        for t, val in row.items():
            for r, x in images[keep[t]].items():
                v[r] = v.get(r, 0) + val * x
        pushed.append(v)
    return Subspace(pres.algebra.dim, pushed)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg homology


def _chevalley_eilenberg(L):
    """(pairs, d2, d3): the basis e_i∧e_j, i < j, of Λ²L as a map from
    (i, j) to its position, and the rows of d_2: Λ²L → L and
    d_3: Λ³L → Λ²L, where d_2(x∧y) = -[x, y] and
    d_3(x∧y∧z) = -[x,y]∧z + [x,z]∧y - [y,z]∧x."""
    n = L.dim
    pairs = {p: t for t, p in enumerate(combinations(range(n), 2))}

    def wedge(v, z) -> dict[int, Fraction]:
        """v∧e_z in the basis e_i∧e_j, i < j, of Λ²L."""
        return {pairs[(t, z) if t < z else (z, t)]: x if t < z else -x for t, x in v.items() if t != z}

    d2 = [L.bracket_basis(i, j) for i, j in pairs]
    d3 = []
    for i, j, k in combinations(range(n), 3):
        row: dict[int, Fraction] = {}
        for sign, a, b, z in ((-1, i, j, k), (1, i, k, j), (-1, j, k, i)):
            for col, x in wedge(L.bracket_basis(a, b), z).items():
                row[col] = row.get(col, 0) + sign * x
        d3.append(row)
    return pairs, d2, d3


def h2_by_chevalley_eilenberg(L) -> int:
    """dim H_2(L) = dim ker(d_2: Λ²L → L) - rank(d_3: Λ³L → Λ²L)."""
    pairs, d2, d3 = _chevalley_eilenberg(L)
    return len(pairs) - rank_by_integer_elimination(d2) - rank_by_integer_elimination(d3)


def exterior_square(L) -> tuple[int, int, list[dict[int, Fraction]]]:
    """(dim L∧L, dim L², Z^∧(L)) for the exterior square L∧L = Λ²L / im(d_3)
    and the exterior centre Z^∧(L) = {x : x∧y = 0 in L∧L for every y}, as
    RREF rows.

    L∧L → L², x∧y ↦ [x, y], is onto with kernel M(L), so
    dim M(L) = dim L∧L - dim L²; and Z^∧(L) = Z*_1(L) (Niroomand, Parvizi
    and Russo, 2011).  im(d_3), with the d_3 of ``h2_by_chevalley_eilenberg``,
    is brought to echelon form by integer elimination, and each e_t∧e_j
    reduced modulo it, pivot by pivot, to a vector off its pivots; Z^∧(L)
    is the kernel of t ↦ (e_t∧e_j mod im d_3)_j by ``kernel_by_fractions``.
    No free algebra and none of nilmult's elimination is involved.
    """
    pairs, d2, d3 = _chevalley_eilenberg(L)
    echelon = sorted(echelon_by_integer_elimination(d3).items())

    def residue(col) -> dict[int, Fraction]:
        s, v = 1, {col: 1}  # e_col mod im(d_3) is v / s
        for p, row in echelon:
            if x := v.get(p):
                g = math.gcd(row[p], x)
                a, b = row[p] // g, x // g
                s *= a
                v = {k: y for k in v.keys() | row.keys() if (y := a * v.get(k, 0) - b * row.get(k, 0))}
        return {q: Fraction(y, s) for q, y in v.items()}

    residues = [residue(col) for col in range(len(pairs))]
    images = []
    for t in range(L.dim):
        image = {}
        for j in range(L.dim):
            if j != t:
                sign = 1 if t < j else -1
                image.update(((j, q), sign * x) for q, x in residues[pairs[min(t, j), max(t, j)]].items())
        images.append(image)
    return len(pairs) - len(echelon), rank_by_integer_elimination(d2), kernel_by_fractions(images)


def rank_by_integer_elimination(rows) -> int:
    """Rank of sparse rational rows, by ``echelon_by_integer_elimination``."""
    return len(echelon_by_integer_elimination(rows))


def echelon_by_integer_elimination(rows) -> dict[int, dict[int, int]]:
    """An echelon basis of the span of sparse rational rows, as pivot column
    -> primitive integer row leading there: each row is cleared of
    denominators, then reduced against the earlier pivot rows by integer
    cross-multiples."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row.values()))
        v = {c: int(x * den) for c, x in row.items() if x}
        while v:
            c = min(v)
            if c not in pivots:
                g = math.gcd(*v.values())
                pivots[c] = {k: x // g for k, x in v.items()}
                break
            p = pivots[c]
            a, b = p[c], v[c]
            v = {k: x for k in v.keys() | p.keys() if (x := a * v.get(k, 0) - b * p.get(k, 0))}
            g = math.gcd(*v.values())
            v = {k: x // g for k, x in v.items()}
    return pivots


# ---------------------------------------------------------------------------
# Reference kernel


def kernel_by_fractions(images) -> list[dict[int, Fraction]]:
    """RREF basis of {x : sum_t x_t * images[t] = 0} by Fraction Gauss-Jordan.

    The constraint matrix has one row per coordinate that some image uses
    and one column per unknown.  Each free column f of its RREF gives the
    solution with 1 at f and minus the pivot rows' entries at f on their
    pivots; those solutions lead with a pivot, not with f, so they are
    brought to RREF once more.
    """
    n = len(images)
    coords = list(dict.fromkeys(col for image in images for col in image))
    rows, pivots = _gauss_jordan([[Fraction(image.get(col, 0)) for image in images] for col in coords], n)
    solutions = []
    for f in range(n):
        if f not in pivots:
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            for row, p in zip(rows, pivots):
                vec[p] = -row[f]
            solutions.append(vec)
    return [{c: v for c, v in enumerate(row) if v} for row in _gauss_jordan(solutions, n)[0]]


def as_scaled_image(image) -> tuple[int, dict]:
    """The pair (s, s * image) for an image of exact values, s the lcm of
    their denominators, the integer form of an image."""
    s = math.lcm(*(Fraction(v).denominator for v in image.values()))
    return s, {col: int(Fraction(v) * s) for col, v in image.items()}


def rref_by_fractions(rows, n: int) -> list[dict[int, Fraction]]:
    """RREF basis of the span of sparse rows in Q^n, by Fraction Gauss-Jordan."""
    dense = [[Fraction(row.get(c, 0)) for c in range(n)] for row in rows]
    return [{c: v for c, v in enumerate(row) if v} for row in _gauss_jordan(dense, n)[0]]


def _gauss_jordan(matrix, n: int):
    """(non-zero rows, pivot columns) of the RREF of dense Fraction rows."""
    matrix = [list(row) for row in matrix]
    pivots = []
    for c in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if hit is None:
            continue
        matrix[r], matrix[hit] = matrix[hit], matrix[r]
        lead = matrix[r][c]
        matrix[r] = [v / lead for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
    return matrix[:len(pivots)], pivots
