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
"""

from __future__ import annotations

from fractions import Fraction


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


# ---------------------------------------------------------------------------
# Hand-derived closed forms (independent of the package's formula_oracle)


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
