"""Free nilpotent Lie algebras on a Hall basis.

A Hall word is either a generator or a bracket [u, v] of Hall words with
u > v, where a composite u = [s, t] additionally requires v >= t.  Words are
ordered by length first, then by position within their length stratum; a
stratum is sorted lexicographically by the (left, right) positions of its
members.  With that order the words of length <= c form a basis of the free
nilpotent Lie algebra of class c, and every bracket of basis words collapses
to an integer combination of basis words by Jacobi rewriting.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .exactlin import IntRow, Subspace, _primitive, _Spanner

DIM_CAP = 5000


class DimensionCapError(ValueError):
    """Requested free nilpotent algebra exceeds the configured dimension cap."""


class HallTableError(ArithmeticError):
    """The structure-table build read a product it had not computed yet;
    seeing it means a bug in the build order, not bad input."""


def _divisors(n: int) -> Iterator[int]:
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d
            if d != n // d:
                yield n // d
        d += 1


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def witt(d: int, n: int) -> int:
    """Number of Hall (equivalently Lyndon) words of length n on d letters."""
    if d < 0 or n < 1:
        raise ValueError("witt requires d >= 0 and n >= 1")
    total, rest = divmod(sum(mobius(m) * d ** (n // m) for m in _divisors(n)), n)
    if rest:
        raise ArithmeticError(f"necklace sum for witt({d}, {n}) is not divisible by {n}")
    return total


class HallWord:
    """A node of the Hall basis: a generator leaf or a bracket of two words.

    ``key`` is the word's position in the overall basis order, assigned at
    construction time; comparisons use it directly.
    """

    __slots__ = ("gen", "left", "right", "length", "key", "_labels")

    def __init__(self, gen, left, right, length, key, labels):
        self.gen = gen
        self.left = left
        self.right = right
        self.length = length
        self.key = key
        self._labels = labels

    @property
    def is_generator(self) -> bool:
        return self.gen is not None

    def _items(self) -> list[str]:
        if self.is_generator:
            return [self._labels[self.gen]]
        return self.left._items() + [str(self.right)]

    def __str__(self):
        if self.is_generator:
            return self._labels[self.gen]
        return "[" + ",".join(self._items()) + "]"

    def __repr__(self):
        return f"HallWord({self})"

    def __lt__(self, other):
        return self.key < other.key


def generator_labels(d: int) -> tuple[str, ...]:
    if d == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(d))


def hall_basis(d: int, c: int, labels: Sequence[str] | None = None) -> list[HallWord]:
    """All Hall words of length <= c on d generators, in basis order."""
    if d < 0 or c < 1:
        raise ValueError("hall_basis requires d >= 0 and c >= 1")
    if labels is None:
        labels = generator_labels(d)
    labels = tuple(labels)
    if len(labels) != d:
        raise ValueError(f"expected {d} generator labels, got {len(labels)}")
    words: list[HallWord] = [HallWord(i, None, None, 1, i, labels) for i in range(d)]
    strata: list[list[HallWord]] = [[], list(words)]
    for length in range(2, c + 1):
        candidates = []
        for a in range(1, length):
            b = length - a
            for u in strata[a]:
                for v in strata[b]:
                    if u.key <= v.key:
                        continue
                    if u.gen is None and v.key < u.right.key:
                        continue
                    candidates.append((u, v))
        candidates.sort(key=lambda uv: (uv[0].key, uv[1].key))
        stratum = []
        for u, v in candidates:
            w = HallWord(None, u, v, length, len(words), labels)
            words.append(w)
            stratum.append(w)
        strata.append(stratum)
    return words


class FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra of the given rank and nilpotency class.

    The basis is the Hall basis; brackets of basis elements are precomputed
    as integer combinations.  Instances are immutable and cached, see
    :func:`free_nilpotent`.
    """

    __slots__ = ("rank", "nilpotency_class", "labels", "basis", "dim",
                 "stratum_starts", "_table")

    def __init__(self, rank: int, nilpotency_class: int, labels: Sequence[str] | None = None):
        basis = hall_basis(rank, nilpotency_class, labels)
        self.rank = rank
        self.nilpotency_class = nilpotency_class
        self.labels = basis[0]._labels if basis else generator_labels(rank)
        self.basis = tuple(basis)
        self.dim = len(basis)
        # stratum_starts[w] = index of the first word of length w, for
        # 1 <= w <= class + 1 (the last entry is the total dimension).
        starts = [0] * (nilpotency_class + 2)
        for w in basis:
            starts[w.length + 1] = w.key + 1
        for w in range(1, nilpotency_class + 2):
            starts[w] = max(starts[w], starts[w - 1])
        self.stratum_starts = tuple(starts)
        self._table = self._build_table()

    def _build_table(self) -> dict[tuple[int, int], dict[int, int]]:
        """[e_i, e_j] for every pair of basis words within the class.

        Pairs u > v are visited by total weight, then u, then v.  A Hall
        pair is a basis word; otherwise u = [a, b] with v < b, and Jacobi
        gives [u, v] = [[a, v], b] + [a, [b, v]], whose products were all
        visited earlier.  Reading a product that was not raises
        HallTableError; it is never taken as zero.
        """
        basis = self.basis
        starts = self.stratum_starts
        pair_index = {(w.left.key, w.right.key): w.key for w in basis if w.gen is None}
        table: dict[tuple[int, int], dict[int, int]] = {}

        def product(x: int, y: int):
            if x == y:
                return ()
            combo = table.get((x, y))
            if combo is None:
                raise HallTableError(
                    f"[{basis[x]}, {basis[y]}] was read before it was computed"
                )
            return combo.items()

        for total in range(2, self.nilpotency_class + 1):
            for wu in range((total + 1) // 2, total):
                wv = total - wu
                for i in range(starts[wu], starts[wu + 1]):
                    u = basis[i]
                    for j in range(starts[wv], min(i, starts[wv + 1])):
                        if u.gen is not None or j >= u.right.key:
                            out = {pair_index[(i, j)]: 1}
                        else:
                            a, b = u.left.key, u.right.key
                            out = {}
                            for k, ck in product(a, j):
                                for m, cm in product(k, b):
                                    out[m] = out.get(m, 0) + ck * cm
                            for k, ck in product(b, j):
                                for m, cm in product(a, k):
                                    out[m] = out.get(m, 0) + ck * cm
                            out = {m: c for m, c in out.items() if c}
                        table[(i, j)] = out
                        table[(j, i)] = {m: -c for m, c in out.items()}
        return {pair: combo for pair, combo in table.items() if combo}

    def weight(self, index: int) -> int:
        return self.basis[index].length

    _EMPTY: dict[int, int] = {}

    def bracket_indices(self, i: int, j: int) -> dict[int, int]:
        """[e_i, e_j] as an integer combination of basis indices.

        The returned dict is shared with the structure table; callers must
        not mutate it.
        """
        return self._table.get((i, j), self._EMPTY)

    def reduce_bracket(self, u: HallWord, v: HallWord) -> dict[int, int]:
        """Collapse [u, v] for two basis words; zero when the weight exceeds
        the class."""
        for w in (u, v):
            if not (0 <= w.key < self.dim) or self.basis[w.key] is not w:
                raise ValueError(f"{w!r} is not a basis word of this algebra")
        return dict(self.bracket_indices(u.key, v.key))

    def bracket_row_index(self, row: Mapping[int, int], j: int) -> IntRow:
        """[row, e_j] for a sparse integer row."""
        out: dict[int, int] = {}
        for i, ci in row.items():
            for k, ck in self.bracket_indices(i, j).items():
                n = out.get(k, 0) + ci * ck
                if n:
                    out[k] = n
                else:
                    del out[k]
        return out

    def bracket_vectors(self, x: Mapping[int, object], y: Mapping[int, object]) -> dict[int, object]:
        """[x, y] for sparse vectors with int or Fraction coefficients."""
        out: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                combo = self.bracket_indices(i, j)
                if not combo:
                    continue
                s = xi * yj
                for k, ck in combo.items():
                    n = out.get(k, 0) + s * ck
                    if n:
                        out[k] = n
                    else:
                        del out[k]
        return out

    def gamma(self, k: int) -> Subspace:
        """The k-th term of the lower central series as a coordinate subspace."""
        if k < 1:
            raise ValueError("gamma is indexed from 1")
        if k > self.nilpotency_class:
            return Subspace.zero(self.dim)
        return Subspace.coordinate_span(self.dim, range(self.stratum_starts[k], self.dim))

    def __repr__(self):
        return f"FreeNilpotentAlgebra(rank={self.rank}, class={self.nilpotency_class}, dim={self.dim})"


@lru_cache(maxsize=16)
def _free_nilpotent_cached(d: int, c: int) -> FreeNilpotentAlgebra:
    return FreeNilpotentAlgebra(d, c)


def free_nilpotent(d: int, c: int, dim_cap: int = DIM_CAP) -> FreeNilpotentAlgebra:
    """Cached free nilpotent algebra of rank d and class c.

    The dimension (a Witt number sum) is checked against ``dim_cap`` before
    any construction work happens.
    """
    if d < 0 or c < 1:
        raise ValueError("free_nilpotent requires d >= 0 and c >= 1")
    total = sum(witt(d, n) for n in range(1, c + 1))
    if total > dim_cap:
        raise DimensionCapError(
            f"free nilpotent algebra of rank {d} and class {c} has dimension {total}, cap is {dim_cap}"
        )
    return _free_nilpotent_cached(d, c)


def span_bracket_rows(
    F: FreeNilpotentAlgebra, rows: Sequence[IntRow]
) -> list[IntRow]:
    """Canonical basis rows of span{[r, w] : r in rows, w a basis word}.

    By bilinearity this is [S, F] for S the span of ``rows``.  Products are
    skipped when the weight bound forces them to vanish.
    """
    cls = F.nilpotency_class
    sp = _Spanner()
    for row in rows:
        wmin = F.weight(min(row))
        stop = F.stratum_starts[cls - wmin + 1] if cls - wmin >= 1 else 0
        for j in range(stop):
            prod = F.bracket_row_index(row, j)
            if prod:
                sp.insert(_primitive(prod))
    return sp.canonical()
