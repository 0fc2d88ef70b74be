"""Free nilpotent Lie algebras on a Hall basis.

A Hall word is either a generator or a bracket [u, v] of Hall words with
u > v, where a composite u = [s, t] additionally requires v >= t.  Words are
ordered by length, then by the positions of u, then v.  Stratum n is built
in that order by one pass over the shorter words u, each bracketed with the
one run of words v the rule allows it: of length n - |u|, below u, and from
t on when u = [s, t].  With that order the words of length <= c form a basis
of the free nilpotent Lie algebra of class c, and every bracket of basis
words collapses to an integer combination of basis words by Jacobi rewriting.

A structure table, here and in :mod:`nilmult.fdlie`, holds each non-zero
[e_i, e_j] once, under (i, j) with i < j; :func:`table_bracket` expands it.
The free algebra's table computes each product on its first read.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Iterator, Mapping, Sequence

from .exactlin import IntRow, _Spanner

DIM_CAP = 5000

# Entries in the memo of free algebras and algebras; an algebra's entry holds
# its presentations at every weight asked.  verify.run_cases(8, 3), the
# widened verify-paper, makes 84 presentations of 71 algebras on 22 free
# algebras, at most 93 entries at once (72 at its defaults), so it fits whole.
MEMO_SIZE = 128


class DimensionCapError(ValueError):
    """Requested free nilpotent algebra exceeds the configured dimension cap."""


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
    if d <= 1:  # no letter makes no word, and one letter makes one, of length 1
        return int(d == 1 and n == 1)
    total, rest = divmod(sum(mobius(m) * d ** (n // m) for m in _divisors(n)), n)
    if rest:
        raise ArithmeticError(f"necklace sum for witt({d}, {n}) is not divisible by {n}")
    return total


class HallWord:
    """A node of the Hall basis: a generator leaf or a bracket of two words.

    ``key`` is the word's position in the overall basis order, assigned at
    construction time; comparisons use it directly.  A generator's text is
    its label; a bracket's is made on its first ``str()`` and kept.
    """

    __slots__ = ("gen", "left", "right", "length", "key", "_text")

    def __init__(self, gen, left, right, length, key, text=None):
        self.gen = gen
        self.left = left
        self.right = right
        self.length = length
        self.key = key
        self._text = text

    @property
    def is_generator(self) -> bool:
        return self.gen is not None

    def __str__(self):
        text = self._text
        if text is None:
            # left-normed: [[a,b],c] reads [a,b,c], so a bracket on the left
            # gives its items, not itself
            left = str(self.left)
            text = self._text = f"[{left if self.left.is_generator else left[1:-1]},{self.right}]"
        return text

    def __repr__(self):
        return f"HallWord({self})"

    def __lt__(self, other):
        return self.key < other.key


def generator_labels(d: int) -> tuple[str, ...]:
    if d == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(d))


def _add_stratum(words: list[HallWord], starts: Sequence[int], n: int) -> None:
    """Append the Hall words of length n to ``words``, which holds every
    shorter one; ``starts[m]`` indexes the first word of length m <= n."""
    for u in words[:starts[n]]:
        a = n - u.length  # v < u of length a, and v >= t when u = [s, t]
        lo = starts[a] if u.gen is not None else max(starts[a], u.right.key)
        for v in words[lo:min(starts[a + 1], u.key)]:
            words.append(HallWord(None, u, v, n, len(words)))


def _hall_strata(d: int, c: int) -> tuple[list[HallWord], list[int]]:
    """The words of :func:`hall_basis` and the starts of their strata:
    ``starts[n]`` indexes the first word of length n, up to the word count."""
    if d < 0 or c < 1:
        raise ValueError("hall_basis requires d >= 0 and c >= 1")
    words = [HallWord(i, None, None, 1, i, label) for i, label in enumerate(generator_labels(d))]
    starts = [0, 0, d]
    for n in range(2, c + 1):
        _add_stratum(words, starts, n)
        if len(words) == starts[n]:
            break
        starts.append(len(words))
    return words, starts


def hall_basis(d: int, c: int) -> list[HallWord]:
    """All Hall words of length <= c on d generators, in basis order.

    Each stratum comes from one in-order pass (see the module docstring), so
    no pair is formed and then dropped, and nothing is sorted.  An empty
    stratum past length 1 means d <= 1, where every longer stratum is empty
    too, so the build stops there whatever c is.
    """
    return _hall_strata(d, c)[0]


def table_bracket(product: Callable[[tuple[int, int]], Mapping[int, int] | None],
                  x: Mapping[int, int], y: Mapping[int, int]) -> IntRow:
    """Σ x_i·y_j·[e_i, e_j] over a structure table keyed i < j: ``product``
    reads the stored [e_i, e_j] for i < j (None or empty when it is zero),
    and [e_j, e_i] is its negation.  Integer x, y and table give an
    integer result."""
    out: IntRow = {}
    # y is most often one basis vector, so it is the outer loop
    for j, yj in y.items():
        for i, xi in x.items():
            if i < j:
                combo = product((i, j))
                s = xi * yj
            elif i > j:
                combo = product((j, i))
                s = -xi * yj
            else:
                continue
            if combo:
                for k, ck in combo.items():
                    n = out.get(k, 0) + s * ck
                    if n:
                        out[k] = n
                    else:
                        del out[k]
    return out


class _ProductTable(dict):
    """[e_i, e_j] of a free nilpotent algebra under (i, j), i < j, each
    computed on its first read and kept.

    A pair whose weights add up to more than the class reads as empty and
    is not stored.  For u = basis[j] > v = basis[i], a Hall pair (u, v)
    gives [v, u] = -[u, v] as minus its word; otherwise u = [a, b] with
    v < b < a, and Jacobi gives [v, u] = [[v, a], b] - [[v, b], a], whose
    products are read, and so filled, in turn.  Each of those is a lighter
    pair, or one of the same weight whose larger factor, then smaller
    factor, comes first; so the nesting ends, at most class - 2 fills deep,
    in whatever order the pairs are first read.
    """

    __slots__ = ("_basis", "_class", "_pairs")

    def __init__(self, basis: Sequence[HallWord], nilpotency_class: int):
        super().__init__()
        self._basis = basis
        self._class = nilpotency_class
        self._pairs = {(w.left.key, w.right.key): w.key for w in basis if w.gen is None}

    def __missing__(self, key: tuple[int, int]) -> IntRow:
        i, j = key
        v, u = self._basis[i], self._basis[j]
        if v.length + u.length > self._class:
            return {}
        if u.gen is not None or i >= u.right.key:
            out = {self._pairs[(j, i)]: -1}
        else:
            out = {}
            for sign, x, z in ((1, u.left.key, u.right.key), (-1, u.right.key, u.left.key)):
                for k, ck in self[i, x].items():  # [v, x], with v < x
                    if k != z:
                        f, outer = (sign * ck, self[k, z]) if k < z else (-sign * ck, self[z, k])
                        for m, cm in outer.items():
                            out[m] = out.get(m, 0) + f * cm
            out = {m: c for m, c in out.items() if c}
        self[key] = out
        return out


class _StratumStarts(Sequence):
    """The stratum starts of a Hall basis.  A build for d <= 1 stops early:
    past the stored starts every stratum is empty, so each later entry, up
    to class + 1, is the dimension, read but not stored."""

    __slots__ = ("_stored", "_len")

    def __init__(self, stored: Sequence[int], length: int):
        self._stored = tuple(stored)
        self._len = length

    def __len__(self):
        return self._len

    def __getitem__(self, n: int) -> int:
        if not -self._len <= n < self._len:
            raise IndexError("stratum index out of range")
        return self._stored[min(n % self._len, len(self._stored) - 1)]


class FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra of the given rank and nilpotency class.

    The basis is the Hall basis.  A bracket of basis elements is an integer
    combination of them, computed when it is first read and kept.
    Instances are cached, see :func:`free_nilpotent`.
    """

    __slots__ = ("rank", "nilpotency_class", "basis", "dim", "stratum_starts", "_table")

    def __init__(self, rank: int, nilpotency_class: int):
        basis, starts = _hall_strata(rank, nilpotency_class)
        self.rank = rank
        self.nilpotency_class = nilpotency_class
        self.basis = tuple(basis)
        self.dim = len(basis)
        # stratum_starts[w] = index of the first word of length w, for 0 <= w
        # <= class + 1 (the last is the dimension)
        self.stratum_starts = _StratumStarts(starts, nilpotency_class + 2)
        self._table = _ProductTable(self.basis, nilpotency_class)

    def products(self) -> dict[tuple[int, int], IntRow]:
        """Every non-zero [e_i, e_j] with i < j, under (i, j) in sorted
        order: the whole structure table, in the layout of
        :class:`~nilmult.fdlie.LieAlgebra`.  Reads, and so fills, all of it."""
        table, starts, c = self._table, self.stratum_starts, self.nilpotency_class
        # in a free algebra no two distinct words commute, so none is empty
        return {(i, j): table[i, j]
                for i in range(self.dim) for j in range(i + 1, starts[c - self.weight(i) + 1])}

    def weight(self, index: int) -> int:
        return self.basis[index].length

    def bracket_row_index(self, row: Mapping[int, int], j: int) -> IntRow:
        """[row, e_j] for a sparse integer row."""
        return table_bracket(self._table.__getitem__, row, {j: 1})

    def __repr__(self):
        return f"FreeNilpotentAlgebra(rank={self.rank}, class={self.nilpotency_class}, dim={self.dim})"


class HashedKey:
    """A memo key that hashes its parts once.

    An algebra's key holds its whole bracket table, a long tuple of
    integers; hashing that anew on every lookup would cost more than the
    lookup itself.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, HashedKey) and self._hash == other._hash and self.parts == other.parts
        )


# Least recently used first.  Keys are (rank, class) for free algebras and
# HashedKeys for algebras, so they never collide.
_memo: OrderedDict = OrderedDict()


def _memoised(key, build):
    """The memo's value for ``key``, or ``build()`` stored under it on a miss.

    Either way the entry becomes the most recently used; past MEMO_SIZE
    entries the least recently used one is dropped.
    """
    value = _memo.pop(key, None)
    if value is None:
        value = build()
    _memo[key] = value  # inserted last, as the most recently used
    if len(_memo) > MEMO_SIZE:
        _memo.popitem(last=False)
    return value


def clear_caches() -> None:
    """Empty the memo of free algebras and algebras, presentations included."""
    _memo.clear()


def _check_dim_cap(d: int, c: int, dim_cap: int) -> None:
    """The one cost guard: refuse a free algebra of rank d and class c whose
    dimension, a Witt sum, exceeds ``dim_cap``, built or memoised.  The sum
    stops at the first stratum that takes it past the cap, or at the first
    empty one past length 1, after which all are empty (d <= 1)."""
    dim = 0
    for n in range(1, c + 1):
        count = witt(d, n)
        if not count and n > 1:
            return
        dim += count
        if dim > dim_cap:
            at_least = "at least " if n < c else ""
            raise DimensionCapError(
                f"free nilpotent algebra of rank {d} and class {c} has dimension {at_least}{dim}, cap is {dim_cap}"
            )


def free_nilpotent(d: int, c: int, dim_cap: int = DIM_CAP) -> FreeNilpotentAlgebra:
    """Cached free nilpotent algebra of rank d and class c.

    The dimension (a Witt number sum) is checked against ``dim_cap`` before
    any construction work happens.
    """
    if d < 0 or c < 1:
        raise ValueError("free_nilpotent requires d >= 0 and c >= 1")
    _check_dim_cap(d, c, dim_cap)
    return _memoised((d, c), lambda: FreeNilpotentAlgebra(d, c))


def span_bracket_rows(F: FreeNilpotentAlgebra, rows: Sequence[IntRow], top: int) -> list[IntRow]:
    """Canonical basis rows of span{[r, w] : r in rows, w a basis word},
    cut to the words of weight <= ``top``.

    By bilinearity this is [S, F] for S the span of ``rows``, projected.
    Each product is homogeneous in the weights of its factors, so the
    components of a row too heavy for a word are skipped before bracketing.
    The products are inserted shortest first, so the sparse ones take the
    pivots and the long ones mostly reduce against them.

    One shortcut, the carry, rests on a lemma: the words of weight n >= 2
    are spanned by the brackets [u, g] of a word u of weight n - 1 with a
    generator g.  So if ``rows`` hold the unit row of every word of weight
    top - 1, the span holds every word of weight ``top``.  Those unit rows
    are returned as they are, and the products of the other rows are only
    needed on the lighter words, so they are cut to top - 1.
    """
    top = min(top, F.nilpotency_class)
    starts = F.stratum_starts
    carried: list[IntRow] = []
    if top >= 2:
        lo, hi = starts[top - 1], starts[top]
        units = {min(row) for row in rows if len(row) == 1 and lo <= min(row) < hi}
        if len(units) == hi - lo:
            rows = [row for row in rows if len(row) != 1 or min(row) not in units]
            carried = [{j: 1} for j in range(hi, starts[top + 1])]
            top -= 1
    products = []
    for row in rows:
        items = sorted(row.items())
        weight = F.weight(items[0][0])
        for wj in range(1, top - weight + 1):
            cut = starts[top - wj + 1]
            part = {i: ci for i, ci in items if i < cut}
            for j in range(starts[wj], starts[wj + 1]):
                prod = F.bracket_row_index(part, j)
                if prod:
                    products.append(prod)
    products.sort(key=len, reverse=True)
    sp = _Spanner()
    while products:  # popped, so each product is freed once inserted
        sp.insert(products.pop())
    return sp.canonical() + carried
