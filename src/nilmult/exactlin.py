"""Exact sparse linear algebra over the rationals.

The elimination engine works on sparse primitive integer rows: each row is
cleared of denominators and divided by the gcd of its entries, which is
equivalent to rational Gauss-Jordan elimination but avoids per-entry
``Fraction`` normalisation in the inner loops.  A ``Subspace`` is stored as
the unique fully reduced (canonical) basis of such rows inside a fixed
ambient coordinate space, so equal subspaces compare equal structurally; the
``_Spanner`` that builds one keeps its rows in that form after every insert.
One routine, ``_reduce``, reduces a row against such rows for both, touching
only the pivots the row hits.  It stays on integers: the residue of an
integer row is a scale s and s times its residual, and ``Subspace.reduce``
is the ``Fraction`` view of it.

Every kernel the package needs (the relation kernel of a presentation, the
epicenter, each term of the upper central series, an intersection) is one
tagged solve, ``_kernel_image``: each unknown's image, with a tag written
after it, is one row of one ``_Spanner``, and the canonical rows that start
in the tag columns are the tags of the combinations whose images cancel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # fractions is imported where a Fraction is built or checked
    from fractions import Fraction

IntRow = dict[int, int]  # sparse row, no explicit zeros


class ContainmentError(ValueError):
    """A claimed subspace containment failed; ``witness`` is a vector of the
    smaller space that does not lie in the larger one."""

    def __init__(self, message: str, witness: dict[int, Fraction]):
        super().__init__(message)
        self.witness = witness


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction; a bool is refused, not read as 0 or 1."""
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(x).__name__}")


def _primitive(row: IntRow) -> IntRow:
    """Divide by the gcd and make the leading (lowest-index) entry positive."""
    if not row:
        return row
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _is_int(x) -> bool:
    """An int but not a bool: True as an index or a count is a mistake, not 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _checked(x, what: str, n: float = math.inf) -> int:
    """x, refused unless it is an int, not a bool, in 0..n-1: a column of
    Q^n, or with n left infinite an ambient dimension."""
    if not _is_int(x):
        raise TypeError(f"{what} {x!r} is a {type(x).__name__}, not an int")
    if not 0 <= x < n:
        raise ValueError(f"{what} {x} is negative" if n == math.inf else f"{what} {x} outside ambient dimension {n}")
    return x


def _cleared(vec, n: int) -> tuple[int, IntRow]:
    """(den, den·vec) for an exact vector of Q^n, a mapping or a sequence, den
    the lcm of its denominators.  With :func:`_checked`, the one check of
    outside input: it refuses an index not a column of Q^n and a value not
    an int or a ``Fraction``."""
    v: dict[int, int | Fraction] = {}
    den = 1
    for c, x in vec.items() if isinstance(vec, Mapping) else enumerate(vec):
        _checked(c, "vector index", n)
        if type(x) is not int:
            _as_fraction(x)  # raises TypeError unless x is exact; a bool is not
        if x:
            v[c] = x
            d = x.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
    return den, {c: x.numerator * (den // x.denominator) for c, x in v.items()}


def _reduce(row: Mapping[int, int], by_pivot: Mapping[int, IntRow]) -> tuple[int, IntRow]:
    """The integer residue (s, s·(row mod S)) of a sparse integer row, S the
    span of the fully reduced rows ``by_pivot`` (pivot -> row).  s is the lcm
    of the pivot entries ``row`` hits, so the residue stays on integers; it
    is supported off the pivots, and empty iff ``row`` lies in S.  Clearing
    one pivot never creates another, so the cost scales with the pivots the
    row hits, not with the rank of S."""
    hit = [c for c in row if c in by_pivot]
    scale = 1
    for p in hit:
        a = by_pivot[p][p]
        scale = scale * a // math.gcd(scale, a)
    w = dict(row) if scale == 1 else {c: x * scale for c, x in row.items()}
    for p in hit:
        basis_row = by_pivot[p]
        f = w[p] // basis_row[p]
        for c, rv in basis_row.items():
            m = w.get(c, 0) - f * rv
            if m:
                w[c] = m
            else:
                del w[c]
    return scale, w


def _eliminate(v: IntRow, row: IntRow, p: int) -> IntRow:
    """A primitive multiple of v with column p cleared against ``row`` (pivot p)."""
    a, b = row[p], v[p]
    g = math.gcd(a, b)
    a //= g
    b //= g
    out = {c: a * x for c, x in v.items()}
    for c, x in row.items():
        n = out.get(c, 0) - b * x
        if n:
            out[c] = n
        else:
            out.pop(c, None)
    g = math.gcd(*out.values())
    if g > 1:
        out = {c: x // g for c, x in out.items()}
    return out


class _Spanner:
    """Incremental row space, canonical after every insert: one primitive
    row per pivot, positive there and zero at every other pivot.  An insert
    reduces the row by :func:`_reduce`; an independent remainder then clears
    its pivot from the stored rows with an entry there, which ``_cols``
    (non-pivot column -> pivots of the rows with an entry in it) finds."""

    __slots__ = ("rows", "_cols")

    def __init__(self):
        self.rows: dict[int, IntRow] = {}
        self._cols: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: IntRow) -> bool:
        """Reduce ``vec`` against the current rows; True iff it was independent."""
        rows, cols = self.rows, self._cols
        w = _primitive(_reduce(vec, rows)[1])
        if not w:
            return False
        p = min(w)
        for c in w:
            if c != p:
                cols.setdefault(c, set()).add(p)
        for q in cols.pop(p, ()):
            old = rows[q]
            new = rows[q] = _eliminate(old, w, p)
            for c in w:  # a row changes only on the columns of w
                if c in new:
                    cols[c].add(q)
                elif c != p and c in old:
                    cols[c].discard(q)
        rows[p] = w
        return True

    def canonical(self) -> list[IntRow]:
        """The fully reduced rows, by pivot."""
        return [self.rows[p] for p in sorted(self.rows)]


def _kernel_image(
    pairs: Sequence[tuple[Mapping[int, int], Mapping[int, int]]], offset: int
) -> tuple[int, list[IntRow]]:
    """(rank, rows) for the tagged rows image_t ∪ (offset + tag_t) of the
    pairs (image_t, tag_t), image columns below ``offset``: rows is the
    canonical basis of {Σ y_t · tag_t : Σ y_t · image_t = 0}, and rank that
    of all the tagged rows.

    The canonical rows with a pivot at or past ``offset`` are zero on every
    image column, so they span exactly the tags of the combinations whose
    images cancel; shifted back, they are already canonical.  Entries that
    cancelled to an explicit zero are dropped.  The pairs are inserted last
    first: when the tags lead with rising columns, as those of R_{≤k}, of
    the upper central series and of ``intersect`` do, a row whose image
    reduces to zero takes a pivot in which no stored row has an entry, so
    no stored row is cleared for it.
    """
    sp = _Spanner()
    for image, tag in reversed(pairs):
        row = {c: v for c, v in image.items() if v}
        row.update((offset + c, v) for c, v in tag.items() if v)
        sp.insert(row)
    return sp.rank, [{c - offset: v for c, v in r.items()} for r in sp.canonical() if min(r) >= offset]


class Subspace:
    """A linear subspace of Q^n held as its canonical RREF basis.

    The basis rows are stored as primitive integer vectors; dividing each by
    its pivot entry recovers the rational RREF (pivot entries 1, pivot
    columns otherwise zero), which is what :meth:`rational_rows` yields.
    """

    __slots__ = ("ambient_dim", "_rows", "_pivots", "_by_pivot")

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):  # noqa: D401
        _checked(ambient_dim, "ambient dimension")
        sp = _Spanner()
        for v in vectors:
            sp.insert(_cleared(v, ambient_dim)[1])
        self._install(ambient_dim, sp.canonical())

    def _install(self, ambient_dim: int, rows: list[IntRow]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_pivots", tuple(min(r) for r in rows))
        object.__setattr__(self, "_by_pivot", dict(zip(self._pivots, self._rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_rows(cls, ambient_dim: int, rows: list[IntRow]) -> "Subspace":
        """Trusted constructor: ``rows`` must already be canonical."""
        self = object.__new__(cls)
        self._install(ambient_dim, rows)
        return self

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rows(_checked(ambient_dim, "ambient dimension"), [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.coordinate_span(ambient_dim, range(_checked(ambient_dim, "ambient dimension")))

    @classmethod
    def coordinate_span(cls, ambient_dim: int, cols: Iterable[int]) -> "Subspace":
        n = _checked(ambient_dim, "ambient dimension")
        return cls._from_rows(n, [{c: 1} for c in sorted({_checked(c, "vector index", n) for c in cols})])

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def integer_rows(self) -> tuple[IntRow, ...]:
        """The primitive integer form of the RREF basis rows."""
        return self._rows

    def rational_rows(self) -> Iterator[dict[int, Fraction]]:
        from fractions import Fraction

        for r in self._rows:
            piv = r[min(r)]
            yield {c: Fraction(v, piv) for c, v in r.items()}

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def reduce(self, vector) -> dict[int, Fraction]:
        """Residual of ``vector`` after eliminating this basis; {} iff member.

        The result is supported on non-pivot columns only, so it is the
        canonical representative of ``vector`` modulo this subspace.  It is
        the ``Fraction`` view of :meth:`_residue`: ``_cleared`` checks and
        clears ``vector`` to the integer row den·vector, and (s, w) =
        ``_residue`` of that row gives the residual w / (s · den).
        """
        from fractions import Fraction

        den, row = _cleared(vector, self.ambient_dim)
        s, w = self._residue(row)
        s *= den
        return {c: Fraction(x, s) for c, x in w.items()}

    def _residue(self, row: Mapping[int, int]) -> tuple[int, IntRow]:
        """:func:`_reduce` of ``row`` by this basis.  ``row`` is trusted: its
        indices lie in the ambient and its values are ints."""
        return _reduce(row, self._by_pivot)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(not self._residue(r)[1] for r in other._rows)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        sp = _Spanner()
        for r in self._rows:
            sp.insert(dict(r))
        for r in other._rows:
            sp.insert(dict(r))
        return Subspace._from_rows(self.ambient_dim, sp.canonical())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus, as one :func:`_kernel_image`: each row of self tagged
        with itself, each row of other untagged; a combination that
        cancels has as its tag a vector of both."""
        self._check_ambient(other)
        pairs = [*((r, r) for r in self._rows), *((r, {}) for r in other._rows)]
        return Subspace._from_rows(self.ambient_dim, _kernel_image(pairs, self.ambient_dim)[1])

    def quotient_dim(self, other: "Subspace") -> int:
        """dim(self / other); requires other to be contained in self."""
        self._check_ambient(other)
        for r in other._rows:
            residual = self.reduce(r)
            if residual:
                raise ContainmentError(
                    "quotient undefined: denominator subspace is not contained in the numerator",
                    residual,
                )
        return self.rank - other.rank

    def intersect_suffix(self, start: int) -> "Subspace":
        """Intersection with the trailing coordinate subspace span{e_j : j >= start}.

        For an RREF basis this is exactly the rows whose pivot is >= start.
        """
        return Subspace._from_rows(
            self.ambient_dim, [dict(r) for r, p in zip(self._rows, self._pivots) if p >= start]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self):
        return f"Subspace(dim {self.rank} of Q^{self.ambient_dim})"
