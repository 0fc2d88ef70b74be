"""Finite-dimensional Lie algebras over Q via structure constants.

An algebra is stored as its bracket table on an ordered basis: for index
pairs i < j only, the integer numerators of [e_i, e_j] over one common
denominator ``den``.  Internal brackets run on den·[·,·], which has the same
central series, ideals and kernels; the public views divide by ``den``.
``loads`` and the constructions here pass integer tables to the trusted
``LieAlgebra._from_num``; only ``loads`` then runs the Jacobi check.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

from ._record import Record
from .exactlin import IntRow, Subspace, _Spanner, _as_fraction, _is_int, _kernel_image
from .freelie import FreeNilpotentAlgebra, HashedKey, table_bracket

if TYPE_CHECKING:  # fractions is imported where a Fraction is built
    from fractions import Fraction

    Combo = dict[int, Fraction]


class ValidationError(ValueError):
    """Structure-constant data violates the Lie algebra axioms or the schema.

    ``location`` names the offending entry (1-based index tuples for
    antisymmetry and Jacobi failures, JSON paths for schema failures).
    """

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class NonIdealError(ValueError):
    """A subspace passed where an ideal is required fails [I, L] ⊆ I."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class NotNilpotentError(ValueError):
    """Lower central series stabilised away from zero; carries that term."""

    def __init__(self, message: str, stabilized: Subspace):
        super().__init__(message)
        self.stabilized = stabilized


def _clean_combo(combo: Mapping[int, object], dim: int, where: str) -> Combo:
    """The non-zero entries of ``combo``, each an int or a Fraction."""
    out: Combo = {}
    for k, v in combo.items():
        if not _is_int(k):
            raise ValidationError(f"{where}: basis index {k!r} is not an int", where)
        if not 0 <= k < dim:
            raise ValidationError(f"{where}: basis index {k!r} out of range", where)
        f = v if type(v) is int else _as_fraction(v)
        if f:
            out[k] = f
    return out


class LieAlgebra:
    """Lie algebra on a finite ordered basis with exact rational brackets,
    held as integer numerators over the least common denominator ``den``.
    ``brackets[(i, j)]``, i < j, maps basis indices to ints or Fractions;
    the keys, the values and Jacobi are checked (:class:`ValidationError`)."""

    __slots__ = ("name", "dim", "basis_labels", "den", "_num", "_fingerprint", "_memo_key", "_lower")

    def __init__(self, name: str, basis_labels: Sequence[str], brackets: Mapping[tuple[int, int], Mapping]):
        dim = len(basis_labels)
        table: dict[tuple[int, int], Combo] = {}
        for (i, j), combo in brackets.items():
            if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
                raise ValidationError(f"bracket key ({i!r},{j!r}) must be ints with 0 <= i < j < dim", (i, j))
            if cleaned := _clean_combo(combo, dim, f"bracket ({i},{j})"):
                table[(i, j)] = cleaned
        den = math.lcm(*(f.denominator for combo in table.values() for f in combo.values()))
        num = {p: {k: f.numerator * (den // f.denominator) for k, f in c.items()} for p, c in table.items()}
        self._install(name, basis_labels, den, num)
        self._check_jacobi()

    @classmethod
    def _from_num(cls, name: str, basis_labels: Sequence[str], den: int, num: dict) -> "LieAlgebra":
        """Trusted constructor: ``num[(i, j)]``, i < j, is the non-empty
        integer row den·[e_i, e_j]; the rows are kept, not copied."""
        self = object.__new__(cls)
        self._install(name, basis_labels, den, num)
        return self

    def _install(self, name: str, basis_labels: Sequence[str], den: int, num: dict):
        # den lowered by its gcd with the numerators: equal rational tables store equal ints
        g = math.gcd(den, *(v for row in num.values() for v in row.values())) if den > 1 else 1
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.den = den // g
        self._num: dict[tuple[int, int], IntRow] = {
            pair: num[pair] if g == 1 else {k: v // g for k, v in num[pair].items()} for pair in sorted(num)
        }
        self._fingerprint = None
        self._memo_key: HashedKey | None = None
        self._lower: tuple[Subspace, ...] | None = None  # kept by series()

    def _ibracket(self, x: Mapping[int, int], y: Mapping[int, int]) -> IntRow:
        """den·[x, y] on the integer table (integer x, y give integers)."""
        return table_bracket(self._num.get, x, y)

    def bracket_vectors(self, x: Mapping[int, object], y: Mapping[int, object]) -> Combo:
        """[x, y] for sparse rational vectors."""
        from fractions import Fraction

        return {k: Fraction(v, self.den) for k, v in self._ibracket(x, y).items()}

    def bracket_basis(self, i: int, j: int) -> Combo:
        """[e_i, e_j] as a fresh exact combination."""
        return self.bracket_vectors({i: 1}, {j: 1})

    def entries(self):
        """Iterate (i, j, combo) over stored pairs, i < j, in sorted order."""
        from fractions import Fraction

        for (i, j), combo in self._num.items():
            yield i, j, {k: Fraction(v, self.den) for k, v in combo.items()}

    def _check_jacobi(self):
        """Raise :class:`ValidationError` on the first basis triple, in the
        order of the full scan, whose Jacobi sum is non-zero.

        den²·defect of (i, j, k) vanishes unless one of its pairs is stored,
        so only those triples are visited, sorted.  Each stored row
        den·[e_a, e_c] is packed into one int, entry q in a signed field of
        width W at bit W·q, so [[e_i, e_j], e_k] costs one multiply-add per
        entry of den·[e_i, e_j].  W = (3·w·B²).bit_length() + 1 for w the
        longest row and B the largest |entry|: a field of a triple's packed
        sum adds three terms of at most w products of two entries, so it
        stays below 2^(W−1) in size, and the sum is zero exactly when every
        field is, which the lowest non-zero field would otherwise prevent.
        """
        num, n = self._num, self.dim
        if not num:
            return
        w = max(map(len, num.values()))
        B = max(abs(v) for row in num.values() for v in row.values())
        width = (3 * w * B * B).bit_length() + 1
        # packed[c][a] = den·[e_a, e_c], packed; sparse, like the table
        packed: list[dict[int, int]] = [{} for _ in range(n)]
        for (a, b), row in num.items():
            p = sum(v << (width * q) for q, v in row.items())
            packed[b][a] = p
            packed[a][b] = -p
        triples = set()
        for a, b in num:
            triples.update(
                (t, a, b) if t < a else (a, t, b) if t < b else (a, b, t)
                for t in range(n) if t != a and t != b
            )
        get = num.get
        for i, j, k in sorted(triples):
            # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] − [[e_i, e_k], e_j], each
            # inner bracket read off the table as stored, i < j < k
            s = 0
            for pair, c, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
                ab = get(pair)
                if ab:
                    col = packed[c]
                    for a, v in ab.items():
                        if a in col:
                            s += sign * v * col[a]
            if s:
                raise ValidationError(
                    f"Jacobi identity fails on basis triple ({i + 1},{j + 1},{k + 1})",
                    (i + 1, j + 1, k + 1),
                )

    @property
    def fingerprint(self):
        """Structural identity of the bracket table (name and labels
        excluded): the dimension, ``den`` and the integer table, which are
        equal exactly when the rational tables are."""
        if self._fingerprint is None:
            items = tuple((i, j, tuple(sorted(combo.items()))) for (i, j), combo in self._num.items())
            self._fingerprint = (self.dim, self.den, items)
        return self._fingerprint

    @property
    def memo_key(self) -> HashedKey:
        """Name, labels and fingerprint as one memo key, hashed once."""
        if self._memo_key is None:
            self._memo_key = HashedKey((self.name, self.basis_labels, self.fingerprint))
        return self._memo_key

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def validate(name: str, basis_labels: Sequence[str], table) -> LieAlgebra:
    """Build an algebra from a full square bracket table, checking all axioms.

    ``table[i][j]`` is the combination [e_i, e_j], given either as a dense
    length-n sequence of rationals or as a sparse {index: coefficient} map.
    Antisymmetry (including zero diagonal) and Jacobi are verified; failures
    raise :class:`ValidationError` with 1-based indices.
    """
    n = len(basis_labels)
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError(f"bracket table must be {n}x{n}")

    def combo_of(entry, where) -> Combo:
        if isinstance(entry, Mapping):
            return _clean_combo(entry, n, where)
        if len(entry) != n:
            raise ValidationError(f"{where}: expected {n} coefficients", where)
        return _clean_combo(dict(enumerate(entry)), n, where)

    grid = [[combo_of(table[i][j], f"table[{i}][{j}]") for j in range(n)] for i in range(n)]
    brackets = {}
    for i in range(n):
        if grid[i][i]:
            raise ValidationError(
                f"antisymmetry fails at ({i + 1},{i + 1}): [e,e] must vanish", (i + 1, i + 1)
            )
        for j in range(i + 1, n):
            if grid[j][i] != {k: -v for k, v in grid[i][j].items()}:
                raise ValidationError(f"antisymmetry fails at ({i + 1},{j + 1})", (i + 1, j + 1))
            if grid[i][j]:
                brackets[(i, j)] = grid[i][j]
    return LieAlgebra(name, basis_labels, brackets)


def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ValueError("abelian(n) requires n >= 0")
    return LieAlgebra._from_num(f"A({n})", [f"a{i + 1}" for i in range(n)], 1, {})


def heisenberg(m: int) -> LieAlgebra:
    """H(m): basis x1, y1, …, xm, ym, z with [x_i, y_i] = z."""
    if m < 1:
        raise ValueError("heisenberg(m) requires m >= 1")
    labels = []
    for i in range(m):
        labels += [f"x{i + 1}", f"y{i + 1}"]
    labels.append("z")
    z = 2 * m
    brackets = {(2 * i, 2 * i + 1): {z: 1} for i in range(m)}
    return LieAlgebra._from_num(f"H({m})", labels, 1, brackets)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """A ⊕ B over the lcm of the two denominators, B's basis after A's."""
    labels = [f"{lbl}" for lbl in a.basis_labels] + [f"{lbl}'" for lbl in b.basis_labels]
    den = math.lcm(a.den, b.den)
    ta, tb, off = den // a.den, den // b.den, a.dim
    num = {pair: {k: v * ta for k, v in combo.items()} for pair, combo in a._num.items()}
    for (i, j), combo in b._num.items():
        num[(i + off, j + off)] = {k + off: v * tb for k, v in combo.items()}
    return LieAlgebra._from_num(f"{a.name}⊕{b.name}", labels, den, num)


def from_free_nilpotent(F: FreeNilpotentAlgebra, name: str | None = None) -> LieAlgebra:
    """View a free nilpotent algebra as a plain structure-constant algebra."""
    labels = [str(w) for w in F.basis]
    if name is None:
        name = f"FN({F.rank},{F.nilpotency_class})"
    return LieAlgebra._from_num(name, labels, 1, F.products())


class SeriesReport(Record):
    """Lower and upper central series, each listed until stabilisation.

    ``lower`` holds γ₁, γ₂, … (the last term repeated no further),
    ``nilpotency_class`` is None for a non-nilpotent algebra, and
    ``algebra`` is left out of the repr and the comparison.  The lower
    series is computed once per algebra and kept on it; the upper series is
    computed on first access, since most callers read only the lower one.
    """

    __slots__ = ("lower", "nilpotency_class", "algebra", "__dict__")
    _hidden = ("algebra",)

    @cached_property
    def upper(self) -> tuple[Subspace, ...]:
        """Z₁, Z₂, … until stabilisation."""
        return tuple(upper_centrals(self.algebra))

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None

    def gamma(self, k: int) -> Subspace:
        if k < 1:
            raise ValueError("gamma is indexed from 1")
        return self.lower[min(k, len(self.lower)) - 1]

    def z(self, k: int) -> Subspace:
        if k < 1:
            raise ValueError("upper central terms are indexed from 1")
        if not self.upper:
            # dim-0 algebra: every term is the zero space
            return self.lower[0]
        return self.upper[min(k, len(self.upper)) - 1]


def _generating_units(L: LieAlgebra, derived: Subspace) -> list[int]:
    """Indices of unit vectors that generate L as an algebra.

    They start as the units off the pivots of L², which span L modulo L²
    and so generate L when L is nilpotent; the units off the pivots of the
    subalgebra those generate complete them in any case.  That subalgebra
    is the span of the left-normed brackets of the units, closed under
    [·, e_j] for each unit e_j; it stops inserting once it is all of L.
    """
    n = L.dim
    units = [j for j in range(n) if j not in derived.pivots]
    sp = _Spanner()
    frontier: list[IntRow] = [{j: 1} for j in units]
    for row in frontier:
        sp.insert(row)
    while frontier and sp.rank < n:
        grown = []
        for row in frontier:
            for j in units:
                prod = L._ibracket(row, {j: 1})
                if prod and sp.insert(prod):
                    if sp.rank == n:
                        return units
                    grown.append(prod)
        frontier = grown
    return units + [j for j in range(n) if j not in sp.rows]


def _lower_centrals(L: LieAlgebra) -> list[Subspace]:
    """γ₁, γ₂, … until the series reaches 0 or repeats its last term.

    γ₂ is the span of the stored table values.  For Y a set of units that
    generates L, γ_{t+1} = W := span{[x, y] : x a row of γ_t, y ∈ Y}: by
    Jacobi the u with [γ_t, u] ⊆ W form a subalgebra, since W lies in the
    ideal γ_t, and it holds Y, so it is L.  For nilpotent L, Y is the d
    generators.
    """
    n = L.dim
    chain = [Subspace.full(n)]
    if not n:
        return chain
    sp = _Spanner()
    for combo in L._num.values():
        sp.insert(combo)
    chain.append(Subspace._from_rows(n, sp.canonical()))
    if chain[-1].rank in (0, n):
        return chain
    gens = _generating_units(L, chain[-1])
    while True:
        sp = _Spanner()
        for row in chain[-1].integer_rows():
            for j in gens:
                prod = L._ibracket(row, {j: 1})
                if prod:
                    sp.insert(prod)
        nxt = Subspace._from_rows(n, sp.canonical())
        chain.append(nxt)
        if nxt.rank in (0, chain[-2].rank):
            return chain


def upper_centrals(L: LieAlgebra) -> list[Subspace]:
    """Z₁, Z₂, … of L until the series stabilises (the repeat is dropped).

    Each term is one kernel solve.  Z_{t+1} = {x : [x, e_j] ∈ Z_t for all j}
    contains Z_t, and the basis vectors off the pivots of Z_t span a
    complement of it, so Z_{t+1} is Z_t plus the kernel of
    x ↦ ([x, e_j] mod Z_t)_j on those basis vectors.  Only the stored pairs
    of the table give non-zero brackets, and a bracket's residue modulo Z_t
    is read off the residues of the basis vectors, so the solve stays on
    integers.  Its one caller in the engine is ``SeriesReport.upper``.
    """
    n = L.dim
    # pairs[i]: (j, den·[e_i, e_j]) for every stored pair joining i and j
    pairs: list[list[tuple[int, IntRow]]] = [[] for _ in range(n)]
    for (i, j), combo in L._num.items():
        pairs[i].append((j, combo))
        pairs[j].append((i, {k: -v for k, v in combo.items()}))
    chain: list[Subspace] = []
    Z = Subspace.zero(n)
    while Z.rank < n:
        # residue[p] = s·(e_p mod Z) for each pivot p of Z, s the lcm of its
        # pivot entries: minus the rest of p's row; any other e_k is its own
        # residue, times s
        rows = Z.integer_rows()
        s = math.lcm(*(row[p] for p, row in zip(Z.pivots, rows)))
        residue = {
            p: {q: -v * (s // row[p]) for q, v in row.items() if q != p} for p, row in zip(Z.pivots, rows)
        }
        # e_i off the pivots, tagged with itself, has the image holding
        # s·([e_i, e_j] mod Z) at the coordinates j·n + q
        free = [i for i in range(n) if i not in residue]
        tagged = []
        for i in free:
            image: dict[int, int] = {}
            for j, combo in pairs[i]:
                at = j * n
                for k, c in combo.items():
                    res = residue.get(k)
                    if res is None:
                        image[at + k] = image.get(at + k, 0) + c * s
                    else:
                        for q, v in res.items():
                            image[at + q] = image.get(at + q, 0) + c * v
            tagged.append((image, {i: 1}))
        K = Subspace._from_rows(n, _kernel_image(tagged, n * n)[1])
        if chain and K.is_zero:
            break
        # K meets Z only in 0: once the ranks add up to dim L, Z_{t+1} is L
        Z = Z.sum(K) if Z.rank + K.rank < n else Subspace.full(n)
        chain.append(Z)
    return chain


def series(L: LieAlgebra) -> SeriesReport:
    """Lower and upper central series with the nilpotency class, if any.

    The lower series brackets each term against a generating set of unit
    vectors, not against the whole basis: the d generators off the pivots
    of L² when L is nilpotent, completed when they generate less than L
    (see ``_lower_centrals``).  The lower terms are kept on L, so every
    later call reuses them.
    """
    if L._lower is None:
        L._lower = tuple(_lower_centrals(L))
    lower = L._lower
    nil_class = None
    if lower[-1].rank == 0:
        nil_class = len(lower) - 1
    return SeriesReport(lower, nil_class, L)


def nilpotent_series(L: LieAlgebra) -> SeriesReport:
    """``series(L)`` for nilpotent L; otherwise NotNilpotentError, carrying
    the term where the lower central series stabilises."""
    rep = series(L)
    if not rep.is_nilpotent:
        raise NotNilpotentError(
            f"{L.name} is not nilpotent: lower central series stabilises at dimension {rep.lower[-1].rank}",
            rep.lower[-1],
        )
    return rep


def quotient(L: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """L/I on the non-pivot coordinates of the ideal's RREF basis.

    Only the stored pairs give non-zero brackets; each kept one is reduced
    modulo I as an integer residue (s, w), standing for w / (s·den), and
    rescaled to the lcm S of the scales, over the denominator S·den.
    """
    if ideal.ambient_dim != L.dim:
        raise ValueError(f"ideal lives in Q^{ideal.ambient_dim}, algebra has dim {L.dim}")
    for row in ideal.integer_rows():
        for j in range(L.dim):
            if ideal._residue(L._ibracket(row, {j: 1}))[1]:
                raise NonIdealError(
                    "subspace is not an ideal: bracket with a basis vector leaves it",
                    (dict(row), j),
                )
    keep = [c for c in range(L.dim) if c not in ideal.pivots]
    pos = {c: t for t, c in enumerate(keep)}
    residues = {}
    for (p, q), combo in L._num.items():
        if p in pos and q in pos:
            s, w = ideal._residue(combo)
            if w:
                residues[(pos[p], pos[q])] = s, w
    S = math.lcm(*(s for s, _ in residues.values()))
    num = {pair: {pos[c]: v * (S // s) for c, v in w.items()} for pair, (s, w) in residues.items()}
    labels = [L.basis_labels[c] for c in keep]
    return LieAlgebra._from_num(f"{L.name}/I", labels, S * L.den, num)


def recognize_derived_dim_one(L: LieAlgebra) -> tuple[int, int]:
    """For nilpotent L with dim L² = 1, return (m, r) with L ≅ H(m)⊕A(r).

    The derived subalgebra is central here, so [·,·] induces an alternating
    form on L/Z-direction with matrix c_{ij} given by [e_i,e_j] = c_{ij} w;
    its rank is 2m and r = dim L − 2m − 1; read c_{ij}·den·w[p] off the
    stored table at w's pivot p.
    """
    derived = nilpotent_series(L).gamma(2)
    if derived.rank != 1:
        raise ValueError(f"dim L^2 = {derived.rank}, need exactly 1")
    pivot = derived.pivots[0]
    rows: list[IntRow] = [{} for _ in range(L.dim)]
    for (i, j), combo in L._num.items():
        if v := combo.get(pivot):
            rows[i][j], rows[j][i] = v, -v
    sp = _Spanner()
    for row in rows:
        sp.insert(row)
    m, odd = divmod(sp.rank, 2)
    if odd:
        raise ArithmeticError(f"alternating form of rank {sp.rank}: over Q the rank is even")
    return m, L.dim - 2 * m - 1


def random_basis_change(L: LieAlgebra, rng: random.Random, name: str | None = None) -> LieAlgebra:
    """Rewrite L's table in a random invertible basis (for invariance tests)."""
    n = L.dim
    while True:
        P = [{j: x for j in range(n) if (x := rng.randint(-3, 3))} for _ in range(n)]
        # rows [P | I] reduce to a·[I | P⁻¹] exactly when P is invertible
        sp = _Spanner()
        for i, row in enumerate(P):
            sp.insert({**row, n + i: 1})
        inv = sp.canonical()
        if all(min(r) < n for r in inv):
            break
    a = math.lcm(*(r[min(r)] for r in inv))
    Q = [{c - n: v * (a // r[min(r)]) for c, v in r.items() if c >= n} for r in inv]  # a·P⁻¹
    num = {}
    for i in range(n):
        for j in range(i + 1, n):
            combo: IntRow = {}
            for t, v in L._ibracket(P[i], P[j]).items():
                for k, q in Q[t].items():
                    combo[k] = combo.get(k, 0) + v * q
            if combo := {k: v for k, v in combo.items() if v}:
                num[(i, j)] = combo  # a·den·[P[i], P[j]] in the new basis
    return LieAlgebra._from_num(name or f"{L.name}~", [f"b{i + 1}" for i in range(n)], a * L.den, num)


# --- JSON serialisation ----------------------------------------------------

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def to_json_dict(L: LieAlgebra) -> dict:
    brackets = [
        {"i": i, "j": j, "value": [[k, str(combo[k])] for k in sorted(combo)]}
        for i, j, combo in L.entries()
    ]
    return {
        "name": L.name,
        "dim": L.dim,
        "basis": list(L.basis_labels),
        "brackets": brackets,
    }


def dumps(L: LieAlgebra) -> str:
    return json.dumps(to_json_dict(L), indent=2)


def dump(L: LieAlgebra, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(L) + "\n")


def from_json_dict(obj) -> LieAlgebra:
    """Parse and fully validate the JSON algebra format.

    Basis indices are 0-based positions into the ``basis`` list; only pairs
    with i < j may appear; coefficients are exact rational strings like
    "3" or "-1/2".  Violations raise :class:`ValidationError` naming the
    offending field.
    """
    if not isinstance(obj, dict):
        raise ValidationError("top-level JSON value must be an object")
    for field in ("name", "dim", "basis", "brackets"):
        if field not in obj:
            raise ValidationError(f"missing field {field!r}", field)
    name, dim, basis, brackets = obj["name"], obj["dim"], obj["basis"], obj["brackets"]
    if not isinstance(name, str):
        raise ValidationError("field 'name' must be a string", "name")
    if not _is_int(dim) or dim < 0:
        raise ValidationError("field 'dim' must be a nonnegative integer", "dim")
    if not isinstance(basis, list) or any(not isinstance(s, str) for s in basis):
        raise ValidationError("field 'basis' must be a list of strings", "basis")
    if len(basis) != dim:
        raise ValidationError(f"field 'basis' has {len(basis)} labels, 'dim' is {dim}", "basis")
    if not isinstance(brackets, list):
        raise ValidationError("field 'brackets' must be a list", "brackets")
    table: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}  # p/q as (p, q)
    for t, entry in enumerate(brackets):
        where = f"brackets[{t}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where} must be an object", where)
        for field in ("i", "j", "value"):
            if field not in entry:
                raise ValidationError(f"{where} missing field {field!r}", where)
        i, j, value = entry["i"], entry["j"], entry["value"]
        if not (_is_int(i) and _is_int(j)):
            raise ValidationError(f"{where}: 'i' and 'j' must be integers", where)
        if not 0 <= i < dim or not 0 <= j < dim:
            raise ValidationError(f"{where}: index out of range for dim {dim}", where)
        if i >= j:
            raise ValidationError(f"{where}: requires i < j, got ({i},{j})", where)
        if (i, j) in table:
            raise ValidationError(f"{where}: duplicate pair ({i},{j})", where)
        if not isinstance(value, list):
            raise ValidationError(f"{where}.value must be a list", where)
        combo: dict[int, tuple[int, int]] = {}
        for pos, pair in enumerate(value):
            vwhere = f"{where}.value[{pos}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{vwhere} must be a [index, coefficient] pair", vwhere)
            k, coeff = pair
            if not _is_int(k) or not 0 <= k < dim:
                raise ValidationError(f"{vwhere}: index out of range for dim {dim}", vwhere)
            if k in combo:
                raise ValidationError(f"{vwhere}: duplicate index {k}", vwhere)
            if not isinstance(coeff, str) or not _RATIONAL_RE.match(coeff):
                raise ValidationError(
                    f"{vwhere}: coefficient must be an exact rational string like '2' or '-1/3'",
                    vwhere,
                )
            p, _, q = coeff.partition("/")
            p, q = int(p), int(q or 1)
            if p == 0:
                raise ValidationError(f"{vwhere}: zero coefficients must be omitted", vwhere)
            combo[k] = p, q
        if combo:
            table[(i, j)] = combo
    # over the lcm of the denominators as written; _from_num lowers it
    den = math.lcm(*(q for combo in table.values() for _, q in combo.values()))
    num = {pair: {k: p * (den // q) for k, (p, q) in combo.items()} for pair, combo in table.items()}
    L = LieAlgebra._from_num(name, basis, den, num)
    L._check_jacobi()
    return L


def loads(text: str) -> LieAlgebra:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ValidationError(f"invalid JSON: {e}") from e
    return from_json_dict(obj)


def load(path) -> LieAlgebra:
    with open(path) as fh:
        return loads(fh.read())
