"""Finite-dimensional Lie algebras over Q via structure constants.

An algebra is stored as its bracket table on an ordered basis, with entries
kept only for index pairs i < j (antisymmetry fills in the rest).  All user
facing ingestion paths check the Jacobi identity; constructors whose tables
are correct by construction skip the check.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .exactlin import Subspace, _int_row, _kernel_rows, _Spanner, _as_fraction
from .freelie import FreeNilpotentAlgebra

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
    out: Combo = {}
    for k, v in combo.items():
        if not isinstance(k, int) or not 0 <= k < dim:
            raise ValidationError(f"{where}: basis index {k!r} out of range", where)
        f = _as_fraction(v)
        if f:
            out[k] = f
    return out


class LieAlgebra:
    """Lie algebra on a finite ordered basis with exact rational brackets."""

    __slots__ = ("name", "dim", "basis_labels", "_table", "_fingerprint")

    def __init__(
        self,
        name: str,
        basis_labels: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        *,
        check: bool = True,
    ):
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        table: dict[tuple[int, int], Combo] = {}
        for (i, j), combo in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValidationError(
                    f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim", (i, j)
                )
            cleaned = _clean_combo(combo, self.dim, f"bracket ({i},{j})")
            if cleaned:
                table[(i, j)] = cleaned
        self._table = table
        self._fingerprint = None
        if check:
            self._check_jacobi()

    _EMPTY: Combo = {}

    def bracket_basis(self, i: int, j: int) -> Combo:
        """[e_i, e_j]; the i < j result is shared, do not mutate."""
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), self._EMPTY)
        combo = self._table.get((j, i))
        return {k: -c for k, c in combo.items()} if combo else {}

    def bracket_vectors(self, x: Mapping[int, object], y: Mapping[int, object]) -> Combo:
        out: Combo = {}
        for i, xi in x.items():
            for j, yj in y.items():
                combo = self.bracket_basis(i, j) if i < j else None
                if i > j:
                    combo = self.bracket_basis(j, i)
                    s = -xi * yj
                elif i == j:
                    continue
                else:
                    s = xi * yj
                if not combo:
                    continue
                for k, ck in combo.items():
                    n = out.get(k, 0) + s * ck
                    if n:
                        out[k] = n
                    else:
                        del out[k]
        return out

    def entries(self):
        """Iterate (i, j, combo) over stored pairs, i < j."""
        for (i, j), combo in self._table.items():
            yield i, j, combo

    def _jacobi_defect(self, i: int, j: int, k: int) -> Combo:
        acc: Combo = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in self.bracket_basis(a, b).items():
                for t, ct in self.bracket_basis(m, c).items():
                    n = acc.get(t, 0) + cm * ct
                    if n:
                        acc[t] = n
                    else:
                        del acc[t]
        return acc

    def _check_jacobi(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    defect = self._jacobi_defect(i, j, k)
                    if defect:
                        raise ValidationError(
                            f"Jacobi identity fails on basis triple ({i + 1},{j + 1},{k + 1})",
                            (i + 1, j + 1, k + 1),
                        )

    @property
    def fingerprint(self):
        """Structural identity of the bracket table (name and labels excluded)."""
        if self._fingerprint is None:
            items = tuple(
                (i, j, tuple(sorted(combo.items())))
                for (i, j), combo in sorted(self._table.items())
            )
            self._fingerprint = (self.dim, items)
        return self._fingerprint

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
            total = dict(grid[i][j])
            for k, v in grid[j][i].items():
                s = total.get(k, 0) + v
                if s:
                    total[k] = s
                else:
                    del total[k]
            if total:
                raise ValidationError(f"antisymmetry fails at ({i + 1},{j + 1})", (i + 1, j + 1))
            if grid[i][j]:
                brackets[(i, j)] = grid[i][j]
    return LieAlgebra(name, basis_labels, brackets, check=True)


def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ValueError("abelian(n) requires n >= 0")
    return LieAlgebra(f"A({n})", [f"a{i + 1}" for i in range(n)], {}, check=False)


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
    return LieAlgebra(f"H({m})", labels, brackets, check=False)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    labels = [f"{lbl}" for lbl in a.basis_labels] + [f"{lbl}'" for lbl in b.basis_labels]
    brackets: dict[tuple[int, int], Combo] = {}
    for i, j, combo in a.entries():
        brackets[(i, j)] = dict(combo)
    off = a.dim
    for i, j, combo in b.entries():
        brackets[(i + off, j + off)] = {k + off: v for k, v in combo.items()}
    return LieAlgebra(f"{a.name}⊕{b.name}", labels, brackets, check=False)


def from_free_nilpotent(F: FreeNilpotentAlgebra, name: str | None = None, *, check: bool = False) -> LieAlgebra:
    """View a free nilpotent algebra as a plain structure-constant algebra."""
    labels = [str(w) for w in F.basis]
    brackets = {}
    for i in range(F.dim):
        for j in range(i):
            combo = F.bracket_indices(i, j)
            if combo:
                brackets[(j, i)] = {k: -c for k, c in combo.items()}
    if name is None:
        name = f"FN({F.rank},{F.nilpotency_class})"
    return LieAlgebra(name, labels, brackets, check=check)


@dataclass(frozen=True)
class SeriesReport:
    """Lower and upper central series, each listed until stabilisation.

    The upper series is computed on first access: most callers read only
    the lower one.
    """

    lower: tuple[Subspace, ...]  # γ₁, γ₂, … (last term repeated no further)
    nilpotency_class: int | None
    algebra: LieAlgebra = field(repr=False, compare=False)

    @cached_property
    def upper(self) -> tuple[Subspace, ...]:
        """Z₁, Z₂, … until stabilisation."""
        L = self.algebra
        return tuple(upper_centrals(L.dim, L.entries(), None)) if L.dim else ()

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


def _lower_centrals(L: LieAlgebra) -> list[Subspace]:
    chain = [Subspace.full(L.dim)]
    while chain[-1].rank:
        sp = _Spanner()
        for row in chain[-1].integer_rows():
            for j in range(L.dim):
                prod = L.bracket_vectors(row, {j: 1})
                if prod:
                    sp.insert(_int_row(prod))
        nxt = Subspace.from_spanner(L.dim, sp)
        if nxt.rank == chain[-1].rank:
            chain.append(nxt)
            break
        chain.append(nxt)
    return chain


def upper_centrals(
    n: int,
    entries: Iterable[tuple[int, int, Mapping[int, object]]],
    steps: int | None = None,
) -> list[Subspace]:
    """Successive upper central terms Z₁, Z₂, … of an n-dim bracket table.

    ``entries`` lists (i, j, [e_i,e_j]) with each pair in one orientation
    only.  Terms are produced as kernels of growing constraint matrices:
    Z_{t+1} = {x : [x, e_j] ∈ Z_t for all j}.  With ``steps=None`` the chain
    runs until it stabilises, otherwise exactly ``steps`` terms are returned.
    """
    # ad-rows: adrows[(k, j)][i] = coefficient of e_k in [e_i, e_j]
    adrows: dict[tuple[int, int], dict[int, Fraction]] = {}

    def add(k, j, i, c):
        row = adrows.setdefault((k, j), {})
        s = row.get(i, 0) + c
        if s:
            row[i] = s
        else:
            del row[i]

    for i, j, combo in entries:
        for k, c in combo.items():
            add(k, j, i, c)
            add(k, i, j, -c)

    chain: list[Subspace] = []
    sp = _Spanner()
    for row in adrows.values():
        sp.insert(_int_row(row))
    while True:
        constraints = sp.canonical()
        Z = Subspace._from_rows(n, _kernel_rows(n, constraints))
        if steps is None and chain and Z.rank == chain[-1].rank:
            break  # stabilised; drop the repeat
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
                    ad = adrows.get((k, j))
                    if not ad:
                        continue
                    for i, c in ad.items():
                        s = row.get(i, 0) + mk * c
                        if s:
                            row[i] = s
                        else:
                            del row[i]
                if row:
                    sp.insert(_int_row(row))
    while steps is not None and len(chain) < steps:
        chain.append(chain[-1])
    return chain


def series(L: LieAlgebra) -> SeriesReport:
    """Lower and upper central series with the nilpotency class, if any."""
    lower = _lower_centrals(L)
    nil_class = None
    if lower[-1].rank == 0:
        nil_class = len(lower) - 1
    return SeriesReport(tuple(lower), nil_class, L)


def quotient(L: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """L/I on the non-pivot coordinates of the ideal's RREF basis."""
    if ideal.ambient_dim != L.dim:
        raise ValueError(f"ideal lives in Q^{ideal.ambient_dim}, algebra has dim {L.dim}")
    for row in ideal.integer_rows():
        for j in range(L.dim):
            prod = L.bracket_vectors(row, {j: 1})
            residual = ideal.reduce(prod)
            if residual:
                raise NonIdealError(
                    "subspace is not an ideal: bracket with a basis vector leaves it",
                    (dict(row), j),
                )
    keep = [c for c in range(L.dim) if c not in ideal.pivots]
    pos = {c: t for t, c in enumerate(keep)}
    brackets: dict[tuple[int, int], Combo] = {}
    for a, p in enumerate(keep):
        for b in range(a + 1, len(keep)):
            q = keep[b]
            combo = ideal.reduce(L.bracket_basis(p, q))
            if combo:
                brackets[(a, b)] = {pos[c]: v for c, v in combo.items()}
    labels = [L.basis_labels[c] for c in keep]
    return LieAlgebra(f"{L.name}/I", labels, brackets, check=False)


def recognize_derived_dim_one(L: LieAlgebra) -> tuple[int, int]:
    """For nilpotent L with dim L² = 1, return (m, r) with L ≅ H(m)⊕A(r).

    The derived subalgebra is central here, so [·,·] induces an alternating
    form on L/Z-direction with matrix c_{ij} given by [e_i,e_j] = c_{ij} w;
    its rank is 2m and r = dim L − 2m − 1.
    """
    rep = series(L)
    if not rep.is_nilpotent:
        raise NotNilpotentError("algebra is not nilpotent", rep.lower[-1])
    derived = rep.gamma(2)
    if derived.rank != 1:
        raise ValueError(f"dim L^2 = {derived.rank}, need exactly 1")
    w = next(derived.rational_rows())
    pivot = min(w)
    sp = _Spanner()
    for i in range(L.dim):
        row = {}
        for j in range(L.dim):
            combo = L.bracket_basis(i, j)
            if combo:
                # combo must be a multiple of w; read the multiple off the pivot
                row[j] = combo.get(pivot, Fraction(0)) / w[pivot]
        if row:
            sp.insert(_int_row(row))
    m, odd = divmod(sp.rank, 2)
    if odd:
        raise ArithmeticError(f"alternating form of rank {sp.rank}: over Q the rank is even")
    return m, L.dim - 2 * m - 1


def random_basis_change(L: LieAlgebra, rng: random.Random, name: str | None = None) -> LieAlgebra:
    """Rewrite L's table in a random invertible basis (for invariance tests)."""
    n = L.dim
    while True:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        sp = _Spanner()
        if all(sp.insert(_int_row(row)) for row in P):
            break
    # invert P by solving P X = I with exact elimination
    aug = [list(P[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    Pinv = [row[n:] for row in aug]
    new_basis = [{j: P[i][j] for j in range(n) if P[i][j]} for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            prod = L.bracket_vectors(new_basis[i], new_basis[j])
            combo = {}
            for k in range(n):
                v = sum(prod.get(t, 0) * Pinv[t][k] for t in prod)
                if v:
                    combo[k] = v
            if combo:
                brackets[(i, j)] = combo
    return LieAlgebra(name or f"{L.name}~", [f"b{i + 1}" for i in range(n)], brackets, check=False)


# --- JSON serialisation ----------------------------------------------------

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _coeff_to_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def to_json_dict(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(L._table):
        combo = L._table[(i, j)]
        value = [[k, _coeff_to_str(combo[k])] for k in sorted(combo)]
        brackets.append({"i": i, "j": j, "value": value})
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
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ValidationError("field 'dim' must be a nonnegative integer", "dim")
    if not isinstance(basis, list) or any(not isinstance(s, str) for s in basis):
        raise ValidationError("field 'basis' must be a list of strings", "basis")
    if len(basis) != dim:
        raise ValidationError(f"field 'basis' has {len(basis)} labels, 'dim' is {dim}", "basis")
    if not isinstance(brackets, list):
        raise ValidationError("field 'brackets' must be a list", "brackets")
    table: dict[tuple[int, int], Combo] = {}
    for t, entry in enumerate(brackets):
        where = f"brackets[{t}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where} must be an object", where)
        for field in ("i", "j", "value"):
            if field not in entry:
                raise ValidationError(f"{where} missing field {field!r}", where)
        i, j, value = entry["i"], entry["j"], entry["value"]
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise ValidationError(f"{where}: 'i' and 'j' must be integers", where)
        if not 0 <= i < dim or not 0 <= j < dim:
            raise ValidationError(f"{where}: index out of range for dim {dim}", where)
        if i >= j:
            raise ValidationError(f"{where}: requires i < j, got ({i},{j})", where)
        if (i, j) in table:
            raise ValidationError(f"{where}: duplicate pair ({i},{j})", where)
        if not isinstance(value, list):
            raise ValidationError(f"{where}.value must be a list", where)
        combo: Combo = {}
        for pos, pair in enumerate(value):
            vwhere = f"{where}.value[{pos}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{vwhere} must be a [index, coefficient] pair", vwhere)
            k, coeff = pair
            if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < dim:
                raise ValidationError(f"{vwhere}: index out of range for dim {dim}", vwhere)
            if k in combo:
                raise ValidationError(f"{vwhere}: duplicate index {k}", vwhere)
            if not isinstance(coeff, str) or not _RATIONAL_RE.match(coeff):
                raise ValidationError(
                    f"{vwhere}: coefficient must be an exact rational string like '2' or '-1/3'",
                    vwhere,
                )
            f = Fraction(coeff)
            if f == 0:
                raise ValidationError(f"{vwhere}: zero coefficients must be omitted", vwhere)
            combo[k] = f
        if combo:
            table[(i, j)] = combo
    return LieAlgebra(name, basis, table, check=True)


def loads(text: str) -> LieAlgebra:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from e
    return from_json_dict(obj)


def load(path) -> LieAlgebra:
    with open(path) as fh:
        return loads(fh.read())
