"""c-nilpotent multipliers, epicenters, and capability for nilpotent algebras.

For L = F/R with F free, the c-nilpotent multiplier is
R ∩ γ_{c+1}(F) / [R,F,…,F] (c bracketings), and the c-epicenter is the image
in L of Z_c(F/[R,F,…,F]).  For L of class k everything is computed inside
the free nilpotent algebra of rank dim(L/L²) and class k + c: γ_{k+1}(F)
lands in R, so γ_{k+c+1}(F) lies inside the c-fold bracket closure of R and
the truncation changes none of the quotients involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .exactlin import Subspace, _int_row, _kernel_rows, _Spanner
from .fdlie import LieAlgebra, NotNilpotentError, series, upper_centrals
from .freelie import DIM_CAP, FreeNilpotentAlgebra, free_nilpotent, span_bracket_rows


class PresentationError(ArithmeticError):
    """A free presentation broke an invariant that exact arithmetic
    guarantees for a nilpotent algebra; seeing it means a bug, not bad input."""


@dataclass(frozen=True, eq=False)
class Presentation:
    """Free presentation data for a nilpotent algebra at multiplier weight c.

    Compared and hashed by identity, so it can key the closure memo.
    """

    ambient: FreeNilpotentAlgebra
    relations: Subspace  # kernel of the map onto L inside the ambient
    c: int
    algebra: LieAlgebra
    images: tuple = field(repr=False)  # image in L of each ambient basis word

    def __post_init__(self):
        if self.ambient.dim - self.relations.rank != self.algebra.dim:
            raise PresentationError(
                f"rank-nullity fails: ambient dim {self.ambient.dim} minus relation rank "
                f"{self.relations.rank} is not dim L = {self.algebra.dim}"
            )


@dataclass(frozen=True)
class MultiplierReport:
    c: int
    dimension: int
    basis_words: tuple[str, ...]
    presentation: Presentation


_present_cache: dict = {}
_mult_cache: dict = {}
_zstar_cache: dict = {}

# one image shared by every ambient word too long to reach L
_ZERO_IMAGE: Mapping[int, Fraction] = MappingProxyType({})


def _cache_key(L: LieAlgebra, c: int):
    return (L.name, L.basis_labels, L.fingerprint, c)


def present(
    L: LieAlgebra,
    c: int,
    *,
    lift: Sequence[Mapping[int, object]] | None = None,
    dim_cap: int = DIM_CAP,
) -> Presentation:
    """Present L as a quotient of a free nilpotent algebra of class k + c.

    The generators map to a lift of a basis of L/L²; by default the lift is
    the non-pivot coordinates of L² in RREF, deterministic for a given L.
    A custom ``lift`` (one sparse vector per generator) must still span L
    modulo L².
    """
    if c < 1:
        raise ValueError("multiplier weight c must be >= 1")
    cacheable = lift is None and dim_cap == DIM_CAP
    key = _cache_key(L, c)
    if cacheable and key in _present_cache:
        return _present_cache[key]

    rep = series(L)
    if not rep.is_nilpotent:
        raise NotNilpotentError(
            f"{L.name} is not nilpotent: lower central series stabilises at dimension {rep.lower[-1].rank}",
            rep.lower[-1],
        )
    k = rep.nilpotency_class
    derived = rep.gamma(2) if k >= 1 else Subspace.zero(L.dim)
    d = L.dim - derived.rank

    if lift is None:
        lift_vectors = [
            {col: Fraction(1)} for col in range(L.dim) if col not in derived.pivots
        ]
    else:
        lift_vectors = []
        sp = _Spanner()
        for v in lift:
            vec = {int(i): Fraction(x) for i, x in dict(v).items() if x}
            residual = derived.reduce(vec)
            if not sp.insert(_int_row(residual)):
                raise ValueError("lift does not span L modulo L²")
            lift_vectors.append(vec)
        if len(lift_vectors) != d:
            raise ValueError(f"lift must have exactly {d} vectors, got {len(lift_vectors)}")

    F = free_nilpotent(d, k + c, dim_cap)
    # brackets of length > k die in an algebra of class k; series(L) has
    # shown that, so only length k + 1 is computed, as a check
    live = F.stratum_starts[k + 2]
    images: list[dict[int, Fraction]] = []
    for w in F.basis[:live]:
        if w.is_generator:
            img = dict(lift_vectors[w.gen])
        else:
            img = L.bracket_vectors(images[w.left.key], images[w.right.key])
            if img and w.length > k:
                raise PresentationError(
                    f"{L.name}: the image of the length-{w.length} word {w} is non-zero "
                    f"in an algebra of class {k}"
                )
        images.append(img)
    images.extend([_ZERO_IMAGE] * (F.dim - live))

    sp = _Spanner()
    for r in range(L.dim):
        row = {col: img[r] for col, img in enumerate(images[:live]) if r in img}
        sp.insert(_int_row(row))
    if sp.rank != L.dim:
        raise ValueError("lift images fail to generate L")  # cannot happen for a valid lift
    relations = Subspace._from_rows(F.dim, _kernel_rows(F.dim, sp.canonical()))
    pres = Presentation(F, relations, c, L, tuple(images))
    if cacheable:
        _present_cache[key] = pres
    return pres


def subideal_bracket(S: Subspace, ambient: FreeNilpotentAlgebra, depth: int) -> Subspace:
    """[S, F, …, F] with ``depth`` bracketings against the whole algebra."""
    if S.ambient_dim != ambient.dim:
        raise ValueError(
            f"subspace lives in Q^{S.ambient_dim}, ambient has dimension {ambient.dim}"
        )
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return S
    rows = list(S.integer_rows())
    for _ in range(depth):
        rows = span_bracket_rows(ambient, rows)
    return Subspace._from_rows(ambient.dim, rows)


@lru_cache(maxsize=2)
def _closure(pres: Presentation) -> Subspace:
    """[R, F, …, F] with pres.c bracketings, shared by nilpotent_multiplier
    and z_star.

    report() asks for M^(c), then Z*_1, then Z*_c, so two entries let the
    second weight-c query reuse the first; the bound keeps the memo from
    holding every closure ever built.
    """
    return subideal_bracket(pres.relations, pres.ambient, pres.c)


def nilpotent_multiplier(
    L: LieAlgebra,
    c: int,
    *,
    opt_in_high_weight: bool = False,
    lift: Sequence[Mapping[int, object]] | None = None,
    dim_cap: int = DIM_CAP,
) -> MultiplierReport:
    """dim and Hall-word basis of the c-nilpotent multiplier of L.

    c = 1 is the Schur multiplier.  Weights c >= 3 grow the ambient algebra
    quickly and have no reference values, so they sit behind
    ``opt_in_high_weight``.
    """
    if c < 1:
        raise ValueError("multiplier weight c must be >= 1")
    if c > 2 and not opt_in_high_weight:
        raise ValueError("c >= 3 requires opt_in_high_weight=True (ambient dimension grows fast)")
    cacheable = lift is None and dim_cap == DIM_CAP
    key = _cache_key(L, c)
    if cacheable and key in _mult_cache:
        return _mult_cache[key]

    pres = present(L, c, lift=lift, dim_cap=dim_cap)
    F = pres.ambient
    numerator = pres.relations.intersect_suffix(F.stratum_starts[c + 1])
    closure = _closure(pres)
    dimension = numerator.quotient_dim(closure)
    closed_pivots = set(closure.pivots)
    words = tuple(
        str(F.basis[p]) for p in numerator.pivots if p not in closed_pivots
    )
    if len(words) != dimension:
        raise PresentationError(
            f"{L.name}: {len(words)} Hall words outside the closure, but the quotient has dimension {dimension}"
        )
    report = MultiplierReport(c, dimension, words, pres)
    if cacheable:
        _mult_cache[key] = report
    return report


def z_star(L: LieAlgebra, c: int, *, dim_cap: int = DIM_CAP) -> Subspace:
    """The c-epicenter: image in L of Z_c(ambient/[R̄,F,…,F]) (c bracketings).

    L is c-capable (a quotient H/Z_c(H)) exactly when this vanishes.
    """
    if c not in (1, 2):
        raise ValueError("epicenters are computed for c in {1, 2}")
    cacheable = dim_cap == DIM_CAP
    key = _cache_key(L, c)
    if cacheable and key in _zstar_cache:
        return _zstar_cache[key]

    pres = present(L, c, dim_cap=dim_cap)
    F = pres.ambient
    closure = _closure(pres)
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
            combo = F.bracket_indices(keep[a], keep[b])
            if not combo:
                continue
            residual = closure.reduce(combo)
            if residual:
                entries.append((a, b, {pos[t]: v for t, v in residual.items()}))
    Zc = upper_centrals(len(keep), entries, steps=c)[-1]

    pushed = []
    for row in Zc.integer_rows():
        v: dict[int, Fraction] = {}
        for t, val in row.items():
            for r, x in pres.images[keep[t]].items():
                n = v.get(r, 0) + val * x
                if n:
                    v[r] = n
                else:
                    del v[r]
        if v:
            pushed.append(v)
    out = Subspace(L.dim, pushed)
    if cacheable:
        _zstar_cache[key] = out
    return out


def is_capable(L: LieAlgebra) -> bool:
    return z_star(L, 1).rank == 0


def is_two_capable(L: LieAlgebra) -> bool:
    return z_star(L, 2).rank == 0


# --- closed-form oracles -----------------------------------------------------


def _third(prod: int) -> int:
    """prod / 3 for a closed form whose numerator is always divisible by 3."""
    q, r = divmod(prod, 3)
    if r:
        raise ArithmeticError(f"closed-form numerator {prod} is not divisible by 3")
    return q


def abelian_m2(n: int) -> int:
    """dim M^(2)(A(n)) = n(n-1)(n+1)/3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _third(n * (n - 1) * (n + 1))


def schur_heisenberg(m: int) -> int:
    """dim M(H(m)): 2 for m = 1, else 2m² - m - 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2 if m == 1 else 2 * m * m - m - 1


def heisenberg_m2(m: int) -> int:
    """dim M^(2)(H(m)): 5 for m = 1, else (8m³ - 2m)/3."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 5
    return _third(8 * m**3 - 2 * m)


def derived_dim_one_m2(n: int, m: int) -> int:
    """dim M^(2)(L) for L ≅ H(m)⊕A(n-2m-1) of dimension n with dim L² = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 2 * m + 1:
        raise ValueError(f"n must be at least {2 * m + 1} for H({m}) plus an abelian part")
    return _third(n * (n - 1) * (n - 2)) + (3 if m == 1 else 0)


def direct_sum_m2(dim_m2_a: int, dim_m2_b: int, a: int, b: int) -> int:
    """dim M^(2)(A⊕B) from the parts; a = dim A/A², b = dim B/B²."""
    if min(dim_m2_a, dim_m2_b, a, b) < 0:
        raise ValueError("all arguments must be >= 0")
    return dim_m2_a + dim_m2_b + a * a * b + b * b * a


_ORACLES = {
    "abelian_m2": abelian_m2,
    "schur_heisenberg": schur_heisenberg,
    "heisenberg_m2": heisenberg_m2,
    "derived_dim_one_m2": derived_dim_one_m2,
    "direct_sum_m2": direct_sum_m2,
}


def formula_oracle(kind: str, **params) -> int:
    try:
        fn = _ORACLES[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}; known: {sorted(_ORACLES)}") from None
    return fn(**params)


# --- bounds ------------------------------------------------------------------


def eq1_bound(n: int) -> int:
    """Upper bound n(n-1)(n+1)/3 for dim M^(2)(L) + dim L³, n = dim L."""
    return abelian_m2(n)


def refined_bound(n: int, m: int) -> int:
    """Sharper bound (n-m)((n+2m-2)(n-m-1) + 3(m-1))/3 + 3 for m = dim L² >= 1."""
    if m < 1:
        raise ValueError("refined bound needs dim L² >= 1")
    return _third((n - m) * ((n + 2 * m - 2) * (n - m - 1) + 3 * (m - 1))) + 3


@dataclass(frozen=True)
class BoundReport:
    algebra: str
    n: int
    m: int  # dim L²
    dim_m2: int
    dim_l3: int
    value: int  # dim_m2 + dim_l3
    eq1: int
    refined: int | None  # undefined for abelian L

    @property
    def eq1_slack(self) -> int:
        return self.eq1 - self.value

    @property
    def refined_slack(self) -> int | None:
        return None if self.refined is None else self.refined - self.value

    @property
    def is_abelian(self) -> bool:
        return self.m == 0

    @property
    def saturates_eq1(self) -> bool:
        return self.eq1_slack == 0


def bound_report(L: LieAlgebra, **kwargs) -> BoundReport:
    """Check dim M^(2)(L) + dim L³ against the general and refined bounds."""
    rep = series(L)
    if not rep.is_nilpotent:
        raise NotNilpotentError(f"{L.name} is not nilpotent", rep.lower[-1])
    m = rep.gamma(2).rank
    l3 = rep.gamma(3).rank
    dim_m2 = nilpotent_multiplier(L, 2, **kwargs).dimension
    n = L.dim
    return BoundReport(
        algebra=L.name,
        n=n,
        m=m,
        dim_m2=dim_m2,
        dim_l3=l3,
        value=dim_m2 + l3,
        eq1=eq1_bound(n),
        refined=None if m == 0 else refined_bound(n, m),
    )


def report(L: LieAlgebra, c: int, **kwargs) -> dict:
    """Machine-readable report for one algebra at weight c."""
    mult = nilpotent_multiplier(L, c, **kwargs)
    bounds = bound_report(L, **kwargs)
    return {
        "algebra": L.name,
        "c": c,
        "dim_multiplier": mult.dimension,
        "basis_words": list(mult.basis_words),
        "bounds": {
            "eq1": bounds.eq1,
            "refined": bounds.refined,
            "value": bounds.value,
        },
        "capable": is_capable(L),
        "two_capable": is_two_capable(L),
    }


def random_lift(L: LieAlgebra, rng: random.Random) -> list[dict[int, Fraction]]:
    """A random minimal generating lift: canonical lift plus small noise."""
    rep = series(L)
    if not rep.is_nilpotent:
        raise NotNilpotentError(f"{L.name} is not nilpotent", rep.lower[-1])
    derived = rep.gamma(2)
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
        if all(sp.insert(_int_row(derived.reduce(v))) for v in vectors):
            return vectors
