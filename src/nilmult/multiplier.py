"""c-nilpotent multipliers, epicenters, and capability for nilpotent algebras.

For L = F/R with F free, the c-nilpotent multiplier is
R ∩ γ_{c+1}(F) / [R,F,…,F] (c bracketings), and the c-epicenter is the image
in L of Z_c(F/[R,F,…,F]).  For L of class k everything is computed inside
the free nilpotent algebra of rank dim(L/L²) and class K = k + c, where no
quotient involved changes.  There γ_{k+1}(F) lies in R, so
R = R_{≤k} ⊕ γ_{k+1}(F) with R_{≤k} the relations among the words of length
at most k; a presentation stores R_{≤k} and keeps the γ_{k+1}(F) block
implicit.  That block brackets into γ_{K+1}(F) = 0, so the closure is
[R_{≤k},F,…,F], and with r bracketings still to come only the components of
weight at most K − r can survive: each bracketing is cut to those weights.

The closures of one algebra form one chain: C_0 = R_{≤k} and
C_t = [C_{t−1}, F(d, k+t)], one bracketing each.  The Hall basis of
F(d, k+t−1) is a prefix of that of F(d, k+t), with the same table, so each
C_t carries over to the next ambient unchanged.  The presentations of one
algebra at every weight share that chain, the images and R_{≤k}: all of it
is the algebra's one memo entry.

Each step runs through :func:`~nilmult.freelie.span_bracket_rows`, whose
one shortcut, the carry, rests on a lemma: the words of weight n >= 2 are
spanned by the [u, g] with u of weight n − 1 and g a generator.  So a
C_{t−1} that holds every word of weight k + t − 1 gives a C_t that holds
every word of weight k + t, with no product formed.  For H(m) with m >= 2,
dim M(H(m)) = 2m² − m − 1 says that C_1 = γ_3(F), so C_t = γ_{t+2}(F) at
every t, and M^(c)(H(m)) = γ_{c+1}(F)/γ_{c+2}(F) for c >= 2.

R_{≤k} and the epicenter are each one tagged solve, ``_kernel_image``.
The generators map to units off the pivots of L², and a vector of L² is
fixed by its entries there, so R_{≤k} is solved on the words of length 2
to k, each image read at those pivots.  That the words of length k + 1 map
to 0 is checked on the spans of the images, stratum by stratum, not word by
word (``_check_class``).  The epicenter is solved on dim L unknowns:
R/[R,F,…,F] is central of depth c, so only the words that map onto a basis
of L need testing, and only against generators, which costs dim L · d^c
brackets for d generators; each word is tagged with its image in L, so the
solve yields Z*_c(L) itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property

from ._record import Record
from .exactlin import ContainmentError, IntRow, Subspace, _kernel_image, _Spanner
from .fdlie import LieAlgebra, nilpotent_series
from .freelie import (
    DIM_CAP, FreeNilpotentAlgebra, _check_dim_cap, _memoised, free_nilpotent, span_bracket_rows,
)


class PresentationError(ArithmeticError):
    """A free presentation broke an invariant that exact arithmetic
    guarantees for a nilpotent algebra; seeing it means a bug, not bad input."""


class _Chain:
    """An algebra's memo entry: the rank d, the class k, the integer images
    of the words of length <= k (see ``Presentation.images``), the closure
    chain ``closures[t]`` = C_t, built as far as it has been read, and the
    ``presentations`` by weight c.  ``closures[0]`` is R_{≤k}, in whichever
    ambient the chain started in.  No presentation refers back to it."""

    __slots__ = ("d", "k", "images", "closures", "presentations")

    def __init__(self, d: int, k: int, images: tuple, short_relations: Subspace):
        self.d = d
        self.k = k
        self.images = images
        self.closures = [short_relations]
        self.presentations = {}

    def closure(self, F: FreeNilpotentAlgebra) -> Subspace:
        """C_c in F = F(d, k + c), bracketing on from the last C_t built."""
        c = F.nilpotency_class - self.k
        closures = self.closures
        while len(closures) <= c:
            if closures[-1].is_zero:  # then so is every later C_t: [0, F] = 0
                return Subspace.zero(F.dim)
            t = len(closures)
            # each smaller ambient fits under any cap that F passed
            ambient = F if t == c else free_nilpotent(self.d, self.k + t, F.dim)
            last = Subspace._from_rows(ambient.dim, closures[-1].integer_rows())
            closures.append(subideal_bracket(last, ambient, 1))
        return closures[c]


class Presentation(Record):
    """Free presentation data for a nilpotent algebra at multiplier weight c.

    The fields: the ambient F(d, k + c); ``short_relations`` R_{≤k}, the
    kernel on the words of length <= k; the class k of the algebra; c; the
    algebra; ``images``, den^(k-1) times the image in L of each word of
    length <= k as an integer row (the longer words map to 0); and
    ``closure``, [R, F, …, F] with c bracketings, C_c of the algebra's chain
    (the block γ_{k+1}(F) of R brackets to zero).  A presentation equals
    only itself, and its repr leaves out ``images`` and ``closure``.  The
    multiplier and the epicenter are computed on first read and kept.
    """

    __slots__ = ("ambient", "short_relations", "k", "c", "algebra", "images", "closure", "__dict__")
    _hidden = ("images", "closure")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        short = self.ambient.stratum_starts[self.k + 1]
        if short - self.short_relations.rank != self.algebra.dim:
            raise PresentationError(
                f"rank-nullity fails: {short} words of length <= {self.k} minus relation rank "
                f"{self.short_relations.rank} is not dim L = {self.algebra.dim}"
            )

    @property
    def relations(self) -> Subspace:
        """The kernel R = R_{≤k} ⊕ γ_{k+1}(F) of the map onto L, built on
        each read so that no presentation keeps the γ_{k+1}(F) unit rows."""
        F = self.ambient
        tail = [{j: 1} for j in range(F.stratum_starts[self.k + 1], F.dim)]
        return Subspace._from_rows(F.dim, [*self.short_relations.integer_rows(), *tail])

    @cached_property
    def multiplier(self) -> MultiplierReport:
        """M^(c)(L) = (R ∩ γ_{c+1}(F)) / [R, F, …, F], with a Hall-word basis.

        The numerator is R_{≤k} ∩ γ_{c+1}(F) plus the coordinate block of
        the words of length >= max(k, c) + 1.  A closure row lies in it when
        its pivot is in γ_{c+1}(F) and its part on the words of length <= k
        lies in R_{≤k}; only the rows with a pivot there have such a part.
        """
        F = self.ambient
        starts = F.stratum_starts
        short, gamma = starts[self.k + 1], starts[self.c + 1]
        block = max(short, gamma)
        numerator = self.short_relations.intersect_suffix(gamma)
        closure = self.closure
        rows, pivots = closure.integer_rows(), closure.pivots
        # the rows with a pivot at or past the block lie in it
        for row in rows[: bisect_left(pivots, block)]:
            low = {j: v for j, v in row.items() if j < short}
            if min(row) < gamma or numerator._residue(low)[1]:
                from fractions import Fraction

                lead = row[min(row)]
                raise ContainmentError(
                    f"{self.algebra.name}: a closure row is not in R ∩ γ_{self.c + 1}(F)",
                    {j: Fraction(v, lead) for j, v in row.items()},
                )
        dimension = numerator.rank + F.dim - block - closure.rank
        closed_pivots = set(pivots)
        words = tuple(
            str(F.basis[p]) for p in (*numerator.pivots, *range(block, F.dim)) if p not in closed_pivots
        )
        if len(words) != dimension:
            raise PresentationError(
                f"{self.algebra.name}: {len(words)} Hall words outside the closure, "
                f"but the quotient has dimension {dimension}"
            )
        return MultiplierReport(self.c, dimension, words)

    @cached_property
    def epicenter(self) -> Subspace:
        """Z*_c(L): the image in L of Z_c(F/C), C = [R, F, …, F].

        Two facts keep the solve on dim L unknowns.  R/C lies in Z_c(F/C),
        and F = span(W) ⊕ R for W the words of length <= k that are not
        pivots of R_{≤k}; so Z*_c(L) is the image of Z_c(F/C) ∩ span(W).
        Modulo Z_{t-1} the centraliser of x is a subalgebra and the
        generators generate, so x lies in Z_c(F/C) exactly when every
        left-normed [x, g_1, …, g_c] with generators g_i lies in C.  The
        constraints are those dim L · d^c brackets reduced modulo C, each as
        an integer residue brought to its word's one scale q.  Word w's row
        is one ``_kernel_image`` pair: its residues, tagged with q times its
        integer image in L (the images share one scale), so the tags of the
        combinations whose residues cancel are Z*_c(L) itself, solved on
        integers in dim L inserts.  The words map to a basis of L, so the
        tagged rows have rank dim L; less is a bug.
        """
        F = self.ambient
        closure = self.closure
        relation_pivots = set(self.short_relations.pivots)
        words = [w for w in range(F.stratum_starts[self.k + 1]) if w not in relation_pivots]
        # the residues of w: its s-th generator bracketing modulo C at s·F.dim + col
        tagged = []
        for w in words:
            level = [{w: 1}]
            for _ in range(self.c):
                level = [F.bracket_row_index(row, g) for row in level for g in range(F.rank)]
                if not any(level):  # then so is every later level
                    break
            parts = [(s, closure._residue(row)) for s, row in enumerate(level) if row]
            scale = math.lcm(*(q for _, (q, _) in parts))
            image = {s * F.dim + col: v * (scale // q) for s, (q, res) in parts for col, v in res.items()}
            tagged.append((image, {r: scale * x for r, x in self.images[w].items()}))
        rank, rows = _kernel_image(tagged, F.rank**self.c * F.dim)
        if rank != len(words):
            raise PresentationError(
                f"{self.algebra.name}: the {len(words)} words off R_{{≤k}} have tagged constraints "
                f"of rank {rank}, but those words map to a basis of L"
            )
        return Subspace._from_rows(self.algebra.dim, rows)


class MultiplierReport(Record):
    """dim M^(c)(L) and a basis of it, a tuple of Hall words as text."""

    __slots__ = ("c", "dimension", "basis_words")


def present(L: LieAlgebra, c: int, *, dim_cap: int = DIM_CAP) -> Presentation:
    """Present L as a quotient of a free nilpotent algebra of class k + c.

    The generators map to the basis vectors off the pivots of L² in RREF,
    a lift of a basis of L/L² that is deterministic for a given L; the
    multiplier and the epicenter do not depend on the lift, so a change of
    basis of L is the way to try another.  The memo keeps one ``_Chain``
    per algebra, keyed by its name, labels and bracket table, with its
    presentations at every weight asked.  ``dim_cap`` refuses an ambient
    F(d, k + c) larger than it, before any build and on a memo hit alike,
    so what the memo holds never decides whether a call answers.
    """
    if c < 1:
        raise ValueError("multiplier weight c must be >= 1")
    chain = _memoised(L.memo_key, lambda: _chain(L, c, dim_cap))
    pres = chain.presentations.get(c)
    if pres is None:
        F = free_nilpotent(chain.d, chain.k + c, dim_cap)
        short_relations = chain.closures[0]
        if short_relations.ambient_dim != F.dim:
            short_relations = Subspace._from_rows(F.dim, short_relations.integer_rows())
        pres = chain.presentations[c] = Presentation(
            F, short_relations, chain.k, c, L, chain.images, chain.closure(F)
        )
    # every ambient the entry holds is touched after it, so none is older in
    # the memo and free_nilpotent never builds a second copy of one; a hit
    # the cap refuses is checked after these touches, so it keeps that order
    for held in chain.presentations.values():
        F = held.ambient
        _memoised((F.rank, F.nilpotency_class), lambda: F)
    F = pres.ambient
    if F.dim > dim_cap:  # F.dim is the Witt sum, so the check refuses
        _check_dim_cap(F.rank, F.nilpotency_class, dim_cap)
    return pres


def _chain(L: LieAlgebra, c: int, dim_cap: int) -> _Chain:
    """The images and R_{≤k} of L, solved in F(d, k + c) for the weight c
    asked first, so that its cap is checked before any work.  Only the
    words of length <= k are bracketed in L; length k + 1 is checked on
    spans, and the relation solve reads only the pivots of L²."""
    rep = nilpotent_series(L)
    k = rep.nilpotency_class
    derived = rep.gamma(2) if k >= 1 else Subspace.zero(L.dim)
    d = L.dim - derived.rank
    gens = [{col: 1} for col in range(L.dim) if col not in derived.pivots]
    F = free_nilpotent(d, k + c, dim_cap)
    starts = F.stratum_starts
    short = starts[k + 1]
    # ints[w]: den^(l-1) times the image of w, of length l; scaled by
    # den^(k-l) they share the factor den^(k-1), so the kernel is solved on
    # integers
    ints: list[IntRow] = []
    for w in F.basis[:short]:
        ints.append(gens[w.gen] if w.is_generator else L._ibracket(ints[w.left.key], ints[w.right.key]))
    # brackets of length > k die in an algebra of class k; series(L) has
    # shown that, so length k + 1 is only checked, on the images' spans
    _check_class(L, k, [ints[starts[a]:starts[a + 1]] for a in range(1, k + 1)])
    images = tuple(
        {r: v * L.den ** (k - w.length) for r, v in img.items()}
        for w, img in zip(F.basis[:short], ints)
    )
    # A generator's image is a unit off the pivots of L², and a vector of L²
    # is fixed by its entries at those pivots.  So no relation involves a
    # generator, and R_{≤k} is the kernel on the words of length 2..k with
    # each image read at the pivots alone; each word is tagged with itself,
    # so the solve gives R_{≤k} in F's coordinates
    pivots = set(derived.pivots)
    pairs = [({r: v for r, v in img.items() if r in pivots}, {w: 1}) for w, img in enumerate(images[d:], d)]
    short_relations = Subspace._from_rows(F.dim, _kernel_image(pairs, L.dim)[1])
    return _Chain(d, k, images, short_relations)


def _check_class(L: LieAlgebra, k: int, strata: list[list[IntRow]]) -> None:
    """PresentationError unless every word of length k + 1 maps to 0 in L,
    ``strata[a − 1]`` holding the images of the words of length a <= k.

    Each such word is a bracket [u, v] of words of lengths a >= b with
    a + b = k + 1, and each such bracket is a combination of such words.  So
    they all map to 0 exactly when every [S_a, S_b] = 0, S_a the span of the
    images of the words of length a, and by bilinearity the check brackets
    the canonical bases of S_a and S_b, not every word.
    """
    bases = []
    for images in strata:
        sp = _Spanner()
        for img in images:
            sp.insert(img)
        bases.append(sp.canonical())
    for a in range(k, k // 2, -1):
        b = k + 1 - a
        for x in bases[a - 1]:
            for y in bases[b - 1]:
                if L._ibracket(x, y):
                    raise PresentationError(
                        f"{L.name}: a length-{k + 1} bracket, of the images of words of lengths "
                        f"{a} and {b}, is non-zero in an algebra of class {k}"
                    )


def subideal_bracket(S: Subspace, ambient: FreeNilpotentAlgebra, depth: int) -> Subspace:
    """[S, F, …, F] with ``depth`` bracketings against the whole algebra.

    Each bracketing raises weight by at least one and the ambient has class
    K, so with r bracketings still to come a component of weight above
    K − r dies: each bracketing skips those components and keeps only the
    weights the next ones can still use.
    """
    if S.ambient_dim != ambient.dim:
        raise ValueError(
            f"subspace lives in Q^{S.ambient_dim}, ambient has dimension {ambient.dim}"
        )
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return S
    K = ambient.nilpotency_class
    rows = S.integer_rows()
    for r in range(depth, 0, -1):
        rows = span_bracket_rows(ambient, rows, K - r + 1)
    return Subspace._from_rows(ambient.dim, rows)


def nilpotent_multiplier(L: LieAlgebra, c: int, *, dim_cap: int = DIM_CAP) -> MultiplierReport:
    """dim and Hall-word basis of the c-nilpotent multiplier of L.

    c = 1 is the Schur multiplier.  The ambient grows quickly with c;
    ``dim_cap`` refuses one that is too large before any work.
    """
    return present(L, c, dim_cap=dim_cap).multiplier


def z_star(L: LieAlgebra, c: int, *, dim_cap: int = DIM_CAP) -> Subspace:
    """The c-epicenter: image in L of Z_c(ambient/[R̄,F,…,F]) (c bracketings).

    L is c-capable (a quotient H/Z_c(H)) exactly when this vanishes.
    """
    return present(L, c, dim_cap=dim_cap).epicenter


def is_capable(L: LieAlgebra, *, dim_cap: int = DIM_CAP) -> bool:
    return z_star(L, 1, dim_cap=dim_cap).rank == 0


def is_two_capable(L: LieAlgebra, *, dim_cap: int = DIM_CAP) -> bool:
    return z_star(L, 2, dim_cap=dim_cap).rank == 0


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


# --- bounds ------------------------------------------------------------------


def eq1_bound(n: int) -> int:
    """Upper bound n(n-1)(n+1)/3 for dim M^(2)(L) + dim L³, n = dim L."""
    return abelian_m2(n)


def refined_bound(n: int, m: int) -> int:
    """Sharper bound (n-m)((n+2m-2)(n-m-1) + 3(m-1))/3 + 3 for m = dim L² >= 1."""
    if m < 1:
        raise ValueError("refined bound needs dim L² >= 1")
    return _third((n - m) * ((n + 2 * m - 2) * (n - m - 1) + 3 * (m - 1))) + 3


class BoundReport(Record):
    """dim M^(2)(L) + dim L³ for L of dimension n (``value``) against the
    Eq. (1) bound and the refined bound, which is None for abelian L;
    m = dim L²."""

    __slots__ = ("algebra", "n", "m", "dim_m2", "dim_l3", "value", "eq1", "refined")

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


def bound_report(L: LieAlgebra, *, dim_cap: int = DIM_CAP) -> BoundReport:
    """Check dim M^(2)(L) + dim L³ against the general and refined bounds."""
    rep = nilpotent_series(L)
    m = rep.gamma(2).rank
    l3 = rep.gamma(3).rank
    dim_m2 = nilpotent_multiplier(L, 2, dim_cap=dim_cap).dimension
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


def report(L: LieAlgebra, c: int, *, dim_cap: int = DIM_CAP) -> dict:
    """Machine-readable report for one algebra at weight c; ``dim_cap``
    bounds every ambient it asks for."""
    mult = nilpotent_multiplier(L, c, dim_cap=dim_cap)
    bounds = bound_report(L, dim_cap=dim_cap)
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
        "capable": is_capable(L, dim_cap=dim_cap),
        "two_capable": is_two_capable(L, dim_cap=dim_cap),
    }
