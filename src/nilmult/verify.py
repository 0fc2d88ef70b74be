"""Pass/fail reproduction of the source results on a fixed corpus.

Each case pins one quantitative claim: a multiplier dimension, a capability
verdict, a bound, or an inequality instance.  Expected values come from
closed forms or stated numbers; computed values come from the presentation
algorithms.  Runs are deterministic: the corpus, the case ids, and the
random central lines (seeded) never change between invocations.
"""

from __future__ import annotations

import math
import random

from ._record import Record
from .exactlin import Subspace, _primitive
from .fdlie import LieAlgebra, abelian, direct_sum, heisenberg, quotient, recognize_derived_dim_one, series
from .freelie import hall_basis, witt
from . import multiplier as mult

_SEED = 97
_EXTRA_CENTRAL_LINES = 3


class VerifyCase(Record):
    """One pinned claim: its id, what it says, where the paper says it,
    and the expected and computed values."""

    __slots__ = ("id", "description", "provenance", "expected", "computed")

    @property
    def status(self) -> str:
        return "pass" if self.expected == self.computed else "fail"


def corpus(max_abelian: int = 6, max_heisenberg: int = 3) -> list[LieAlgebra]:
    out: list[LieAlgebra] = [abelian(n) for n in range(1, max_abelian + 1)]
    out += [heisenberg(m) for m in range(1, max_heisenberg + 1)]
    if max_heisenberg >= 1 and max_abelian >= 1:
        out.append(direct_sum(heisenberg(1), abelian(1)))
    if max_heisenberg >= 2 and max_abelian >= 1:
        out.append(direct_sum(heisenberg(2), abelian(1)))
    return out


def central_lines(L: LieAlgebra, rng: random.Random) -> list[Subspace]:
    """A deterministic finite family of 1-dimensional central subspaces.

    Every such line is automatically an ideal.  The family: each basis row
    of Z(L), pairwise sums of those rows, and a few seeded random central
    vectors; duplicates are removed via canonical bases.  The rows are the
    RREF rows of Z(L) scaled by the lcm of their pivot entries, so each sum
    is an integer multiple of the rational one and spans the same line.
    """
    Z = series(L).z(1)
    ints = Z.integer_rows()
    scale = math.lcm(*(row[min(row)] for row in ints))
    rows = [{c: v * (scale // row[min(row)]) for c, v in row.items()} for row in ints]

    def combination(coeffs) -> dict[int, int]:
        v: dict[int, int] = {}
        for coeff, row in zip(coeffs, rows):
            for col, val in row.items():
                v[col] = v.get(col, 0) + coeff * val
        return {col: val for col, val in v.items() if val}

    vectors = list(rows)
    vectors += [combination([int(t in (a, b)) for t in range(len(rows))])
                for a in range(len(rows)) for b in range(a + 1, len(rows))]
    for _ in range(_EXTRA_CENTRAL_LINES):
        if v := combination([rng.randint(-2, 2) for _ in rows]):
            vectors.append(v)
    # dict keys keep the first of equal lines, in order
    return list(dict.fromkeys(Subspace._from_rows(L.dim, [_primitive(v)]) for v in vectors))


def _m2(L: LieAlgebra) -> int:
    return mult.nilpotent_multiplier(L, 2).dimension


def run_cases(max_abelian: int = 6, max_heisenberg: int = 3) -> list[VerifyCase]:
    if max_abelian < 1 or max_heisenberg < 1:
        raise ValueError("limits must be >= 1")
    rng = random.Random(_SEED)
    cases: list[VerifyCase] = []
    add = cases.append

    # Hall word counts of small weight
    for n, count in ((3, 2), (4, 3)):
        stratum = [w for w in hall_basis(2, n) if w.length == n]
        add(VerifyCase(
            f"hall-stratum-d2-n{n}",
            f"number of basic commutators of weight {n} on two generators is {count}",
            "§2 basic commutator enumeration",
            count,
            len(stratum),
        ))
        add(VerifyCase(
            f"witt-d2-n{n}",
            f"Witt formula gives {count} at rank 2, length {n}",
            "§2 Witt formula",
            count,
            witt(2, n),
        ))

    # Schur multipliers of Heisenberg algebras
    add(VerifyCase(
        "thm2.4.i-schur-h1",
        "dim M(H(1)) = 2",
        "Theorem 2.4(i)",
        2,
        mult.nilpotent_multiplier(heisenberg(1), 1).dimension,
    ))
    for m in range(2, max_heisenberg + 1):
        add(VerifyCase(
            f"thm2.4.ii-schur-h{m}",
            f"dim M(H({m})) = 2m²-m-1 = {mult.schur_heisenberg(m)}",
            "Theorem 2.4(ii)",
            mult.schur_heisenberg(m),
            mult.nilpotent_multiplier(heisenberg(m), 1).dimension,
        ))

    # 2-nilpotent multipliers: abelian and Heisenberg families
    for n in range(1, max_abelian + 1):
        add(VerifyCase(
            f"thm2.6-abelian-m2-a{n}",
            f"dim M^(2)(A({n})) = n(n-1)(n+1)/3 = {mult.abelian_m2(n)}",
            "Theorem 2.6",
            mult.abelian_m2(n),
            _m2(abelian(n)),
        ))
    add(VerifyCase(
        "thm2.9.i-m2-h1",
        "dim M^(2)(H(1)) = 5",
        "Theorem 2.9(i)",
        5,
        _m2(heisenberg(1)),
    ))
    h1_words = ("[y,x,x]", "[y,x,y]", "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]")
    add(VerifyCase(
        "thm2.9.i-m2-h1-basis",
        "the reported basis of M^(2)(H(1)) is the five listed Hall words",
        "Theorem 2.9(i) proof word list",
        h1_words,
        mult.nilpotent_multiplier(heisenberg(1), 2).basis_words,
    ))
    for m in range(2, max_heisenberg + 1):
        add(VerifyCase(
            f"thm2.9.ii-m2-h{m}",
            f"dim M^(2)(H({m})) = (8m³-2m)/3 = {mult.heisenberg_m2(m)}",
            "Theorem 2.9(ii)",
            mult.heisenberg_m2(m),
            _m2(heisenberg(m)),
        ))

    # direct sums over the fixed 4-algebra family
    summands = [abelian(1), abelian(2), abelian(3), heisenberg(1)]
    for s in range(len(summands)):
        for t in range(s, len(summands)):
            A, B = summands[s], summands[t]
            a = A.dim - series(A).gamma(2).rank
            b = B.dim - series(B).gamma(2).rank
            expected = mult.direct_sum_m2(_m2(A), _m2(B), a, b)
            add(VerifyCase(
                f"thm2.5-directsum-{A.name}-{B.name}",
                f"dim M^(2)({A.name}⊕{B.name}) decomposes through the summands and two tensor terms",
                "Theorem 2.5",
                expected,
                _m2(direct_sum(A, B)),
            ))

    # dim L² = 1 closed form, cross-checked two ways
    for m_part, n_total in ((1, 4), (2, 6)):
        if m_part > max_heisenberg:
            continue
        L = direct_sum(heisenberg(m_part), abelian(1))
        add(VerifyCase(
            f"thm2.11-h{m_part}a1",
            f"dim M^(2)({L.name}) = n(n-1)(n-2)/3 (+3 iff m=1) at n={n_total}",
            "Theorem 2.11",
            mult.derived_dim_one_m2(n_total, m_part),
            _m2(L),
        ))
        add(VerifyCase(
            f"thm2.11-h{m_part}a1-via-thm2.5",
            "the same dimension through the direct-sum decomposition",
            "Theorem 2.5 composed with Theorems 2.6 and 2.9",
            mult.derived_dim_one_m2(n_total, m_part),
            mult.direct_sum_m2(_m2(heisenberg(m_part)), 0, 2 * m_part, 1),
        ))

    # capability and 2-capability
    add(VerifyCase(
        "thm2.7-capable-h1",
        "H(1) is capable",
        "Theorem 2.7",
        True,
        mult.is_capable(heisenberg(1)),
    ))
    add(VerifyCase(
        "final-thm-2capable-h1",
        "H(1) is 2-capable",
        "§3 final theorem",
        True,
        mult.is_two_capable(heisenberg(1)),
    ))
    for m in range(2, max_heisenberg + 1):
        H = heisenberg(m)
        add(VerifyCase(
            f"thm2.7-capable-h{m}",
            f"H({m}) is not capable",
            "Theorem 2.7",
            False,
            mult.is_capable(H),
        ))
        add(VerifyCase(
            f"cor2.8-2capable-h{m}",
            f"H({m}) is not 2-capable",
            "Corollary 2.8",
            False,
            mult.is_two_capable(H),
        ))
        add(VerifyCase(
            f"thm2.7-zstar1-h{m}-is-derived",
            f"Z*₁(H({m})) equals the derived subalgebra",
            "Theorem 2.7 proof (Z^∧(L) = L² = Z(L))",
            True,
            mult.z_star(H, 1) == series(H).gamma(2),
        ))
        add(VerifyCase(
            f"thm2.9.ii-m2-h{m}-via-thm3.2",
            f"dim M^(2)(H({m})) = dim M^(2)(A({2 * m})), the embedding along I = L² is onto here",
            "Theorem 2.9(ii) proof via Theorem 3.2",
            _m2(abelian(2 * m)),
            _m2(H),
        ))

    # bound suite over the whole corpus
    algebras = corpus(max_abelian, max_heisenberg)
    for L in algebras:
        rep = mult.bound_report(L)
        add(VerifyCase(
            f"eq1-bound-{L.name}",
            f"dim M^(2)+dim L³ = {rep.value} respects the cubic bound {rep.eq1}",
            "Eq. (1)",
            True,
            rep.eq1_slack >= 0,
        ))
        add(VerifyCase(
            f"cor2.12-saturation-{L.name}",
            "equality in the cubic bound holds exactly for abelian algebras",
            "Theorem 2.6 and Corollary 2.12",
            rep.is_abelian,
            rep.saturates_eq1,
        ))
        if not rep.is_abelian:
            add(VerifyCase(
                f"refined-bound-{L.name}",
                f"value {rep.value} respects the refined bound {rep.refined} at m={rep.m}",
                "§2 refined bound theorem",
                True,
                rep.refined_slack >= 0,
            ))
    add(VerifyCase(
        "refined-bound-tight-h1",
        "the refined bound is attained by H(1)",
        "§2 refined bound theorem, equality case L ≅ H(1)⊕A(n-3)",
        0,
        mult.bound_report(heisenberg(1)).refined_slack,
    ))

    # structure recognition when the derived subalgebra is a line
    for L, expected in (
        (heisenberg(2), (2, 0)),
        (direct_sum(heisenberg(1), abelian(3)), (1, 3)),
    ):
        add(VerifyCase(
            f"lem2.10-recognize-{L.name}",
            f"{L.name} is recognised as H(m)⊕A(r) with (m, r) = {expected}",
            "Lemma 2.10",
            expected,
            recognize_derived_dim_one(L),
        ))

    # central line inequalities and the monomorphism consequence
    for L in algebras:
        lines = central_lines(L, rng)
        ok_i = True
        ok_ii = True
        m2_L = _m2(L)
        dim_ab = L.dim - series(L).gamma(2).rank
        l3 = series(L).gamma(3)
        for I in lines:
            m2_quot = _m2(quotient(L, I))
            cap = I.intersect(l3).rank  # [[I,L],L] = 0 for central I
            ok_i = ok_i and (m2_quot <= m2_L + cap)
            ok_ii = ok_ii and (m2_L + cap <= m2_quot + dim_ab * dim_ab)
        add(VerifyCase(
            f"lem2.3.i-{L.name}",
            f"dim M^(2)(L/I) ≤ dim M^(2)(L) + dim((I∩L³)/[[I,L],L]) over {len(lines)} central lines",
            "Lemma 2.3(i)",
            True,
            ok_i,
        ))
        add(VerifyCase(
            f"lem2.3.ii.b-{L.name}",
            f"dim M^(2)(L) + dim(I∩L³) ≤ dim M^(2)(L/I) + dim(L/L²)² over {len(lines)} central lines",
            "Lemma 2.3(ii)(b), central case",
            True,
            ok_ii,
        ))
        add(VerifyCase(
            f"zstar-monotone-{L.name}",
            "Z*₁ is contained in Z*₂",
            "Corollary 2.8 reasoning (2-capable implies capable)",
            True,
            mult.z_star(L, 2).contains_subspace(mult.z_star(L, 1)),
        ))

    h1 = heisenberg(1)
    h1_quot = quotient(h1, series(h1).gamma(2))
    add(VerifyCase(
        "thm3.2-h1-quotient-m2",
        "dim M^(2)(H(1)/L²) = 2",
        "Theorem 3.2 contrapositive setup",
        2,
        _m2(h1_quot),
    ))
    add(VerifyCase(
        "thm3.2-h1-no-central-epicenter",
        "2 < 5 shows no central line of H(1) lies in Z*₂; consistently Z*₂(H(1)) = 0",
        "Theorem 3.2",
        True,
        _m2(h1_quot) < _m2(h1) and mult.z_star(h1, 2).rank == 0,
    ))

    cases.sort(key=lambda case: case.id)
    ids = [case.id for case in cases]
    if len(ids) != len(set(ids)):
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        raise RuntimeError(f"case ids must be unique; repeated: {repeated}")
    return cases


def to_json(cases: list[VerifyCase]) -> dict:
    def plain(v):
        if isinstance(v, tuple):
            return list(v)
        return v

    return {
        "cases": [
            {
                "id": case.id,
                "description": case.description,
                "provenance": case.provenance,
                "expected": plain(case.expected),
                "computed": plain(case.computed),
                "status": case.status,
            }
            for case in cases
        ],
        "passed": sum(case.status == "pass" for case in cases),
        "failed": sum(case.status == "fail" for case in cases),
    }


def render_text(cases: list[VerifyCase]) -> str:
    width = max(len(case.id) for case in cases)
    lines = []
    for case in cases:
        lines.append(
            f"{case.status.upper():4} {case.id:<{width}}  "
            f"expected {case.expected!r}, computed {case.computed!r}  [{case.provenance}]"
        )
    passed = sum(case.status == "pass" for case in cases)
    lines.append(f"{passed}/{len(cases)} cases passed")
    return "\n".join(lines)
