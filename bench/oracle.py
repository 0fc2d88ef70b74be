"""Reference answers computed apart from nilmult.

Every expected value comes from a closed form in the source paper or from a
Witt number counted here, never from stored program output.  Nothing in this
module imports nilmult.
"""

from __future__ import annotations

import re

_LETTER = re.compile(r"[a-z]\d*")


def mobius(n: int) -> int:
    """Möbius function by trial division."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt(d: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on d generators."""
    total = sum(mobius(e) * d ** (n // e) for e in range(1, n + 1) if n % e == 0)
    if total % n:
        raise ArithmeticError(f"Witt sum for d={d}, n={n} is not divisible by n")
    return total // n


def abelian_m2(n: int) -> int:
    """Theorem 2.6: dim M^(2)(A(n)) = n(n-1)(n+1)/3."""
    return n * (n - 1) * (n + 1) // 3


def heisenberg_m2(m: int) -> int:
    """Theorem 2.9: dim M^(2)(H(m)) is 5 for m = 1, else (8m³-2m)/3."""
    return 5 if m == 1 else (8 * m**3 - 2 * m) // 3


def schur_heisenberg(m: int) -> int:
    """Theorem 2.4: dim M(H(m)) is 2 for m = 1, else 2m²-m-1."""
    return 2 if m == 1 else 2 * m * m - m - 1


def direct_sum_m2(m2_a: int, m2_b: int, a: int, b: int) -> int:
    """Theorem 2.5, with a = dim A/A² and b = dim B/B²."""
    return m2_a + m2_b + a * a * b + a * b * b


def eq1_bound(n: int) -> int:
    """Eq. (1): dim M^(2)(L) + dim L³ <= n(n-1)(n+1)/3."""
    return abelian_m2(n)


def refined_bound(n: int, m: int) -> int:
    """The refined bound for dim L² = m >= 1."""
    return (n - m) * ((n + 2 * m - 2) * (n - m - 1) + 3 * (m - 1)) // 3 + 3


def _expectation(n: int, dim_l2: int, dim_l3: int, m2: int, verdict: bool, nil_class: int) -> dict:
    return {
        "dim_multiplier": m2,
        "value": m2 + dim_l3,
        "eq1": eq1_bound(n),
        "refined": refined_bound(n, dim_l2) if dim_l2 else None,
        "abelian": dim_l2 == 0,
        "capable": verdict,
        "two_capable": verdict,
        "max_word_length": nil_class + 2,
    }


def expect_heisenberg_abelian(m: int, r: int) -> dict:
    """H(m)⊕A(r): Theorems 2.5, 2.6 and 2.9 for the dimension.

    dim L² = 1, so L is capable iff m = 1 (Theorem 2.7 and its dim L² = 1
    form).  2-capable implies capable, and 2-capability passes to direct
    sums (Z_2 of a sum is the sum of the Z_2), so H(1)⊕A(r) is 2-capable
    because H(1) (final theorem) and A(r) are.
    """
    m2 = direct_sum_m2(heisenberg_m2(m), abelian_m2(r), 2 * m, r)
    return _expectation(2 * m + 1 + r, 1, 0, m2, m == 1, 2)


def expect_free_nilpotent(d: int, k: int) -> dict:
    """N(d, k) = F/γ_{k+1}(F) for k >= 2: M^(2) = γ_{k+1}/γ_{k+3}.

    The upper and lower central series of a free nilpotent algebra agree, so
    N(d, k) = N(d, k+2)/Z_2: it is 2-capable, hence capable.
    """
    if d < 2 or k < 2:
        raise ValueError("N(d, k) references need d >= 2 and k >= 2")
    strata = [witt(d, n) for n in range(1, k + 1)]
    m2 = witt(d, k + 1) + witt(d, k + 2)
    return _expectation(sum(strata), sum(strata[1:]), sum(strata[2:]), m2, True, k)


def check_report(rep: dict, exp: dict) -> list[str]:
    """Problems with one `report(L, 2)` result; empty when it is right."""
    problems = []

    def same(field, got, want):
        if got != want:
            problems.append(f"{field}: got {got!r}, expected {want!r}")

    dim = rep.get("dim_multiplier")
    words = rep.get("basis_words", [])
    bounds = rep.get("bounds", {})
    same("c", rep.get("c"), 2)
    same("dim_multiplier", dim, exp["dim_multiplier"])
    same("number of basis words", len(words), dim)
    same("distinct basis words", len(set(words)), len(words))
    lengths = [len(_LETTER.findall(w)) for w in words]
    if lengths and not 3 <= min(lengths) <= max(lengths) <= exp["max_word_length"]:
        problems.append(f"basis word lengths {min(lengths)}..{max(lengths)} outside 3..{exp['max_word_length']}")
    for field in ("value", "eq1", "refined"):
        same(f"bounds.{field}", bounds.get(field), exp[field])
    value, eq1, refined = bounds.get("value"), bounds.get("eq1"), bounds.get("refined")
    if isinstance(value, int) and isinstance(eq1, int):
        if value > eq1:
            problems.append(f"Eq. (1) violated: {value} > {eq1}")
        if (value == eq1) != exp["abelian"]:
            problems.append("Eq. (1) saturation does not match abelianness")
        if isinstance(refined, int) and value > refined:
            problems.append(f"refined bound violated: {value} > {refined}")
    same("capable", rep.get("capable"), exp["capable"])
    same("two_capable", rep.get("two_capable"), exp["two_capable"])
    if rep.get("two_capable") and not rep.get("capable"):
        problems.append("2-capable but not capable")
    return problems


_CASE_FORMULAS = [
    (re.compile(r"thm2\.6-abelian-m2-a(\d+)"), lambda n: abelian_m2(n)),
    (re.compile(r"thm2\.9\.i+-m2-h(\d+)"), lambda m: heisenberg_m2(m)),
    (re.compile(r"thm2\.9\.ii-m2-h(\d+)-via-thm3\.2"), lambda m: abelian_m2(2 * m)),
    (re.compile(r"thm2\.4\.i+-schur-h(\d+)"), lambda m: schur_heisenberg(m)),
    (re.compile(r"thm2\.7-capable-h(\d+)"), lambda m: m == 1),
    (re.compile(r"(?:cor2\.8|final-thm)-2capable-h(\d+)"), lambda m: m == 1),
    # the word list printed in the proof of Theorem 2.9(i)
    (re.compile(r"thm2\.9\.i-m2-h(1)-basis"),
     lambda m: ["[y,x,x]", "[y,x,y]", "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]"]),
]


def expected_case_ids(max_abelian: int, max_heisenberg: int) -> set[str]:
    """Abelian and Heisenberg case ids that a widened run must contain."""
    ids = {f"thm2.6-abelian-m2-a{n}" for n in range(1, max_abelian + 1)}
    for m in range(2, max_heisenberg + 1):
        ids |= {f"thm2.9.ii-m2-h{m}", f"thm2.4.ii-schur-h{m}", f"thm2.7-capable-h{m}", f"cor2.8-2capable-h{m}"}
    return ids


def check_verify_paper(out: dict, max_abelian: int, max_heisenberg: int) -> list[str]:
    """Problems with one `verify-paper --json` result; empty when it is right."""
    problems = []
    cases = out.get("cases", [])
    if out.get("failed") != 0 or out.get("passed") != len(cases):
        problems.append(f"verify-paper reports {out.get('failed')} failed of {len(cases)}")
    missing = expected_case_ids(max_abelian, max_heisenberg) - {case.get("id") for case in cases}
    if missing:
        problems.append(f"missing cases {sorted(missing)}")
    for case in cases:
        if case.get("status") != "pass":
            problems.append(f"{case.get('id')}: status {case.get('status')}")
        for pattern, formula in _CASE_FORMULAS:
            match = pattern.fullmatch(case.get("id", ""))
            if match and case.get("computed") != formula(int(match.group(1))):
                problems.append(f"{case['id']}: computed {case.get('computed')!r}")
    return problems
