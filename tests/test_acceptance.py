"""Acceptance gate: the eight headline checks, one visible line each.

Every number here is an exact integer equality; nothing is approximate.
Each test prints a single PASS/FAIL line through the captured-output
bypass so the gate is readable in any pytest invocation.
"""

import random

from nilmult import fdlie
from nilmult.exactlin import Subspace
from nilmult.fdlie import abelian, direct_sum, heisenberg, quotient, series
from nilmult.freelie import free_nilpotent, hall_basis, witt
from nilmult.multiplier import (
    abelian_m2,
    bound_report,
    direct_sum_m2,
    is_capable,
    is_two_capable,
    nilpotent_multiplier,
    z_star,
)

import oracles
from oracles import random_lift, relift


def _announce(capsys, num, label, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"{status}  criterion {num}: {label}")
    assert not failures, f"criterion {num}: {failures}"


def _corpus():
    algebras = [abelian(n) for n in range(1, 7)]
    algebras += [heisenberg(m) for m in range(1, 4)]
    algebras.append(direct_sum(heisenberg(1), abelian(1)))
    algebras.append(direct_sum(heisenberg(2), abelian(1)))
    return algebras


def test_criterion_1_abelian_series(capsys):
    failures = []
    expected = [0, 2, 8, 20, 40, 70]
    for n, want in zip(range(1, 7), expected):
        got = nilpotent_multiplier(abelian(n), 2).dimension
        if got != want or got != abelian_m2(n):
            failures.append((n, got, want))
    _announce(capsys, 1, "dim M^(2)(A(n)) = 0, 2, 8, 20, 40, 70 for n = 1..6", failures)


def test_criterion_2_heisenberg_schur(capsys):
    failures = []
    for m, want in ((1, 2), (2, 5), (3, 14)):
        got = nilpotent_multiplier(heisenberg(m), 1).dimension
        if got != want:
            failures.append((m, got, want))
    _announce(capsys, 2, "dim M(H(m)) = 2, 5, 14 for m = 1, 2, 3", failures)


def test_criterion_3_heisenberg_two_multiplier(capsys):
    failures = []
    for m, want in ((1, 5), (2, 20), (3, 70)):
        got = nilpotent_multiplier(heisenberg(m), 2).dimension
        if got != want:
            failures.append((m, got, want))
    words = nilpotent_multiplier(heisenberg(1), 2).basis_words
    wanted_words = ("[y,x,x]", "[y,x,y]", "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]")
    if words != wanted_words:
        failures.append(("H(1) basis", words))
    _announce(
        capsys, 3,
        "dim M^(2)(H(m)) = 5, 20, 70 and the five H(1) Hall words", failures,
    )


def test_criterion_4_derived_dim_one_family(capsys):
    failures = []
    small = nilpotent_multiplier(direct_sum(heisenberg(1), abelian(1)), 2).dimension
    if small != 11:
        failures.append(("H(1)+A(1)", small, 11))
    large = nilpotent_multiplier(direct_sum(heisenberg(2), abelian(1)), 2).dimension
    if large != 6 * 5 * 4 // 3:
        failures.append(("H(2)+A(1)", large, 40))
    # cross-check through the direct-sum law with the computed summands
    for m, whole in ((1, small), (2, large)):
        parts = direct_sum_m2(
            nilpotent_multiplier(heisenberg(m), 2).dimension,
            nilpotent_multiplier(abelian(1), 2).dimension,
            2 * m, 1,
        )
        if whole != parts:
            failures.append(("sum law", m, whole, parts))
    _announce(capsys, 4, "dim M^(2) of H(1)+A(1) is 11 and of H(2)+A(1) is 40", failures)


def test_criterion_5_capability_verdicts(capsys):
    failures = []
    if not (is_capable(heisenberg(1)) and is_two_capable(heisenberg(1))):
        failures.append("H(1) must be capable and 2-capable")
    for m in (2, 3):
        h = heisenberg(m)
        if is_capable(h) or is_two_capable(h):
            failures.append(f"H({m}) must be neither capable nor 2-capable")
        if z_star(h, 1) != series(h).gamma(2):
            failures.append(f"Z*_1(H({m})) must equal the derived subalgebra")
    if is_capable(abelian(1)):
        failures.append("A(1) must not be capable")
    _announce(capsys, 5, "capability verdicts for H(1), H(2), H(3), A(1)", failures)


def test_criterion_6_bound_suite(capsys):
    failures = []
    for L in _corpus():
        rep = bound_report(L)
        if rep.value > rep.eq1:
            failures.append((L.name, "bound violated", rep.value, rep.eq1))
        if (rep.value == rep.eq1) != rep.is_abelian:
            failures.append((L.name, "saturation must coincide with abelian"))
        if not rep.is_abelian and rep.value > rep.refined:
            failures.append((L.name, "refined bound violated"))
    tight = bound_report(heisenberg(1))
    if tight.refined_slack != 0:
        failures.append(("H(1)", "refined bound must be tight", tight.refined_slack))
    _announce(
        capsys, 6,
        "general bound everywhere, equality exactly on abelians, refined tight on H(1)",
        failures,
    )


def test_criterion_7_property_battery(capsys):
    failures = []

    for d in range(1, 9):
        words = hall_basis(d, 6)
        for n in range(1, 7):
            if sum(1 for w in words if w.length == n) != witt(d, n):
                failures.append(("stratum", d, n))

    for F in (free_nilpotent(2, 4), free_nilpotent(3, 3)):
        for i in range(F.dim):
            for j in range(F.dim):
                fwd, back = F.bracket_row_index({i: 1}, j), F.bracket_row_index({j: 1}, i)
                if fwd != {k: -c for k, c in back.items()}:
                    failures.append(("antisymmetry", F.rank, i, j))
        for a in range(F.dim):
            for b in range(a + 1, F.dim):
                for c in range(b + 1, F.dim):
                    total: dict[int, int] = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        for k, ck in F.bracket_row_index({y: 1}, z).items():
                            for t, ct in F.bracket_row_index({x: 1}, k).items():
                                s = total.get(t, 0) + ck * ct
                                if s:
                                    total[t] = s
                                else:
                                    del total[t]
                    if total:
                        failures.append(("jacobi", F.rank, a, b, c))

    F = free_nilpotent(2, 4)
    expansions = [oracles.expand_hall_word(w, 4) for w in F.basis]
    for i in range(F.dim):
        for j in range(F.dim):
            direct = expansions[i].commutator(expansions[j])
            collected = oracles.expand_combination(F.bracket_row_index({i: 1}, j), F.basis, 4)
            if direct != collected:
                failures.append(("oracle", i, j))

    rng = random.Random(20260821)
    for L in _corpus():
        canonical = {c: nilpotent_multiplier(L, c).dimension for c in (1, 2)}
        for trial in range(10):
            moved = relift(L, random_lift(L, rng))
            for c in (1, 2):
                got = nilpotent_multiplier(moved, c).dimension
                if got != canonical[c]:
                    failures.append(("lift", L.name, c, trial, got, canonical[c]))

    _announce(
        capsys, 7,
        "Hall strata, table identities, associative oracle, lift invariance",
        failures,
    )


def _central_lines(L):
    Z = series(L).z(1)
    rows = list(Z.rational_rows())
    rng = random.Random(1009)
    lines = {}
    for v in rows:
        lines.setdefault(Subspace(L.dim, [v]), v)
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            v = dict(rows[a])
            for col, val in rows[b].items():
                v[col] = v.get(col, 0) + val
            lines.setdefault(Subspace(L.dim, [v]), v)
    for _ in range(3):
        v = {}
        for row in rows:
            coeff = rng.randint(-2, 2)
            for col, val in row.items():
                n = v.get(col, 0) + coeff * val
                if n:
                    v[col] = n
                else:
                    v.pop(col, None)
        if v:
            lines.setdefault(Subspace(L.dim, [v]), v)
    return [s for s in lines if s.rank == 1]


def _bracket_span(L, S):
    rows = []
    for row in S.integer_rows():
        for j in range(L.dim):
            out = L.bracket_vectors(dict(row), {j: 1})
            if out:
                rows.append(out)
    return Subspace(L.dim, rows)


def test_criterion_8_central_quotient_inequality(capsys):
    failures = []
    for L in _corpus():
        m2 = nilpotent_multiplier(L, 2).dimension
        l3 = series(L).gamma(3)
        for line in _central_lines(L):
            q = quotient(L, line)
            lhs = nilpotent_multiplier(q, 2).dimension
            correction = _bracket_span(L, _bracket_span(L, line))
            term = line.intersect(l3).quotient_dim(correction)
            if lhs > m2 + term:
                failures.append((L.name, lhs, m2, term))

    h1 = heisenberg(1)
    small = nilpotent_multiplier(quotient(h1, series(h1).gamma(2)), 2).dimension
    if small != 2 or not small < 5:
        failures.append(("H(1)/L^2", small))
    if z_star(h1, 2).rank != 0:
        failures.append(("Z*_2(H(1))", z_star(h1, 2).rank))
    _announce(
        capsys, 8,
        "central-line quotient inequality and the H(1) strict drop", failures,
    )
