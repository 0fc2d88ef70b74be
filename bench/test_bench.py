"""Checks of the benchmark's reference answers and of how it counts failed ops.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import sys
import unittest
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
run.WORK.mkdir(parents=True, exist_ok=True)


def lyndon_count(d: int, n: int) -> int:
    """Words of length n over d letters that are strictly below all their rotations."""
    return sum(
        all(w < w[i:] + w[:i] for i in range(1, n))
        for w in product(range(d), repeat=n)
    )


def derived_line_m2(n: int, m: int) -> int:
    """Theorem 2.11: dim M^(2)(L) for n-dimensional L ≅ H(m)⊕A(n-2m-1)."""
    return n * (n - 1) * (n - 2) // 3 + (3 if m == 1 else 0)


class ReferenceTest(unittest.TestCase):
    def test_witt_matches_lyndon_words(self):
        for d, n in product((2, 3), range(1, 7)):
            self.assertEqual(oracle.witt(d, n), lyndon_count(d, n), (d, n))

    def test_direct_sum_route_matches_theorem_2_11(self):
        for m, r in product(range(1, 5), range(0, 5)):
            exp = oracle.expect_heisenberg_abelian(m, r)
            self.assertEqual(exp["dim_multiplier"], derived_line_m2(2 * m + 1 + r, m), (m, r))

    def test_free_nilpotent_of_class_two_on_two_letters_is_h1(self):
        n22, h1 = oracle.expect_free_nilpotent(2, 2), oracle.expect_heisenberg_abelian(1, 0)
        self.assertEqual(n22["dim_multiplier"], h1["dim_multiplier"])
        self.assertEqual(h1["value"], h1["refined"])  # H(1) attains the refined bound


class FailureCountingTest(unittest.TestCase):
    """An op whose answer disagrees with the reference is counted as failed."""

    SHAPES = [("H", 1, 1), ("N", 2, 2)]

    def run_generic(self, corrupt: bool) -> dict:
        workload = run.GenericBasis(seed=3, shapes=self.SHAPES, per_shape=1)
        inputs = workload.prepare(0)
        if corrupt:
            inputs["expects"][0] = dict(inputs["expects"][0], dim_multiplier=inputs["expects"][0]["dim_multiplier"] + 1)
        return run.tally(workload.run(inputs, run.Mode()).outcomes)

    def test_generic_round_counts_a_wrong_expected_value(self):
        self.assertEqual(self.run_generic(corrupt=False), {"correct": True, "attempted": 2, "failed": 0})
        self.assertEqual(self.run_generic(corrupt=True), {"correct": False, "attempted": 2, "failed": 1})

    def test_cli_op_counts_a_wrong_expected_value(self):
        class WrongH1(run.HeisenbergCli):
            M, round_ops = 1, 1

            def expectation(self):
                return dict(super().expectation(), two_capable=False)

        outcomes = WrongH1(seed=5).run(WrongH1(seed=5).prepare(0), run.Mode()).outcomes
        self.assertEqual(run.tally(outcomes), {"correct": False, "attempted": 1, "failed": 1})
        self.assertIn("two_capable", outcomes[0].problem)

    def test_verify_paper_check_recomputes_case_values(self):
        proc = run.spawn(["cli", "--", "verify-paper", "--json"])
        out = json.loads(proc.stdout)
        self.assertEqual(oracle.check_verify_paper(out, 6, 3), [])
        case = next(c for c in out["cases"] if c["id"] == "thm2.9.ii-m2-h3")
        case["computed"] += 1
        self.assertEqual(len(oracle.check_verify_paper(out, 6, 3)), 1)
        self.assertTrue(oracle.check_verify_paper(out, 7, 3))  # a7 never ran


if __name__ == "__main__":
    unittest.main()
