"""A catalogue of mutants of nilmult, each with the tests that must kill it.

A mutant replaces one exact snippet of a source file; the tests it names
must fail with it and pass without it.  Run the catalogue with

    python tests/mutants.py [NAME ...]

from anywhere: for each mutant (or only those named) it copies ``src/``,
``tests/`` and ``pyproject.toml`` to a fresh temporary directory, applies
the mutant there, runs only its named tests, and reports whether they
killed it.  One clean copy runs every named test first, so a test that
fails without its mutant is reported rather than counted as a kill.  The
exit status is 1 if any mutant survives or any entry is broken, else 0.

The runner takes about half a minute, so tier-1 runs only
``tests/test_mutants.py``, which checks that every snippet still occurs
exactly once in its file and that every mutated file still compiles.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    reason: str


FREELIE = "src/nilmult/freelie.py"
SPAN_RULES = "tests/test_freelie.py::TestSpanBracketRules"
CEILING = "tests/test_freelie.py::TestSpanBracketRows::test_ceiling_keeps_only_light_products"
FULL_STRATUM = (
    "tests/test_multiplier.py::TestWeightTruncation::test_random_subspaces_with_a_full_stratum_match_untruncated"
)
HAND_KERNELS = "tests/test_exactlin.py::TestKernelOfMap::test_hand_cases"

MUTANTS = [
    Mutant(
        "carry-one-short",
        FREELIE,
        "        if len(units) == hi - lo:\n",
        "        if len(units) >= hi - lo - 1:\n",
        (f"{SPAN_RULES}::test_one_unit_row_short_fires_neither_rule",),
        "the carry fires one unit row short of the whole stratum top - 1",
    ),
    Mutant(
        "carry-keeps-top",
        FREELIE,
        "            top -= 1\n",
        "            pass\n",
        (CEILING, FULL_STRATUM),
        "the carry returns the units of weight top but still brackets the other rows up to top",
    ),
    Mutant(
        "longest-first",
        FREELIE,
        "    products.sort(key=len, reverse=True)\n",
        "    products.sort(key=len)\n",
        ("tests/test_multiplier.py::TestClosureCost::test_random_basis_closure_work",),
        "the products are inserted longest first, so the dense ones take the pivots",
    ),
    Mutant(
        "cut-one-late",
        FREELIE,
        "            part = {i: ci for i, ci in items if i < cut}\n",
        "            part = {i: ci for i, ci in items if i <= cut}\n",
        (CEILING, FULL_STRATUM),
        "the per-weight cut keeps the first word too heavy for the bracket",
    ),
    Mutant(
        "hall-rule-strict",
        FREELIE,
        "        lo = starts[a] if u.gen is not None else max(starts[a], u.right.key)\n",
        "        lo = starts[a] if u.gen is not None else max(starts[a], u.right.key + 1)\n",
        ("tests/test_freelie.py::TestHallBasis::test_matches_the_filter_and_sort_reference",),
        "the Hall rule asks v > t instead of v >= t for u = [s, t]",
    ),
    Mutant(
        "narrow-jacobi-fields",
        "src/nilmult/fdlie.py",
        "        width = (3 * w * B * B).bit_length() + 1\n",
        "        width = (w * B).bit_length() + 1\n",
        ("tests/test_fdlie.py::TestPackedJacobi::test_a_defect_that_narrow_fields_would_cancel",),
        "the packed Jacobi fields are too narrow for a sum of products of two entries",
    ),
    Mutant(
        "kernel-keeps-zeros",
        "src/nilmult/exactlin.py",
        "        row = {c: v for c, v in image.items() if v}\n"
        "        row.update((offset + c, v) for c, v in tag.items() if v)\n",
        "        row = dict(image)\n"
        "        row.update((offset + c, v) for c, v in tag.items())\n",
        (HAND_KERNELS, "tests/test_verify.py::TestCentralLines::test_lines_hold_no_zero_entry"),
        "_kernel_image inserts explicit zero entries into the spanner",
    ),
    Mutant(
        "reduce-unscaled",
        "src/nilmult/exactlin.py",
        "    w = dict(row) if scale == 1 else {c: x * scale for c, x in row.items()}\n",
        "    w = dict(row)\n",
        (HAND_KERNELS, "tests/test_exactlin.py::TestRref::test_rank_nullity"),
        "_reduce leaves out the lcm scale, so floor division drops the remainders",
    ),
    Mutant(
        "memo-hit-uncapped",
        "src/nilmult/multiplier.py",
        "    if F.dim > dim_cap:  # F.dim is the Witt sum, so the check refuses\n"
        "        _check_dim_cap(F.rank, F.nilpotency_class, dim_cap)\n",
        "",
        ("tests/test_multiplier.py::TestClosureMemo::test_cap_is_checked_on_every_memo_hit",),
        "present answers from the memo without checking the ambient against dim_cap",
    ),
    Mutant(
        "epicenter-levels-past-zero",
        "src/nilmult/multiplier.py",
        "                if not any(level):  # then so is every later level\n"
        "                    break\n",
        "",
        ("tests/test_multiplier.py::TestHeisenbergChain::test_rank_one_at_a_huge_weight_stays_small",),
        "the epicenter brackets on through every level after one that is all zero",
    ),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def run(mutants) -> int:
    broken = 0
    survivors = []
    with tempfile.TemporaryDirectory(prefix="nilmult-mutants-") as work:
        clean = Path(work, "clean")
        _copy(clean)
        names = sorted({t for m in mutants for t in m.tests})
        done = _pytest(clean, names)
        if done.returncode != 0:
            print(f"{'BROKEN':8} the named tests fail without any mutant (exit {done.returncode})")
            print(done.stdout[-2000:])
            return 1
        for i, m in enumerate(mutants):
            tree = Path(work, str(i))
            _copy(tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.snippet) != 1:
                print(f"{'BROKEN':8} {m.name}: the snippet occurs {text.count(m.snippet)} times in {m.file}")
                broken += 1
                continue
            mutated = text.replace(m.snippet, m.replacement)
            try:
                compile(mutated, m.file, "exec")
            except SyntaxError as err:
                print(f"{'BROKEN':8} {m.name}: the mutated {m.file} does not compile ({err.msg})")
                broken += 1
                continue
            path.write_text(mutated)
            done = _pytest(tree, m.tests)
            # pytest exits 1 when a test failed and 2 when a named module
            # failed to collect; any other non-zero code (no tests
            # collected, a usage error) says the entry is broken
            if done.returncode in (1, 2):
                verdict = "killed"
            elif done.returncode == 0:
                verdict = "SURVIVED"
                survivors.append(m.name)
            else:
                verdict = "BROKEN"
                broken += 1
            print(f"{verdict:8} {m.name}: {m.reason}")
            shutil.rmtree(tree)
    print(f"{len(mutants) - len(survivors) - broken} killed, {len(survivors)} survived, {broken} broken "
          f"of {len(mutants)}")
    return int(bool(survivors or broken))


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    unknown = wanted - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    sys.exit(run([m for m in MUTANTS if not wanted or m.name in wanted]))
