"""The names the benchmark's tracer wraps: a traced CLI call or in-process
round through bench/child.py must succeed and record a span for each of them."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nilmult import fdlie

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def traced_spans(tmp_path, *argv, mode="cli"):
    """The spans of one traced child: `nilmult ARGV`, or a generic round on
    the spec file ARGV[0]."""
    spans = tmp_path / "s.json"
    if mode == "cli":
        args = ["cli", "--spans", str(spans), "--", *argv]
    else:
        args = [mode, *argv, "--spans", str(spans)]
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


@pytest.fixture()
def h2_file(tmp_path):
    path = tmp_path / "h2.json"
    fdlie.dump(fdlie.heisenberg(2), path)
    return str(path)


def test_multiplier_spans(tmp_path, h2_file):
    spans = traced_spans(tmp_path, "multiplier", h2_file, "--c", "2", "--json")
    names = {s[2] for s in spans}
    assert {"multiplier.present", "multiplier.subideal_bracket", "multiplier.z_star",
            "exactlin.Subspace.intersect_suffix"} <= names
    # the numerator rank is read at the intersect_suffix call inside nilpotent_multiplier
    assert any(
        s[2] == "exactlin.Subspace.intersect_suffix" and spans[s[1]][2] == "multiplier.nilpotent_multiplier"
        for s in spans
    )
    assert any(s[2] == "multiplier.present" and "rank" in s[5] for s in spans)


def test_info_spans(tmp_path, h2_file):
    spans = traced_spans(tmp_path, "info", h2_file, "--json")
    assert "fdlie.upper_centrals" in {s[2] for s in spans}


def test_generic_round_spans(tmp_path):
    # two ops of the in-process round: H(2), and H(1)⊕A(1) in a random basis
    moved = fdlie.random_basis_change(fdlie.direct_sum(fdlie.heisenberg(1), fdlie.abelian(1)), random.Random(1))
    spec = tmp_path / "ops.json"
    spec.write_text(json.dumps({
        "ambients": [[3, 4], [4, 4]],
        "ops": [fdlie.dumps(fdlie.heisenberg(2)), fdlie.dumps(moved)],
    }))
    spans = traced_spans(tmp_path, str(spec), mode="generic")
    names = {s[2] for s in spans}
    assert {"multiplier.present", "multiplier.subideal_bracket", "freelie.span_bracket_rows"} <= names
    assert sum(s[2] == "bench.op" for s in spans) == 2
