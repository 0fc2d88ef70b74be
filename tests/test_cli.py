"""Command-line surface: every subcommand, both output modes, exit codes."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilmult import cli, fdlie, freelie, multiplier, verify
from nilmult.verify import VerifyCase


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    fdlie.dump(fdlie.heisenberg(1), path)
    return str(path)


@pytest.fixture()
def h4_file(tmp_path):
    # at c = 3 its ambient F(8, 5) has dimension 7,764, past the default cap
    path = tmp_path / "h4.json"
    fdlie.dump(fdlie.heisenberg(4), path)
    return str(path)


@pytest.fixture()
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    fdlie.dump(fdlie.abelian(3), path)
    return str(path)


class TestInfo:
    def test_text(self, capsys, h1_file):
        code, out, _ = run(capsys, "info", h1_file)
        assert code == 0
        assert "name: H(1)" in out
        assert "nilpotent: yes (class 2)" in out
        assert "lower central dims: [3, 1, 0]" in out

    def test_json(self, capsys, h1_file):
        code, out, _ = run(capsys, "info", h1_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["nilpotency_class"] == 2
        assert data["upper_central_dims"] == [1, 3]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 50_000)
        code, _, err = run(capsys, "info", str(deep))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestWittHall:
    def test_witt_value(self, capsys):
        code, out, _ = run(capsys, "witt", "--generators", "2", "--length", "3")
        assert code == 0
        assert out.strip() == "2"

    def test_witt_json(self, capsys):
        code, out, _ = run(capsys, "witt", "--generators", "6", "--length", "4", "--json")
        assert json.loads(out)["count"] == 315
        assert code == 0

    def test_witt_of_a_long_length_answers_at_once(self):
        # one letter is answered without a divisor sum, and a count too long
        # to print is refused before it is computed
        src = str(Path(cli.__file__).resolve().parent.parent)
        cases = [("1", "1000000000000000000", 0, "0\n"), ("2", "1000000000000", 2, ""),
                 ("3", "1000000000000000000", 2, "")]
        for d, n, code, out in cases:
            proc = subprocess.run(
                [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); "
                 f"from nilmult import cli; sys.exit(cli.main(['witt', '--generators', '{d}', '--length', '{n}']))"],
                capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (code, out), (d, n, proc.stderr)
            if code:
                assert proc.stderr == f"error: witt({d}, {n}) has more than 4300 digits, too many to print\n"

    def test_witt_with_printing_unlimited_refuses_past_a_fixed_bound(self):
        # with PYTHONINTMAXSTRDIGITS=0 the bound is 250,000 digits: witt(2,
        # 830501) has 250,000 digits and prints; the next length, and 10^12,
        # are refused, the last at once, before its count is computed
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
        for n, code in (("830501", 0), ("830502", 2), ("1000000000000", 2)):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
                 f"from nilmult import cli; sys.exit(cli.main(['witt', '--generators', '2', '--length', '{n}']))"],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert proc.returncode == code, (n, proc.stderr)
            if code:
                assert proc.stdout == ""
                assert proc.stderr == f"error: witt(2, {n}) has more than 250000 digits, too many to print\n"
            else:
                assert (len(proc.stdout), proc.stdout[-1], proc.stderr) == (250_001, "\n", "")

    @pytest.mark.parametrize("d, longest", [(2, 14298), (10, 4303)])
    def test_witt_prints_every_count_up_to_the_digit_limit(self, capsys, d, longest):
        # the interpreter prints an int of at most 4300 digits; witt(2, 14298)
        # and witt(10, 4303) have 4300 digits, and the next lengths 4301
        assert sys.get_int_max_str_digits() == 4300
        for n in range(longest - 3, longest + 4):
            for extra in ([], ["--json"]):
                code, out, err = run(capsys, "witt", "--generators", str(d), "--length", str(n), *extra)
                if n <= longest:
                    value = json.loads(out)["count"] if extra else int(out)
                    assert (code, err, value) == (0, "", freelie.witt(d, n)), (d, n)
                    assert len(str(value)) <= 4300 and (n < longest or len(str(value)) == 4300)
                else:
                    assert (code, out) == (2, ""), (d, n)
                    assert err == f"error: witt({d}, {n}) has more than 4300 digits, too many to print\n"

    def test_witt_of_at_most_one_generator(self):
        # answered without the divisor sum, with the values the sum gives
        assert [freelie.witt(d, n) for d in (0, 1) for n in (1, 2, 12, 10**6)] == [0, 0, 0, 0, 1, 0, 0, 0]

    def test_hall_words(self, capsys):
        code, out, _ = run(capsys, "hall", "--generators", "2", "--class", "4")
        assert code == 0
        assert out.split() == [
            "x", "y", "[y,x]", "[y,x,x]", "[y,x,y]",
            "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]",
        ]

    def test_hall_json(self, capsys):
        code, out, _ = run(capsys, "hall", "--generators", "3", "--class", "2", "--json")
        data = json.loads(out)
        assert data["dim"] == 6
        assert len(data["words"]) == 6

    def test_hall_past_the_cap_exits_two(self, capsys, monkeypatch):
        # the cap of free_nilpotent is checked on the Witt sum before any
        # Hall word is built
        def refused(*args):
            raise AssertionError("hall_basis ran past the cap")

        monkeypatch.setattr(freelie, "hall_basis", refused)
        code, out, err = run(capsys, "hall", "--generators", "40", "--class", "8")
        assert code == 2
        assert out == ""
        # the Witt sum stops at class 3, the first stratum past the cap
        assert err == (
            "error: free nilpotent algebra of rank 40 and class 8 has dimension at least "
            f"{sum(freelie.witt(40, n) for n in range(1, 4))}, cap is 5000\n"
        )

    def test_huge_class_is_refused_after_few_strata(self, capsys, monkeypatch, h1_file):
        # the Witt sum stops at the first stratum past the cap, so a class of
        # a million costs a handful of Witt numbers, not a million of them
        witt, calls = freelie.witt, []

        def counted(d, n):
            calls.append(n)
            if len(calls) > 50:
                raise AssertionError("the Witt sum ran past the cap")
            return witt(d, n)

        monkeypatch.setattr(freelie, "witt", counted)
        for argv in (["multiplier", h1_file, "--c", "1000000"], ["hall", "--generators", "2", "--class", "1000000"]):
            calls.clear()
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: free nilpotent algebra of rank 2 and class 100000")
            assert err.endswith(f"has dimension at least {sum(witt(2, n) for n in calls)}, cap is 5000\n")

    def test_rank_at_most_one_stops_after_the_first_empty_stratum(self, capsys, monkeypatch):
        # for d <= 1 every stratum past length 1 is empty, so neither the Witt
        # sum of the cap check nor the Hall basis runs on to the class
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(args)
                if len(calls) > 50:
                    raise AssertionError("ran on past the first empty stratum")
                return fn(*args)
            return wrapper

        monkeypatch.setattr(freelie, "witt", counted(freelie.witt))
        monkeypatch.setattr(freelie, "_add_stratum", counted(freelie._add_stratum))
        for d, words in ((1, ["x1"]), (0, [])):
            calls.clear()
            code, out, err = run(capsys, "hall", "--generators", str(d), "--class", "1000000", "--json")
            assert (code, err) == (0, "")
            assert json.loads(out) == {"generators": d, "class": 1000000, "dim": len(words), "words": words}
            # the Hall basis builds stratum 2, finds it empty, and builds no other
            assert [args[2] for args in calls if len(args) == 3] == [2]


class TestColdStart:
    def test_cli_imports_only_what_the_command_runs(self, h4_file):
        # a fresh isolated interpreter: what `import nilmult.cli` and one
        # multiplier call add to sys.modules
        src = str(Path(cli.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import nilmult.cli\n"
            f"code = nilmult.cli.main(['multiplier', {h4_file!r}, '--c', '2', '--json'])\n"
            "print(sorted(set(sys.modules) - before))\n"
            "print(code)\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *report, added, code = proc.stdout.splitlines()
        assert code == "0"
        assert json.loads("\n".join(report))["dim_multiplier"] == multiplier.heisenberg_m2(4)
        added = set(ast.literal_eval(added))
        assert added.isdisjoint({"dataclasses", "inspect", "fractions", "decimal"}), sorted(added)
        # the CLI imports verify up front, so every subcommand sees the same modules
        assert "nilmult.verify" in added


class TestMake:
    def test_make_heisenberg_round_trips(self, capsys, tmp_path):
        target = tmp_path / "h2.json"
        code, _, _ = run(capsys, "make", "heisenberg", "2", "-o", str(target))
        assert code == 0
        L = fdlie.load(target)
        assert L.name == "H(2)"
        assert L.dim == 5

    def test_make_direct_sum(self, capsys, tmp_path, h1_file, a3_file):
        target = tmp_path / "sum.json"
        code, _, _ = run(capsys, "make", "direct-sum", h1_file, a3_file, "-o", str(target))
        assert code == 0
        assert fdlie.load(target).dim == 6

    def test_make_free_nilpotent_to_stdout(self, capsys):
        code, out, _ = run(capsys, "make", "free-nilpotent", "2", "3")
        assert code == 0
        assert fdlie.loads(out).dim == 5

    @pytest.mark.parametrize("rank, cls, digest", [
        ("2", "3", "c98dbe19aa43e635c3beb4cb2f260239688b9f5a1167c813ba989dbce13a4b5d"),
        ("3", "3", "9316835dad9eb36ba736e5bcabb65cfa01f4825df500a3009b50fc9a9d5ffa1b"),
    ])
    def test_make_free_nilpotent_is_byte_stable(self, capsys, rank, cls, digest):
        # SHA-256 of the exact stdout (476 and 1,714 bytes): how the free
        # algebra stores its table must not show in the emitted JSON
        code, out, _ = run(capsys, "make", "free-nilpotent", rank, cls)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_make_wrong_arity(self, capsys):
        code, _, err = run(capsys, "make", "abelian")
        assert code == 2
        assert "one parameter" in err


class TestMultiplier:
    def test_text_with_basis(self, capsys, h1_file):
        code, out, _ = run(capsys, "multiplier", h1_file, "--c", "2", "--basis")
        assert code == 0
        assert "dim M^(2)(H(1)) = 5" in out
        for word in ("[y,x,x]", "[y,x,y]", "[y,x,x,x]", "[y,x,x,y]", "[y,x,y,y]"):
            assert word in out
        assert "refined bound 5" in out
        assert "capable: yes; 2-capable: yes" in out

    def test_json_report(self, capsys, h1_file):
        code, out, _ = run(capsys, "multiplier", h1_file, "--c", "2", "--json")
        data = json.loads(out)
        assert data["dim_multiplier"] == 5
        assert data["bounds"] == {"eq1": 8, "refined": 5, "value": 5}
        assert data["capable"] is True

    def test_abelian_refined_is_na(self, capsys, a3_file):
        code, out, _ = run(capsys, "multiplier", a3_file, "--c", "2")
        assert code == 0
        assert "n/a (abelian)" in out

    def test_high_weight_past_the_cap_exits_two(self, capsys, h4_file):
        # the dimension cap is the one guard
        code, out, err = run(capsys, "multiplier", h4_file, "--c", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "dimension 7764, cap is 5000" in err

    def test_high_weight_with_flag(self, capsys, a3_file):
        # c >= 3 needs no flag, and --opt-in-c3 is refused as an unknown argument
        code, out, _ = run(capsys, "multiplier", a3_file, "--c", "3", "--json")
        assert code == 0
        assert json.loads(out)["dim_multiplier"] == 18
        for command in ("multiplier", "capable"):
            with pytest.raises(SystemExit) as raised:
                run(capsys, command, a3_file, "--c", "3", "--opt-in-c3")
            assert raised.value.code == 2
            assert "unrecognized arguments: --opt-in-c3" in capsys.readouterr().err

    def test_malformed_file_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad", "dim": 2, "basis": ["a", "b"],
            "brackets": [{"i": 1, "j": 0, "value": []}],
        }))
        code, _, err = run(capsys, "multiplier", str(bad), "--c", "1")
        assert code == 2
        assert "brackets[0]" in err


class TestCapable:
    def test_capable_verdict(self, capsys, h1_file):
        code, out, _ = run(capsys, "capable", h1_file, "--c", "2")
        assert code == 0
        assert "H(1): 2-capable (Z*_2 = 0)" in out

    def test_not_capable_verdict(self, capsys, tmp_path):
        path = tmp_path / "h2.json"
        fdlie.dump(fdlie.heisenberg(2), path)
        code, out, _ = run(capsys, "capable", str(path), "--c", "1")
        assert code == 0
        assert "not capable" in out
        assert "dimension 1" in out

    def test_json_mode(self, capsys, h1_file):
        code, out, _ = run(capsys, "capable", h1_file, "--c", "1", "--json")
        data = json.loads(out)
        assert data == {"algebra": "H(1)", "c": 1, "capable": True, "dim_z_star": 0}

    def test_high_weight_past_the_cap_exits_two(self, capsys, h1_file, h4_file):
        code, out, _ = run(capsys, "capable", h1_file, "--c", "3")
        assert code == 0
        assert "H(1): 3-capable (Z*_3 = 0)" in out
        code, out, err = run(capsys, "capable", h4_file, "--c", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "rank 8 and class 5 has dimension 7764, cap is 5000" in err

    def test_high_weight_with_flag(self, capsys, tmp_path, h1_file):
        code, out, _ = run(capsys, "capable", h1_file, "--c", "3")
        assert code == 0
        assert "H(1): 3-capable (Z*_3 = 0)" in out
        path = tmp_path / "h2.json"
        fdlie.dump(fdlie.heisenberg(2), path)
        code, out, _ = run(capsys, "capable", str(path), "--c", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"algebra": "H(2)", "c": 3, "capable": False, "dim_z_star": 1}

    def test_weight_must_be_positive(self, capsys, h1_file):
        code, _, err = run(capsys, "capable", h1_file, "--c", "0")
        assert code == 2
        assert err.startswith("error:")


class TestVerifyPaper:
    def test_reduced_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--max-abelian", "2", "--max-heisenberg", "1"
        )
        assert code == 0
        assert "cases passed" in out
        assert "FAIL" not in out

    def test_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify-paper", "--max-abelian", "2",
                         "--max-heisenberg", "1", "--json")
        _, out2, _ = run(capsys, "verify-paper", "--max-abelian", "2",
                         "--max-heisenberg", "1", "--json")
        assert out1 == out2
        assert json.loads(out1)["failed"] == 0

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = [VerifyCase("fake", "forced mismatch", "none", 1, 2)]
        monkeypatch.setattr(verify, "run_cases", lambda *a, **k: broken)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        assert "FAIL" in out

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify-paper", "--max-abelian", "2",
                           "--max-heisenberg", "1", "-o", str(target))
        assert code == 0
        assert out == ""
        assert "cases passed" in target.read_text()
