"""The verification harness itself: case list integrity and determinism."""

import json
import random
from fractions import Fraction

import pytest

import nilmult
import oracles
from nilmult import verify
from nilmult.exactlin import Subspace
from nilmult.fdlie import abelian, direct_sum, from_free_nilpotent, heisenberg, random_basis_change, series
from nilmult.freelie import FreeNilpotentAlgebra
from nilmult.verify import VerifyCase, central_lines, corpus, run_cases, render_text, to_json


class TestCaseList:
    def test_everything_passes_at_default_limits(self):
        cases = run_cases()
        failing = [c.id for c in cases if c.status != "pass"]
        assert failing == []

    def test_ids_unique_and_sorted(self):
        cases = run_cases()
        ids = [c.id for c in cases]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_every_case_carries_provenance(self):
        for case in run_cases():
            assert case.provenance.strip()
            assert case.description.strip()

    def test_reduced_limits_shrink_the_list(self):
        small = run_cases(max_abelian=2, max_heisenberg=1)
        full = run_cases()
        assert 0 < len(small) < len(full)
        assert all(c.status == "pass" for c in small)

    def test_run_cases_builds_no_fraction(self, fractions_built):
        # the quotients and direct sums of the checks stay on integers
        nilmult.clear_caches()
        with fractions_built() as built:
            cases = run_cases()
        nilmult.clear_caches()
        assert built == []
        assert all(c.status == "pass" for c in cases)

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            run_cases(max_abelian=0)

    def test_status_detects_mismatch(self):
        case = VerifyCase("x", "d", "p", expected=1, computed=2)
        assert case.status == "fail"


class TestDeterminism:
    def test_two_runs_identical_json(self):
        a = json.dumps(to_json(run_cases()), sort_keys=True)
        b = json.dumps(to_json(run_cases()), sort_keys=True)
        assert a == b

    def test_json_counts(self):
        out = to_json(run_cases(max_abelian=3, max_heisenberg=1))
        assert out["passed"] + out["failed"] == len(out["cases"])
        assert out["failed"] == 0

    def test_render_text_shows_status_and_provenance(self):
        cases = run_cases(max_abelian=2, max_heisenberg=1)
        text = render_text(cases)
        assert "PASS" in text
        for case in cases[:3]:
            assert case.id in text
        assert f"{len(cases)}/{len(cases)} cases passed" in text


class TestCorpus:
    def test_default_size(self):
        assert len(corpus()) == 11

    def test_limits_respected(self):
        small = corpus(max_abelian=2, max_heisenberg=1)
        names = [L.name for L in small]
        assert names == ["A(1)", "A(2)", "H(1)", "H(1)⊕A(1)"]


class TestCentralLines:
    def test_lines_are_central_rank_one(self):
        for L in corpus(max_abelian=3, max_heisenberg=2):
            Z = series(L).z(1)
            for line in central_lines(L, random.Random(1)):
                assert line.rank == 1
                assert Z.contains_subspace(line)

    @pytest.mark.parametrize("shape", range(13))
    @pytest.mark.parametrize("moved", [False, True], ids=["given", "random-basis"])
    def test_lines_are_built_on_integers(self, monkeypatch, shape, moved):
        # the same lines as the rational construction, and no Fraction made
        n23 = from_free_nilpotent(FreeNilpotentAlgebra(2, 3), "N(2,3)")
        L = (corpus() + [n23, direct_sum(heisenberg(1), n23)])[shape]
        if moved:
            L = random_basis_change(L, random.Random(shape))
        built = []
        fraction_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            lines = central_lines(L, random.Random(shape))
        assert built == []
        assert lines == oracles.central_lines_by_fractions(L, random.Random(shape))

    def test_lines_hold_no_zero_entry(self):
        # in a random basis two rows of Z(L) can cancel in a column of their
        # sum; the line keeps no zero there, so it equals the same line
        # built through Subspace (8 of these 20 moved H(1)⊕A(2) have such a sum)
        for seed in range(20):
            L = random_basis_change(direct_sum(heisenberg(1), abelian(2)), random.Random(seed))
            for line in central_lines(L, random.Random(5)):
                assert all(line.integer_rows()[0].values()), seed
                assert line == Subspace(L.dim, line.integer_rows()), seed

    def test_family_is_deterministic(self):
        L = corpus()[3]  # A(4), center of dimension 4
        fam1 = central_lines(L, random.Random(9))
        fam2 = central_lines(L, random.Random(9))
        assert fam1 == fam2
        assert len(fam1) > L.dim  # basis rows plus sums plus extras
