"""The mutant catalogue stays fresh: every snippet still occurs exactly once
in its file, every mutated file still compiles, so a kill is never a
syntax error, and every test it names is still defined.  The catalogue
itself runs out of tier-1, as ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    compile(text.replace(mutant.snippet, mutant.replacement), mutant.file, "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_are_defined(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *scopes = node.split("::")
        text = (ROOT / path).read_text()
        *classes, function = scopes
        for name in classes:
            assert re.search(rf"^class {name}\b", text, re.M), node
        assert re.search(rf"^\s*def {function.split('[')[0]}\(", text, re.M), node
