"""Keep the usage examples in the module docstrings and the README honest."""
import doctest
from pathlib import Path

import pytest

import mahonian.involution
import mahonian.patterns
import mahonian.tableaux
import mahonian.verify
import mahonian.words


@pytest.mark.parametrize(
    "module",
    [
        mahonian.words,
        mahonian.patterns,
        mahonian.tableaux,
        mahonian.involution,
        mahonian.verify,
    ],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
