"""Fixtures shared by every test module."""
import pytest

from mahonian import tableaux


@pytest.fixture(autouse=True)
def cold_switch_memo():
    """Start each test with `phi`'s memo and `foata_j`'s evacuation dict
    (`tableaux._switch` and `tableaux._EVACUATED`) empty, so that no outcome
    depends on the tests run before it, a fault planted in `tableaux._insert`
    or `tableaux._unbump` is never answered from either, and the entries a
    planted fault leaves behind never reach a later test."""
    tableaux._switch.cache_clear()
    tableaux._EVACUATED.clear()
