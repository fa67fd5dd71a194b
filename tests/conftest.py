"""Fixtures shared by every test module."""
import pytest

from mahonian import involution


@pytest.fixture(autouse=True)
def cold_switch_memo():
    """Start each test with `phi`'s memo empty, so that no outcome depends on
    the tests run before it and a fault planted in `tableaux._insert` or
    `tableaux._unbump` is never answered from the memo."""
    involution._switch.cache_clear()
