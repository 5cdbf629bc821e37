"""Shared test set-up: every test starts with no rational side memoized."""

import pytest

from qsid import identities


@pytest.fixture(autouse=True)
def cold_rational_sides():
    """Clear the process-wide memo of finished rational sides, as a fresh process has it."""
    identities._rational_side.cache_clear()
