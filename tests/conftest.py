"""Checks that hold for every test."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture(autouse=True)
def recursion_limit_is_left_alone():
    """The library must not change interpreter-wide state such as the
    recursion limit; fail any test after which it differs."""
    limit = sys.getrecursionlimit()
    yield
    if sys.getrecursionlimit() != limit:
        changed = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        pytest.fail(f"the recursion limit changed from {limit} to {changed}")
