"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

import modcato.category_o as category_o


@pytest.fixture(autouse=True)
def fresh_simple_memo(monkeypatch):
    """Every test starts with a simple-character memo as empty as a fresh
    process's, and leaves the module's own memo as it found it."""
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
