"""Every name a package lists in __all__ resolves."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "package", ["noisegate", "noisegate.board", "noisegate.ensemble", "noisegate.evaluation"]
)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
