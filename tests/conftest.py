"""Fixtures shared by the test modules."""

import pytest

from graphproto.matching import _CostTables


@pytest.fixture
def table_builds(monkeypatch):
    """A list that gains one entry per _CostTables construction."""
    calls = []
    init = _CostTables.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_CostTables, "__init__", counting)
    return calls
