"""Fixtures shared by the test modules."""

import pytest

from graphproto import matching
from graphproto.core import AttrTuple, Fdg
from graphproto.matching import _CostTables


@pytest.fixture
def table_builds(monkeypatch):
    """A list that gains, per _CostTables construction, the FDG it is
    built for."""
    calls = []
    init = _CostTables.__init__

    def counting(self, g, f, *args, **kwargs):
        calls.append(f)
        init(self, g, f, *args, **kwargs)

    monkeypatch.setattr(_CostTables, "__init__", counting)
    return calls


@pytest.fixture
def binned_calls(monkeypatch):
    """A list that gains one entry per AttrTuple.binned call."""
    calls = []
    binned = AttrTuple.binned

    def counting(self, *args, **kwargs):
        calls.append(1)
        return binned(self, *args, **kwargs)

    monkeypatch.setattr(AttrTuple, "binned", counting)
    return calls


@pytest.fixture
def fdg_builds(monkeypatch):
    """A list that gains one entry per Fdg construction."""
    calls = []
    init = Fdg.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fdg, "__init__", counting)
    return calls


@pytest.fixture
def bin_maps(monkeypatch):
    """A list that gains one entry per _costs_by_bin call: two per FDG
    whose AG-independent costs are worked out (vertex and arc pdfs)."""
    calls = []
    costs_by_bin = matching._costs_by_bin

    def counting(*args, **kwargs):
        calls.append(1)
        return costs_by_bin(*args, **kwargs)

    monkeypatch.setattr(matching, "_costs_by_bin", counting)
    return calls


@pytest.fixture
def relation_builds(monkeypatch):
    """A list that gains one entry per _relation_pairs call: one per FDG
    whose relation instances are worked out."""
    calls = []
    relation_pairs = matching._relation_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return relation_pairs(*args, **kwargs)

    monkeypatch.setattr(matching, "_relation_pairs", counting)
    return calls
