"""The map search's bound on every caller's tables.

_map_search is run on the tables the edit distance, bnb_distance (relaxed
and restricted, with and without candidate rows) and the FORG distance
build, taken from the caller's own call, at upper bounds around the
optimum.  A bound that overestimated what a branch still owes would cut
the optimal map at one of them; a brute force over every map shows it.
A pair whose root bound already reaches the upper bound is decided with
one walk and builds no arc tables, also when only its candidate rows
raise the bound that far; bnb_distance decides it before building any
cost table, and edit_distance (default substitutions) before calling any
substitution or searching.  The root both work out without tables is the
very float the search tests its root by.  Arc tables built on candidate
rows hold, on every pair of rows the search can read, the entries of the
full build.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphproto import AttributedGraph, CostWeights, attr
from graphproto import baseline, forg, matching, search
from graphproto.baseline import EditCosts, edit_distance
from graphproto.efficient import METHODS, match_by_method
from graphproto.forg import forg_distance
from graphproto.matching import bnb_distance, count_search_nodes
from graphproto.search import _map_search
from graphproto.synthesis import CommonLabelling, synth_from_labelled_ags


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


def _captured(module, call):
    """call()'s result and the MatchResult and arguments of the one
    _map_search call it makes through module."""
    seen = []

    def record(*args, **kwargs):
        res = _map_search(*args, **kwargs)
        seen.append((res, args, kwargs))
        return res

    with mock.patch.object(module, "_map_search", record):
        out = call()
    (res, args, kwargs), = seen
    return out, res, list(args), kwargs


def _maps(n1, n2, rows):
    """Every injective partial map of n1 vertices into n2, vertex p on
    rows[p] (all n2 by default) or on nothing."""
    options = [list(range(n2) if rows is None else rows[p]) + [None]
               for p in range(n1)]
    for vmap in itertools.product(*options):
        real = [q for q in vmap if q is not None]
        if len(real) == len(set(real)):
            yield list(vmap)


def _table_cost(tables, arc, vmap):
    """A complete map's cost under _map_search's tables, term by term as
    its docstring defines them."""
    vs, v_del, v_ins, _, a_del, _, a_ins = tables
    used = set(vmap)
    cost = sum(v_del[p] if q is None else vs[p][q] for p, q in enumerate(vmap))
    cost += sum(c for q, c in enumerate(v_ins) if q not in used)
    cost += sum(c for (i, j), c in a_del.items()
                if vmap[i] is None or vmap[j] is None)
    cost += sum(c for (q, r), c in a_ins.items()
                if q not in used or r not in used)
    return cost + sum(arc[p][s][vmap[p]][vmap[s]]
                      for p in range(len(vmap)) for s in range(p)
                      if vmap[p] is not None and vmap[s] is not None)


def _brute(args):
    """Cost of every map the search may return on its arguments: the
    score hook's, when there is one, else the tables'; maps a vet rejects
    are left out."""
    tables = args[:7]
    vet, rows, score = (args[8:] + [None] * 3)[:3]
    n1, n2 = len(tables[1]), len(tables[2])
    arc = tables[3]()
    costs = {}
    for vmap in _maps(n1, n2, rows):
        if vet is not None and not all(
                q is None or vet(vmap[:p + 1] + [None] * (n1 - p - 1), p)
                for p, q in enumerate(vmap)):
            continue
        costs[tuple(vmap)] = score(vmap) if score is not None else \
            _table_cost(tables, arc, vmap)
    return costs


def _check_around_the_optimum(args, kwargs):
    """The search on args finds the brute force's optimum and a map that
    attains it, returns that same map at every upper bound above it, and
    (inf, None) at the optimum and below."""
    costs = _brute(args)
    best = min(costs.values(), default=math.inf)

    def search(upper_bound):
        args[7] = upper_bound
        return _map_search(*args, **kwargs)

    free = search(math.inf)
    vmap = None
    if best == math.inf:
        assert free.distance == math.inf and free.labelling is None
    else:
        assert free.distance == pytest.approx(best, abs=1e-9)
        vmap = list(free.labelling.vertex_map)
        assert costs[tuple(vmap)] == pytest.approx(best, abs=1e-9)
    d = free.distance
    for u in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf),
              math.inf):
        res = search(u)
        if d < u:
            assert res.distance == d
            assert list(res.labelling.vertex_map) == vmap
        else:
            assert res.distance == math.inf
            assert res.labelling is None
            assert not res.valid


def _random_ag(rng, max_order=4):
    order = int(rng.integers(0, max_order + 1))
    vertices = [attr(int(rng.integers(0, 4))) for _ in range(order)]
    arcs = {(i, j): attr(int(rng.integers(0, 4)))
            for i in range(order) for j in range(order)
            if i != j and rng.random() < 0.35}
    return AttributedGraph(vertices, arcs)


@st.composite
def _ag_pairs(draw):
    """Two AGs of orders 0 to four."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _random_ag(rng), _random_ag(rng)


def _scaled(scale):
    return lambda a, b: scale * abs(a.values[0] - b.values[0])


_constant = st.sampled_from([0.0, 0.3, 1.0, 2.0, math.inf])
_edit_costs = st.builds(
    lambda ins, dels, vs, es: EditCosts(C_vi=ins[0], C_ei=ins[1],
                                        C_vd=dels[0], C_ed=dels[1],
                                        vertex_sub=_scaled(vs),
                                        arc_sub=_scaled(es)),
    st.tuples(_constant, _constant), st.tuples(_constant, _constant),
    st.sampled_from([0.0, 0.25, 1.0]), st.sampled_from([0.0, 0.5, 1.0]))


@_PROPERTY
@given(pair=_ag_pairs(), c=_edit_costs, planar=st.booleans())
def test_edit_tables_keep_the_optimum(pair, c, planar):
    g1, g2 = pair
    _, _, args, kwargs = _captured(
        baseline, lambda: edit_distance(g1, g2, c, planar=planar))
    _check_around_the_optimum(args, kwargs)


@st.composite
def _bnb_cases(draw):
    """An AG and an FDG of orders 0 to four, weights in either mode, and
    candidate rows or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(0, 5))
    ags = [_random_ag(rng, max_order=n) for _ in range(rng.integers(1, 4))]
    maps = [list(rng.permutation(n))[:a.order] for a in ags]
    f = synth_from_labelled_ags(ags, CommonLabelling(maps, n))
    g = _random_ag(rng)
    allowed = None
    if draw(st.booleans()):
        allowed = rng.random((g.order, n)) < 0.6
    return g, f, allowed


_bnb_weights = st.builds(
    lambda mode, k2, k3, leaf: CostWeights(
        K2=k2, K3=k3, K4=leaf[0], K5=leaf[1], K6=leaf[2], K7=leaf[3],
        K8=leaf[4], mode=mode),
    st.sampled_from(["relaxed", "restricted"]),
    st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 2.5]),
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=5, max_size=5))


@_PROPERTY
@given(case=_bnb_cases(), w=_bnb_weights)
def test_bnb_tables_keep_the_optimum(case, w):
    g, f, allowed = case
    _, _, args, kwargs = _captured(
        matching, lambda: bnb_distance(g, f, w, allowed=allowed))
    _check_around_the_optimum(args, kwargs)


def _random_prototype(rng, n, z):
    """Synthesis of z random AGs on random subsets of n slots."""
    ags, maps = [], []
    for _ in range(z):
        slots = [s for s in range(n) if rng.random() < 0.6]
        k = len(slots)
        arcs = {(i, j): attr(float(rng.uniform(0, 6))) for i in range(k)
                for j in range(k) if i != j and rng.random() < 0.4}
        ags.append(AttributedGraph(
            [attr(float(rng.uniform(0, 6))) for _ in slots], arcs))
        maps.append(slots)
    return synth_from_labelled_ags(ags, CommonLabelling(maps, n), 2.0)


@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_forg_tables_keep_the_optimum(seed):
    rng = np.random.default_rng(seed)
    f1, f2 = (_random_prototype(rng, int(rng.integers(0, 5)),
                                int(rng.integers(1, 4))) for _ in range(2))
    _, _, args, kwargs = _captured(forg, lambda: forg_distance(f1, f2))
    _check_around_the_optimum(args, kwargs)


@pytest.fixture
def arc_table_builds(monkeypatch):
    """A list that gains one entry per matching._arc_tables call."""
    calls = []
    build = matching._arc_tables

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(matching, "_arc_tables", counting)
    return calls


def test_a_pair_decided_at_the_root_builds_no_arc_tables(
        monkeypatch, arc_table_builds, table_builds, relation_builds):
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(1), (1, 2): attr(2)})
    far = AttributedGraph([attr(50), attr(60), attr(70)],
                          {(1, 0): attr(9), (2, 1): attr(8)})
    f = synth_from_labelled_ags([far], CommonLabelling([[0, 1, 2]], 3))
    res = bnb_distance(g, f, upper_bound=0.5)
    assert (res.distance, res.labelling, res.valid) == (math.inf, None, False)
    assert (res.explored_nodes, res.leaves) == (1, 0)
    for method in METHODS:
        res = match_by_method(g, f, method=method, tau=0.5, t_p=0.05,
                              upper_bound=0.5)
        assert (res.distance, res.labelling, res.valid, res.explored_nodes,
                res.leaves) == (math.inf, None, False, 1, 0)
    # bnb_distance cuts before any cost table: the FDG's search part
    # stays empty
    assert arc_table_builds == table_builds == relation_builds == []
    assert f._costs[2] is None
    # without the bound nothing is decided at the root, and no cheap root
    # is worked out
    monkeypatch.setattr(matching, "_cheap_root", None)
    res = bnb_distance(g, f, upper_bound=0.5, disable_bound=True)
    assert res.explored_nodes == count_search_nodes(3, 3)
    assert arc_table_builds == [1]
    assert bnb_distance(g, f).valid
    assert arc_table_builds == [1, 1]

    # edit_distance decides the pair before it calls a substitution or
    # searches; unbounded, it calls every one and searches once
    subs, searches = [], []
    exact, search = baseline._exact_mismatch, baseline._map_search
    monkeypatch.setattr(baseline, "_exact_mismatch",
                        lambda a, b: subs.append(1) or exact(a, b))
    monkeypatch.setattr(baseline, "_map_search",
                        lambda *args: searches.append(1) or search(*args))
    assert edit_distance(g, far, upper_bound=0.5) == (math.inf, None)
    assert subs == searches == []
    assert edit_distance(g, far)[0] == 5.0
    assert (len(subs), searches) == (3 * 3 + 2 * 2, [1])


def test_edit_cheap_root_is_the_search_root(monkeypatch):
    # the root edit_distance works out from set lookups, with no table, is
    # the very float its search first tests its root by
    bound = search._bound
    tested = []

    def spy(*args):
        owed = bound(*args)

        def first(*at):
            tested.append(owed(*at))
            return tested[-1]

        return first

    monkeypatch.setattr(search, "_bound", spy)
    rng = np.random.default_rng(2031)
    constants = [0.0, 0.3, 1.0, math.inf]
    seen = dict.fromkeys(("order 0", "order 1", "no arcs", "vertex floor 0",
                          "arc floor 0", "arc floor 1", "planar",
                          "not planar"), 0)
    seen.update(("%s = %r" % (name, x), 0) for name in
                ("C_vi", "C_ei", "C_vd", "C_ed") for x in constants)
    for trial in range(400):
        g1, g2 = _random_ag(rng), _random_ag(rng)
        if trial % 10 == 0:
            g1, g2 = (AttributedGraph(g.vertices, {}) for g in (g1, g2))
        names = ("C_vi", "C_ei", "C_vd", "C_ed")
        picked = dict(zip(names, (float(x) for x in rng.choice(constants, 4))))
        planar = trial % 2 == 0
        c = EditCosts(**picked)
        cheap = baseline._cheap_root(g1, g2, c)
        del tested[:]
        edit_distance(g1, g2, c, planar=planar)
        assert tested[0] == cheap
        values = {a.values for a in g2.vertices}
        arc_values = {b.values for _, b in g2.present_arcs()}
        arcs1 = [b.values for _, b in g1.present_arcs()]
        seen["order 0"] += 0 in (g1.order, g2.order)
        seen["order 1"] += 1 in (g1.order, g2.order)
        seen["no arcs"] += not arcs1 and not arc_values
        seen["vertex floor 0"] += any(a.values in values for a in g1.vertices)
        seen["arc floor 0"] += any(v in arc_values for v in arcs1)
        seen["arc floor 1"] += bool(arc_values) and any(
            v not in arc_values for v in arcs1)
        seen["planar" if planar else "not planar"] += 1
        for name, x in picked.items():
            seen["%s = %r" % (name, x)] += 1
    assert min(seen.values()) >= 5, seen


def test_a_root_cut_only_on_the_mask_counts_one_walk(arc_table_builds):
    g = AttributedGraph([attr(1)], {})
    f = synth_from_labelled_ags([g], CommonLabelling([[0]], 1))
    # with its one slot open the root survives upper_bound 0.5; without
    # it the vertex owes its deletion, 1
    res = bnb_distance(g, f, upper_bound=0.5)
    assert (res.distance, res.explored_nodes) == (0.0, 2)
    res = bnb_distance(g, f, allowed=[[False]], upper_bound=0.5)
    assert (res.distance, res.labelling, res.valid) == (math.inf, None, False)
    assert (res.explored_nodes, res.leaves) == (1, 0)
    assert arc_table_builds == [1]


def test_row_restricted_arc_tables_equal_the_full_build():
    rng = np.random.default_rng(61)
    seen = dict.fromkeys(("empty row", "full row", "entries"), 0)
    for trial in range(300):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        arc_id = np.zeros((n, n), dtype=int)
        arcs = [(i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.4]
        for a, ij in enumerate(arcs, 1):
            arc_id[ij] = a
        rates = rng.random((len(arcs) + 1, m, m))
        pair = np.where(rng.random((m, m)) < 0.7, rng.random((m, m)), 0.0)
        mask = rng.random((n, m)) < rng.choice([0.2, 0.5, 0.8])
        mask[rng.random(n) < 0.2] = False
        mask[rng.random(n) < 0.2] = True
        rows = matching._row_lists(mask)
        full = search._pair_tables(rates, arc_id, pair)
        got = search._pair_tables(rates, arc_id, pair, rows)
        for p in range(n):
            for s in range(p):
                for q in rows[p]:
                    for r in rows[s]:
                        assert got[p][s][q][r] == full[p][s][q][r]
                        seen["entries"] += bool(arc_id[p, s] or arc_id[s, p])
        seen["empty row"] += not mask.any(axis=1).all()
        seen["full row"] += mask.all(axis=1).any()
    assert min(seen.values()) >= 50, seen
