"""Matching checks.

Covers:
  * the truncated-log cost normalisation at its anchor points
  * first-order vertex and arc costs for every case of the cost tables
  * labelling-space and search-node counts (frozen values plus recurrence)
  * hand-computed distances (self match, substitution, deletion with and
    without occurrence weight, restricted-mode invalidity)
  * cyclic arc-order (planar) constraint on explicit labellings
  * bnb against the exhaustive oracle on random pairs: distances bit-equal,
    counters match the closed forms when the bound is off
  * candidate masks and error handling
  * property tests of the upper bound: below the optimum nothing comes back,
    above it the unbounded distance and labelling do; the greedy seed is
    never below the exhaustive optimum
  * second_order_cost, one weight at a time, against violations counted
    pair by pair from the FDG's relation matrices
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphproto.core import (
    PHI,
    AttributedGraph,
    CostWeights,
    Labelling,
    Pdf,
    arc_index,
    attr,
)
from graphproto.matching import (
    MatchResult,
    _CostTables,
    _greedy_cost,
    _trunc,
    arc_cost,
    bnb_distance,
    check_constraints,
    count_labellings,
    count_search_nodes,
    exhaustive_oracle,
    labelling_cost,
    second_order_cost,
    vertex_cost,
)
from graphproto.synthesis import CommonLabelling, ag_to_fdg, synth_from_labelled_ags


def test_trunc_anchors():
    k = 1e-4
    assert _trunc(1.0, k) == 0.0
    assert _trunc(k, k) == pytest.approx(1.0)
    assert _trunc(0.0, k) == 1.0
    assert _trunc(math.sqrt(k), k) == pytest.approx(0.5)
    assert _trunc(k / 2, k) == 1.0


def test_vertex_cost_cases():
    p = Pdf({(1,): 3, None: 1}, 4)
    assert vertex_cost(attr(1), p) == pytest.approx(_trunc(0.75, 1e-4))
    assert vertex_cost(PHI, p) == pytest.approx(_trunc(0.25, 1e-4))
    assert vertex_cost(attr(9), p) == 1.0
    null_slot = Pdf({None: 4}, 4)
    assert vertex_cost(attr(1), null_slot) == 1.0
    assert vertex_cost(PHI, null_slot) == 0.0


def test_arc_cost_cases():
    q = Pdf({(7,): 1, None: 1}, 2)
    assert arc_cost(attr(7), q, False) == pytest.approx(_trunc(0.5, 1e-4))
    assert arc_cost(PHI, q, False) == pytest.approx(_trunc(0.5, 1e-4))
    assert arc_cost(attr(8), q, False) == 1.0
    assert arc_cost(attr(7), q, True) == 1.0
    assert arc_cost(PHI, q, True) == 0.0
    assert arc_cost(None, q, True) == 0.0


def test_count_labellings_frozen():
    assert count_labellings(1, 1) == 2
    assert count_labellings(2, 1) == 3
    assert count_labellings(1, 2) == 3
    assert count_labellings(2, 2) == 7
    assert count_labellings(3, 5) == 136
    assert count_labellings(5, 5) == 1546
    assert count_labellings(0, 4) == 1
    assert count_labellings(4, 0) == 1
    assert count_labellings(0, 0) == 1


def test_count_labellings_recurrence():
    for n in range(1, 7):
        for m in range(1, 7):
            assert count_labellings(n, m) == (
                count_labellings(n - 1, m)
                + m * count_labellings(n - 1, m - 1))


def test_count_search_nodes():
    assert count_search_nodes(0, 3) == 1
    assert count_search_nodes(2, 2) == 1 + 3 + 7
    for n in range(4):
        for m in range(4):
            assert count_search_nodes(n, m) == sum(
                count_labellings(i, m) for i in range(n + 1))


def _star(center_attr, leaf_attrs, arc_attr=99):
    vertices = [attr(center_attr)] + [attr(a) for a in leaf_attrs]
    arcs = {(0, j + 1): attr(arc_attr) for j in range(len(leaf_attrs))}
    return AttributedGraph(vertices, arcs)


def test_self_match_is_free():
    g = _star(1, [2, 3])
    f = ag_to_fdg(g)
    for mode in ("relaxed", "restricted"):
        res = bnb_distance(g, f, CostWeights(mode=mode))
        assert res.valid
        assert res.distance == 0.0
        assert res.labelling == Labelling([0, 1, 2])


def test_substitution_distance():
    f = ag_to_fdg(AttributedGraph([attr(1)], {}))
    res = bnb_distance(AttributedGraph([attr(2)], {}), f)
    assert res.distance == pytest.approx(1.0)
    assert res.labelling == Labelling([0])
    res = bnb_distance(AttributedGraph([attr(1)], {}), f)
    assert res.distance == 0.0


def test_deletion_distance_and_occurrence_weight():
    f = ag_to_fdg(AttributedGraph([attr(1), attr(2)], {}))
    g = AttributedGraph([attr(1)], {})
    res = bnb_distance(g, f)
    assert res.distance == pytest.approx(1.0)
    assert res.labelling == Labelling([0])
    # pricing occurrence violations charges the broken "slot 0 implies
    # slot 1" statement on top of the deletion
    res = bnb_distance(g, f, CostWeights(K5=1.0))
    assert res.distance == pytest.approx(2.0)
    # as hard constraints, every labelling breaks occurrence or existence
    res = bnb_distance(g, f, CostWeights(mode="restricted"))
    assert not res.valid
    assert res.distance == math.inf and res.labelling is None


def test_tie_breaks_to_first_candidate():
    f = ag_to_fdg(AttributedGraph([attr(1), attr(1)], {}))
    res = bnb_distance(AttributedGraph([attr(1)], {}), f)
    assert res.labelling == Labelling([0])


def test_second_order_cost_by_hand():
    f = ag_to_fdg(AttributedGraph([attr(1), attr(2)], {}))
    g = AttributedGraph([attr(1)], {})
    w = CostWeights(K3=1, K4=1, K5=1, K6=1, K7=1, K8=1)
    # slot 1 deleted: only the occurrence statement 0 -> 1 breaks (its
    # source is realized); the arc slots are not existable, so they are mute
    assert second_order_cost(g, f, [0], w) == pytest.approx(1.0)
    # deleting everything breaks vertex existence (never both absent)
    # and both occurrence bits are safe (no realized source)
    assert second_order_cost(g, f, [None], w) == pytest.approx(1.0)


def test_labelling_cost_matches_manual_sum():
    g = _star(1, [2])
    f = ag_to_fdg(_star(1, [2, 3]))
    w = CostWeights()
    cost, ok = labelling_cost(g, f, [0, 1], w)
    assert ok
    # vertices exact, slot 2 deleted at cost 1, its arc slot free,
    # arc (0,1) exact, empty arc slots exact
    assert cost == pytest.approx(1.0)
    cost01, ok = labelling_cost(g, f, [0, 2], w)
    assert ok
    assert cost01 == pytest.approx(2.0)  # wrong leaf attr + deletion


def test_planar_constraint_on_labellings():
    g = _star(1, [2, 3, 4])
    f = ag_to_fdg(_star(1, [2, 3, 4]))
    w = CostWeights(planar=True)
    assert check_constraints(g, f, [0, 1, 2, 3], w)
    assert check_constraints(g, f, [0, 2, 3, 1], w)
    assert check_constraints(g, f, [0, 3, 1, 2], w)
    assert not check_constraints(g, f, [0, 1, 3, 2], w)
    assert not check_constraints(g, f, [0, 2, 1, 3], w)
    cost, ok = labelling_cost(g, f, [0, 2, 1, 3], w)
    assert not ok and cost == math.inf
    # dropped vertices leave the remaining order intact
    assert check_constraints(g, f, [0, 1, None, 3], w)
    assert check_constraints(g, f, [0, None, 3, 2], w)


def test_planar_inside_search():
    g = _star(1, [2, 2, 2])
    f = ag_to_fdg(_star(1, [2, 2, 2]))
    res = bnb_distance(g, f, CostWeights(planar=True))
    assert res.valid and res.distance == 0.0
    seq = [res.labelling.target(j) for j in (1, 2, 3)]
    a, b, c = seq
    assert (a < b < c) or (c < a and (a < b or b < c))


def test_counters_without_bound():
    g = _star(1, [2, 3])
    f = ag_to_fdg(_star(5, [6]))
    res = bnb_distance(g, f, CostWeights(), disable_bound=True)
    assert res.leaves == count_labellings(3, 2)
    assert res.explored_nodes == count_search_nodes(3, 2)
    res = bnb_distance(g, f, CostWeights())
    assert res.explored_nodes <= count_search_nodes(3, 2)


def test_oracle_enumerates_everything():
    g = _star(1, [2])
    f = ag_to_fdg(_star(1, [2, 3]))
    res = exhaustive_oracle(g, f)
    assert res.explored_nodes == count_labellings(2, 3)
    with pytest.raises(ValueError):
        exhaustive_oracle(_star(1, list(range(9))), f)


def _random_ag(rng, max_order=4):
    order = int(rng.integers(1, max_order + 1))
    vertices = [attr(int(rng.integers(0, 4))) for _ in range(order)]
    arcs = {}
    for i in range(order):
        for j in range(order):
            if i != j and rng.random() < 0.35:
                arcs[(i, j)] = attr(int(rng.integers(0, 4)))
    return AttributedGraph(vertices, arcs)


def _random_fdg(rng, max_order=4):
    n = int(rng.integers(1, max_order + 1))
    z = int(rng.integers(1, 4))
    ags, maps = [], []
    for _ in range(z):
        g = _random_ag(rng, max_order=n)
        ags.append(g)
        maps.append(list(rng.permutation(n))[:g.order])
    return synth_from_labelled_ags(ags, CommonLabelling(maps, n))


def test_bnb_matches_oracle():
    rng = np.random.default_rng(101)
    for trial in range(30):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        w = CostWeights(
            K1=float(rng.uniform(0.5, 2.0)),
            K2=float(rng.uniform(0.5, 2.0)),
            K3=float(rng.choice([0.0, 1.0])),
            K4=float(rng.choice([0.0, 0.5])),
            K5=float(rng.choice([0.0, 1.0])),
            K6=float(rng.choice([0.0, 0.5])),
            K7=float(rng.choice([0.0, 1.0])),
            K8=float(rng.choice([0.0, 0.5])),
            planar=bool(trial % 2),
            mode="restricted" if trial % 3 == 0 else "relaxed")
        want = exhaustive_oracle(g, f, w)
        got = bnb_distance(g, f, w)
        free = bnb_distance(g, f, w, disable_bound=True,
                            disable_pruning=True)
        assert got.valid == want.valid
        assert free.valid == want.valid
        if want.valid:
            assert got.distance == want.distance
            assert free.distance == want.distance
        if not w.planar:
            # with the cyclic-order constraint off, nothing prunes
            assert free.leaves == count_labellings(g.order, f.order)
            assert free.explored_nodes == count_search_nodes(g.order, f.order)
        assert got.explored_nodes <= free.explored_nodes


def test_allowed_mask():
    f = ag_to_fdg(AttributedGraph([attr(1), attr(1)], {}))
    g = AttributedGraph([attr(1)], {})
    allowed = np.array([[False, True]])
    res = bnb_distance(g, f, allowed=allowed)
    assert res.labelling == Labelling([1])
    assert res.distance == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bnb_distance(g, f, allowed=np.ones((2, 2), bool))


def test_extended_query_rejected():
    from graphproto.core import extend_ag
    f = ag_to_fdg(AttributedGraph([attr(1)], {}))
    g = extend_ag(AttributedGraph([attr(1)], {}), 2)
    with pytest.raises(ValueError):
        bnb_distance(g, f)


def test_match_result_repr():
    r = MatchResult(1.5, Labelling([0]), 7, True)
    assert "1.5" in repr(r)


_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _pairs(draw):
    """An AG and an FDG of orders up to four, within the oracle's reach."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _random_ag(rng), _random_fdg(rng)


_weights = st.builds(
    lambda mode, planar, k3, k4, k5, k7: CostWeights(
        K3=k3, K4=k4, K5=k5, K7=k7, planar=planar, mode=mode),
    st.sampled_from(["relaxed", "restricted"]), st.booleans(),
    st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 1.0]))


def _around(d):
    """Upper bounds just below, at and above d, and infinity."""
    if not math.isfinite(d):
        return [0.0, 1.0, math.inf]
    return [d - 0.5, math.nextafter(d, -math.inf), d,
            math.nextafter(d, math.inf), d + 0.5, math.inf]


@_PROPERTY
@given(pair=_pairs(), w=_weights, pick=st.integers(0, 5))
def test_upper_bound_keeps_the_optimum_below_it(pair, w, pick):
    g, f = pair
    free = bnb_distance(g, f, w)
    assert free.distance == exhaustive_oracle(g, f, w).distance
    bounds = _around(free.distance)
    u = bounds[pick % len(bounds)]
    got = bnb_distance(g, f, w, upper_bound=u)
    if free.distance < u:
        assert got.valid
        assert got.distance == free.distance
        assert got.labelling == free.labelling
    else:
        assert not got.valid
        assert got.distance == math.inf
        assert got.labelling is None


@_PROPERTY
@given(pair=_pairs(), w=_weights)
def test_greedy_cost_is_never_below_the_optimum(pair, w):
    g, f = pair
    seed = _greedy_cost(g, f, _CostTables(g, f, w))
    assert seed >= exhaustive_oracle(g, f, w).distance


def _pairwise_violations(g, f, vmap):
    """(va, vo, ve, ea, eo, ee) counted pair by pair from f.Aw .. f.Ee.

    A and E count unordered pairs of distinct elements, O ordered ones.  An
    element whose pdf forces its outcome (a null vertex slot, an arc slot
    that is not existable) is exempt: A and E skip every pair it is in, O
    the pairs it is the source of.
    """
    m = f.order
    v_in = [q in vmap for q in range(m)]
    v_ok = [not f.vertex_null(q) for q in range(m)]
    arcs = {(vmap[i], vmap[j]) for (i, j), b in g.arcs.items()
            if not b.is_null and vmap[i] is not None and vmap[j] is not None}
    e_in = [False] * (m * (m - 1))
    e_ok = [False] * (m * (m - 1))
    for q in range(m):
        for r in range(m):
            if q != r:
                e_in[arc_index(q, r, m)] = (q, r) in arcs
                e_ok[arc_index(q, r, m)] = f.existable(q, r)

    def count(rel, inn, ok, kind):
        total = 0
        for a in range(len(inn)):
            for b in range(len(inn)):
                if a == b or not rel[a, b] or not ok[a]:
                    continue
                if kind == "O":
                    total += inn[a] and not inn[b]
                elif a < b and ok[b]:
                    total += (inn[a] and inn[b] if kind == "A"
                              else not inn[a] and not inn[b])
        return total

    return (count(f.Aw, v_in, v_ok, "A"), count(f.Ow, v_in, v_ok, "O"),
            count(f.Ew, v_in, v_ok, "E"), count(f.Ae, e_in, e_ok, "A"),
            count(f.Oe, e_in, e_ok, "O"), count(f.Ee, e_in, e_ok, "E"))


@pytest.mark.parametrize("k, name", enumerate(
    ["K3", "K5", "K7", "K4", "K6", "K8"]))
def test_second_order_cost_counts_violations_pair_by_pair(k, name):
    rng = np.random.default_rng(600 + k)
    w = CostWeights(**{kk: float(kk == name) for kk in
                       ("K3", "K4", "K5", "K6", "K7", "K8")})
    violated = 0
    for _ in range(150):
        # an FDG of several samples carries relations that can break
        n = int(rng.integers(2, 6))
        ags = [_random_ag(rng, max_order=n) for _ in range(rng.integers(2, 5))]
        maps = [list(rng.permutation(n))[:a.order] for a in ags]
        f = synth_from_labelled_ags(ags, CommonLabelling(maps, n))
        g = _random_ag(rng, max_order=5)
        slots = rng.permutation(n)
        vmap = [int(slots[i]) if i < n and rng.random() > 0.3 else None
                for i in range(g.order)]
        want = _pairwise_violations(g, f, vmap)[k]
        assert second_order_cost(g, f, vmap, w) == want
        violated += want > 0
    assert violated >= 5
