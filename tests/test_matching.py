"""Matching checks.

Covers:
  * the truncated-log cost normalisation at its anchor points
  * first-order vertex and arc costs for every case of the cost tables
  * labelling-space and search-node counts (frozen values plus recurrence)
  * hand-computed distances (self match, a self match whose arc rates
    cancel to just below zero, substitution, deletion with and without
    occurrence weight, restricted-mode invalidity)
  * labelling_cost, second_order_cost and check_constraints refuse a slot
    outside the prototype, -1 and m alike
  * cyclic arc-order (planar) constraint on explicit labellings
  * bnb against the exhaustive oracle on random pairs: distances bit-equal,
    counters match the closed forms when the bound is off
  * candidate masks and error handling, a NaN upper bound among it; on
    random masks (rows that allow no slot among them) the distance is the
    minimum over the labellings the mask allows
  * the root bound read off an FDG's root part, with no table built, is
    the float bnb's search first tests its root by (null slots, total-0
    arc pdfs, orders 0 and 1, each K changed, every mode)
  * the map-search tables bnb runs on: they price every labelling as
    labelling_cost does when no second-order term is left for the leaf,
    never above it otherwise, and their bound at the root stays at or
    below the optimum
  * property tests of the upper bound: below the optimum nothing comes back,
    above it the unbounded distance and labelling do; the greedy seed is
    never below the exhaustive optimum
  * second_order_cost, one weight at a time, against violations counted
    pair by pair from the FDG's relation matrices
  * an FDG matched against many AGs under two cache keys: the relation
    instances it caches count as the matrices do, restricted bnb equals the
    oracle, the instances are worked out once per key, and the relation
    matrices of a matched FDG can no longer be written
  * an FDG owns its relation matrices: matching it freezes its copies, and
    the arrays it was built from stay writable and do not reach it
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphproto.core import (
    _RELATIONS,
    PHI,
    AttributedGraph,
    CostWeights,
    Fdg,
    Labelling,
    Pdf,
    arc_index,
    attr,
    extend_fdg,
    slot_pairs,
)
from graphproto import search
from graphproto.matching import (
    MatchResult,
    _binned,
    _bnb_tables,
    _cheap_root,
    _CostTables,
    _greedy_cost,
    _relation_pairs,
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
from graphproto.harness import (GeneratorConfig, compact_ag, generate_models,
                                perturb)
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



def test_self_match_whose_arc_rates_cancel():
    # labelling_cost adds K2 per matched slot pair and takes it back per
    # present AG arc; at K2 = 0.3 that leaves -1.1e-16 for the perfect
    # match, below the table cost 0 of every child: the search must keep
    # them and return the oracle's float
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(1), (1, 2): attr(1), (2, 0): attr(1)})
    f = ag_to_fdg(g)
    for mode, planar in itertools.product(("relaxed", "restricted"),
                                          (False, True)):
        w = CostWeights(K2=0.3, mode=mode, planar=planar)
        want = exhaustive_oracle(g, f, w)
        got = bnb_distance(g, f, w)
        assert want.distance <= 0.0
        assert got.valid
        assert got.distance == want.distance
        assert got.labelling == Labelling([0, 1, 2])

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


@pytest.mark.parametrize("fn", [labelling_cost, second_order_cost,
                                check_constraints])
def test_slots_outside_the_prototype_are_refused(fn):
    # a negative slot used to alias a real one ([-1, 1] scored 3.0, valid)
    # and slot m raised IndexError
    g = _star(1, [2])
    f = ag_to_fdg(_star(1, [2, 3]))
    for slot in (-1, f.order):
        for vmap in ([slot, 1], [2, slot]):
            vertex = vmap.index(slot)
            with pytest.raises(ValueError, match="vertex %d: slot %d"
                               % (vertex, slot)):
                fn(g, f, vmap)
    fn(g, f, [2, None])


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
    # the oracle used to charge the padding vertex as a deletion and
    # report 1.0, where the compacted AG's distance is 0
    from graphproto.core import extend_ag
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    f = ag_to_fdg(g)
    assert exhaustive_oracle(g, f).distance == 0.0
    x = extend_ag(g, 3)
    for cost in (lambda: bnb_distance(x, f),
                 lambda: exhaustive_oracle(x, f),
                 lambda: labelling_cost(x, f, [0, 1, None]),
                 lambda: second_order_cost(x, f, [0, 1, None]),
                 lambda: check_constraints(x, f, [0, 1, None])):
        with pytest.raises(ValueError, match="non-extended"):
            cost()


def test_match_result_repr():
    r = MatchResult(1.5, Labelling([0]), 7, True, 3)
    assert "1.5" in repr(r)
    assert "leaves=3" in repr(r)


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


def test_nan_upper_bound_is_refused():
    # a NaN bound used to come back as an invalid result, read as "no
    # labelling below the bound"
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    with pytest.raises(ValueError, match="NaN"):
        bnb_distance(g, ag_to_fdg(g), upper_bound=math.nan)


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


def _related_fdg(rng):
    """An FDG with a null slot, an arc slot between two present slots that
    is not existable, and instances of all six relations that a labelling
    can break."""
    for _ in range(500):
        n = int(rng.integers(3, 5))
        ags = [_random_ag(rng, max_order=n) for _ in range(rng.integers(2, 6))]
        maps = [list(rng.permutation(n))[:a.order] for a in ags]
        f = extend_fdg(synth_from_labelled_ags(ags, CommonLabelling(maps, n)),
                       n + 1)
        present = [not (f.vertex_null(q) or f.vertex_null(r))
                   for q in range(f.order) for r in range(f.order) if q != r]
        if (set(_relation_pairs(f)[2].tolist()) == set(range(6))
                and (f.anull & present).any()):
            return f
    raise AssertionError("no FDG with every relation found")


def _antagonistic_arcs(f):
    """An AG and a labelling of it into f that realize the first pair of
    antagonistic arc slots an instance names."""
    rel = _relation_pairs(f)
    ends = [slot_pairs(f.order)[s]
            for s in rel[:2, rel[2] == 3][:, 0] - 2 * f.order]
    slots = sorted({q for pair in ends for q in pair})
    arcs = {(slots.index(q), slots.index(r)): attr(0) for q, r in ends}
    return AttributedGraph([attr(0)] * len(slots), arcs), slots


def test_warm_relation_instances_count_as_the_matrices_do(relation_builds):
    rng = np.random.default_rng(707)
    f = _related_fdg(rng)
    assert f.vnull.any()
    names = ("K3", "K5", "K7", "K4", "K6", "K8")
    broken = [0] * 6
    # K1 alone moves the cache key, so the second pass refills the cache
    for key, k1 in enumerate((1.0, 0.7)):
        for t in range(20):
            g = _random_ag(rng, max_order=4)
            slots = rng.permutation(f.order)
            vmap = [int(slots[i]) if rng.random() > 0.2 else None
                    for i in range(g.order)]
            if t == 0:
                # random labellings seldom realize two antagonistic arc
                # slots, so the first AG is built to
                g, vmap = _antagonistic_arcs(f)
            want = _pairwise_violations(g, f, vmap)
            for k, name in enumerate(names):
                w = CostWeights(K1=k1, **{kk: float(kk == name)
                                          for kk in names})
                assert second_order_cost(g, f, vmap, w) == want[k]
                broken[k] += want[k] > 0
            w = CostWeights(K1=k1, mode="restricted")
            got, oracle = bnb_distance(g, f, w), exhaustive_oracle(g, f, w)
            assert (got.distance, got.valid) == (oracle.distance,
                                                 oracle.valid)
        assert len(relation_builds) == key + 1
    assert min(broken) > 0, broken
    for name in _RELATIONS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[0, 0] = True


def test_matching_freezes_the_fdgs_relations_and_not_the_callers():
    rng = np.random.default_rng(708)
    f = _related_fdg(rng)
    relations = {name: getattr(f, name).copy() for name in _RELATIONS}
    g = Fdg(f.vbins, f.abins, relations, f.z, None)
    ag, _ = _antagonistic_arcs(g)
    before = bnb_distance(ag, g, CostWeights(K4=1.0))
    for name in _RELATIONS:
        assert not getattr(g, name).flags.writeable
        mat = relations[name]
        mat[0, 0] = not mat[0, 0]
        assert getattr(g, name)[0, 0] != mat[0, 0]
    # the flipped caller arrays leave the matched FDG as it was
    again = bnb_distance(ag, g, CostWeights(K4=1.0))
    assert (again.distance, again.labelling) == (before.distance,
                                                 before.labelling)


def _labellings(n, m, rows=None):
    """Every labelling of n vertices into m slots whose real targets lie in
    rows[i] (all slots by default)."""
    options = [[None] + list(range(m) if rows is None else rows[i])
               for i in range(n)]
    for vmap in itertools.product(*options):
        real = [q for q in vmap if q is not None]
        if len(real) == len(set(real)):
            yield list(vmap)


def _table_cost(tables, vmap):
    """A complete map's cost under _map_search's tables, term by term as
    its docstring defines them."""
    vs, v_del, v_ins, arc, a_del, _, a_ins = tables
    used = set(vmap)
    cost = sum(v_del[p] if q is None else vs[p][q] for p, q in enumerate(vmap))
    cost += sum(c for q, c in enumerate(v_ins) if q not in used)
    cost += sum(c for (i, j), c in a_del.items()
                if vmap[i] is None or vmap[j] is None)
    cost += sum(c for (q, r), c in a_ins.items()
                if q not in used or r not in used)
    arc = arc()
    return cost + sum(arc[p][s][vmap[p]][vmap[s]]
                      for p in range(len(vmap)) for s in range(p)
                      if vmap[p] is not None and vmap[s] is not None)


def _root_bound(tables):
    """What _map_search's bound says the root owes: each vertex its cheapest
    option, each arc its floor, and a surplus of vertices or arcs on either
    side the cheapest deletion or insertion."""
    vs, v_del, v_ins, _, a_del, a_floor, a_ins = tables
    n1, n2 = len(v_del), len(v_ins)
    vertices = sum(min([v_del[p]] + vs[p][:n2]) for p in range(n1))
    if n2 > n1:
        vertices += (n2 - n1) * min(v_ins)
    elif n1 > n2:
        vertices = max(vertices, (n1 - n2) * min(v_del))
    arcs, gap = sum(a_floor.values()), len(a_del) - len(a_ins)
    if gap > 0:
        arcs = max(arcs, gap * min(a_del.values()))
    elif gap < 0:
        arcs -= gap * min(a_ins.values())
    return vertices + arcs


@st.composite
def _sparse_pairs(draw):
    """An AG and an FDG of orders up to four whose samples each miss a
    slot, so that about half of the FDGs hold antagonistic vertex slots."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(2, 5))
    ags = [_random_ag(rng, max_order=n - 1)
           for _ in range(rng.integers(2, 4))]
    maps = [list(rng.permutation(n))[:a.order] for a in ags]
    f = synth_from_labelled_ags(ags, CommonLabelling(maps, n))
    return _random_ag(rng), f


@pytest.mark.parametrize("leaf_terms", [False, True])
@_PROPERTY
@given(pair=_sparse_pairs(), mode=st.sampled_from(["relaxed", "restricted"]),
       k2=st.sampled_from([0.5, 1.0, 2.0]),
       k3=st.sampled_from([0.0, 1.0, 2.5]),
       leaf=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=5,
                     max_size=5))
def test_search_tables_price_labellings_and_bound_the_optimum(
        leaf_terms, pair, mode, k2, k3, leaf):
    # K4..K8 have no table form: with them off, relaxed-mode tables price
    # every labelling in full; with them on, never above its cost
    g, f = pair
    k4, k5, k6, k7, k8 = leaf if leaf_terms else [0.0] * 5
    w = CostWeights(K2=k2, K3=k3, K4=k4, K5=k5, K6=k6, K7=k7, K8=k8,
                    mode=mode)
    t = _CostTables(g, f, w)
    tables = _bnb_tables(t)
    for vmap in _labellings(g.order, f.order):
        want, ok = labelling_cost(g, f, vmap, w, _tables=t)
        got = _table_cost(tables, vmap)
        if (mode == "relaxed" and not leaf_terms) or \
                (mode == "restricted" and ok):
            assert abs(got - want) <= 1e-12
        else:
            assert got <= want + 1e-12
    assert _root_bound(tables) <= exhaustive_oracle(g, f, w).distance + 1e-12


def test_cheap_root_is_the_search_root(monkeypatch):
    # the root bound read off the FDG's root part is the very float
    # bnb_distance's search first tests its root by, with no table built
    bound = search._bound
    tested = []

    def spy(*args):
        owed = bound(*args)

        def first(*at):
            tested.append(owed(*at))
            return tested[-1]

        return first

    monkeypatch.setattr(search, "_bound", spy)
    rng = np.random.default_rng(2030)
    empty = synth_from_labelled_ags([AttributedGraph([], {})],
                                    CommonLabelling.identity([0]))
    seen = dict.fromkeys(("AG order 0", "AG order 1", "FDG order 0",
                          "FDG order 1", "null slot", "total 0",
                          "restricted", "planar"), 0)
    for trial in range(240):
        g = _random_ag(rng) if trial % 8 else AttributedGraph(
            [attr(int(rng.integers(0, 4)))] * (trial % 16 // 8), {})
        f = (empty, extend_fdg(empty, 1))[trial % 2] if trial % 20 < 2 \
            else _random_fdg(rng)
        if trial % 3 == 0:
            f = extend_fdg(f, f.order + int(rng.integers(1, 3)))
        w = CostWeights(K1=float(rng.choice([1.0, 0.6, 2.5])),
                        K2=float(rng.choice([1.0, 0.3, 1.7])),
                        K_pr=float(rng.choice([1e-4, 0.02])),
                        K3=float(rng.choice([0.0, 1.0])),
                        mode=("relaxed", "restricted")[trial % 2],
                        planar=trial % 5 == 0)
        fresh = Fdg(f.vbins, f.abins, f.relations(), f.z, None)
        cheap = _cheap_root(_binned(g, f.bin_width), fresh, w)
        assert fresh._costs[2] is None
        del tested[:]
        bnb_distance(g, fresh, w)
        assert tested[0] == cheap
        assert cheap == pytest.approx(
            _root_bound(_bnb_tables(_CostTables(g, f, w))), abs=1e-12)
        seen["AG order 0"] += g.order == 0
        seen["AG order 1"] += g.order == 1
        seen["FDG order 0"] += f.order == 0
        seen["FDG order 1"] += f.order == 1
        seen["null slot"] += bool(f.vnull.any())
        seen["total 0"] += any(
            p.total == 0 and not (f.vertex_null(q) or f.vertex_null(r))
            for (q, r), p in f.arc_pdfs.items())
        seen["restricted"] += w.mode == "restricted"
        seen["planar"] += w.planar
    assert min(seen.values()) >= 5, seen
    # at benchmark size (order 14, about 40 arcs) the floors' sum would
    # round differently if taken in another order; at a bound of 0 the
    # search on the pair's tables ends at its root
    models = generate_models(GeneratorConfig(nFDG=2, nv=14, ne=42, seed=7))
    for k, model in enumerate(models):
        refs = [perturb(model, "delete_distort", 10 * k + r, nd=2, nl=1)
                for r in range(6)]
        f = synth_from_labelled_ags(
            refs, CommonLabelling.identity([g.order for g in refs]))
        for trial in range(12):
            g = compact_ag(perturb(models[trial % 2], "delete_distort",
                                   100 + trial, nd=2, nl=1))
            w = (CostWeights(), CostWeights(K1=0.6, K2=1.7, K_pr=0.02),
                 CostWeights(K2=0.3, mode="restricted"))[trial % 3]
            del tested[:]
            search._map_search(*_bnb_tables(_CostTables(g, f, w)), 0.0)
            assert tested[0] == _cheap_root(_binned(g, f.bin_width), f, w)


@_PROPERTY
@given(pair=_pairs(), w=_weights, seed=st.integers(0, 2 ** 32 - 1))
def test_random_mask_keeps_the_best_labelling_it_allows(pair, w, seed):
    g, f = pair
    rng = np.random.default_rng(seed)
    mask = rng.random((g.order, f.order)) < rng.uniform(0.2, 0.9)
    mask[rng.random(g.order) < 0.3] = False
    rows = [np.flatnonzero(row).tolist() for row in mask]
    t = _CostTables(g, f, w)
    best = math.inf
    for vmap in _labellings(g.order, f.order, rows):
        cost, ok = labelling_cost(g, f, vmap, w, _tables=t)
        if ok:
            best = min(best, cost)
    got = bnb_distance(g, f, w, allowed=mask)
    assert got.valid == (best < math.inf)
    assert got.distance == best
    if got.valid:
        assert all(q is None or mask[i, q]
                   for i, q in enumerate(got.labelling.vertex_map))
