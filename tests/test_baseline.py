"""Edit distance and nearest-neighbour checks.

* identical graphs are at distance zero under the default costs
* a single worked substitution and the arc-dies-with-endpoint rule
* random pairs of order <= 4 agree with a brute-force enumeration of all
  injective partial maps, cost recomputed from scratch
* symmetry under symmetric cost settings
* the two thresholded substitution presets
* nearest-neighbour voting with its two-stage tie break; a k that is no
  integer >= 1 is refused, a numpy integer is taken
* negative substitution costs are refused instead of mis-pruned, and so
  are NaN substitution costs (also under a finite upper bound, where a
  default-cost pair may be cut before any substitution), NaN constant
  costs and a NaN upper bound
* property test of the upper bound on random AGs, costs (infinite
  insertion and deletion costs among them) and the planar flag: below the
  optimum (inf, None) comes back, above it the unbounded distance and
  labelling do, and the unbounded distance is the brute-force one; the
  same with the default substitutions, whose pairs a finite bound cuts at
  a root worked out without tables
* infinite insertion or deletion costs where nothing need be inserted or
  deleted, and references at infinite distance in the nearest-neighbour
  vote
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphproto import AttributedGraph, Labelling, attr
from graphproto.baseline import (
    EditCosts,
    abs_threshold,
    edit_distance,
    knn_classify,
    squared_threshold,
)
from graphproto.matching import _planar_ok


def _map_cost(g1, g2, vmap, c):
    """Cost of one complete map, written out directly."""
    cost = 0.0
    covered = set(q for q in vmap if q is not None)
    for i, q in enumerate(vmap):
        if q is None:
            cost += c.C_vd
        else:
            cost += c.vertex_sub(g1.vertices[i], g2.vertices[q])
    # one insertion at a time: C_vi may be inf, and 0 * inf is nan
    for q in range(g2.order):
        if q not in covered:
            cost += c.C_vi
    arcs1 = dict(g1.present_arcs())
    arcs2 = dict(g2.present_arcs())
    for (i, j), b in arcs1.items():
        if vmap[i] is None or vmap[j] is None:
            cost += c.C_ed
        elif (vmap[i], vmap[j]) in arcs2:
            cost += c.arc_sub(b, arcs2[(vmap[i], vmap[j])])
        else:
            cost += c.C_ed
    inv = {q: i for i, q in enumerate(vmap) if q is not None}
    for (j, r) in arcs2:
        if j not in inv or r not in inv or (inv[j], inv[r]) not in arcs1:
            cost += c.C_ei
    return cost


def _brute_edit(g1, g2, c, planar=False):
    n1, n2 = g1.order, g2.order
    best = math.inf
    for r in range(min(n1, n2) + 1):
        for kept in itertools.combinations(range(n1), r):
            for slots in itertools.permutations(range(n2), r):
                vmap = [None] * n1
                for v, q in zip(kept, slots):
                    vmap[v] = q
                if planar and not _planar_ok(g1, vmap):
                    continue
                best = min(best, _map_cost(g1, g2, vmap, c))
    return best


def _random_ag(rng, max_order=4):
    order = int(rng.integers(1, max_order + 1))
    vertices = [attr(int(rng.integers(0, 4))) for _ in range(order)]
    arcs = {}
    for i in range(order):
        for j in range(order):
            if i != j and rng.random() < 0.35:
                arcs[(i, j)] = attr(int(rng.integers(0, 4)))
    return AttributedGraph(vertices, arcs)


def test_identity_is_free():
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(10), (2, 1): attr(11)})
    d, lab = edit_distance(g, g)
    assert d == 0.0
    assert list(lab.vertex_map) == [0, 1, 2]


def test_single_substitution_beats_delete_insert():
    d, lab = edit_distance(AttributedGraph([attr(1)], {}),
                           AttributedGraph([attr(2)], {}))
    assert d == 1.0
    assert list(lab.vertex_map) == [0]


def test_arc_dies_with_its_endpoint():
    g1 = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    g2 = AttributedGraph([attr(1)], {})
    d, lab = edit_distance(g1, g2)
    assert d == 2.0
    assert list(lab.vertex_map) == [0, None]
    # the reverse direction pays the insertions instead
    d2, _ = edit_distance(g2, g1)
    assert d2 == 2.0


def test_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(30):
        g1 = _random_ag(rng)
        g2 = _random_ag(rng)
        if trial % 3 == 0:
            c = squared_threshold()
        else:
            c = EditCosts(C_vi=float(rng.uniform(0.5, 1.5)),
                          C_ei=float(rng.uniform(0.5, 1.5)),
                          C_vd=float(rng.uniform(0.5, 1.5)),
                          C_ed=float(rng.uniform(0.5, 1.5)))
        d, lab = edit_distance(g1, g2, c)
        assert d == pytest.approx(_brute_edit(g1, g2, c), abs=1e-12)
        assert d == pytest.approx(_map_cost(g1, g2, list(lab.vertex_map), c),
                                  abs=1e-12)


def test_symmetry_under_symmetric_costs():
    rng = np.random.default_rng(43)
    for _ in range(10):
        g1 = _random_ag(rng)
        g2 = _random_ag(rng)
        d12, _ = edit_distance(g1, g2)
        d21, _ = edit_distance(g2, g1)
        assert d12 == pytest.approx(d21, abs=1e-12)


def test_squared_threshold_preset():
    c = squared_threshold()
    one = lambda a, b: edit_distance(AttributedGraph([attr(a)], {}),
                                     AttributedGraph([attr(b)], {}), c)[0]
    assert one(0, 3) == 1.0
    assert one(0, 2) == 0.0
    # arc substitution uses the same threshold
    g1 = AttributedGraph([attr(0), attr(0)], {(0, 1): attr(0)})
    g2 = AttributedGraph([attr(0), attr(0)], {(0, 1): attr(5)})
    assert edit_distance(g1, g2, c)[0] == 1.0


def test_abs_threshold_preset():
    c = abs_threshold()
    one = lambda a, b: edit_distance(AttributedGraph([attr(a)], {}),
                                     AttributedGraph([attr(b)], {}), c)[0]
    assert one(0, 12) == 1.0
    assert one(0, 7) == 0.5
    assert one(0, 3) == 0.0


def test_planar_constraint_changes_the_map():
    # attrs force the crossing map; with the cyclic-order constraint on it
    # becomes infeasible and some edit cost must be paid
    g1 = AttributedGraph([attr(0), attr(1), attr(2), attr(3)],
                         {(0, 1): attr(9), (0, 2): attr(9), (0, 3): attr(9)},
                         arc_order={0: [1, 2, 3]})
    g2 = AttributedGraph([attr(0), attr(2), attr(1), attr(3)],
                         {(0, 1): attr(9), (0, 2): attr(9), (0, 3): attr(9)})
    free, lab = edit_distance(g1, g2)
    assert free == 0.0
    assert list(lab.vertex_map) == [0, 2, 1, 3]
    constrained, _ = edit_distance(g1, g2, planar=True)
    assert constrained > 0.0


def test_costs_must_be_non_negative():
    with pytest.raises(ValueError):
        EditCosts(C_vd=-1.0)


@pytest.mark.parametrize("name", ["C_vi", "C_ei", "C_vd", "C_ed"])
def test_costs_must_not_be_nan(name):
    with pytest.raises(ValueError, match=name):
        EditCosts(**{name: float("nan")})
    assert getattr(EditCosts(**{name: math.inf}), name) == math.inf


def test_knn_identical_reference():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(5)})
    other = AttributedGraph([attr(7), attr(8)], {})
    refs = [(other, 0), (g, 1), (other, 0)]
    assert knn_classify(g, refs, k=1) == 1


def test_knn_majority():
    target = AttributedGraph([attr(0)], {})
    near = AttributedGraph([attr(1)], {})
    far = AttributedGraph([attr(1), attr(2)], {})
    refs = [(target, 0), (near, 1), (far, 1)]
    assert knn_classify(target, refs, k=3) == 1


def test_knn_tie_breaks():
    # equidistant references, full neighbourhood: lowest class index
    a = AttributedGraph([attr(1)], {})
    test = AttributedGraph([attr(0)], {})
    assert knn_classify(test, [(a, 2), (a, 1), (a, 3)], k=3) == 1
    # one vote each: the nearer class wins
    exact = AttributedGraph([attr(0)], {})
    assert knn_classify(test, [(a, 5), (exact, 7)], k=2) == 7


def test_knn_validation():
    g = AttributedGraph([attr(1)], {})
    with pytest.raises(ValueError):
        knn_classify(g, [], k=1)
    with pytest.raises(ValueError):
        knn_classify(g, [(g, 0)], k=0)


@pytest.mark.parametrize("k", [1.5, 1.0, "1", None])
def test_knn_refuses_a_k_that_is_no_integer(k):
    # k=1.5 raised TypeError from slicing the ranked references
    g = AttributedGraph([attr(1)], {})
    with pytest.raises(ValueError, match="^k .* must be an integer >= 1$"):
        knn_classify(g, [(g, 0)], k=k)


def test_knn_takes_a_numpy_integer_k():
    g, h = AttributedGraph([attr(1)], {}), AttributedGraph([attr(9)], {})
    assert knn_classify(g, [(h, 1), (g, 0)], k=np.int64(1)) == 0


@pytest.mark.parametrize("graphs", ["vertices", "arcs"])
def test_negative_substitution_costs_are_refused(graphs):
    # pruning on the partial cost assumes no step lowers it: with these
    # costs the search used to return -3.0 where the optimum is -5.0
    minus_two = lambda a, b: abs(a.values[0] - b.values[0]) - 2.0
    if graphs == "vertices":
        g1 = AttributedGraph([attr(2), attr(3), attr(4)], {})
        g2 = AttributedGraph([attr(3), attr(3), attr(2)], {})
        c = EditCosts(vertex_sub=minus_two)
    else:
        g1 = AttributedGraph([attr(0), attr(0)], {(0, 1): attr(2)})
        g2 = AttributedGraph([attr(0), attr(0)], {(1, 0): attr(3)})
        c = EditCosts(arc_sub=minus_two)
    # a custom substitution gets no table-free root cut: a finite bound
    # still meets the check
    for u in (math.inf, 0.5):
        with pytest.raises(ValueError, match="non-negative"):
            edit_distance(g1, g2, c, upper_bound=u)


@pytest.mark.parametrize("graphs", ["vertices", "arcs"])
def test_nan_substitution_costs_are_refused(graphs):
    # a NaN step never reaches the incumbent, so the search used to return
    # the all-delete map as if it were the optimum
    nan = lambda a, b: math.nan
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    c = EditCosts(vertex_sub=nan) if graphs == "vertices" \
        else EditCosts(arc_sub=nan)
    for u in (math.inf, 0.5):
        with pytest.raises(ValueError, match="non-negative"):
            edit_distance(g, g, c, upper_bound=u)


def test_nan_upper_bound_is_refused():
    g = AttributedGraph([attr(1)], {})
    with pytest.raises(ValueError, match="NaN"):
        edit_distance(g, g, upper_bound=math.nan)


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _ag_pairs(draw):
    """Two AGs of orders up to four, within the brute force's reach."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _random_ag(rng), _random_ag(rng)


def _scaled(scale):
    return lambda a, b: scale * abs(a.values[0] - b.values[0])


_unit = st.floats(0.0, 2.0, allow_nan=False)
_constant = st.one_of(_unit, st.just(math.inf))
_edit_costs = st.builds(
    lambda ins, dels, vs, es: EditCosts(C_vi=ins[0], C_ei=ins[1],
                                        C_vd=dels[0], C_ed=dels[1],
                                        vertex_sub=_scaled(vs),
                                        arc_sub=_scaled(es)),
    st.tuples(_constant, _constant), st.tuples(_constant, _constant),
    _unit, _unit)


def _check_bounds(g1, g2, c, planar):
    """The unbounded distance is the brute force's; below it (inf, None)
    comes back, above it the unbounded distance and labelling do."""
    d, lab = edit_distance(g1, g2, c, planar=planar)
    assert d == pytest.approx(_brute_edit(g1, g2, c, planar), abs=1e-12)
    for u in (d - 1.0, math.nextafter(d, -math.inf), d,
              math.nextafter(d, math.inf), d + 10.0, math.inf):
        got, got_lab = edit_distance(g1, g2, c, planar=planar, upper_bound=u)
        if d < u:
            assert got == d
            assert isinstance(got_lab, Labelling)
            assert list(got_lab.vertex_map) == list(lab.vertex_map)
        else:
            assert got == math.inf
            assert got_lab is None


@_PROPERTY
@given(pair=_ag_pairs(), c=_edit_costs, planar=st.booleans())
def test_upper_bound_keeps_the_edit_optimum_below_it(pair, c, planar):
    _check_bounds(*pair, c, planar)


_default_costs = st.builds(
    lambda ins, dels: EditCosts(C_vi=ins[0], C_ei=ins[1], C_vd=dels[0],
                                C_ed=dels[1]),
    st.tuples(_constant, _constant), st.tuples(_constant, _constant))


@_PROPERTY
@given(pair=_ag_pairs(), c=_default_costs, planar=st.booleans())
def test_upper_bound_keeps_the_default_cost_optimum_below_it(pair, c,
                                                              planar):
    # _exact_mismatch substitutions on values from 0..3: a finite bound
    # meets the table-free root cut first
    _check_bounds(*pair, c, planar)


def test_infinite_costs_keep_the_optimum():
    # an empty surplus, or a vertex pair with no arc, must not be multiplied
    # by an infinite cost: 0 * inf is nan, and a nan cost cut every child
    one = AttributedGraph([attr(1)], {})
    two = AttributedGraph([attr(1), attr(2)], {})
    for name in ("C_ei", "C_vd"):
        assert edit_distance(one, one, EditCosts(**{name: math.inf})) == \
            (0.0, Labelling([0]))
    assert edit_distance(two, one, EditCosts(C_ed=math.inf)) == \
        (1.0, Labelling([0, None]))


def test_knn_ranks_references_at_infinite_distance():
    # with infinite insertions every larger reference is infinitely far,
    # and the vote still counts it
    c = EditCosts(C_vi=math.inf)
    test = AttributedGraph([attr(1)], {})
    far = AttributedGraph([attr(1), attr(2)], {})
    assert knn_classify(test, [(far, 1), (far, 0), (far, 1)], k=3,
                        costs=c) == 1
    assert knn_classify(test, [(far, 1), (test, 0), (far, 1)], k=1,
                        costs=c) == 0
