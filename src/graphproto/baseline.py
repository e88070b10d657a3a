"""Edit distance between two AGs and a nearest-neighbour classifier on it.

The distance is the cheapest way to turn one graph into the other with six
operations: insert, delete or substitute a vertex or an arc.  A configuration
is an injective partial map of the first graph's vertices onto the second's;
unmatched first-graph elements are deleted, uncovered second-graph elements
are inserted, matched pairs pay their substitution cost, and an arc whose
endpoint dies dies with it.  Insertion and deletion costs are constants, the
substitution costs are pluggable functions of the two attribute tuples.  The
optional planar flag applies the matcher's cyclic-order constraint.

With the default substitutions, edit_distance first works out the root
bound of search._map_search, the bounded search bnb_distance and
forg_distance run on too, from set lookups, and refuses a pair that cannot
come within the caller's upper_bound before any substitution or table.
Any other pair gets its cost tables, and the search the cheapest map on
them.
"""

import math

import numpy as np

from .core import _check_count
from .search import (_SLACK, _arc_floors, _bound, _map_search, _pair_tables,
                     _planar_vet)


def _exact_mismatch(a, b):
    return 0.0 if a.values == b.values else 1.0


class EditCosts:
    """Constant insertion/deletion costs plus substitution cost functions.

    vertex_sub and arc_sub take the two attribute tuples and return a cost;
    the default charges one unit unless the values are equal.
    """

    __slots__ = ("C_vi", "C_ei", "C_vd", "C_ed", "vertex_sub", "arc_sub")

    def __init__(self, C_vi=1.0, C_ei=1.0, C_vd=1.0, C_ed=1.0,
                 vertex_sub=None, arc_sub=None):
        for name, value in (("C_vi", C_vi), ("C_ei", C_ei),
                            ("C_vd", C_vd), ("C_ed", C_ed)):
            if not value >= 0:
                raise ValueError("%s must be non-negative" % name)
        self.C_vi, self.C_ei, self.C_vd, self.C_ed = map(
            float, (C_vi, C_ei, C_vd, C_ed))
        self.vertex_sub = vertex_sub or _exact_mismatch
        self.arc_sub = arc_sub or _exact_mismatch


def squared_threshold(k_a=4.0, k_b=4.0):
    """Unit insertions and deletions; a substitution costs one unit when the
    squared difference of the first attribute components exceeds the noise
    threshold (k_a for vertices, k_b for arcs) and nothing otherwise."""

    def over(k):
        return lambda a, b: float((a.values[0] - b.values[0]) ** 2 > k)

    return EditCosts(vertex_sub=over(k_a), arc_sub=over(k_b))


def abs_threshold():
    """Unit insertions and deletions; a substitution costs one unit above an
    absolute first-component difference of 10, half a unit from 5 to 10 and
    nothing below 5."""

    def sub(a, b):
        d = abs(a.values[0] - b.values[0])
        return 1.0 if d > 10 else 0.5 if d >= 5 else 0.0

    return EditCosts(vertex_sub=sub, arc_sub=sub)


def _cheap_root(g1, g2, c):
    """_map_search's root bound on edit_distance's tables, or None unless
    both substitutions are _exact_mismatch: a vertex's cheapest option (an
    arc's floor) is its deletion or 0 or 1, as its values occur in g2's."""
    if not c.vertex_sub is c.arc_sub is _exact_mismatch:
        return None

    def floor(cost, values, pool):
        return min(cost, 0.0 if values in pool else 1.0) if pool else cost

    n1, n2 = g1.order, g2.order
    arcs1, arcs2 = g1.present_arcs(), g2.present_arcs()
    arc_values = {b.values for _, b in arcs2}
    a_floor = {ij: floor(c.C_ed, b.values, arc_values) for ij, b in arcs1}
    values = {a.values for a in g2.vertices}
    v_floor = sum(floor(c.C_vd, a.values, values) for a in g1.vertices)
    owed = _bound(n1, *_arc_floors(n1, a_floor), [0], [0.0], [v_floor],
                  (c.C_vd if n1 else 0.0, c.C_vi if n2 else 0.0,
                   c.C_ed if arcs1 else 0.0, c.C_ei if arcs2 else 0.0))
    return owed(0, (1 << n2) - 1, len(arcs2), 0)


def edit_distance(g1, g2, costs=None, planar=False, upper_bound=math.inf):
    """Minimum edit cost from g1 to g2 and the vertex map achieving it.

    Returns (cost, Labelling); the labelling sends each g1 vertex to a g2
    vertex index or to None for a deletion.  The result is the optimum when
    it lies strictly below upper_bound, and (inf, None) otherwise.  Raises
    ValueError when upper_bound is NaN, and when a vertex or arc
    substitution costs less than nothing or is NaN.

    A pair cut at the root bound (_cheap_root) calls no substitution;
    rates[a][q, r] is what g1's a-th arc (0: none) pays on g2's (q, r).
    """
    c = costs or EditCosts()
    if math.isnan(upper_bound):
        raise ValueError("upper_bound must not be NaN")
    if upper_bound < math.inf:
        root = _cheap_root(g1, g2, c)
        if root is not None and root * _SLACK >= upper_bound:
            return math.inf, None
    n1, n2 = g1.order, g2.order
    vs = [[c.vertex_sub(a, b) for b in g2.vertices] for a in g1.vertices]
    arcs1, arcs2 = dict(g1.present_arcs()), dict(g2.present_arcs())
    q, r = np.reshape(np.array(list(arcs2), dtype=int), (-1, 2)).T
    rates = np.full((len(arcs1) + 1, n2, n2), c.C_ed)
    rates[0] = 0.0
    rates[0, q, r] = c.C_ei
    rates[1:, q, r] = np.reshape(
        [[c.arc_sub(a, b) for b in arcs2.values()] for a in arcs1.values()],
        (len(arcs1), len(arcs2)))
    if any(not x >= 0 for row in vs for x in row) or not (rates >= 0).all():
        raise ValueError("substitution costs must be non-negative")
    arc_id = np.zeros((n1, n1), dtype=int)
    for a, ij in enumerate(arcs1, 1):
        arc_id[ij] = a
    res = _map_search(vs, [c.C_vd] * n1, [c.C_vi] * n2,
                      lambda: _pair_tables(rates, arc_id),
                      dict.fromkeys(arcs1, c.C_ed),
                      dict(zip(arcs1, rates[1:].min(
                          axis=(1, 2), initial=c.C_ed).tolist())),
                      dict.fromkeys(arcs2, c.C_ei), upper_bound,
                      _planar_vet(g1) if planar else None)
    return res.distance, res.labelling


def knn_classify(test, refs, k=5, costs=None, planar=False):
    """Majority class among the k references nearest to `test`.

    refs is a sequence of (AttributedGraph, class label) pairs.  A voting tie
    goes to the class with the smaller mean distance inside the neighbourhood
    and then to the lower class index.
    """
    if not refs:
        raise ValueError("refs must be non-empty")
    _check_count(k, "k", 1)
    scored = []
    for idx, (g, label) in enumerate(refs):
        d, _ = edit_distance(test, g, costs, planar=planar)
        scored.append((d, idx, label))
    scored.sort(key=lambda t: (t[0], t[1]))
    votes = {}
    for d, _, label in scored[:k]:
        votes.setdefault(label, []).append(d)
    most = max(len(v) for v in votes.values())
    tied = [label for label, v in votes.items() if len(v) == most]
    return min(tied, key=lambda label: (sum(votes[label]) / len(votes[label]),
                                        label))
