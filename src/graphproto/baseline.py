"""Edit distance between two AGs and a nearest-neighbour classifier on it.

The distance is the cheapest way to turn one graph into the other with six
operations: insert, delete or substitute a vertex or an arc.  A configuration
is an injective partial map of the first graph's vertices onto the second's;
unmatched first-graph elements are deleted, uncovered second-graph elements
are inserted, matched pairs pay their substitution cost, and an arc whose
endpoint dies dies with it.  Insertion and deletion costs are constants, the
substitution costs are pluggable functions of the two attribute tuples.  The
optional planar flag applies the matcher's cyclic-order constraint.

edit_distance builds cost tables once per pair, and search._map_search, the
bounded depth-first search bnb_distance and forg_distance run on too, finds
the cheapest map on them.  Its lower bound charges every vertex not yet
mapped and every arc not yet paid for, so a pair that cannot come within
the caller's upper_bound is refused at the root, before its arc tables are
built.
"""

import math

from .search import _map_search, _planar_vet


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
        self.C_vi = float(C_vi)
        self.C_ei = float(C_ei)
        self.C_vd = float(C_vd)
        self.C_ed = float(C_ed)
        self.vertex_sub = vertex_sub or _exact_mismatch
        self.arc_sub = arc_sub or _exact_mismatch


def squared_threshold(k_a=4.0, k_b=4.0):
    """Unit insertions and deletions; a substitution costs one unit when the
    squared difference of the first attribute components exceeds the noise
    threshold (k_a for vertices, k_b for arcs) and nothing otherwise."""

    def vs(a, b):
        return 1.0 if (a.values[0] - b.values[0]) ** 2 > k_a else 0.0

    def es(a, b):
        return 1.0 if (a.values[0] - b.values[0]) ** 2 > k_b else 0.0

    return EditCosts(vertex_sub=vs, arc_sub=es)


def abs_threshold():
    """Unit insertions and deletions; a substitution costs one unit above an
    absolute first-component difference of 10, half a unit from 5 to 10 and
    nothing below 5."""

    def sub(a, b):
        d = abs(a.values[0] - b.values[0])
        if d > 10:
            return 1.0
        if d >= 5:
            return 0.5
        return 0.0

    return EditCosts(vertex_sub=sub, arc_sub=sub)


def edit_distance(g1, g2, costs=None, planar=False, upper_bound=math.inf):
    """Minimum edit cost from g1 to g2 and the vertex map achieving it.

    Returns (cost, Labelling); the labelling sends each g1 vertex to a g2
    vertex index or to None for a deletion.  The result is the optimum when
    it lies strictly below upper_bound, and (inf, None) otherwise.  Raises
    ValueError when a vertex or arc substitution costs less than nothing or
    is NaN, and when upper_bound is NaN.
    """
    c = costs or EditCosts()
    C_ei, C_ed = c.C_ei, c.C_ed
    n1, n2 = g1.order, g2.order
    vs = [[c.vertex_sub(a, b) for b in g2.vertices] for a in g1.vertices]
    arcs1 = dict(g1.present_arcs())
    arcs2 = dict(g2.present_arcs())
    subs = {(e1, e2): c.arc_sub(b1, b2)
            for e1, b1 in arcs1.items() for e2, b2 in arcs2.items()}
    if any(not x >= 0 for row in vs for x in row) or \
            any(not x >= 0 for x in subs.values()):
        raise ValueError("substitution costs must be non-negative")

    def one(e1, q, r):
        # g1 arc e1 (None when absent) against the ordered g2 pair (q, r)
        if (q, r) in arcs2:
            return C_ei if e1 is None else subs[e1, (q, r)]
        return 0.0 if e1 is None else C_ed

    def arc():
        # arc[p][s][q][r], s < p: both arcs between g1 vertices p and s
        # against both arcs between q and r
        inserts_only = [[one(None, q, r) + one(None, r, q) for r in range(n2)]
                        for q in range(n2)]
        tables = [[None] * p for p in range(n1)]
        for p in range(n1):
            for s in range(p):
                ps = (p, s) if (p, s) in arcs1 else None
                sp = (s, p) if (s, p) in arcs1 else None
                tables[p][s] = inserts_only if ps is None and sp is None \
                    else [[one(ps, q, r) + one(sp, r, q) for r in range(n2)]
                          for q in range(n2)]
        return tables

    a_floor = {e1: min([C_ed] + [subs[e1, e2] for e2 in arcs2])
               for e1 in arcs1}

    res = _map_search(vs, [c.C_vd] * n1, [c.C_vi] * n2, arc,
                      dict.fromkeys(arcs1, C_ed), a_floor,
                      dict.fromkeys(arcs2, C_ei), upper_bound,
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
    if k < 1:
        raise ValueError("k must be at least 1")
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
