"""Edit distance between two AGs and a nearest-neighbour classifier on it.

The distance is the cheapest way to turn one graph into the other with six
operations: insert, delete or substitute a vertex or an arc.  A configuration
is an injective partial map of the first graph's vertices onto the second's;
unmatched first-graph elements are deleted, uncovered second-graph elements
are inserted, matched pairs pay their substitution cost, and an arc whose
endpoint dies dies with it.  Insertion and deletion costs are constants, the
substitution costs are pluggable functions of the two attribute tuples.

The search is the same depth-first scheme as the FDG matcher: vertices of the
first graph are placed in index order on unused second-graph vertices in
ascending order and then on nothing, and the first map of least cost met is
kept.  Every cost it reads comes from plain tables built once per pair:
vertex substitutions, the two arcs between each pair of first-graph vertices
against the two arcs between each pair of second-graph vertices, and the
arcs that die with a deleted vertex.  The incumbent starts at the caller's
upper bound, and a child is cut when its cost plus a lower bound on what is
still owed reaches it.  The bound charges each unplaced first-graph vertex
and each arc among them its cheapest substitution or deletion, and the
surplus of free second-graph vertices and of arcs among them on either side,
counted as the search goes.  Both cuts assume that no step lowers the cost,
so a negative substitution cost is refused.  The optional planar flag
applies the cyclic-order constraint on outgoing arcs, as in the matcher.
"""

import math

from .core import Labelling
from .matching import _planar_ok


# A child's cost plus its lower bound is scaled by this before it meets the
# incumbent: the two are float sums taken in different orders, and without
# the margin a rounding could cut a labelling cheaper than the incumbent.
_SLACK = 1.0 - 1e-9


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
            if value < 0:
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
    ValueError when a vertex or arc substitution costs less than nothing.
    """
    c = costs or EditCosts()
    C_vi, C_ei, C_vd, C_ed = c.C_vi, c.C_ei, c.C_vd, c.C_ed
    n1, n2 = g1.order, g2.order
    vs = [[c.vertex_sub(a, b) for b in g2.vertices] for a in g1.vertices]
    arcs1 = dict(g1.present_arcs())
    arcs2 = dict(g2.present_arcs())
    subs = {(e1, e2): c.arc_sub(b1, b2)
            for e1, b1 in arcs1.items() for e2, b2 in arcs2.items()}
    if any(x < 0 for row in vs for x in row) or \
            any(x < 0 for x in subs.values()):
        raise ValueError("substitution costs must be non-negative")

    def one(e1, q, r):
        # g1 arc e1 (None when absent) against the ordered g2 pair (q, r)
        if (q, r) in arcs2:
            return C_ei if e1 is None else subs[e1, (q, r)]
        return 0.0 if e1 is None else C_ed

    # arc[p][s][q][r], s < p: both arcs between g1 vertices p and s against
    # both arcs between q and r; dels[p][s]: both deleted
    inserts_only = [[one(None, q, r) + one(None, r, q) for r in range(n2)]
                    for q in range(n2)]
    arc = [[None] * p for p in range(n1)]
    dels = [[None] * p for p in range(n1)]
    for p in range(n1):
        for s in range(p):
            ps = (p, s) if (p, s) in arcs1 else None
            sp = (s, p) if (s, p) in arcs1 else None
            dels[p][s] = sum(C_ed for e in (ps, sp) if e is not None)
            arc[p][s] = inserts_only if ps is None and sp is None else \
                [[one(ps, q, r) + one(sp, r, q) for r in range(n2)]
                 for q in range(n2)]

    # Lower bound, by depth p, on what g1 vertices p.. and the free g2
    # vertices still owe: each such g1 vertex and each g1 arc among them pays
    # at least its cheapest substitution or deletion (v_floor, a_floor), and
    # a surplus of vertices, or of arcs among them (a1 against the a2 that
    # walk keeps), on either side is deleted or inserted.  outs/ins hold each
    # g2 vertex's arc partners as bit masks.
    v_min = [min([C_vd] + row) for row in vs]
    a_min = {e1: min([C_ed] + [subs[e1, e2] for e2 in arcs2])
             for e1 in arcs1}
    inner = [[e1 for e1 in arcs1 if min(e1) >= p] for p in range(n1 + 1)]
    a1 = [len(es) for es in inner]
    a_floor = [sum(a_min[e1] for e1 in es) for es in inner]
    v_floor = [sum(v_min[p:]) for p in range(n1 + 1)]
    outs = [0] * n2
    ins = [0] * n2
    for j, r in arcs2:
        outs[j] |= 1 << r
        ins[r] |= 1 << j
    best_cost = upper_bound
    best_map = None
    vmap = [None] * n1

    def walk(p, g, free, a2):
        nonlocal best_cost, best_map
        if p == n1:
            extra = 0.0
            for q in range(n2):
                if (free >> q) & 1:
                    extra += C_vi
            for j, r in arcs2:
                if (free >> j) & 1 or (free >> r) & 1:
                    extra += C_ei
            if g + extra < best_cost:
                best_cost = g + extra
                best_map = Labelling(list(vmap))
            return
        vs_p, arc_p, dels_p = vs[p], arc[p], dels[p]
        a1_rest, left = a1[p + 1], n1 - p - 1
        a_low, v_low = a_floor[p + 1], v_floor[p + 1]
        for q in [q for q in range(n2) if (free >> q) & 1] + [None]:
            vmap[p] = q
            if q is None:
                step = C_vd
                for s in range(p):
                    step += dels_p[s]
                rest, a2_rest = free, a2
            else:
                if planar:
                    sources = [p] + [s for s in range(p) if (s, p) in arcs1]
                    if not _planar_ok(g1, vmap[:p + 1], sources):
                        continue
                step = vs_p[q]
                for s in range(p):
                    r = vmap[s]
                    step += dels_p[s] if r is None else arc_p[s][q][r]
                rest = free & ~(1 << q)
                a2_rest = a2 - (outs[q] & rest).bit_count() \
                    - (ins[q] & rest).bit_count()
            child = g + step
            if child >= best_cost:
                continue
            # a zero gap is skipped, not multiplied: 0 * inf is nan
            h, gap = a_low, a1_rest - a2_rest
            if gap > 0:
                h = max(gap * C_ed, h)
            elif gap < 0:
                h -= gap * C_ei
            v_h, gap = v_low, rest.bit_count() - left
            if gap > 0:
                v_h += gap * C_vi
            elif gap < 0:
                v_h = max(-gap * C_vd, v_h)
            h += v_h
            if (child + h) * _SLACK < best_cost:
                walk(p + 1, child, rest, a2_rest)
        vmap[p] = None

    walk(0, 0.0, (1 << n2) - 1, len(arcs2))
    if best_map is None:
        return math.inf, None
    return best_cost, best_map


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
