"""The one bounded search behind every exact distance.

_map_search finds the cheapest injective partial map of one graph's vertices
into another's on cost tables its caller builds: bnb_distance (AG to FDG),
edit_distance (AG to AG) and forg_distance (FORG to FORG) all run on it.
It tests its root bound once, before the arc tables are built; the AG
searches test it first, before any table (_cheap_root), assemble their arc
tables by _pair_tables and can impose the cyclic arc order (_planar_ok).
"""

import itertools
import math

import numpy as np

from .core import Labelling


# A child's cost plus its lower bound is scaled by this before it meets the
# incumbent: the two are float sums taken in different orders, and without
# the margin a rounding could cut a labelling cheaper than the incumbent.
_SLACK = 1.0 - 1e-9
# With a score hook the incumbent is a leaf score, a sum taken in another
# order than the tables', and it can round below zero (a perfect match
# whose arc rates cancel), where scaling by _SLACK leaves no margin: every
# cut then also keeps this much above the incumbent.
_MARGIN = 1e-9


class MatchResult:
    """Outcome of a matching run: explored_nodes counts the search's calls
    on partial maps (the root and the leaves included), leaves the complete
    maps among them.  A search whose root bound already reaches its upper
    bound counts one walk and no leaf."""

    __slots__ = ("distance", "labelling", "explored_nodes", "valid", "leaves")

    def __init__(self, distance, labelling, explored_nodes, valid, leaves=None):
        self.distance = distance
        self.labelling = labelling
        self.explored_nodes = explored_nodes
        self.valid = valid
        self.leaves = leaves

    def __repr__(self):
        return "MatchResult(%s)" % ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__)


def _planar_ok(g, vmap, sources=None):
    """Cyclic-order constraint: for each source vertex, the slot indices of
    its real-mapped outgoing arcs must increase cyclically."""
    if sources is None:
        sources = range(g.order)
    for i in sources:
        if vmap[i] is None:
            continue
        seq = [vmap[j] for j in g.out_targets(i)
               if j < len(vmap) and vmap[j] is not None]
        for x, y, z in itertools.combinations(range(len(seq)), 3):
            a, b, c = seq[x], seq[y], seq[z]
            if not (a < b < c or (c < a and (a < b or b < c))):
                return False
    return True


def _planar_vet(g):
    """_map_search's vet for the cyclic-order constraint on g: placing p
    can only break the order at p and at the placed sources of arcs into
    p."""
    present = {ij for ij, _ in g.present_arcs()}
    sources = [[p] + [s for s in range(p) if (s, p) in present]
               for p in range(g.order)]

    def vet(vmap, p):
        return _planar_ok(g, vmap[:p + 1], sources[p])

    return vet


def _arc_floors(n1, a_floor):
    """a1[p] and e_floor[p]: the count and floor sum of the arcs (keys of
    a_floor) whose earlier endpoint is p or above."""
    a1 = [0] * (n1 + 1)
    e_floor = [0.0] * (n1 + 1)
    for (i, j), floor in a_floor.items():
        s = min(i, j)
        a1[s] += 1
        e_floor[s] += floor
    for p in range(n1 - 1, -1, -1):
        a1[p] += a1[p + 1]
        e_floor[p] += e_floor[p + 1]
    return a1, e_floor


def _bound(n1, a1, e_floor, x1, x_floor, v_floor, costs):
    """_map_search's bound owed(p, free, a2, x2), what vertices p..n1-1
    still owe while the second side's vertices in free are unused, a2 of
    its arcs lie among them and x2 across the cut (see _map_search); the
    root reads index 0 of each list."""
    C_vd, C_vi, C_ed, C_ei = costs

    def owed(p, free, a2, x2):
        # a zero gap is skipped, not multiplied: 0 * inf is nan
        h, gap = e_floor[p], a1[p] - a2
        if gap > 0:
            h = max(gap * C_ed, h)
        elif gap < 0:
            h -= gap * C_ei
        h_x, gap = x_floor[p], x1[p] - x2
        if gap > 0:
            h_x = max(gap * C_ed, h_x)
        elif gap < 0:
            h_x -= gap * C_ei
        h += h_x
        v_h, gap = v_floor[p], free.bit_count() - n1 + p
        if gap > 0:
            v_h += gap * C_vi
        elif gap < 0:
            v_h = max(-gap * C_vd, v_h)
        return h + v_h

    return owed


def _pair_tables(rates, arc_id, pair=0.0, rows=None):
    """_map_search's arc[p][s] (s < p): with rates[a][q, r] what the first
    side's arc a (arc_id[i, j] for (i, j), 0 for none) pays on (q, r), the
    table rates[arc_id[p, s]] + rates[arc_id[s, p]].T + pair, shared by all
    pairs with no arc.  With rows, a pair's table maps each q in rows[p]
    to its row, all gathered at once."""
    shared = (rates[0] + rates[0].T + pair).tolist()
    arc = [[shared] * p for p in range(len(arc_id))]
    P, S = np.nonzero(arc_id + arc_id.T)
    keep = P > S
    P, S = P[keep], S[keep]
    fwd, back = arc_id[P, S], arc_id[S, P]
    if rows is None:
        tabs = rates[fwd] + rates[back].transpose(0, 2, 1) + pair
        for p, s, tab in zip(P.tolist(), S.tolist(), tabs.tolist()):
            arc[p][s] = tab
        return arc
    P, S = P.tolist(), S.tolist()
    # row q of pair k, for each q in rows[P[k]], in that order
    ks = np.repeat(np.arange(len(P)), [len(rows[p]) for p in P])
    qs = np.array([q for p in P for q in rows[p]], dtype=int)
    gathered = iter((rates[fwd[ks], qs] + rates[back[ks], :, qs]
                     + np.broadcast_to(pair, rates.shape[1:])[qs]).tolist())
    for p, s in zip(P, S):
        arc[p][s] = dict(zip(rows[p], gathered))
    return arc


def _map_search(vs, v_del, v_ins, arc, a_del, a_floor, a_ins, upper_bound,
                vet=None, rows=None, score=None, bound=True):
    """Cheapest injective partial map of the n1 = len(v_del) vertices of one
    side into the n2 = len(v_ins) of the other, as a MatchResult whose
    distance is inf and labelling None when none costs less than
    upper_bound.

    A map pays vs[p][q] per p placed on q, v_del[p] per p deleted and
    v_ins[q] per q unused; a_del[e] per arc (ordered pair) e of the first
    side with a deleted endpoint, a_ins[e] per arc of the second side with
    an unused endpoint, and arc[p][s][q][r] (s < p) for the arcs between p
    and s, both ways, when p lands on q and s on r.  vet(vmap, p), when
    given, vetoes a placement of p by returning False.  score(vmap), when
    given, is the cost a complete map is kept by: at least its table cost
    up to rounding, so that terms with no table form (or an infinite one
    for a map that breaks a constraint) are charged at the leaf.

    rows[p], when given, lists the vertices p may land on in ascending
    order; only vs[p][q] and arc[p][s][q] with q among them are read.
    arc is a builder, called only when the root survives (always with
    bound False), so a pair decided at the root builds no arc tables.

    Vertices are placed in index order on free vertices in ascending order,
    then on nothing; the first least-cost map met is kept.  The root, and
    then each child, is cut when its cost plus a bound on what is still
    owed reaches the upper bound or the incumbent (plus _MARGIN when a
    score hook sets the incumbent): each unplaced vertex its cheapest
    option, a surplus of vertices on either side the cheapest deletion or
    insertion, and every arc not yet paid for (on the first side, one
    whose later endpoint is unplaced; on the second, one with an unused
    endpoint) at least a_floor[e], keyed as a_del is.  The unpaid arcs
    fall in two groups: those among unplaced (or unused) vertices, and
    those across the cut, with one endpoint placed (or used).  An arc can
    only land on an arc of its own group, so a surplus of either group on
    either side owes the cheapest arc deletion or insertion per arc,
    counted apart.  So no cost may be negative, and an arc on a pair that
    is no arc of the other side must cost at least the cheapest arc
    deletion (first side) or insertion (second side).  With bound False
    nothing is cut by cost, an infinite one included, and every leaf is
    scored.
    """
    if math.isnan(upper_bound):
        raise ValueError("upper_bound must not be NaN")
    n1, n2 = len(v_del), len(v_ins)
    rows = rows or [range(n2)] * n1
    costs = tuple(min(x, default=0.0) for x in (
        v_del, v_ins, a_del.values(), a_ins.values()))
    a1, e_floor = _arc_floors(n1, a_floor)
    margin = 0.0 if score is None else _MARGIN
    full = (1 << n2) - 1
    # v_floor[p]: the cheapest option of each of p..n1-1, summed
    v_min = [min([v_del[p]] + [vs[p][q] for q in rows[p]])
             for p in range(n1)]
    v_floor = [sum(v_min[p:]) for p in range(n1 + 1)]
    if bound and _bound(n1, a1, e_floor, [0], [0.0], v_floor, costs)(
            0, full, len(a_ins), 0) * _SLACK >= upper_bound + margin:
        return MatchResult(math.inf, None, 1, False, 0)
    charged = [(e2, cost) for e2, cost in a_ins.items() if cost]
    # dels[p][s]: the arcs between p and s (s < p) when either is deleted.
    # While 0..p-1 are placed, x1[p] and x_floor[p] are the count and
    # floor sum of the unpaid arcs across the cut
    dels = [[0.0] * p for p in range(n1)]
    x1 = [0] * (n1 + 1)
    x_floor = [0.0] * (n1 + 1)
    for (i, j), cost in a_del.items():
        s, p = sorted((i, j))
        dels[p][s] += cost
        for k in range(s + 1, p + 1):
            x1[k] += 1
            x_floor[k] += a_floor[i, j]
    # outs/ins: each second-side vertex's arc partners, as bit masks, and
    # deg its number of arcs
    outs = [0] * n2
    ins = [0] * n2
    deg = [0] * n2
    for j, r in a_ins:
        outs[j] |= 1 << r
        ins[r] |= 1 << j
        deg[j] += 1
        deg[r] += 1

    owed = _bound(n1, a1, e_floor, x1, x_floor, v_floor, costs)
    arc = arc()
    best_cost = upper_bound
    best_map = None
    nodes = leaves = 0
    vmap = [None] * n1

    def walk(p, g, free, a2, x2):
        nonlocal best_cost, best_map, nodes, leaves
        nodes += 1
        if p == n1:
            leaves += 1
            extra = 0.0
            for q in range(n2):
                if (free >> q) & 1:
                    extra += v_ins[q]
            for (j, r), cost in charged:
                if (free >> j) & 1 or (free >> r) & 1:
                    extra += cost
            g += extra
            if score is not None and (
                    not bound or g * _SLACK < best_cost + margin):
                g = score(vmap)
            if g < best_cost:
                best_cost = g
                best_map = Labelling(vmap)
            return
        vs_p, arc_p, dels_p = vs[p], arc[p], dels[p]
        for q in [q for q in rows[p] if (free >> q) & 1] + [None]:
            vmap[p] = q
            if q is None:
                step = v_del[p]
                for s in range(p):
                    step += dels_p[s]
                rest, a2_rest, x2_rest = free, a2, x2
            else:
                if vet is not None and not vet(vmap, p):
                    continue
                step = vs_p[q]
                for s in range(p):
                    r = vmap[s]
                    step += dels_p[s] if r is None else arc_p[s][q][r]
                rest = free & ~(1 << q)
                # q's arcs to free vertices now cross the cut, and its
                # other arcs, to used vertices, are paid
                cross = (outs[q] & rest).bit_count() \
                    + (ins[q] & rest).bit_count()
                a2_rest = a2 - cross
                x2_rest = x2 + 2 * cross - deg[q]
            child = g + step
            if not bound:
                walk(p + 1, child, rest, a2_rest, x2_rest)
            elif child < best_cost + margin and (
                    child + owed(p + 1, rest, a2_rest, x2_rest)) * _SLACK \
                    < best_cost + margin:
                walk(p + 1, child, rest, a2_rest, x2_rest)
        vmap[p] = None

    walk(0, 0.0, full, len(a_ins), 0)
    # walk's closure holds walk itself: free the tables now, not at the
    # next cyclic collection
    del walk
    if best_map is None:
        best_cost = math.inf
    return MatchResult(best_cost, best_map, nodes, best_map is not None,
                       leaves)
