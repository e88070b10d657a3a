"""Sub-optimal matching: cut the labelling space down before the search.

Two independent routes produce a per-vertex candidate mask that is then fed
to bnb_distance as its `allowed` argument:

  * the expanded-vertex filter scores every (AG vertex, FDG slot) pair by a
    cyclic string edit distance between their local star structures and
    forbids the pairs whose normalised score exceeds a threshold tau.  With
    tau = 1 and unit weights nothing is forbidden, so the search stays exact.
    The filter reads its item costs from the pair's cost tables
    (matching._CostTables: vc, ce[i, j] and del_v), which the search then
    reuses, so no attribute is scored against a pdf twice.  The public
    expanded_vertex_distance scores its items by vertex_cost and arc_cost
    and runs the same alignment DP, with bit-identical results.
    forbid_matrix runs the DP only where it can change the answer: a
    vectorised lower bound (_star_bound: the centre cost plus the larger of
    the sums of each AG item's and each star item's cheapest outcome,
    after Riesen & Bunke's bipartite bounds) already proves most pairs
    forbidden, and those keep the bound in place of the distance.  The
    mask equals the one the exact distances give; relaxation and
    expanded_vertex_distance pass no limit and stay exact.
  * probabilistic relaxation iterates a support-driven update on a vertex-to-
    slot probability matrix and keeps the entries above a threshold t_p
    (plus each row's best candidate, so no row goes empty).  With t_p = 0
    the mask is all-true and the search again stays exact.

Deleting an AG vertex is always left available; only real slots are masked.
"""

import math

import numpy as np

from .core import AttributedGraph, CostWeights, Fdg
from .matching import _CostTables, _trunc, arc_cost, bnb_distance, vertex_cost

_EPS = 1e-9

METHODS = ("optimal", "noniter", "relax-v", "relax-ev")


class ExpandedVertex:
    """A vertex with its outgoing star: the centre plus one (arc, endpoint)
    item per outgoing arc, in cyclic order on the AG side and ascending slot
    order (existable slots only) on the FDG side."""

    __slots__ = ("center", "items", "index")

    def __init__(self, center, items, index):
        self.center = center
        self.items = list(items)
        self.index = index

    @property
    def size(self):
        return 1 + len(self.items)

    def __repr__(self):
        return "ExpandedVertex(index=%d, size=%d)" % (self.index, self.size)


def split_into_expanded_vertices(x):
    """Expanded vertices of an AG (attribute items) or an FDG (pdf items)."""
    if isinstance(x, AttributedGraph):
        out = []
        for i in range(x.order):
            items = [(x.arcs[(i, j)], x.vertices[j]) for j in x.out_targets(i)]
            out.append(ExpandedVertex(x.vertices[i], items, i))
        return out
    if isinstance(x, Fdg):
        out = []
        for i in range(x.order):
            items = [(x.arc_pdfs[(i, j)], x.vertex_pdfs[j])
                     for j in range(x.order) if j != i and x.existable(i, j)]
            out.append(ExpandedVertex(x.vertex_pdfs[i], items, i))
        return out
    raise ValueError("expected an AttributedGraph or an Fdg, got %r"
                     % type(x).__name__)


def expanded_max_distance(n_i, m_j):
    """Cap on the expanded-vertex distance at unit weights: the dearest
    outcome matches every item when the AG star is the larger side, and
    additionally deletes the slot surplus when it is not."""
    if n_i >= m_j:
        return 2 * n_i - 1
    return n_i + m_j - 1


def expanded_vertex_distance(ev_g, ev_f, weights=None):
    """Cyclic string edit distance between an AG expanded vertex and an FDG
    one.

    Items are aligned monotonically after rotating the AG star; an AG item
    left unmatched pays the full insertion charge K1 + K2, an FDG item left
    unmatched pays its own vertex deletion cost (its arc is then free), and
    a matched pair pays the endpoint substitution plus the arc substitution.
    The centre pair is always charged.  Minimum over all rotations.
    """
    w = weights or CostWeights()
    k_pr = w.K_pr
    central = w.K1 * vertex_cost(ev_g.center, ev_f.center, k_pr)
    delc = [w.K1 * _trunc(p.prob_null(), k_pr) for (_, p) in ev_f.items]
    vsub = [[w.K1 * vertex_cost(a, p, k_pr) for (_, p) in ev_f.items]
            for (_, a) in ev_g.items]
    asub = [[w.K2 * arc_cost(b, q, False, k_pr) for (q, _) in ev_f.items]
            for (b, _) in ev_g.items]
    return _align(central, w.K1 + w.K2, delc, vsub, asub)


def _align(central, ins, delc, vsub, asub):
    """The alignment DP of expanded_vertex_distance: AG item l matched to
    FDG item k costs vsub[l][k] + asub[l][k], added in that order; an AG
    item left over costs ins, FDG item k left over delc[k]."""
    np_, mp = len(vsub), len(delc)
    first = [central]
    for k in range(mp):
        first.append(first[k] + delc[k])
    best = math.inf
    for s in range(max(1, np_)):
        prev = first
        for l in range(np_):
            row = (s + l) % np_
            vs, arcs = vsub[row], asub[row]
            last = prev[0] + ins
            cur = [last]
            # min(match, leave the AG item, leave the FDG item), ties to
            # the first
            for k in range(mp):
                c = prev[k] + vs[k] + arcs[k]
                x = prev[k + 1] + ins
                if x < c:
                    c = x
                x = last + delc[k]
                if x < c:
                    c = x
                cur.append(c)
                last = c
            prev = cur
        if prev[mp] < best:
            best = prev[mp]
    return best


def _existable_pairs(t):
    """(m, m) bool matrix of the cost tables t, True where the directed slot
    pair (q, r) is an existable arc slot; the diagonal is False.  Row j
    marks the FDG star of slot j."""
    ex = np.zeros((t.m, t.m), bool)
    off = t.sidx >= 0
    ex[off] = t.existable[t.sidx[off]]
    return ex


def _star_bound(t, ex):
    """Lower bound on every expanded-vertex distance, as an (n, m) array.

    AG item x of vertex i matched to item r of slot j's star costs
    vc[x, r] + ce[i, x][j, r]; every AG item is matched once or left over
    (K1 + K2), every star item matched once or deleted (del_v[r]), and no
    cost is negative.  So, whatever the rotation and the alignment, the
    distance less the centre cost vc[i, j] is at least the AG-side sum of
    each item's cheapest outcome, and at least the FDG-side sum of each
    star item's.  The bound is the centre plus the larger of the two."""
    n, m = t.n, t.m
    ag_side = np.zeros((n, m))
    best = np.full((n, m, m), np.inf)
    if t.pn_pairs:
        src, dst = np.array(t.pn_pairs).T
        # pair[a, j, r]: AG arc a = (i, x) against star item r of slot j
        pair = np.where(ex, t.vc[dst, :m][:, None, :] + t.ce[src, dst],
                        np.inf)
        # pn_pairs run in order of source vertex
        heads, starts = np.unique(src, return_index=True)
        ag_side[heads] = np.add.reduceat(np.minimum(
            pair.min(axis=2, initial=np.inf), t.w.K1 + t.w.K2), starts)
        best[heads] = np.minimum.reduceat(pair, starts)
    fdg_side = np.where(ex, np.minimum(best, t.del_v), 0.0).sum(axis=2)
    return t.vc[:, :m] + np.maximum(ag_side, fdg_side)


def _expanded_distances(g, t, limit=None):
    """expanded_vertex_distance of every (AG vertex, FDG slot) pair, read
    from the cost tables t, as an (n, m) array; plus the expanded-vertex
    sizes of the AG vertices and of the slots.

    With an (n, m) array `limit`, the alignment DP runs only where the
    _star_bound of the pair does not exceed limit + _EPS; elsewhere the
    entry is that bound, a lower bound still above the limit.  So every
    entry at or below the limit is exact, and comparing the entries with
    the limit gives the same answer as the exact distances.  Without a
    limit every entry is exact."""
    n, m = t.n, t.m
    vc, del_v, ins = t.vc_list, t.del_v_list, t.w.K1 + t.w.K2
    ex = _existable_pairs(t)
    # the FDG star of slot j: its existable outgoing arc slots, ascending
    stars = [np.flatnonzero(row).tolist() for row in ex]
    if limit is None:
        dist = np.empty((n, m))
        run = np.ones((n, m), bool)
    else:
        dist = _star_bound(t, ex)
        run = dist <= limit + _EPS
    size_g = []
    for i in range(n):
        targets = g.out_targets(i)
        size_g.append(1 + len(targets))
        rates = [t.ce_pn_list[(i, x)] for x in targets]
        for j in np.flatnonzero(run[i]).tolist():
            star = stars[j]
            dist[i, j] = _align(
                vc[i][j], ins, [del_v[r] for r in star],
                [[vc[x][r] for r in star] for x in targets],
                [[rate[j][r] for r in star] for rate in rates])
    return dist, size_g, [1 + len(star) for star in stars]


def forbid_matrix(g, f, tau, weights=None, _tables=None):
    """Boolean (n, m) matrix, True where the normalised expanded-vertex
    distance exceeds tau and the slot is struck off vertex i's candidates.

    The limit tau * cap + _EPS is passed to _expanded_distances, so the
    alignment DP runs only for the pairs whose lower bound does not
    already prove them struck off; the mask is the one the exact
    distances give."""
    w = weights or CostWeights()
    t = _tables if _tables is not None else _CostTables(g, f, w)
    size_g = 1 + t.pn.sum(axis=1)
    size_f = 1 + _existable_pairs(t).sum(axis=1)
    cap = np.array([expanded_max_distance(a, b)
                    for a in size_g for b in size_f], float).reshape(t.n, t.m)
    limit = tau * cap + _EPS
    return _expanded_distances(g, t, limit)[0] > limit


class ProbMatrix:
    """Vertex-to-slot probabilities, one row per AG vertex over the m real
    slots plus the null target in the last column."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        self.probs = np.asarray(probs, float)

    @property
    def n(self):
        return self.probs.shape[0]

    @property
    def m(self):
        return self.probs.shape[1] - 1

    def mask(self, t_p):
        """Real slots with probability >= t_p; each row additionally keeps
        its best candidate so thresholding never empties a row (the null
        target stays available regardless)."""
        m = self.m
        keep = self.probs[:, :m] >= t_p
        for i in range(self.n):
            a = int(np.argmax(self.probs[i]))
            if a < m:
                keep[i, a] = True
        return keep

    def __repr__(self):
        return "ProbMatrix(n=%d, m=%d)" % (self.n, self.m)


def relax_probabilities(g, f, weights=None, iterations=20, epsilon=1e-3,
                        init="vertex", _tables=None):
    """Probabilistic relaxation of the vertex-to-slot assignment.

    Rows start from the first-order costs (init="vertex") or from the
    expanded-vertex distances (init="expanded"); the null column starts from
    a unit local distance in both cases.  Each pass reinforces P[i, a] by the
    support its neighbours lend through compatible slots:

        Q[i, a] = (1 / deg i) * sum_j sum_b exp(-(c_v(i,a) + c_v(j,b)
                                                  + c_e(ij,ab))) * P[j, b]

    with j running over the AG neighbours of i and b over the slots wired to
    a by an existable arc in either direction.  P <- P * (1 + Q), rows
    renormalised; stops after `iterations` passes or when the largest entry
    change drops below epsilon.
    """
    w = weights or CostWeights()
    t = _tables if _tables is not None else _CostTables(g, f, w)
    n, m = t.n, t.m

    und = t.pn | t.pn.T
    nbrs = [np.nonzero(und[i])[0] for i in range(n)]
    exu = _existable_pairs(t)
    exu |= exu.T

    P = np.empty((n, m + 1))
    if init == "vertex":
        P[:, :m] = np.exp(-t.vc[:, :m])
    elif init == "expanded":
        for (i, a), d in np.ndenumerate(_expanded_distances(g, t)[0]):
            P[i, a] = math.exp(-d)
    else:
        raise ValueError("unknown init %r" % (init,))
    P[:, m] = math.exp(-1.0)
    P /= P.sum(axis=1, keepdims=True)

    support = {}
    for i in range(n):
        for j in nbrs[i]:
            cm = (t.vc[i, :m][:, None] + t.vc[j, :m][None, :]
                  + t.ce[i, j] + t.ce[j, i].T)
            support[(i, j)] = np.where(exu, np.exp(-cm), 0.0)

    for _ in range(iterations):
        Q = np.zeros((n, m + 1))
        for i in range(n):
            if not len(nbrs[i]):
                continue
            acc = np.zeros(m)
            for j in nbrs[i]:
                acc += support[(i, j)] @ P[j, :m]
            Q[i, :m] = acc / len(nbrs[i])
        new = P * (1.0 + Q)
        new /= new.sum(axis=1, keepdims=True)
        delta = np.abs(new - P).max()
        P = new
        if delta < epsilon:
            break
    return ProbMatrix(P)


def suboptimal_distance(g, f, weights=None, method="expanded", tau=1.0,
                        t_p=0.0, iterations=20, epsilon=1e-3, init="vertex",
                        upper_bound=math.inf, _tables=None):
    """Branch-and-bound over a reduced candidate space.

    method="expanded" forbids slot candidates by the expanded-vertex filter
    at threshold tau; method="relaxation" keeps the slots whose relaxed
    probability reaches t_p.  Either way the null target stays available, so
    the result is always a valid labelling in relaxed mode; its distance is
    an upper bound on the unrestricted one, tight at tau = 1 / t_p = 0.
    upper_bound is passed to bnb_distance: a distance not below it comes
    back as valid=False.
    """
    w = weights or CostWeights()
    t = _tables if _tables is not None else _CostTables(g, f, w)
    if method == "expanded":
        allowed = ~forbid_matrix(g, f, tau, w, _tables=t)
    elif method == "relaxation":
        pm = relax_probabilities(g, f, w, iterations=iterations,
                                 epsilon=epsilon, init=init, _tables=t)
        allowed = pm.mask(t_p)
    else:
        raise ValueError("unknown method %r" % (method,))
    return bnb_distance(g, f, w, allowed=allowed, upper_bound=upper_bound,
                        _tables=t)


def match_by_method(g, f, weights=None, method="optimal", tau=1.0, t_p=0.0,
                    iterations=20, upper_bound=math.inf, _tables=None):
    """Distance from g to f by the matcher a name in METHODS selects.

    "optimal" is the unfiltered branch and bound; "noniter" filters by the
    expanded-vertex distance at threshold tau; the two relax- names keep the
    slots whose relaxed probability reaches t_p, with the relaxation started
    from the vertex costs (-v) or the expanded-vertex distances (-ev) and
    run for at most `iterations` passes.  A distance not below upper_bound
    comes back as valid=False (see bnb_distance).
    """
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == "optimal":
        return bnb_distance(g, f, weights, upper_bound=upper_bound,
                            _tables=_tables)
    if method == "noniter":
        return suboptimal_distance(g, f, weights, method="expanded", tau=tau,
                                   upper_bound=upper_bound, _tables=_tables)
    return suboptimal_distance(
        g, f, weights, method="relaxation", t_p=t_p, iterations=iterations,
        init="vertex" if method == "relax-v" else "expanded",
        upper_bound=upper_bound, _tables=_tables)
