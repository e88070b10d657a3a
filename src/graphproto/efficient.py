"""Sub-optimal matching: cut the labelling space down before the search.

match_by_method turns a method name into a per-vertex candidate mask and
hands it to bnb_distance unbuilt: bnb_distance builds it, from the pair's
one set of cost tables (matching._CostTables), only once the search root
has survived with every slot open, so a prototype that cannot win costs
no tables and no filter.  The masks:

  * "noniter", the expanded-vertex filter, scores every (AG vertex, FDG
    slot) pair by a cyclic string edit distance between their local star
    structures and forbids the pairs whose normalised score exceeds a
    threshold tau.  With tau = 1 and unit weights nothing is forbidden, so
    the search stays exact.  forbid_matrix reads the stars off the tables
    and runs the alignment DP only where a lower bound (_star_bound) does
    not decide the pair, up to the first rotation within the threshold:
    the mask is the one the exact distances give.
  * "relax-v" and "relax-ev", probabilistic relaxation, iterate a
    support-driven update on a vertex-to-slot probability matrix and keep
    the entries above a threshold t_p (plus each row's best candidate, so
    no row goes empty).  With t_p = 0 the mask is all-true and the search
    again stays exact.

Deleting an AG vertex is always left available; only real slots are masked.
"""

import math

import numpy as np

from .core import AttributedGraph, CostWeights, Fdg, _check_count
from .matching import (_CostTables, _row_lists, _trunc, arc_cost,
                       bnb_distance, vertex_cost)

_EPS = 1e-9
# relaxation stops once no probability moves by this much in a pass
_RELAX_TOL = 1e-3

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
        vs = x.vertices
        return [ExpandedVertex(v, [(x.arcs[(i, j)], vs[j])
                                   for j in x.out_targets(i)], i)
                for i, v in enumerate(vs)]
    if isinstance(x, Fdg):
        vp, ap = x.vertex_pdfs, x.arc_pdfs
        return [ExpandedVertex(p, [(ap[(i, j)], vp[j]) for j in range(x.order)
                                   if j != i and x.existable(i, j)], i)
                for i, p in enumerate(vp)]
    raise ValueError("expected an AttributedGraph or an Fdg, got %r"
                     % type(x).__name__)


def expanded_max_distance(n_i, m_j):
    """Cap on the expanded-vertex distance at unit weights: the dearest
    outcome matches every item when the AG star is the larger side, and
    additionally deletes the slot surplus when it is not.  Broadcasts over
    arrays of sizes."""
    return n_i + np.maximum(n_i, m_j) - 1


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
    return _align(central, w.K1 + w.K2, delc, vsub, asub, 0, len(delc))


def _align(central, ins, delc, vsub, asub, lo, hi, stop=-math.inf):
    """The alignment DP of expanded_vertex_distance on FDG items lo:hi: AG
    item l matched to FDG item k costs vsub[l][k] + asub[l][k], added in
    that order; an AG item left over costs ins, FDG item k left over
    delc[k].  The least cost over the rotations, except that the first
    rotation costing at most stop is returned at once."""
    np_ = len(vsub)
    first = [central]
    for k in range(lo, hi):
        first.append(first[-1] + delc[k])
    best = math.inf
    for s in range(max(1, np_)):
        prev = first
        for l in range(np_):
            row = (s + l) % np_
            vs, arcs = vsub[row], asub[row]
            last = prev[0] + ins
            cur = [last]
            # min(match, leave the AG item, leave the FDG item), ties to
            # the first; prev and cur hold column k at k - lo
            for k in range(lo, hi):
                c = prev[k - lo] + vs[k] + arcs[k]
                x = prev[k - lo + 1] + ins
                if x < c:
                    c = x
                x = last + delc[k]
                if x < c:
                    c = x
                cur.append(c)
                last = c
            prev = cur
        if prev[-1] < best:
            best = prev[-1]
            if best <= stop:
                break
    return best


def _star_bound(t):
    """Lower bound on every expanded-vertex distance, as an (n, m) array.

    AG item x of vertex i matched to item r of slot j's star costs vc[x, r]
    plus arc (i, x)'s rate on (j, r); every AG item is matched once or left
    over (K1 + K2), every star item matched once or deleted (del_v[r]), and
    no cost is negative.  So, whatever the rotation and the alignment, the
    distance less the centre cost vc[i, j] is at least the AG-side sum of
    each item's cheapest outcome, and at least the FDG-side sum of each
    star item's.  The bound is the centre plus the larger of the two."""
    n, m = t.n, t.m
    # existable pair (j, r), a column of ce_ex, is item r of slot j's star;
    # the FDG side sums rows of m with zeros elsewhere, as a dense mask does
    js, rs = np.nonzero(t.ex)
    fdg_side = np.zeros((n, m * m))
    fdg_side[:, js * m + rs] = t.del_v[rs]
    ag_side = np.zeros((n, m))
    if t.pn_pairs:
        src, dst = np.array(t.pn_pairs).T
        # pair[a, e]: AG arc a = (i, x) against existable pair e
        pair = t.vc[dst][:, rs] + t.ce_ex
        # js ascends, so each slot's star is one run of pair's columns
        least = np.full((len(src), m), np.inf)
        slots, runs = np.unique(js, return_index=True)
        least[:, slots] = np.minimum.reduceat(pair, runs, axis=1)
        # pn_pairs run in order of source vertex
        heads, starts = np.unique(src, return_index=True)
        ag_side[heads] = np.add.reduceat(
            np.minimum(least, t.w.K1 + t.w.K2), starts)
        fdg_side[heads[:, None], js * m + rs] = np.minimum(
            np.minimum.reduceat(pair, starts), t.del_v[rs])
    return t.vc[:, :m] + np.maximum(
        ag_side, fdg_side.reshape(n, m, m).sum(axis=2))


def _expanded_distances(g, t, limit=None):
    """expanded_vertex_distance of every (AG vertex, FDG slot) pair, read
    from the cost tables t, as an (n, m) array; plus the expanded-vertex
    sizes of the AG vertices and of the slots.

    With an (n, m) array `limit`, the alignment DP runs only where the
    _star_bound of the pair does not exceed limit + _EPS, up to the first
    rotation that costs at most the limit; elsewhere the entry is that
    bound, a lower bound still above the limit.  So an entry is at most
    its limit exactly when the distance is, but need not be the distance,
    and comparing the entries with the limit gives the same answer as the
    exact distances.  Without a limit every entry is exact."""
    n, m = t.n, t.m
    vc, ins = t.vc_list, t.w.K1 + t.w.K2
    # slot j's star is bounds[j]:bounds[j + 1] of each existable-pair list
    ex_r = np.nonzero(t.ex)[1]
    bounds = [0] + np.cumsum(t.ex.sum(axis=1)).tolist()
    star_del = t.del_v[ex_r].tolist()
    vc_ex = t.vc[:, ex_r].tolist()
    if limit is None:
        dist, run = np.empty((n, m)), np.ones((n, m), bool)
        limit = np.full((n, m), -math.inf)
    else:
        dist = _star_bound(t)
        run = dist <= limit + _EPS
    stops = limit.tolist()
    # each AG vertex's targets in cyclic order, as g.out_targets gives them
    targets = [[] for _ in range(n)]
    for i, x in t.pn_pairs:
        targets[i].append(x)
    targets = [(g.arc_order or {}).get(i, ts) for i, ts in enumerate(targets)]
    runs = _row_lists(run)
    for i in range(n):
        rates = [t.ce_pn_list[(i, x)] for x in targets[i]]
        items = [vc_ex[x] for x in targets[i]]
        for j in runs[i]:
            dist[i, j] = _align(vc[i][j], ins, star_del, items, rates,
                                bounds[j], bounds[j + 1], stops[i][j])
    return dist, 1 + t.pn.sum(axis=1), 1 + t.ex.sum(axis=1)


def forbid_matrix(g, f, tau, weights=None, _tables=None):
    """Boolean (n, m) matrix, True where the normalised expanded-vertex
    distance exceeds tau and the slot is struck off vertex i's candidates.

    The limit tau * cap + _EPS is passed to _expanded_distances, so the
    alignment DP runs only for the pairs whose lower bound does not
    already prove them struck off, and only until a rotation proves them
    kept: the mask is the one the exact distances give.  A NaN tau raises
    ValueError."""
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    w = weights or CostWeights()
    t = _tables if _tables is not None else _CostTables(g, f, w)
    cap = expanded_max_distance(1 + t.pn.sum(axis=1)[:, None],
                                1 + t.ex.sum(axis=1))
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
        """Real slots with probability >= t_p (not NaN); each row also keeps
        its best candidate, the first on a tie, so thresholding never empties
        a row (the null target stays available regardless)."""
        if math.isnan(t_p):
            raise ValueError("t_p must not be NaN")
        keep = self.probs[:, :self.m] >= t_p
        best = self.probs.argmax(axis=1)
        real = best < self.m
        keep[real, best[real]] = True
        return keep

    def __repr__(self):
        return "ProbMatrix(n=%d, m=%d)" % (self.n, self.m)


def relax_probabilities(g, f, weights=None, iterations=20, init="vertex",
                        _tables=None):
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
    change drops below _RELAX_TOL.  iterations must be an integer >= 0.
    """
    _check_count(iterations, "iterations")
    w = weights or CostWeights()
    t = _tables if _tables is not None else _CostTables(g, f, w)
    n, m = t.n, t.m

    und = t.pn | t.pn.T
    nbrs = [np.nonzero(und[i])[0] for i in range(n)]
    exu = t.ex | t.ex.T

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
                  + t.rates[t.arc_id[i, j]] + t.rates[t.arc_id[j, i]].T)
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
        if delta < _RELAX_TOL:
            break
    return ProbMatrix(P)


def _check_method(method, tau, t_p, iterations=20):
    """Refuse an unknown method, and a NaN tau or t_p or a bad iterations
    where it is used, before a root cut skips the filter that refuses it."""
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == "noniter" and math.isnan(tau):
        raise ValueError("tau must not be NaN")
    if method.startswith("relax-"):
        if math.isnan(t_p):
            raise ValueError("t_p must not be NaN")
        _check_count(iterations, "iterations")


def match_by_method(g, f, weights=None, method="optimal", tau=1.0, t_p=0.0,
                    iterations=20, upper_bound=math.inf, _root=None):
    """Distance from g to f by the matcher a name in METHODS selects.

    "optimal" is the unfiltered branch and bound; "noniter" filters by the
    expanded-vertex distance at threshold tau; the two relax- names keep the
    slots whose relaxed probability reaches t_p, with the relaxation started
    from the vertex costs (-v) or the expanded-vertex distances (-ev) and
    run for at most `iterations` passes.  The mask and the search read one
    set of cost tables.  The null target stays available, so in relaxed
    mode the result is always a valid labelling; its distance is an upper
    bound on the optimal one, tight at tau = 1 and at t_p = 0.  A distance
    not below upper_bound comes back as valid=False.  Every argument is
    checked first; the mask goes to bnb_distance unbuilt (its _mask).
    """
    _check_method(method, tau, t_p, iterations)
    w = weights or CostWeights()
    mask = None
    if method == "noniter":
        def mask(t):
            return ~forbid_matrix(g, f, tau, w, _tables=t)
    elif method != "optimal":
        init = "vertex" if method == "relax-v" else "expanded"

        def mask(t):
            return relax_probabilities(g, f, w, iterations, init,
                                       _tables=t).mask(t_p)
    return bnb_distance(g, f, w, upper_bound=upper_bound, _root=_root,
                        _mask=mask)
