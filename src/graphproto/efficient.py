"""Sub-optimal matching: cut the labelling space down before the search.

Two independent routes produce a per-vertex candidate mask that is then fed
to bnb_distance as its `allowed` argument:

  * the expanded-vertex filter scores every (AG vertex, FDG slot) pair by a
    cyclic string edit distance between their local star structures and
    forbids the pairs whose normalised score exceeds a threshold tau.  With
    tau = 1 and unit weights nothing is forbidden, so the search stays exact.
  * probabilistic relaxation iterates a support-driven update on a vertex-to-
    slot probability matrix and keeps the entries above a threshold t_p
    (plus each row's best candidate, so no row goes empty).  With t_p = 0
    the mask is all-true and the search again stays exact.

Deleting an AG vertex is always left available; only real slots are masked.
"""

import math

import numpy as np

from .core import AttributedGraph, CostWeights, Fdg, slot_pairs
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
    seq0 = ev_g.items
    ext = ev_f.items
    np_, mp = len(seq0), len(ext)
    ins = w.K1 + w.K2
    delc = [w.K1 * _trunc(p.prob_null(), k_pr) for (_, p) in ext]
    best = math.inf
    for s in range(max(1, np_)):
        seq = seq0[s:] + seq0[:s]
        prev = [central]
        for k in range(1, mp + 1):
            prev.append(prev[k - 1] + delc[k - 1])
        for l in range(1, np_ + 1):
            b, a = seq[l - 1]
            cur = [prev[0] + ins]
            for k in range(1, mp + 1):
                q, p = ext[k - 1]
                sub = (prev[k - 1] + w.K1 * vertex_cost(a, p, k_pr)
                       + w.K2 * arc_cost(b, q, False, k_pr))
                cur.append(min(sub, prev[k] + ins, cur[k - 1] + delc[k - 1]))
            prev = cur
        if prev[mp] < best:
            best = prev[mp]
    return best


def forbid_matrix(g, f, tau, weights=None):
    """Boolean (n, m) matrix, True where the normalised expanded-vertex
    distance exceeds tau and the slot is struck off vertex i's candidates."""
    w = weights or CostWeights()
    evg = split_into_expanded_vertices(g)
    evf = split_into_expanded_vertices(f)
    out = np.zeros((g.order, f.order), bool)
    for i, ei in enumerate(evg):
        for j, ej in enumerate(evf):
            d = expanded_vertex_distance(ei, ej, w)
            out[i, j] = d > tau * expanded_max_distance(ei.size, ej.size) + _EPS
    return out


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
                        init="vertex"):
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
    t = _CostTables(g, f, w)
    n, m = t.n, t.m

    und = t.pn | t.pn.T
    nbrs = [np.nonzero(und[i])[0] for i in range(n)]
    exu = np.zeros((m, m), bool)
    for (q, r) in slot_pairs(m):
        if f.existable(q, r):
            exu[q, r] = True
            exu[r, q] = True

    P = np.empty((n, m + 1))
    if init == "vertex":
        P[:, :m] = np.exp(-t.vc[:, :m])
    elif init == "expanded":
        evg = split_into_expanded_vertices(g)
        evf = split_into_expanded_vertices(f)
        for i in range(n):
            for a in range(m):
                P[i, a] = math.exp(
                    -expanded_vertex_distance(evg[i], evf[a], w))
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
                        t_p=0.0, iterations=20, epsilon=1e-3, init="vertex"):
    """Branch-and-bound over a reduced candidate space.

    method="expanded" forbids slot candidates by the expanded-vertex filter
    at threshold tau; method="relaxation" keeps the slots whose relaxed
    probability reaches t_p.  Either way the null target stays available, so
    the result is always a valid labelling in relaxed mode; its distance is
    an upper bound on the unrestricted one, tight at tau = 1 / t_p = 0.
    """
    w = weights or CostWeights()
    if method == "expanded":
        allowed = ~forbid_matrix(g, f, tau, w)
    elif method == "relaxation":
        pm = relax_probabilities(g, f, w, iterations=iterations,
                                 epsilon=epsilon, init=init)
        allowed = pm.mask(t_p)
    else:
        raise ValueError("unknown method %r" % (method,))
    return bnb_distance(g, f, w, allowed=allowed)


def match_by_method(g, f, weights=None, method="optimal", tau=1.0, t_p=0.0,
                    iterations=20):
    """Distance from g to f by the matcher a name in METHODS selects.

    "optimal" is the unfiltered branch and bound; "noniter" filters by the
    expanded-vertex distance at threshold tau; the two relax- names keep the
    slots whose relaxed probability reaches t_p, with the relaxation started
    from the vertex costs (-v) or the expanded-vertex distances (-ev) and
    run for at most `iterations` passes.
    """
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if method == "optimal":
        return bnb_distance(g, f, weights)
    if method == "noniter":
        return suboptimal_distance(g, f, weights, method="expanded", tau=tau)
    return suboptimal_distance(
        g, f, weights, method="relaxation", t_p=t_p, iterations=iterations,
        init="vertex" if method == "relax-v" else "expanded")
