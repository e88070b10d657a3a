"""Error-tolerant matching of an AG against an FDG.

A labelling maps every vertex of the (non-extended) AG to a distinct FDG slot
or to the null target.  Its cost combines:

  * first-order terms: negative log-probabilities of the matched attribute
    values, normalised to [0, 1] by a low-probability floor K_pr, weighted K1
    for vertices and K2 for arcs.  Unmatched AG elements cost one unit;
    unmatched FDG slots pay their own null probability; arcs hanging off a
    deleted slot are free.
  * second-order terms: counting violated antagonism / occurrence / existence
    bits among realized slot values, each kind with its own weight (K3..K8).
    Pairs involving elements whose pdf already forces the outcome are exempt.

"relaxed" mode adds the second-order terms to the cost; "restricted" mode
makes any violation fatal.  The planar option adds a cyclic-order constraint
on the outgoing arcs of each vertex in both modes.

bnb_distance finds the cheapest valid labelling by depth-first branch and
bound: vertices are matched in index order, candidates are the unused slots
in ascending order followed by the null target, and a branch survives only
while accumulated cost plus an admissible per-future-vertex bound stays below
the incumbent.  The incumbent starts just above the cost of a greedy
labelling, or at a caller's upper bound, whichever is lower, so a caller that
only needs distances below a known value (the nearest-prototype loop) can
abandon a losing pair early.  exhaustive_oracle grinds through the whole
labelling space and is kept around as an independent check.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .core import CostWeights, Labelling, slot_pairs, vertex_list

_SLACK = 1e-9


class MatchResult:
    """Outcome of a matching run."""

    __slots__ = ("distance", "labelling", "explored_nodes", "valid", "leaves")

    def __init__(self, distance, labelling, explored_nodes, valid, leaves=None):
        self.distance = distance
        self.labelling = labelling
        self.explored_nodes = explored_nodes
        self.valid = valid
        self.leaves = leaves

    def __repr__(self):
        return ("MatchResult(distance=%r, labelling=%r, explored_nodes=%d, "
                "valid=%r)" % (self.distance, self.labelling,
                               self.explored_nodes, self.valid))


class SearchNode:
    """A partial labelling on the branch-and-bound stack.

    Vertices 0..depth-1 are placed; kp accumulates, per future vertex and
    candidate slot, the arc costs (plus, in relaxed mode, the bounded
    second-order terms) already forced by those placements.  Only future
    rows are kept: kp[0] belongs to vertex depth, kp[1] to depth+1, and so
    on, since rows of placed vertices are never read again.  present is the
    tuple of FDG arc slots realized so far, used is a slot bitmask.
    """

    __slots__ = ("depth", "vertex_map", "cost", "kp", "present", "used")

    def __init__(self, depth, vertex_map, cost, kp, present, used):
        self.depth = depth
        self.vertex_map = vertex_map
        self.cost = cost
        self.kp = kp
        self.present = present
        self.used = used

    def __repr__(self):
        return "SearchNode(depth=%d, map=%s, cost=%.6f)" % (
            self.depth, self.vertex_map, self.cost)


def _trunc(pr, k_pr):
    """Normalised negative log-probability: 1 below the floor, else
    log(pr)/log(K_pr), so certainty is free and the floor costs one unit."""
    if pr < k_pr:
        return 1.0
    return math.log(pr) / math.log(k_pr)


def vertex_cost(a, pdf, k_pr=1e-4):
    """First-order cost of putting attribute a (PHI for a deletion) on a
    vertex slot with the given pdf."""
    return _trunc(pdf.prob_attr(a), k_pr)


def arc_cost(b, pdf, endpoint_null, k_pr=1e-4):
    """First-order cost of putting arc value b on a slot with conditional
    pdf `pdf`.  endpoint_null flags that a vertex at either end of the pair
    is null (on the AG or the FDG side); the arc is then necessarily absent,
    so a null b is free and anything else costs one unit."""
    if endpoint_null:
        return 0.0 if (b is None or b.is_null) else 1.0
    return _trunc(pdf.prob_attr(b), k_pr)


def _costs_by_bin(pdfs, k, k_pr):
    """bin -> (flat positions, costs): every bin a pdf holds, mapped to the
    positions of the pdfs that hold it and k * _trunc of its probability
    under each.  pdfs are (flat position, pdf) pairs; a pdf with total 0
    holds only the null bin, at probability 1."""
    by_bin = {}
    for pos, pdf in pdfs:
        for key, pr in pdf.probs().items():
            hit = by_bin.setdefault(key, ([], []))
            hit[0].append(pos)
            hit[1].append(k * _trunc(pr, k_pr))
    return by_bin


class _CostTables:
    """Per (AG, FDG, weights) caches used by every cost evaluation.

    First order: vc[i, q] is the vertex cost of AG vertex i on slot q
    (column m is the null target), del_v[q] the cost of leaving slot q
    empty, ce_absent[q, r] the rate of slot pair (q, r) when no AG arc lands
    on it and ce[i, j] the rate matrix of the ordered AG pair (i, j).  The
    *_list mirrors of vc, del_v, ce_absent and ce (the last for present AG
    arcs only) are read per leaf, where plain-list indexing beats numpy's
    per-call dispatch on matrices this small.  colK2[i, p] is the cost of
    the AG arcs between i and p when p goes to the null target.

    The first-order tables are built by bin lookup: each AG attribute is
    binned once, every entry starts at one unit (K1 or K2), the cost of a
    bin the slot's pdf has never seen, and the slots whose pdf holds the
    AG's bin are overwritten from a bin -> (slots, costs) map
    (_costs_by_bin).  Entries are bit-identical to vertex_cost and arc_cost
    times K.  The expanded-vertex filter (efficient.forbid_matrix) reads
    these tables too, so each (attribute, pdf) pair is scored once.

    Second order: Aw, Ow, Ew (over vertex slots) and Ae, Oe, Ee (over arc
    slots, indexed by arc_index) are the FDG's relations as float32 0/1
    matrices, with the diagonal and the pairs an exempt element takes part
    in cleared.  They are the only form the relations are kept in: counts
    are vector-matrix-vector products, and A and E are symmetric, so they
    count each unordered pair twice.
    """

    def __init__(self, g, f, w):
        n, m = g.order, f.order
        self.n, self.m = n, m
        self.w = w
        k_pr, width = w.K_pr, f.bin_width

        pairs = slot_pairs(m)
        self.fnull = np.array([f.vertex_null(q) for q in range(m)], bool)
        self.existable = np.array([f.existable(i, j) for (i, j) in pairs],
                                  bool)

        by_vbin = _costs_by_bin(enumerate(f.vertex_pdfs), w.K1, k_pr)
        self.vc = np.full((n, m + 1), w.K1)
        for i, a in enumerate(g.vertices):
            hit = by_vbin.get(a.binned(width))
            if hit:
                np.put(self.vc[i], *hit)
        self.del_v = np.full(m, w.K1)
        hit = by_vbin.get(None)
        if hit:
            np.put(self.del_v, *hit)

        self.pn = np.zeros((n, n), bool)
        for (i, j), b in g.arcs.items():
            if not b.is_null:
                self.pn[i, j] = True
        # a pair with a null slot at either end is free when absent and
        # costs one unit when present, whatever its pdf says
        endpoint_null = self.fnull[:, None] | self.fnull[None, :]
        by_abin = _costs_by_bin(
            ((q * m + r, f.arc_pdfs[(q, r)]) for (q, r) in pairs
             if not endpoint_null[q, r]), w.K2, k_pr)
        self.ce_absent = np.full((m, m), w.K2)
        self.ce_absent[endpoint_null] = 0.0
        np.fill_diagonal(self.ce_absent, 0.0)
        hit = by_abin.get(None)
        if hit:
            np.put(self.ce_absent, *hit)
        # ce[i, j] is the rate matrix of the ordered AG pair (i, j) over
        # ordered slot pairs: ce_absent where g has no arc (i, j)
        self.ce = np.empty((n, n, m, m))
        self.ce[:] = self.ce_absent
        for (i, j), b in g.arcs.items():
            if b.is_null:
                continue
            mat = self.ce[i, j]
            mat.fill(w.K2)
            hit = by_abin.get(b.binned(width))
            if hit:
                np.put(mat, *hit)

        self.sidx = np.full((m, m), -1, dtype=int)
        for s, (q, r) in enumerate(pairs):
            self.sidx[q, r] = s

        # null vertex slots and non-existable arc slots are exempt: A and E
        # drop every pair one takes part in, O the pairs it is the source of
        def effective(rel, ok, symmetric):
            keep = rel & ok[:, None]
            if symmetric:
                keep &= ok[None, :]
            np.fill_diagonal(keep, False)
            return keep.astype(np.float32)

        ok_v, ok_e = ~self.fnull, self.existable
        self.Aw = effective(f.Aw, ok_v, True)
        self.Ow = effective(f.Ow, ok_v, False)
        self.Ew = effective(f.Ew, ok_v, True)
        self.Ae = effective(f.Ae, ok_e, True)
        self.Oe = effective(f.Oe, ok_e, False)
        self.Ee = effective(f.Ee, ok_e, True)

        self.pn_pairs = [(int(i), int(j)) for (i, j) in zip(*np.nonzero(self.pn))]
        self.vc_list = self.vc.tolist()
        self.del_v_list = self.del_v.tolist()
        self.ce_absent_list = self.ce_absent.tolist()
        self.ce_pn_list = {(i, j): self.ce[i, j].tolist()
                           for (i, j) in self.pn_pairs}

        self.colK2 = w.K2 * (self.pn.astype(float) + self.pn.T.astype(float))


def _realized(t, vmap):
    """Realized vertex slots and arc slots as float32 0/1 vectors, plus the
    inverse map from slot to AG vertex."""
    v = np.zeros(t.m, np.float32)
    inv = [None] * t.m
    for i, q in enumerate(vmap):
        if q is not None:
            v[q] = 1
            inv[q] = i
    e = np.zeros(len(t.existable), np.float32)
    for (i, j) in t.pn_pairs:
        if vmap[i] is not None and vmap[j] is not None:
            e[t.sidx[vmap[i], vmap[j]]] = 1
    return v, e, inv


def _violation_counts(t, v, e):
    """Violated relation instances: A and E over unordered pairs, O over
    ordered pairs, at both levels."""
    av, ae = 1 - v, 1 - e
    return (int(v @ t.Aw @ v) // 2, int(v @ t.Ow @ av),
            int(av @ t.Ew @ av) // 2, int(e @ t.Ae @ e) // 2,
            int(e @ t.Oe @ ae), int(ae @ t.Ee @ ae) // 2)


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


def second_order_cost(g, f, labelling, weights=None):
    """Weighted sum of violated second-order relation instances."""
    w = weights or CostWeights()
    vmap = vertex_list(labelling, g.order)
    t = _CostTables(g, f, w)
    v, e, _ = _realized(t, vmap)
    va, vo, ve, ea, eo, ee = _violation_counts(t, v, e)
    return (w.K3 * va + w.K5 * vo + w.K7 * ve
            + w.K4 * ea + w.K6 * eo + w.K8 * ee)


def check_constraints(g, f, labelling, weights=None):
    """Hard-constraint test for the given mode: in restricted mode no
    relation violation is allowed; the planar option applies in both."""
    w = weights or CostWeights()
    vmap = vertex_list(labelling, g.order)
    if w.planar and not _planar_ok(g, vmap):
        return False
    if w.mode == "restricted":
        t = _CostTables(g, f, w)
        v, e, _ = _realized(t, vmap)
        if any(_violation_counts(t, v, e)):
            return False
    return True


def labelling_cost(g, f, labelling, weights=None, _tables=None):
    """Cost and validity of one complete labelling.

    Returns (cost, valid); an invalid labelling (hard-constraint breach)
    reports (inf, False).
    """
    w = weights or CostWeights()
    vmap = vertex_list(labelling, g.order)
    t = _tables if _tables is not None else _CostTables(g, f, w)
    n, m = t.n, t.m

    v, e, inv = _realized(t, vmap)
    cost = 0.0
    for i, q in enumerate(vmap):
        cost += t.vc_list[i][m if q is None else q]
    for q in range(m):
        if inv[q] is None:
            cost += t.del_v_list[q]

    # every matched ordered slot pair pays the absent-arc rate; present AG
    # arcs then swap in their own rate (ce_absent has a zero diagonal)
    matched = [q for q in range(m) if inv[q] is not None]
    ca = t.ce_absent_list
    for q in matched:
        row = ca[q]
        for r in matched:
            cost += row[r]
    for (i, j) in t.pn_pairs:
        q, r = vmap[i], vmap[j]
        if q is None or r is None:
            cost += w.K2
        else:
            cost += t.ce_pn_list[(i, j)][q][r] - ca[q][r]

    va, vo, ve, ea, eo, ee = _violation_counts(t, v, e)
    if w.mode == "restricted":
        if va or vo or ve or ea or eo or ee:
            return math.inf, False
    else:
        cost += (w.K3 * va + w.K5 * vo + w.K7 * ve
                 + w.K4 * ea + w.K6 * eo + w.K8 * ee)
    if w.planar and not _planar_ok(g, vmap):
        return math.inf, False
    return float(cost), True


def _greedy_cost(g, f, t, rows=None):
    """Cost of the labelling that gives each vertex, in index order, its
    cheapest free slot among `rows[i]` (all slots by default) if that is
    cheaper than the null target, else the null target; inf when that
    labelling is invalid."""
    m = t.m
    vmap = []
    used = set()
    for i, costs in enumerate(t.vc_list):
        pick, best = None, costs[m]
        for q in (range(m) if rows is None else rows[i]):
            if q not in used and costs[q] < best:
                pick, best = int(q), costs[q]
        used.add(pick)
        vmap.append(pick)
    cost, ok = labelling_cost(g, f, vmap, t.w, _tables=t)
    return cost if ok else math.inf


def _kp_delta(t, node, p, qp):
    """Increment of the bound table caused by placing vertex p on slot qp
    (None for the null target), for the future vertices p+1..n-1 only."""
    n, m = t.n, t.m
    w = t.w
    r = n - p - 1
    per_i = t.colK2[p + 1:, p]
    if qp is None:
        return np.broadcast_to(per_i[:, None], (r, m + 1))
    D = np.empty((r, m + 1))
    D[:, :m] = t.ce[p + 1:, p, :, qp] + t.ce[p, p + 1:, qp, :]
    D[:, m] = per_i
    if w.mode == "relaxed":
        if w.K3:
            D[:, :m] += w.K3 * t.Aw[:, qp].astype(float)
        if w.K4 and len(node.present):
            # hits[s]: realized arc slots antagonistic to arc slot s; a
            # future vertex i on slot r realizes (r, qp) and (qp, r) when
            # the AG has the arcs (i, p) and (p, i)
            hits = t.Ae[:, list(node.present)].sum(axis=1, dtype=float)
            into, out = t.sidx[:, qp], t.sidx[qp, :]
            h_in = np.where(into >= 0, hits[into], 0.0)
            h_out = np.where(out >= 0, hits[out], 0.0)
            D[:, :m] += w.K4 * (t.pn[p + 1:, p, None] * h_in
                                + t.pn[p, p + 1:, None] * h_out)
    return D


def _new_present_slots(t, node, p, qp):
    """Arc slots realized by placing vertex p on real slot qp."""
    out = []
    if qp is None:
        return out
    vmap = node.vertex_map
    for s in range(node.depth):
        qs = vmap[s]
        if qs is None:
            continue
        if t.pn[p, s]:
            out.append(int(t.sidx[qp, qs]))
        if t.pn[s, p]:
            out.append(int(t.sidx[qs, qp]))
    return out


def _hard_reject(t, node, p, qp, new_slots):
    """Restricted-mode antagonism test of the candidate placement against
    everything already placed (deletions are only known at the leaf, so
    occurrence and existence wait until then)."""
    vmap = node.vertex_map
    for s in range(node.depth):
        qs = vmap[s]
        if qs is not None and t.Aw[qp, qs]:
            return True
    for e in new_slots:
        for old in node.present:
            if t.Ae[e, old]:
                return True
    for x in range(len(new_slots)):
        for y in range(x + 1, len(new_slots)):
            if t.Ae[new_slots[x], new_slots[y]]:
                return True
    return False


def bnb_distance(g, f, weights=None, allowed=None, disable_bound=False,
                 disable_pruning=False, upper_bound=math.inf, _tables=None):
    """Distance from AG g to FDG f by depth-first branch and bound.

    allowed restricts the real candidate slots per AG vertex (the null target
    is always available).  disable_bound turns the lower-bound test off and
    disable_pruning the restricted-mode in-tree constraint checks; both then
    leave the full labelling space to be visited, which the explored_nodes
    and leaves counters report.

    The result is the optimum when it lies strictly below upper_bound, and
    otherwise valid=False with an infinite distance.  Unless disable_bound
    is set, the incumbent also starts just above the greedy labelling's
    cost.  The search still returns the first labelling of minimum cost in
    depth-first order, as a search from an infinite incumbent would; only
    the node counts differ.  A NaN upper_bound raises ValueError.
    """
    w = weights or CostWeights()
    if any(v.is_null for v in g.vertices):
        raise ValueError("bnb_distance expects a non-extended AG")
    if math.isnan(upper_bound):
        raise ValueError("upper_bound must not be NaN")
    n, m = g.order, f.order
    t = _tables if _tables is not None else _CostTables(g, f, w)
    if allowed is None:
        allowed_rows = [list(range(m))] * n
        allowed_bool = np.ones((n, m), dtype=bool)
    else:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (n, m):
            raise ValueError("allowed mask must be %d x %d" % (n, m))
        allowed_rows = [list(np.nonzero(allowed[i])[0]) for i in range(n)]
        allowed_bool = allowed

    best_cost = upper_bound
    if not disable_bound:
        seed = _greedy_cost(g, f, t, allowed_rows)
        best_cost = min(best_cost, math.nextafter(seed, math.inf))
    best_map = None
    explored = 0
    leaves = 0
    stack = [SearchNode(0, (), 0.0, np.zeros((n, m + 1)), (), 0)]
    while stack:
        node = stack.pop()
        explored += 1
        p = node.depth
        if p == n:
            leaves += 1
            cost, ok = labelling_cost(g, f, node.vertex_map, w, _tables=t)
            if ok and cost < best_cost:
                best_cost = cost
                best_map = Labelling(node.vertex_map)
            continue
        children = []
        free_base = None
        if not disable_bound and p + 1 < n:
            used_bool = np.zeros(m, dtype=bool)
            u, q = node.used, 0
            while u:
                if u & 1:
                    used_bool[q] = True
                u >>= 1
                q += 1
            free_base = allowed_bool[p + 1:] & ~used_bool
        for qp in [q for q in allowed_rows[p] if not (node.used >> q) & 1] \
                + [None]:
            new_slots = _new_present_slots(t, node, p, qp)
            if w.planar and qp is not None:
                vmap_try = node.vertex_map + (qp,)
                sources = [p] + [s for s in range(p) if t.pn[s, p]]
                if not _planar_ok(g, vmap_try, sources):
                    continue
            if (w.mode == "restricted" and not disable_pruning
                    and qp is not None
                    and _hard_reject(t, node, p, qp, new_slots)):
                continue
            # kp already holds the arc terms against every placed vertex
            # and, in relaxed mode, the second-order terms the bound may
            # count without overshooting; the leaf re-evaluation is exact
            col = m if qp is None else qp
            child_cost = node.cost + t.vc[p, col] + node.kp[0, col]
            kp_child = node.kp[1:] + _kp_delta(t, node, p, qp)
            if not disable_bound and free_base is not None:
                sub = t.vc[p + 1:] + kp_child
                if m:
                    free = free_base
                    if qp is not None:
                        free = free.copy()
                        free[:, qp] = False
                    lo = np.min(sub[:, :m], axis=1, where=free,
                                initial=math.inf)
                    np.minimum(lo, sub[:, m], out=lo)
                else:
                    lo = sub[:, m]
                if child_cost + float(lo.sum()) >= best_cost + _SLACK:
                    continue
            elif not disable_bound:
                if child_cost >= best_cost + _SLACK:
                    continue
            children.append(SearchNode(
                p + 1, node.vertex_map + (qp,), child_cost, kp_child,
                node.present + tuple(new_slots),
                node.used | (0 if qp is None else 1 << qp)))
        stack.extend(reversed(children))
    if best_map is None:
        best_cost = math.inf
    return MatchResult(best_cost, best_map, explored,
                       best_map is not None, leaves)


def exhaustive_oracle(g, f, weights=None):
    """Brute-force minimum over the whole labelling space.

    Enumerates every subset of AG vertices to keep and every injection of
    that subset into the FDG slots.  Guarded against blowing up: combined
    orders above ten are refused.
    """
    w = weights or CostWeights()
    n, m = g.order, f.order
    if n + m > 10:
        raise ValueError("exhaustive_oracle refuses orders %d + %d" % (n, m))
    t = _CostTables(g, f, w)
    best_cost = math.inf
    best_map = None
    count = 0
    for r in range(min(n, m) + 1):
        for kept in itertools.combinations(range(n), r):
            for slots in itertools.permutations(range(m), r):
                vmap = [None] * n
                for v, q in zip(kept, slots):
                    vmap[v] = q
                count += 1
                cost, ok = labelling_cost(g, f, vmap, w, _tables=t)
                if ok and cost < best_cost:
                    best_cost = cost
                    best_map = Labelling(vmap)
    return MatchResult(best_cost, best_map, count,
                       best_map is not None, count)


def count_labellings(n, m):
    """Size of the labelling space of n vertices into m slots or null."""
    if n < 0 or m < 0:
        raise ValueError("orders must be non-negative")
    a, b = (n, m) if n >= m else (m, n)
    total = Fraction(0)
    for k in range(b + 1):
        total += Fraction(1, (math.factorial(k + a - b)
                              * math.factorial(b - k) * math.factorial(k)))
    total *= math.factorial(a) * math.factorial(b)
    assert total.denominator == 1
    return int(total)


def count_search_nodes(n, m):
    """Nodes a bound-free search visits: partial labellings of every depth,
    the root included."""
    return sum(count_labellings(i, m) for i in range(n + 1))
