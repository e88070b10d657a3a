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
bound on search._map_search, the engine the edit and FORG distances share.
In relaxed mode the first-order terms and vertex antagonism (K3) are unary
and pairwise, so they become the engine's tables; the other second-order
terms have no such form without negative entries, which would break the
bound, so they are charged when a complete labelling is scored.  In
restricted mode vertex antagonism is an infinite pair cost, arc antagonism
an in-tree veto, and the rest of the constraints are checked at the leaf.
A caller's upper bound lets the nearest-prototype loop drop a losing pair
early: bnb_distance reads the root bound off the FDG's cache (_cheap_root)
and cuts a pair whose root reaches the bound with one walk and no tables.
A survivor's incumbent starts just above the cost of a greedy labelling or
at the upper bound, whichever is lower.  exhaustive_oracle grinds through
the whole labelling space and is kept around as an independent check.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .core import _RELATIONS, CostWeights, Labelling, _pair_ends, _slot_list
from .search import (_MARGIN, _SLACK, MatchResult, _arc_floors, _bound,
                     _map_search, _pair_tables, _planar_ok, _planar_vet)


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


def _costs_by_bin(bins, positions, k, k_pr):
    """(positions, costs, spans): every bin a slot of the store holds, with
    the flat positions of the slots that hold it and k * _trunc of its
    probability under each, in one pass over the store's entries.
    positions and costs are flat arrays grouped by bin, each bin's least
    cost first, and spans maps a bin to its slice of them.  positions[s] is
    slot s's flat position, or
    -1 to leave the slot out; a slot with total 0 holds only the null bin,
    at probability 1.  A probability is count over total, divided as
    Python ints, as BinStore.probs does."""
    pos, total = positions.tolist(), bins.total.tolist()
    by_bin = {}
    for s, b, c in itertools.chain(
            ((s, 0, 1) for s, t in enumerate(total) if t == 0),
            zip(bins.slot.tolist(), bins.bin.tolist(), bins.count.tolist())):
        p = pos[s]
        if p >= 0:
            hit = by_bin.get(b)
            if hit is None:
                hit = by_bin[b] = ([], [])
            hit[0].append(p)
            hit[1].append(k * _trunc(c / (total[s] or 1), k_pr))
    flat, costs, spans = [], [], {}
    for b, (ps, cs) in by_bin.items():
        i = cs.index(min(cs))
        ps[0], ps[i], cs[0], cs[i] = ps[i], ps[0], cs[i], cs[0]
        spans[bins.keys[b]] = slice(len(flat), len(flat) + len(ps))
        flat += ps
        costs += cs
    return np.array(flat, dtype=int), np.array(costs, dtype=float), spans


def _put_by_bin(row, key, by_bin):
    """Overwrite the 1-d row, at the positions of the pdfs that hold the
    bin key, with that bin's costs (a _costs_by_bin map)."""
    positions, costs, spans = by_bin
    span = spans.get(key)
    if span is not None:
        row[positions[span]] = costs[span]


def _relation_pairs(f):
    """The relation instances a labelling can violate: a read-only (3, k)
    int array of columns (a, b, kind), kind 0..5 for Aw .. Ee, violated when
    x[a] and x[b] are set, x = [v, ~v, e, ~e] (_violations).  An exempt
    element (null vertex slot, arc slot not existable) leaves every A and E
    pair it is in and the O pairs it is first in; A and E list a pair once,
    as a < b, and no relation pairs an element with itself."""
    m, cols = f.order, []
    big = m * (m - 1)
    for level, ok in enumerate((~f.vnull, ~f.anull)):
        n = len(ok)
        keep = np.array([getattr(f, name) for name in
                         _RELATIONS[3 * level:3 * level + 3]])
        keep &= ok[:, None]
        i = np.arange(n)
        upper = np.less.outer(i, i)
        upper &= ok
        keep[::2] &= upper
        keep[1, i, i] = False
        q, b = np.divmod(keep.ravel().nonzero()[0], n)
        kind, a = np.divmod(q, n)
        cols.append((a, b, kind + 3 * level))
    pairs = np.concatenate(cols, axis=1)
    # where x holds the first and the second element of each kind
    pairs[:2] += np.array([[0, 0, m, 2 * m, 2 * m, 2 * m + big],
                           [0, m, m, 2 * m, 2 * m + big, 2 * m + big]]
                          )[:, pairs[2]]
    pairs.setflags(write=False)
    return pairs


def _fdg_root(f, w):
    """The root part of f's cost cache under w's K1, K2 and K_pr: the vertex
    and arc _costs_by_bin maps (an arc slot with a null endpoint left out),
    del_v, the number of existable slot pairs and min(del_v)."""
    key = (w.K1, w.K2, w.K_pr)
    if f._costs is not None and f._costs[0] == key:
        return f._costs[1]
    m, k_pr = f.order, w.K_pr
    by_vbin = _costs_by_bin(f.vbins, np.arange(m), w.K1, k_pr)
    del_v = np.full(m, w.K1)
    _put_by_bin(del_v, None, by_vbin)
    # a pair with a null slot at either end is free when absent and
    # costs one unit when present, whatever its pdf says
    src, dst = _pair_ends(m)
    by_abin = _costs_by_bin(
        f.abins, np.where(f.vnull[src] | f.vnull[dst], -1, src * m + dst),
        w.K2, k_pr)
    for a in (*by_vbin[:2], *by_abin[:2], del_v):
        a.setflags(write=False)
    root = (by_vbin, by_abin, del_v, int(np.count_nonzero(~f.anull)),
            min(del_v.tolist(), default=0.0))
    f._costs = (key, root, None)
    return root


def _fdg_costs(f, w):
    """f's cost cache: the root part and the search part, filled on first
    use (ce_absent, sidx, ex, rel and the leaf's lists del_v, ce_absent
    and ex_pos), which freezes f's relation arrays so rel cannot go stale."""
    root = _fdg_root(f, w)
    if f._costs[2] is None:
        m = f.order
        by_abin, del_v = root[1:3]
        ce_absent = np.full((m, m), w.K2)
        ce_absent[f.vnull[:, None] | f.vnull[None, :]] = 0.0
        np.fill_diagonal(ce_absent, 0.0)
        _put_by_bin(ce_absent.reshape(-1), None, by_abin)
        src, dst = _pair_ends(m)
        sidx = np.full((m, m), -1, dtype=int)
        sidx[src, dst] = np.arange(len(src))
        ex = np.zeros((m, m), bool)
        ex[src, dst] = ~f.anull
        # ex_pos[q][r]: the row-major place of existable pair (q, r), or -1
        ex_pos = np.full((m, m), -1)
        ex_pos[ex] = np.arange(root[3])
        arrays = (ce_absent, sidx, ex, _relation_pairs(f))
        for a in (*arrays, *f.relations().values()):
            a.setflags(write=False)
        f._costs = f._costs[:2] + ((arrays, (
            del_v.tolist(), ce_absent.tolist(), ex_pos.tolist())),)
    return root, f._costs[2]


def _binned(g, width):
    """g's vertex bins at width, and its present arcs as (pair, bin); an
    extended AG is refused, as matching maps real vertices only."""
    if any(v.is_null for v in g.vertices):
        raise ValueError("matching expects a non-extended AG")
    return ([a.binned(width) for a in g.vertices],
            [(ij, g.arcs[ij].binned(width)) for ij in
             sorted(ij for ij, b in g.arcs.items() if not b.is_null)])


def _cheap_root(bins, f, w):
    """_map_search's root bound, every slot open, on the tables of the AG
    binned as bins and f, from f's root part alone: each vertex's cheapest
    option and each arc's floor is its bin's least cost, the first of its
    span, or K1 and K2 (no cost exceeds them); a pair that is not
    existable holds only the null bin."""
    vertices, arcs = bins
    (_, vcost, vspan), (_, acost, aspan), _, n_ex, min_del = _fdg_root(f, w)
    n = len(vertices)
    v_floor = sum([w.K1 if (s := vspan.get(b)) is None
                   else vcost.item(s.start) for b in vertices])
    a_floor = {ij: w.K2 if (s := aspan.get(b)) is None
               else acost.item(s.start) for ij, b in arcs}
    owed = _bound(n, *_arc_floors(n, a_floor), [0], [0.0], [v_floor],
                  (w.K1 if n else 0.0, min_del, w.K2 if arcs else 0.0, 0.0))
    return owed(0, (1 << f.order) - 1, n_ex, 0)


class _CostTables:
    """Per (AG, FDG, weights) caches used by every cost evaluation.

    First order: vc[i, q] is the vertex cost of AG vertex i on slot q
    (column m is the null target), del_v[q] the cost of leaving slot q
    empty, ce_absent[q, r] the rate of slot pair (q, r) when no AG arc
    lands on it and rates[arc_id[i, j]] the rate matrix of the ordered AG
    pair (i, j), each computed once: rates[0] is ce_absent and rates[a]
    the a-th present AG arc's (pn_pairs[a - 1], in row-major order; pn is
    arc_id > 0).  ce_ex[a - 1] holds that arc's rates on the existable
    slot pairs, in row-major order; on any other pair an AG arc costs K2.
    The list mirrors of vc, del_v, ce_absent and ce_ex (ce_pn_list, by
    AG arc) are read per leaf, where plain-list indexing beats numpy's
    per-call dispatch on matrices this small.

    The first-order tables are built by bin lookup: each AG attribute is
    binned once (bins, from _binned, when the caller has them), every
    entry starts at one unit (K1 or K2), the cost of a bin the slot's pdf
    has never seen, and the slots whose pdf holds the AG's bin are
    overwritten from a bin -> (slots, costs) map (_costs_by_bin),
    bit-identical to vertex_cost and arc_cost times K.  The expanded-vertex
    filter reads these tables too.

    ex[q, r] is True where the slot pair (q, r) is an existable arc slot
    (never on the diagonal), and ex_pos[q][r] is the pair's place among
    them in row-major order (or -1).

    Second order: rel holds the relation instances a labelling can
    violate (_relation_pairs), the only form the relations are kept in;
    it is far smaller than dense m(m-1) x m(m-1) arc masks.

    All but vc, rates, arc_id and what is derived from them come from
    the FDG's cache (_fdg_costs), filled by the first build under the
    pair's K1, K2 and K_pr and shared, read-only, by every later one.
    """

    def __init__(self, g, f, w, bins=None):
        n, m = g.order, f.order
        self.n, self.m = n, m
        self.w = w
        vertices, arcs = bins or _binned(g, f.bin_width)
        (by_vbin, by_abin, self.del_v, *_), (
            (self.ce_absent, self.sidx, self.ex, self.rel),
            (self.del_v_list, self.ce_absent_list, self.ex_pos)) = \
            _fdg_costs(f, w)

        self.vc = np.full((n, m + 1), w.K1)
        for row, b in zip(self.vc, vertices):
            _put_by_bin(row, b, by_vbin)

        self.pn_pairs = [ij for ij, _ in arcs]
        self.rates = np.full((len(arcs) + 1, m, m), w.K2)
        self.rates[0] = self.ce_absent
        self.arc_id = np.zeros((n, n), dtype=int)
        for a, (ij, b) in enumerate(arcs, 1):
            self.arc_id[ij] = a
            _put_by_bin(self.rates[a].reshape(-1), b, by_abin)
        self.pn = self.arc_id > 0
        self.vc_list = self.vc.tolist()
        self.ce_ex = self.rates[1:, self.ex]
        self.ce_pn_list = dict(zip(self.pn_pairs, self.ce_ex.tolist()))


def _realized(t, vmap):
    """Realized vertex slots and arc slots as bool vectors, plus the
    inverse map from slot to AG vertex."""
    v = np.zeros(t.m, bool)
    inv = [None] * t.m
    for i, q in enumerate(vmap):
        if q is not None:
            v[q] = 1
            inv[q] = i
    e = np.zeros(t.m * (t.m - 1), bool)
    for (i, j) in t.pn_pairs:
        if vmap[i] is not None and vmap[j] is not None:
            e[t.sidx[vmap[i], vmap[j]]] = True
    return v, e, inv


def _violations(w, t, v, e):
    """Whether any relation instance is violated, and the K3..K8-weighted
    sum of the violated ones: A and E counted over unordered pairs, O over
    ordered pairs, at both levels."""
    x = np.concatenate((v, ~v, e, ~e))
    a, b, kind = t.rel
    va, vo, ve, ea, eo, ee = np.bincount(kind[x[a] & x[b]],
                                         minlength=6).tolist()
    return (any((va, vo, ve, ea, eo, ee)),
            w.K3 * va + w.K5 * vo + w.K7 * ve
            + w.K4 * ea + w.K6 * eo + w.K8 * ee)


def second_order_cost(g, f, labelling, weights=None):
    """Weighted sum of violated second-order relation instances."""
    w = weights or CostWeights()
    t = _CostTables(g, f, w)
    v, e, _ = _realized(t, _slot_list(labelling, g.order, f.order))
    return _violations(w, t, v, e)[1]


def check_constraints(g, f, labelling, weights=None):
    """Hard-constraint test for the given mode: in restricted mode no
    relation violation is allowed; the planar option applies in both."""
    return labelling_cost(g, f, labelling, weights)[1]


def labelling_cost(g, f, labelling, weights=None, _tables=None):
    """Cost and validity of one complete labelling.

    Returns (cost, valid); an invalid labelling (hard-constraint breach)
    reports (inf, False).  labelling, a vertex map (see core), is checked
    unless the search's leaves pass their own _tables.
    """
    w = weights or CostWeights()
    vmap, t = labelling, _tables
    if t is None:
        vmap, t = _slot_list(labelling, g.order, f.order), _CostTables(g, f, w)
    m = t.m

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
    ca, pos = t.ce_absent_list, t.ex_pos
    for q in matched:
        row = ca[q]
        for r in matched:
            cost += row[r]
    for (i, j) in t.pn_pairs:
        q, r = vmap[i], vmap[j]
        if q is None or r is None:
            cost += w.K2
        else:
            k = pos[q][r]
            cost += (w.K2 if k < 0 else t.ce_pn_list[(i, j)][k]) - ca[q][r]

    violated, second = _violations(w, t, v, e)
    if w.mode == "restricted":
        if violated:
            return math.inf, False
    else:
        cost += second
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


def _arc_tables(t, rows):
    """_map_search's arc tables on rows (_pair_tables): the pair's rates
    plus the vertex antagonism term of (q, r), K3 in relaxed mode and
    infinite in restricted mode."""
    pair = np.zeros((t.m, t.m))
    a, b = t.rel[:2, t.rel[2] == 0]
    pair[a, b] = pair[b, a] = math.inf if t.w.mode == "restricted" else t.w.K3
    return _pair_tables(t.rates, t.arc_id, pair, rows)


def _row_lists(mask):
    """The True columns of each row of a 2-d bool array, as ascending
    lists, from one nonzero pass."""
    cols = mask.nonzero()[1].tolist()
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [cols[a:b] for a, b in zip([0] + ends, ends)]


def _bnb_tables(t, rows=None):
    """The pair's cost as _map_search's tables, in its argument order (vs,
    v_del, v_ins, arc, a_del, a_floor, a_ins): vertex costs, AG arcs
    deleted with an endpoint at K2 each, the existable slot pairs as the
    second side's arcs at no insertion cost, and the builder of the tables
    of arc rates per pair of placed vertices (_arc_tables) on rows."""
    w, m = t.w, t.m
    # an AG arc on a slot pair that is not existable costs K2, so K2 also
    # caps every arc's floor
    floors = t.ce_ex.min(axis=1, initial=w.K2)
    qs, rs = np.nonzero(t.ex)
    return (t.vc_list, [row[m] for row in t.vc_list], t.del_v_list,
            lambda: _arc_tables(t, rows), dict.fromkeys(t.pn_pairs, w.K2),
            dict(zip(t.pn_pairs, floors.tolist())),
            dict.fromkeys(zip(qs.tolist(), rs.tolist()), 0.0))


def _arc_antagonism_vet(t):
    """Restricted mode's in-tree veto: placing p may realize no arc slot
    antagonistic to another realized one.  Occurrence and existence depend
    on what ends up deleted, so they wait for the leaf."""
    foes = {}
    for a, b in (t.rel[:2, t.rel[2] == 3] - 2 * t.m).T.tolist():
        foes.setdefault(a, set()).add(b)
        foes.setdefault(b, set()).add(a)
    sidx = t.sidx.tolist()
    # by_last[p]: the AG arcs whose later endpoint is p
    by_last = [[] for _ in range(t.n)]
    for i, j in t.pn_pairs:
        by_last[max(i, j)].append((i, j))

    def realized(vmap, arcs):
        return [sidx[vmap[i]][vmap[j]] for i, j in arcs
                if vmap[i] is not None and vmap[j] is not None]

    def vet(vmap, p):
        hit = set()
        for a in realized(vmap, by_last[p]):
            hit.update(foes.get(a, ()))
        return not hit or not any(
            b in hit for s in range(p + 1) for b in realized(vmap, by_last[s]))

    return vet


def bnb_distance(g, f, weights=None, allowed=None, disable_bound=False,
                 disable_pruning=False, upper_bound=math.inf, _root=None,
                 _mask=None):
    """Distance from AG g to FDG f by depth-first branch and bound.

    The search is _map_search on the pair's tables (_bnb_tables).  Every
    leaf that could beat the incumbent is scored by labelling_cost, which
    charges the second-order terms with no table form or rejects a breach,
    so the distance is the same float as exhaustive_oracle's.

    allowed restricts the real candidate slots per AG vertex (the null target
    is always available).  disable_bound turns the cuts by cost off and
    disable_pruning the restricted-mode arc antagonism veto; both then leave
    the full labelling space to be visited, which the explored_nodes and
    leaves counters report.

    The result is the optimum when it lies strictly below upper_bound, and
    otherwise valid=False with an infinite distance.  Unless disable_bound
    is set, a finite upper_bound first meets the root bound with every slot
    open (_cheap_root), and a pair cut there takes one walk and builds no
    table; a survivor's incumbent starts just above the greedy labelling's
    cost.  The search still returns the first labelling of minimum cost in
    depth-first order, as a search from an infinite incumbent would; only
    the node counts differ.  A NaN upper_bound raises ValueError.

    _root, private, is g's bins at f's bin width (_binned) and its cheap
    root, or None.  _mask, a private stand-in for allowed, builds the
    (n, m) bool mask from the tables of a pair that survived that cut; a
    mask only takes candidates away, so a pair cut without it would be
    cut with it too.
    """
    w = weights or CostWeights()
    bins, root = _root or (_binned(g, f.bin_width), None)
    if math.isnan(upper_bound):
        raise ValueError("upper_bound must not be NaN")
    n, m = g.order, f.order
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (n, m):
            raise ValueError("allowed mask must be %d x %d" % (n, m))
    if not disable_bound and upper_bound < math.inf:
        if root is None:
            root = _cheap_root(bins, f, w)
        if root * _SLACK >= upper_bound + _MARGIN:
            return MatchResult(math.inf, None, 1, False, 0)
    t = _CostTables(g, f, w, bins)
    mask = allowed if _mask is None else _mask(t)
    rows = None if mask is None else _row_lists(mask)
    if not disable_bound:
        upper_bound = min(upper_bound, math.nextafter(
            _greedy_cost(g, f, t, rows), math.inf))

    vets = []
    if w.planar:
        vets.append(_planar_vet(g))
    # kind 3 is arc antagonism (_relation_pairs)
    if w.mode == "restricted" and not disable_pruning and 3 in t.rel[2]:
        vets.append(_arc_antagonism_vet(t))

    def both(vmap, p):
        return vets[0](vmap, p) and vets[1](vmap, p)

    vet = both if len(vets) == 2 else vets[0] if vets else None

    def score(vmap):
        cost, ok = labelling_cost(g, f, vmap, w, _tables=t)
        return cost if ok else math.inf

    return _map_search(*_bnb_tables(t, rows), upper_bound, vet, rows, score,
                       bound=not disable_bound)


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
