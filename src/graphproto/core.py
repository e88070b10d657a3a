"""Domain types for attributed graphs and probabilistic graph prototypes.

An attributed graph (AG) is a directed graph whose vertices and arcs carry
fixed-arity attribute tuples.  A function-described graph (FDG) is a prototype
for a set of AGs: a discrete probability function per vertex and per arc slot
(arc pdfs are conditional on both endpoints being present) plus six Boolean
second-order relation matrices (antagonism, occurrence, existence, for
vertices and for arcs) and the sample counts behind them.

Absence is modelled by a distinguished null value PHI.  A graph of order k can
be extended to a complete graph of any order n >= k by padding with null
elements; extension is information preserving and all matching machinery works
on the extended view.

Conventions used throughout the package:
  * vertex and arc-slot indices are 0-based,
  * pdfs store integer sample counts, probabilities are count/total,
  * the null bin of a pdf is keyed by None.
"""

import math

import numpy as np


class AttrTuple:
    """A fixed-length tuple of attribute components, or the null value.

    Components are ints, finite floats or strings.  The null tuple PHI marks
    an absent element; it carries no components.
    """

    __slots__ = ("values", "is_null")

    def __init__(self, values=(), is_null=False):
        if is_null and values:
            raise ValueError("null attribute carries no components")
        if not is_null and len(values) == 0:
            raise ValueError("a non-null tuple needs at least one component")
        for v in values:
            if not isinstance(v, (str, int)) and not math.isfinite(v):
                raise ValueError("non-finite attribute component %r" % (v,))
        self.values = tuple(values)
        self.is_null = bool(is_null)

    def binned(self, width=1.0):
        """Discretisation key: None for PHI, else a tuple of per-component bins.

        Numeric components map to floor(v / width); strings are kept as-is.
        """
        if self.is_null:
            return None
        key = []
        for v in self.values:
            if isinstance(v, str):
                key.append(v)
            else:
                key.append(int(math.floor(v / width)))
        return tuple(key)

    def __eq__(self, other):
        if not isinstance(other, AttrTuple):
            return NotImplemented
        return self.is_null == other.is_null and self.values == other.values

    def __hash__(self):
        return hash((self.is_null, self.values))

    def __repr__(self):
        if self.is_null:
            return "PHI"
        return "attr(%s)" % ", ".join(repr(v) for v in self.values)


PHI = AttrTuple(is_null=True)


def attr(*values):
    """Shorthand constructor for a non-null attribute tuple."""
    return AttrTuple(values)


def is_null(a):
    return a is None or (isinstance(a, AttrTuple) and a.is_null)


def checked_bin_width(width):
    """width as a float; ValueError unless it is positive and finite."""
    width = float(width)
    if not (width > 0 and math.isfinite(width)):
        raise ValueError("bin width must be positive and finite, got %r"
                         % (width,))
    return width


class Pdf:
    """Discrete probability function backed by integer sample counts.

    counts maps a bin key (None for the null bin) to the number of samples in
    it; total is the denominator.  total == 0 encodes the degenerate pdf that
    puts all mass on the null bin (used for arc slots whose endpoints were
    never co-present).  Keeping counts instead of floats makes pdf mixtures
    exact: mixing two frequency pdfs with weights proportional to their totals
    is the same as adding their counts.
    """

    __slots__ = ("counts", "total", "bin_width")

    def __init__(self, counts, total, bin_width=1.0):
        clean = {}
        s = 0
        for k, c in counts.items():
            if c < 0 or c != int(c):
                raise ValueError("pdf counts must be non-negative integers")
            c = int(c)
            if c > 0:
                clean[k] = c
                s += c
        if s != total:
            raise ValueError("pdf counts sum to %d, expected total %d" % (s, total))
        self.counts = clean
        self.total = int(total)
        self.bin_width = checked_bin_width(bin_width)

    @classmethod
    def from_attrs(cls, attrs, bin_width=1.0):
        """Estimate from a sample of AttrTuples (PHI and None both count as null)."""
        bin_width = checked_bin_width(bin_width)
        counts = {}
        n = 0
        for a in attrs:
            key = None if is_null(a) else a.binned(bin_width)
            counts[key] = counts.get(key, 0) + 1
            n += 1
        return cls(counts, n, bin_width)

    def prob(self, key):
        if self.total == 0:
            return 1.0 if key is None else 0.0
        return self.counts.get(key, 0) / self.total

    def prob_attr(self, a):
        key = None if is_null(a) else a.binned(self.bin_width)
        return self.prob(key)

    def prob_null(self):
        return self.prob(None)

    def is_null(self):
        """Pr(PHI) = 1."""
        return self.total == 0 or self.counts.get(None, 0) == self.total

    def is_strict(self):
        """Pr(PHI) = 0."""
        return self.total > 0 and self.counts.get(None, 0) == 0

    def entropy(self):
        """Shannon entropy in bits; 0 log 0 is taken as 0."""
        if self.total == 0:
            return 0.0
        h = 0.0
        for c in self.counts.values():
            p = c / self.total
            h -= p * math.log2(p)
        return h

    def probs(self):
        """Bin-to-probability view of the pdf."""
        if self.total == 0:
            return {None: 1.0}
        return {k: c / self.total for k, c in self.counts.items()}

    def merge(self, other):
        """Count-wise sum; equals the total-weighted mixture of the two pdfs."""
        if self.bin_width != other.bin_width:
            raise ValueError("cannot merge pdfs with different bin widths")
        counts = dict(self.counts)
        for k, c in other.counts.items():
            counts[k] = counts.get(k, 0) + c
        return Pdf(counts, self.total + other.total, self.bin_width)

    def __eq__(self, other):
        if not isinstance(other, Pdf):
            return NotImplemented
        return (self.counts == other.counts and self.total == other.total
                and self.bin_width == other.bin_width)

    def __repr__(self):
        inner = ", ".join("%r: %d" % (k, c) for k, c in sorted(
            self.counts.items(), key=lambda kv: (kv[0] is not None, repr(kv[0]))))
        return "Pdf({%s}/%d)" % (inner, self.total)


def null_pdf(total, bin_width=1.0):
    """Pdf of an element absent in all `total` samples."""
    if total == 0:
        return Pdf({}, 0, bin_width)
    return Pdf({None: total}, total, bin_width)


class AttributedGraph:
    """Directed graph with attribute tuples on vertices and arcs.

    arcs maps ordered vertex pairs (i, j), i != j, to AttrTuple.  Null
    elements are only legal when extended is true.  Structural coherence is
    enforced: a non-null arc needs two non-null endpoints.  arc_order, when
    given, fixes the cyclic order of each vertex's outgoing non-null arcs
    (used by the planar constraint); vertices without outgoing arcs may be
    omitted from it.
    """

    __slots__ = ("vertices", "arcs", "arc_order", "extended")

    def __init__(self, vertices, arcs, arc_order=None, extended=False, validate=True):
        self.vertices = list(vertices)
        self.arcs = dict(arcs)
        self.arc_order = None if arc_order is None else {
            i: list(t) for i, t in arc_order.items()}
        self.extended = bool(extended)
        if validate:
            self._check()

    def _check(self):
        n = len(self.vertices)
        for v in self.vertices:
            if not isinstance(v, AttrTuple):
                raise ValueError("vertices must be AttrTuples")
            if v.is_null and not self.extended:
                raise ValueError("null vertex in a non-extended graph")
        for (i, j), b in self.arcs.items():
            if i == j:
                raise ValueError("self-loop at vertex %d" % i)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("arc (%d, %d) outside vertex range" % (i, j))
            if not isinstance(b, AttrTuple):
                raise ValueError("arcs must be AttrTuples")
            if b.is_null and not self.extended:
                raise ValueError("null arc in a non-extended graph")
            if not b.is_null and (self.vertices[i].is_null or self.vertices[j].is_null):
                raise ValueError("non-null arc (%d, %d) with a null endpoint" % (i, j))
        if self.arc_order is not None:
            for i, targets in self.arc_order.items():
                present = set(j for j in range(n)
                              if (i, j) in self.arcs and not self.arcs[(i, j)].is_null)
                if set(targets) != present or len(targets) != len(present):
                    raise ValueError("arc_order of vertex %d does not list its "
                                     "outgoing arcs exactly once" % i)

    @property
    def order(self):
        return len(self.vertices)

    def present_arcs(self):
        """Pairs ((i, j), attr) of non-null arcs."""
        return [(ij, b) for ij, b in self.arcs.items() if not b.is_null]

    def out_targets(self, i):
        """Targets of vertex i's non-null outgoing arcs, in cyclic order.

        Falls back to ascending target index when no arc_order was given.
        """
        if self.arc_order is not None and i in self.arc_order:
            return list(self.arc_order[i])
        return sorted(j for (a, j), b in self.arcs.items()
                      if a == i and not b.is_null)

    def __repr__(self):
        return "AttributedGraph(order=%d, arcs=%d%s)" % (
            self.order, len(self.present_arcs()), ", extended" if self.extended else "")


def extend_ag(g, k):
    """Pad an AG with null elements to a complete graph of order k."""
    if k < g.order:
        raise ValueError("cannot extend order %d graph to order %d" % (g.order, k))
    vertices = list(g.vertices) + [PHI] * (k - g.order)
    arcs = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                arcs[(i, j)] = g.arcs.get((i, j), PHI)
    return AttributedGraph(vertices, arcs, arc_order=g.arc_order, extended=True)


class Labelling:
    """Vertex map from a source graph into a target structure.

    vertex_map[i] is the target index of source vertex i, or None for the
    null target.  Injective on non-null targets.
    """

    __slots__ = ("vertex_map",)

    def __init__(self, vertex_map):
        vm = tuple(vertex_map)
        real = [t for t in vm if t is not None]
        if len(real) != len(set(real)):
            raise ValueError("labelling maps two vertices to one target")
        self.vertex_map = vm

    def __len__(self):
        return len(self.vertex_map)

    def target(self, i):
        return self.vertex_map[i]

    def inverse(self, m):
        """Target-to-source view over m target slots (None where unmatched)."""
        inv = [None] * m
        for i, t in enumerate(self.vertex_map):
            if t is not None:
                inv[t] = i
        return inv

    def real_pairs(self):
        return [(i, t) for i, t in enumerate(self.vertex_map) if t is not None]

    def __eq__(self, other):
        if not isinstance(other, Labelling):
            return NotImplemented
        return self.vertex_map == other.vertex_map

    def __hash__(self):
        return hash(self.vertex_map)

    def __repr__(self):
        return "Labelling(%s)" % (self.vertex_map,)


def vertex_list(labelling, order):
    """The vertex map of a Labelling or of a plain sequence, as a new list.

    Raises ValueError unless it has exactly `order` entries, one per source
    vertex.
    """
    vmap = list(labelling.vertex_map) if isinstance(labelling, Labelling) \
        else list(labelling)
    if len(vmap) != order:
        raise ValueError("labelling arity %d does not match order %d"
                         % (len(vmap), order))
    return vmap


class CostWeights:
    """Weights and options of the AG-to-FDG distance.

    K1/K2 weight first-order vertex/arc costs; K3..K8 the second-order costs
    (antagonism, occurrence, existence on vertices and arcs, in the order
    K3 vertex-A, K4 arc-A, K5 vertex-O, K6 arc-O, K7 vertex-E, K8 arc-E).
    K_pr is the low-probability floor of the cost normalisation.  mode picks
    hard second-order constraints ("restricted") or additive second-order
    costs ("relaxed"); planar adds the arc-order constraint in both modes.
    """

    __slots__ = ("K1", "K2", "K3", "K4", "K5", "K6", "K7", "K8",
                 "K_pr", "planar", "mode")

    def __init__(self, K1=1.0, K2=1.0, K3=1.0, K4=0.0, K5=0.0, K6=0.0,
                 K7=0.0, K8=0.0, K_pr=1e-4, planar=False, mode="relaxed"):
        for name, k in (("K1", K1), ("K2", K2), ("K3", K3), ("K4", K4),
                        ("K5", K5), ("K6", K6), ("K7", K7), ("K8", K8)):
            if k < 0:
                raise ValueError("%s must be non-negative" % name)
        if not (0.0 < K_pr < 1.0):
            raise ValueError("K_pr must lie strictly between 0 and 1")
        if mode not in ("restricted", "relaxed"):
            raise ValueError("mode must be 'restricted' or 'relaxed'")
        self.K1, self.K2, self.K3, self.K4 = float(K1), float(K2), float(K3), float(K4)
        self.K5, self.K6, self.K7, self.K8 = float(K5), float(K6), float(K7), float(K8)
        self.K_pr = float(K_pr)
        self.planar = bool(planar)
        self.mode = mode

    def replace(self, **kw):
        cur = {s: getattr(self, s) for s in self.__slots__}
        cur.update(kw)
        return CostWeights(**cur)

    def __repr__(self):
        return ("CostWeights(K1=%g, K2=%g, K3=%g, K4=%g, K5=%g, K6=%g, K7=%g, "
                "K8=%g, K_pr=%g, planar=%s, mode=%s)" % (
                    self.K1, self.K2, self.K3, self.K4, self.K5, self.K6,
                    self.K7, self.K8, self.K_pr, self.planar, self.mode))


def arc_number(k, l, n):
    """1-based label of the ordered pair (k, l) among the n(n-1) arc slots."""
    if not (1 <= k <= n and 1 <= l <= n) or k == l:
        raise ValueError("invalid arc indices (%d, %d) for order %d" % (k, l, n))
    if l < k:
        return (k - 1) * (n - 1) + l
    return (k - 1) * (n - 1) + l - 1


def arc_index(i, j, n):
    """0-based slot index of the ordered pair (i, j) under 0-based vertices."""
    return arc_number(i + 1, j + 1, n) - 1


def slot_pairs(n):
    """All ordered vertex pairs of an order-n complete graph, slot-indexed."""
    pairs = [None] * (n * (n - 1))
    for i in range(n):
        for j in range(n):
            if i != j:
                pairs[arc_index(i, j, n)] = (i, j)
    return pairs


class Fdg:
    """Function-described graph.

    vertex_pdfs[i] is the pdf of vertex slot i; arc_pdfs[(i, j)] the pdf of
    the arc slot (i, j) conditional on both endpoints being non-null, present
    for every ordered pair.  Aw/Ow/Ew are n-by-n Boolean antagonism,
    occurrence and existence matrices over vertex slots; Ae/Oe/Ee their
    arc-slot counterparts indexed by arc_index.  z counts the AGs the FDG was
    synthesised from and u[(i, j)] the AGs in which both endpoints of that
    slot were present (the denominator of the conditional arc pdf).
    bin_width is the width all pdfs bin at, so an FDG of order 0 keeps it
    too; left out, it comes from the pdfs, or is 1.0 when there are none.
    """

    __slots__ = ("vertex_pdfs", "arc_pdfs", "Aw", "Ow", "Ew", "Ae", "Oe", "Ee",
                 "z", "u", "bin_width")

    def __init__(self, vertex_pdfs, arc_pdfs, relations, z, u, bin_width=None,
                 validate=True):
        self.vertex_pdfs = list(vertex_pdfs)
        if bin_width is None:
            bin_width = self.vertex_pdfs[0].bin_width if self.vertex_pdfs else 1.0
        self.bin_width = checked_bin_width(bin_width)
        self.arc_pdfs = dict(arc_pdfs)
        self.Aw = np.asarray(relations["Aw"], dtype=bool)
        self.Ow = np.asarray(relations["Ow"], dtype=bool)
        self.Ew = np.asarray(relations["Ew"], dtype=bool)
        self.Ae = np.asarray(relations["Ae"], dtype=bool)
        self.Oe = np.asarray(relations["Oe"], dtype=bool)
        self.Ee = np.asarray(relations["Ee"], dtype=bool)
        self.z = int(z)
        self.u = dict(u)
        if validate:
            self._check()

    def _check(self):
        n = self.order
        m = n * (n - 1)
        if self.Aw.shape != (n, n) or self.Ow.shape != (n, n) or self.Ew.shape != (n, n):
            raise ValueError("vertex relation matrices must be %d x %d" % (n, n))
        if self.Ae.shape != (m, m) or self.Oe.shape != (m, m) or self.Ee.shape != (m, m):
            raise ValueError("arc relation matrices must be %d x %d" % (m, m))
        for i in range(n):
            for j in range(n):
                if i != j and (i, j) not in self.arc_pdfs:
                    raise ValueError("missing arc pdf for slot (%d, %d)" % (i, j))
        for p in self.vertex_pdfs + list(self.arc_pdfs.values()):
            if p.bin_width != self.bin_width:
                raise ValueError("pdf bin width %r differs from the FDG's %r"
                                 % (p.bin_width, self.bin_width))
        for ij, q in self.arc_pdfs.items():
            uij = self.u.get(ij, 0)
            if q.total != uij:
                raise ValueError("arc pdf total %d disagrees with u=%d at %s"
                                 % (q.total, uij, (ij,)))
        for name, mat in (("Aw", self.Aw), ("Ew", self.Ew),
                          ("Ae", self.Ae), ("Ee", self.Ee)):
            if not np.array_equal(mat, mat.T):
                raise ValueError("%s must be symmetric" % name)
        for name, mat in (("Ow", self.Ow), ("Oe", self.Oe)):
            if not mat.diagonal().all():
                raise ValueError("%s must be reflexive" % name)

    @property
    def order(self):
        return len(self.vertex_pdfs)

    def vertex_null(self, i):
        return self.vertex_pdfs[i].is_null()

    def vertex_strict(self, i):
        return self.vertex_pdfs[i].is_strict()

    def arc_null(self, i, j):
        """Unconditional Pr(arc = PHI) = 1."""
        return (self.arc_pdfs[(i, j)].is_null()
                or self.vertex_null(i) or self.vertex_null(j))

    def arc_strict(self, i, j):
        """Unconditional Pr(arc = PHI) = 0."""
        return (self.arc_pdfs[(i, j)].is_strict()
                and self.vertex_strict(i) and self.vertex_strict(j))

    def existable(self, i, j):
        return not self.arc_null(i, j)

    def relations(self):
        return {"Aw": self.Aw, "Ow": self.Ow, "Ew": self.Ew,
                "Ae": self.Ae, "Oe": self.Oe, "Ee": self.Ee}

    def __repr__(self):
        return "Fdg(order=%d, z=%d)" % (self.order, self.z)


def unconditional_arc_prob(f, arc, value):
    """Unconditional probability of an arc slot taking `value` (PHI for None).

    Combines the conditional arc pdf with the endpoint null probabilities:
    the arc is null whenever either endpoint is, and carries a non-null value
    only when both endpoints are present.
    """
    i, j = arc
    q = f.arc_pdfs[(i, j)]
    p1 = f.vertex_pdfs[i].prob_null()
    p2 = f.vertex_pdfs[j].prob_null()
    both = (1.0 - p1) * (1.0 - p2)
    if value is None or (isinstance(value, AttrTuple) and value.is_null):
        return 1.0 - (1.0 - q.prob_null()) * both
    return q.prob_attr(value) * both


def co_occurrence(f):
    """Mutual-occurrence matrices: C(x, y) = O(x, y) and O(y, x)."""
    return self_and_transpose(f.Ow), self_and_transpose(f.Oe)


def self_and_transpose(mat):
    return np.logical_and(mat, mat.T)


def _null_flags(f):
    """Value-based nullness and strictness of every vertex and arc slot."""
    n = f.order
    vnull = np.array([f.vertex_null(i) for i in range(n)], dtype=bool)
    vstrict = np.array([f.vertex_strict(i) for i in range(n)], dtype=bool)
    pairs = slot_pairs(n)
    anull = np.array([f.arc_null(i, j) for (i, j) in pairs], dtype=bool)
    astrict = np.array([f.arc_strict(i, j) for (i, j) in pairs], dtype=bool)
    return vnull, vstrict, anull, astrict


def _extended_relations(old_A, old_O, old_E, old_idx, null, strict, size):
    """Fill relation matrices of an extended structure.

    old_idx maps each old row to its new position; null/strict are the
    value-based flags of all `size` new slots.  Pairs of carried-over slots
    where neither element is null keep their old bits; every pair involving a
    null element follows the fixed extension rules (antagonism always holds,
    a null element occurs in everything, existence with a null element holds
    only against a strict one, two null elements are never existent).
    """
    non_null = ~null
    A = null[:, None] | null[None, :]
    O = np.repeat(null[:, None], size, axis=1)
    E = ((null[:, None] & non_null[None, :] & strict[None, :])
         | (non_null[:, None] & null[None, :] & strict[:, None]))
    if len(old_idx):
        ix = np.ix_(old_idx, old_idx)
        keep = non_null[old_idx]
        both = keep[:, None] & keep[None, :]
        A[ix] |= old_A & both
        O[ix] |= old_O & both
        E[ix] |= old_E & both
    return A, O, E


def remap_fdg(f, vertex_map, k):
    """Re-seat an FDG's slots at new positions inside an order-k frame.

    vertex_map[i] is the new position of old slot i (injective, within
    range).  Unclaimed positions become null slots: absent in all z samples,
    with the degenerate conditional arc pdf and u = 0.  Relation bits between
    re-seated pairs are kept; pairs involving a null element follow the
    extension rules (see _extended_relations).  Arc matrices are re-indexed
    because slot numbering depends on the order.
    """
    n = f.order
    vmap = list(vertex_map)
    if len(vmap) != n or len(set(vmap)) != n:
        raise ValueError("vertex map must place each old slot once")
    if any(not (0 <= t < k) for t in vmap):
        raise ValueError("vertex map target outside order %d" % k)
    vertex_pdfs = [null_pdf(f.z, f.bin_width)] * k
    for i, t in enumerate(vmap):
        vertex_pdfs[t] = f.vertex_pdfs[i]
    arc_pdfs = {}
    u = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                arc_pdfs[(i, j)] = Pdf({}, 0, f.bin_width)
                u[(i, j)] = 0
    for (i, j), q in f.arc_pdfs.items():
        arc_pdfs[(vmap[i], vmap[j])] = q
        u[(vmap[i], vmap[j])] = f.u.get((i, j), 0)
    tmp = Fdg(vertex_pdfs, arc_pdfs,
              {"Aw": np.ones((k, k), bool), "Ow": np.ones((k, k), bool),
               "Ew": np.ones((k, k), bool),
               "Ae": np.ones((k * (k - 1), k * (k - 1)), bool),
               "Oe": np.ones((k * (k - 1), k * (k - 1)), bool),
               "Ee": np.ones((k * (k - 1), k * (k - 1)), bool)},
              f.z, u, f.bin_width, validate=False)
    vnull, vstrict, anull, astrict = _null_flags(tmp)
    vidx = np.asarray(vmap, dtype=int)
    Aw, Ow, Ew = _extended_relations(f.Aw, f.Ow, f.Ew, vidx, vnull, vstrict, k)
    old_pairs = slot_pairs(n)
    aidx = np.array([arc_index(vmap[i], vmap[j], k) for (i, j) in old_pairs],
                    dtype=int)
    Ae, Oe, Ee = _extended_relations(f.Ae, f.Oe, f.Ee, aidx, anull, astrict,
                                     k * (k - 1))
    return Fdg(vertex_pdfs, arc_pdfs,
               {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
               f.z, u, f.bin_width)


def extend_fdg(f, k):
    """Pad an FDG with null vertices (and their arc slots) to order k."""
    if k < f.order:
        raise ValueError("cannot extend order %d FDG to order %d" % (f.order, k))
    return remap_fdg(f, range(f.order), k)


def induced_arc_map(f_v, g):
    """Arc map induced by a vertex map under structural coherence.

    Arc (i, j) of g maps to the target slot (f_v[i], f_v[j]) when both
    targets are non-null, and to the null arc (None) otherwise.
    """
    amap = {}
    for (i, j) in g.arcs:
        ti, tj = f_v[i], f_v[j]
        if ti is None or tj is None:
            amap[(i, j)] = None
        else:
            amap[(i, j)] = (ti, tj)
    return amap


def verify_identities(f, sample, labellings=None):
    """Cross-check an FDG's stored relations and pdfs against its sample.

    sample is the list of AGs the FDG was synthesised from, either already
    extended and slot-aligned (labellings None) or accompanied by one label
    map per AG (vertex index -> slot).  Re-derives the six relation matrices
    from the joint presence frequencies and reports every disagreement with
    the stored bits, then checks the stored first-order pdfs against the
    stored relations (antagonist-and-occurrent slots must be certainly null,
    existent-and-occurrent ones certainly present).  Returns a list of
    human-readable mismatch strings; empty means consistent.
    """
    n = f.order
    z = len(sample)
    if z == 0:
        raise ValueError("invalid sample: empty")
    if labellings is None:
        labellings = [list(range(g.order)) for g in sample]
    if len(labellings) != z:
        raise ValueError("invalid sample: %d graphs, %d labellings"
                         % (z, len(labellings)))

    vp = np.zeros((z, n), dtype=bool)
    pairs = slot_pairs(n)
    m = len(pairs)
    ap = np.zeros((z, m), dtype=bool)
    for g_i, (g, lab) in enumerate(zip(sample, labellings)):
        if len(lab) != g.order:
            raise ValueError("invalid sample: labelling arity mismatch at graph %d" % g_i)
        seen = set()
        for v_i, s in enumerate(lab):
            if not (0 <= s < n) or s in seen:
                raise ValueError("invalid sample: bad label %r at graph %d" % (s, g_i))
            seen.add(s)
            vp[g_i, s] = not g.vertices[v_i].is_null
        inv = {s: v_i for v_i, s in enumerate(lab)}
        for k, (si, sj) in enumerate(pairs):
            if si in inv and sj in inv:
                b = g.arcs.get((inv[si], inv[sj]))
                ap[g_i, k] = b is not None and not b.is_null

    report = []

    def recompute(pres):
        cols = pres.shape[1]
        A = np.ones((cols, cols), dtype=bool)
        O = np.ones((cols, cols), dtype=bool)
        E = np.ones((cols, cols), dtype=bool)
        for x in range(cols):
            for y in range(cols):
                for g_i in range(pres.shape[0]):
                    if pres[g_i, x] and pres[g_i, y]:
                        A[x, y] = False
                    if pres[g_i, x] and not pres[g_i, y]:
                        O[x, y] = False
                    if not pres[g_i, x] and not pres[g_i, y]:
                        E[x, y] = False
        return A, O, E

    for name, stored, expected in zip(
            ("Aw", "Ow", "Ew"), (f.Aw, f.Ow, f.Ew), recompute(vp)):
        for x, y in zip(*np.nonzero(stored != expected)):
            report.append("%s[%d, %d]: stored %d, sample says %d"
                          % (name, x, y, stored[x, y], expected[x, y]))
    for name, stored, expected in zip(
            ("Ae", "Oe", "Ee"), (f.Ae, f.Oe, f.Ee), recompute(ap)):
        for x, y in zip(*np.nonzero(stored != expected)):
            report.append("%s[%d, %d]: stored %d, sample says %d"
                          % (name, x, y, stored[x, y], expected[x, y]))

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ao = f.Aw[i, j] and f.Ow[i, j]
            if ao != f.vertex_null(i):
                report.append("vertex identity A&O at (%d, %d): relation %d, "
                              "p(PHI)=1 is %d" % (i, j, ao, f.vertex_null(i)))
            eo = f.Ew[i, j] and f.Ow[i, j]
            if eo != f.vertex_strict(j):
                report.append("vertex identity E&O at (%d, %d): relation %d, "
                              "p(PHI)=0 is %d" % (i, j, eo, f.vertex_strict(j)))
    for s, (si, sj) in enumerate(pairs):
        for t, (ti, tj) in enumerate(pairs):
            if s == t:
                continue
            ao = f.Ae[s, t] and f.Oe[s, t]
            if ao != f.arc_null(si, sj):
                report.append("arc identity A&O at (%d, %d): relation %d, "
                              "Pr(PHI)=1 is %d" % (s, t, ao, f.arc_null(si, sj)))
            eo = f.Ee[s, t] and f.Oe[s, t]
            if eo != f.arc_strict(ti, tj):
                report.append("arc identity E&O at (%d, %d): relation %d, "
                              "Pr(PHI)=0 is %d" % (s, t, eo, f.arc_strict(ti, tj)))
    return report
