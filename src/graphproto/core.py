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
  * an FDG keeps its pdfs as integer sample counts in two count stores
    (BinStore), one for the vertex slots and one for the arc slots in
    arc_index order; a probability is count/total,
  * Pdf is the one-pdf form: how callers build an FDG, and the read-only
    view an FDG gives of each store row, built on demand,
  * the null bin of a pdf is keyed by None,
  * a vertex map (a Labelling or a plain sequence) sends each vertex of a
    source graph to a distinct slot 0..m-1 of a target, or to the null
    target None; _slot_list is the one check of that rule, and
    _slot_lists applies it to the maps of several graphs.
"""

import functools
import math
import operator

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

    def __init__(self, vertices, arcs, arc_order=None, extended=False):
        self.vertices = list(vertices)
        self.arcs = dict(arcs)
        self.arc_order = None if arc_order is None else {
            i: list(t) for i, t in arc_order.items()}
        self.extended = bool(extended)
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

    vertex_map[i] is the slot of source vertex i, or None (see Conventions);
    the constructor refuses a slot used twice, _slot_list the rest.
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


def _check_count(value, name, least=0):
    """ValueError unless value is an int or numpy integer >= least."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError("%s %r must be an integer >= %d"
                         % (name, value, least))


def _slot_list(labelling, order, m):
    """A vertex map of `order` vertices (None: any) into m slots as a new
    list, each slot None or an int; ValueError unless it keeps the rule."""
    if isinstance(labelling, Labelling):
        labelling = labelling.vertex_map
    try:
        vmap = list(labelling)
    except TypeError:
        raise ValueError("labelling %r is not a sequence"
                         % (labelling,)) from None
    if order is not None and len(vmap) != order:
        raise ValueError("labelling arity %d does not match order %d"
                         % (len(vmap), order))
    for i, q in enumerate(vmap):
        if q is None:
            continue
        try:
            vmap[i] = q = operator.index(q)
        except TypeError:
            raise ValueError("vertex %d: slot %r is not an integer"
                             % (i, q)) from None
        if not 0 <= q < m:
            raise ValueError("vertex %d: slot %r outside prototype order %r"
                             % (i, q, m))
    Labelling(vmap)
    return vmap


def _slot_lists(maps, orders, m):
    """_slot_list of each map, map g of orders[g] vertices; a ValueError
    names the graph whose map breaks the rule."""
    out = []
    for g, (labelling, order) in enumerate(zip(maps, orders)):
        try:
            out.append(_slot_list(labelling, order, m))
        except ValueError as exc:
            raise ValueError("graph %d: %s" % (g, exc)) from None
    return out


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
            if not k >= 0:
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
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# counts, totals and z are held as int64
COUNT_LIMIT = 1 << 63


class BinStore:
    """The pdfs of one kind of FDG slot as count arrays: the vertex slots,
    or the arc slots in arc_index order.

    keys lists the distinct bin keys, the null bin None first.  Entry e
    puts count[e] > 0 samples of slot slot[e] in bin keys[bin[e]]; entries
    are sorted by slot, a slot holds a bin at most once, and each slot
    lists its bins in the order they were first seen, which synthesis,
    pooling and file reading all keep.  total[s] is the sum of slot s's
    counts; a slot with total 0 is the degenerate pdf that puts all mass
    on the null bin.  width is the bin width of every pdf.  Counts and
    totals are int64, so a total stays below COUNT_LIMIT.  Nothing writes
    a store after it is built.
    """

    __slots__ = ("keys", "slot", "bin", "count", "total", "width")

    def __init__(self, keys, slot, bin, count, size, width):
        self.keys = keys
        self.slot = np.asarray(slot, dtype=np.int64)
        self.bin = np.asarray(bin, dtype=np.int64)
        self.count = np.asarray(count, dtype=np.int64)
        self.total = np.zeros(size, np.int64)
        np.add.at(self.total, self.slot, self.count)
        self.width = width

    @classmethod
    def of_pdfs(cls, pdfs, width):
        """Store of Pdf objects, one per slot in order, each binned at
        width."""
        index = {None: 0}
        slots, bins, counts = [], [], []
        for s, p in enumerate(pdfs):
            if p.bin_width != width:
                raise ValueError("pdf bin width %r differs from the FDG's %r"
                                 % (p.bin_width, width))
            if p.total >= COUNT_LIMIT:
                raise ValueError("pdf total %d too large" % p.total)
            for k, c in p.counts.items():
                slots.append(s)
                bins.append(index.setdefault(k, len(index)))
                counts.append(c)
        return cls(list(index), slots, bins, counts, len(pdfs), width)

    @classmethod
    def sorted(cls, keys, slots, bins, counts, size, width):
        """Store of entries whose (slot, bin) pairs are distinct, each slot's
        in order but the slots in any order."""
        slots = np.asarray(slots, dtype=np.int64)
        order = np.argsort(slots, kind="stable")
        return cls(keys, slots[order], np.asarray(bins)[order],
                   np.asarray(counts)[order], size, width)

    @classmethod
    def tally(cls, keys, slots, bins, counts, size, width):
        """Store of entries listed in the order they were seen: the counts
        of a repeated (slot, bin) add up, and each slot lists its bins in
        the order of their first entry."""
        code = slots * len(keys) + bins
        order = np.argsort(code, kind="stable")
        code = code[order]
        first = np.empty(len(code), bool)
        first[:1] = True
        np.not_equal(code[1:], code[:-1], out=first[1:])
        start = np.flatnonzero(first)
        code = code[start]
        rank = np.lexsort((order[start], code // len(keys)))
        return cls(keys, code[rank] // len(keys), code[rank] % len(keys),
                   np.add.reduceat(counts[order], start)[rank], size, width)

    @classmethod
    def pooled(cls, stores):
        """Count-wise sum of stores over one frame of slots, which equals
        the total-weighted mixture of their pdfs; a slot lists its bins in
        order of first appearance, earlier stores first, as Pdf.merge
        does."""
        if sum(int(st.total.max(initial=0)) for st in stores) >= COUNT_LIMIT:
            raise ValueError("pooled pdf total too large")
        index = {}
        bins = []
        for st in stores:
            remap = np.array([index.setdefault(k, len(index))
                              for k in st.keys])
            bins.append(remap[st.bin])
        return cls.tally(list(index),
                         np.concatenate([st.slot for st in stores]),
                         np.concatenate(bins),
                         np.concatenate([st.count for st in stores]),
                         len(stores[0].total), stores[0].width)

    def seated(self, rows, size, fill):
        """The store with slot s moved to rows[s] inside a frame of `size`
        slots; each slot no row lands on holds `fill` samples in the null
        bin (rows must be distinct)."""
        slots, bins, counts = rows[self.slot], self.bin, self.count
        if fill:
            free = np.ones(size, bool)
            free[rows] = False
            new = np.flatnonzero(free)
            slots = np.concatenate([slots, new])
            bins = np.concatenate([bins, np.zeros(len(new), np.int64)])
            counts = np.concatenate([counts, np.full(len(new), fill)])
        return BinStore.sorted(self.keys, slots, bins, counts, size,
                               self.width)

    def bounds(self):
        """Where each slot's entries start, and where the last one ends."""
        return np.searchsorted(self.slot,
                               np.arange(len(self.total) + 1)).tolist()

    def probs(self):
        """Probability of every entry, a list: its count over its slot's
        total, divided as Python ints, as Pdf does, which rounds once
        however large they are."""
        return [c / t for c, t in zip(self.count.tolist(),
                                      self.total[self.slot].tolist())]

    def flags(self):
        """Per slot: Pr(PHI) = 1, and Pr(PHI) = 0, from its null count."""
        nulls = np.zeros(len(self.total), np.int64)
        at = self.bin == 0
        nulls[self.slot[at]] = self.count[at]
        return nulls == self.total, (nulls == 0) & (self.total > 0)

    def entropies(self):
        """Shannon entropy of every slot's pdf in bits, each summed over
        its bins in their order, as Pdf.entropy does."""
        terms = [p * math.log2(p) for p in self.probs()]
        return 0.0 - np.bincount(self.slot, weights=terms,
                                 minlength=len(self.total))

    def pdfs(self):
        """A Pdf per slot, built on demand; it is a copy, and writing it
        leaves the store as it is."""
        keys = [self.keys[b] for b in self.bin.tolist()]
        counts = self.count.tolist()
        bounds = self.bounds()
        return [Pdf(dict(zip(keys[a:e], counts[a:e])), t, self.width)
                for a, e, t in zip(bounds, bounds[1:], self.total.tolist())]


@functools.lru_cache(maxsize=64)
def _pair_ends(n):
    """Read-only source and target slots of the order-n arc slots, in
    arc_index order."""
    ends = np.array(slot_pairs(n), dtype=np.int64).reshape(-1, 2).T.copy()
    ends.setflags(write=False)
    return ends


def _slot_flags(vbins, abins):
    """Value-based nullness and strictness of every vertex slot and of every
    arc slot, the latter in arc_index order, as bool arrays.  An arc slot is
    unconditionally null when its pdf or either endpoint is, and strict when
    its pdf and both endpoints are."""
    vnull, vstrict = vbins.flags()
    src, dst = _pair_ends(len(vnull))
    anull, astrict = abins.flags()
    return (vnull, vstrict, anull | vnull[src] | vnull[dst],
            astrict & vstrict[src] & vstrict[dst])


_RELATIONS = ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee")


class Fdg:
    """Function-described graph.

    Its pdfs live in two count stores (BinStore): vbins holds the pdf of
    vertex slot i as row i, abins that of arc slot (i, j), conditional on
    both endpoints being non-null, as row arc_index(i, j); u[(i, j)], the
    AGs in which both endpoints were present, is that row's total.
    vertex_pdfs and arc_pdfs are Pdf views of the rows, a list and a dict
    over the ordered pairs, built on first access and kept (_pdfs); no hot
    path reads them.  Aw/Ow/Ew are n-by-n Boolean antagonism, occurrence
    and existence matrices over vertex slots; Ae/Oe/Ee their arc-slot
    counterparts indexed by arc_index.  z counts the AGs the FDG was
    synthesised from.  bin_width is the width all pdfs bin at, which the
    stores keep, so an FDG of order 0 keeps it too.

    The pdfs come as a list of Pdf and a dict over the ordered pairs, with
    u a dict and bin_width, left out, that of the pdfs or 1.0 when there
    are none; or as the two stores, with u None.

    The value-based flags are fixed at construction (_slot_flags): vnull
    and vstrict per vertex slot, anull and astrict per arc slot in
    arc_index order, as read-only bool arrays, which vertex_null, arc_null
    and the other flag methods look up.  Nothing writes an FDG's stores
    after it is built (a grown prototype is a new Fdg), so the flags stay
    true.

    _costs is an FDG's one cache: every part of its cost tables that no AG
    enters (matching._fdg_costs), under the last K1, K2 and K_pr it was
    matched with, as (key, root part, search part or None), or None, each
    part filled lazily.  It stays valid for the reason the flags do, and
    because the search part's fill makes the six relation arrays
    read-only.  The FDG copies them at construction, so that freezes its
    own arrays and not a caller's.
    """

    __slots__ = _RELATIONS + ("vbins", "abins", "z", "vnull", "vstrict",
                              "anull", "astrict", "_pdfs", "_costs")

    def __init__(self, vertex_pdfs, arc_pdfs, relations, z, u, bin_width=None):
        if isinstance(vertex_pdfs, BinStore):
            self.vbins, self.abins = vertex_pdfs, arc_pdfs
        else:
            vertex_pdfs = list(vertex_pdfs)
            if bin_width is None:
                bin_width = vertex_pdfs[0].bin_width if vertex_pdfs else 1.0
            bin_width = checked_bin_width(bin_width)
            pairs = slot_pairs(len(vertex_pdfs))
            missing = set(pairs).difference(arc_pdfs)
            if missing:
                raise ValueError("missing arc pdf for slot (%d, %d)"
                                 % min(missing))
            self.vbins = BinStore.of_pdfs(vertex_pdfs, bin_width)
            self.abins = BinStore.of_pdfs([arc_pdfs[ij] for ij in pairs],
                                          bin_width)
            for ij, total in zip(pairs, self.abins.total.tolist()):
                if total != u.get(ij, 0):
                    raise ValueError("arc pdf total %d disagrees with u=%d "
                                     "at %s" % (total, u.get(ij, 0), (ij,)))
        for name in _RELATIONS:
            setattr(self, name, np.array(relations[name], dtype=bool))
        self.z = int(z)
        self._check()
        flags = _slot_flags(self.vbins, self.abins)
        for flag in flags:
            flag.setflags(write=False)
        self.vnull, self.vstrict, self.anull, self.astrict = flags
        self._pdfs = self._costs = None

    def _check(self):
        n = self.order
        m = n * (n - 1)
        if self.Aw.shape != (n, n) or self.Ow.shape != (n, n) or self.Ew.shape != (n, n):
            raise ValueError("vertex relation matrices must be %d x %d" % (n, n))
        if self.Ae.shape != (m, m) or self.Oe.shape != (m, m) or self.Ee.shape != (m, m):
            raise ValueError("arc relation matrices must be %d x %d" % (m, m))
        if self.z < 0:
            raise ValueError("z must be non-negative, got %d" % self.z)
        if self.z >= COUNT_LIMIT:
            raise ValueError("z %d too large" % self.z)
        # the matrices are bool, so their bytes compare as their entries do
        for name, mat in (("Aw", self.Aw), ("Ew", self.Ew),
                          ("Ae", self.Ae), ("Ee", self.Ee)):
            if mat.tobytes() != mat.T.tobytes():
                raise ValueError("%s must be symmetric" % name)
        for name, mat in (("Ow", self.Ow), ("Oe", self.Oe)):
            if not mat.diagonal().all():
                raise ValueError("%s must be reflexive" % name)

    @property
    def order(self):
        return len(self.vbins.total)

    @property
    def bin_width(self):
        return self.vbins.width

    def _views(self):
        if self._pdfs is None:
            self._pdfs = (self.vbins.pdfs(), dict(zip(
                slot_pairs(self.order), self.abins.pdfs())))
        return self._pdfs

    @property
    def vertex_pdfs(self):
        return self._views()[0]

    @property
    def arc_pdfs(self):
        return self._views()[1]

    @property
    def u(self):
        return dict(zip(slot_pairs(self.order), self.abins.total.tolist()))

    def vertex_null(self, i):
        return bool(self.vnull[i])

    def vertex_strict(self, i):
        return bool(self.vstrict[i])

    def arc_null(self, i, j):
        """Unconditional Pr(arc = PHI) = 1."""
        return bool(self.anull[arc_index(i, j, self.order)])

    def arc_strict(self, i, j):
        """Unconditional Pr(arc = PHI) = 0."""
        return bool(self.astrict[arc_index(i, j, self.order)])

    def existable(self, i, j):
        return not self.arc_null(i, j)

    def relations(self):
        return {name: getattr(self, name) for name in _RELATIONS}

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
    return f.Ow & f.Ow.T, f.Oe & f.Oe.T


def _extended_relations(old_A, old_O, old_E, old_idx, null, strict, size):
    """Fill relation matrices of an extended structure.

    old_idx maps each old row to its new position; null/strict are the
    value-based flags of all `size` new slots.  Pairs of carried-over slots
    where neither element is null keep their old bits; every pair involving a
    null element follows the fixed extension rules (antagonism always holds,
    a null element occurs in everything, existence with a null element holds
    only against a strict one, two null elements are never existent).
    """
    n = len(old_idx)
    e = null[:, None] & (strict & ~null)
    A = null[:, None] | null
    O = np.repeat(null[:, None], size, axis=1)
    E = e | e.T
    if n:
        # each new slot's old row (any row for a new one, masked out)
        row = np.zeros(size, np.int64)
        row[old_idx] = np.arange(n)
        keep = np.zeros(size, bool)
        keep[old_idx] = True
        keep &= ~null
        both = keep[:, None] & keep
        A |= old_A.take(row, 0).take(row, 1) & both
        O |= old_O.take(row, 0).take(row, 1) & both
        E |= old_E.take(row, 0).take(row, 1) & both
    return A, O, E


def _seat(f, vertex_map, k):
    """f's slots re-seated at new positions inside an order-k frame, as the
    arguments of the Fdg that remap_fdg builds.

    vertex_map[i] is the new position of old slot i, a vertex map that
    places every slot.  The stores' rows move with their slots
    (BinStore.seated), and unclaimed positions become null slots: absent in
    all z samples, with u = 0 and the degenerate conditional arc pdf.
    Relation bits between re-seated pairs are kept; pairs involving a null
    element follow the extension rules, applied to the frame's _slot_flags
    (see _extended_relations).  Arc matrices are re-indexed because slot
    numbering depends on the order.
    """
    n = f.order
    vmap = _slot_list(vertex_map, n, k)
    if None in vmap:
        raise ValueError("vertex map must place each old slot")
    rows = np.array(vmap, dtype=np.int64)
    src, dst = rows[_pair_ends(n)]
    # arc_index of (src, dst) in the order-k frame
    aidx = src * (k - 1) + dst - (dst > src)
    vbins = f.vbins.seated(rows, k, f.z)
    abins = f.abins.seated(aidx, k * (k - 1), 0)
    vnull, vstrict, anull, astrict = _slot_flags(vbins, abins)
    Aw, Ow, Ew = _extended_relations(f.Aw, f.Ow, f.Ew, rows, vnull, vstrict,
                                     k)
    Ae, Oe, Ee = _extended_relations(f.Ae, f.Oe, f.Ee, aidx, anull, astrict,
                                     k * (k - 1))
    return (vbins, abins,
            {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
            f.z, None)


def remap_fdg(f, vertex_map, k):
    """Re-seat an FDG's slots at new positions inside an order-k frame;
    unclaimed positions become null slots (see _seat)."""
    return Fdg(*_seat(f, vertex_map, k))


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
    extended and slot-aligned (labellings None) or accompanied by one vertex
    map per AG that places every vertex.  Re-derives the six relation matrices
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
    labellings = _slot_lists(labellings, [g.order for g in sample], n)
    for g_i, (g, lab) in enumerate(zip(sample, labellings)):
        if None in lab:
            raise ValueError("invalid sample: unplaced vertex in graph %d" % g_i)
        for v_i, s in enumerate(lab):
            vp[g_i, s] = not g.vertices[v_i].is_null
        inv = {s: v_i for v_i, s in enumerate(lab)}
        for k, (si, sj) in enumerate(pairs):
            if si in inv and sj in inv:
                b = g.arcs.get((inv[si], inv[sj]))
                ap[g_i, k] = b is not None and not b.is_null

    report = []

    def recompute(pres):
        cols = pres.shape[1]
        A, O, E = (np.ones((cols, cols), dtype=bool) for _ in range(3))
        for p in pres:
            # x and y both present; x present, y not; neither present
            A &= ~(p[:, None] & p)
            O &= ~(p[:, None] & ~p)
            E &= p[:, None] | p
        return A, O, E

    for name, expected in zip(_RELATIONS, recompute(vp) + recompute(ap)):
        stored = getattr(f, name)
        for x, y in zip(*np.nonzero(stored != expected)):
            report.append("%s[%d, %d]: stored %d, sample says %d"
                          % (name, x, y, stored[x, y], expected[x, y]))

    for kind, pr, rel, null, strict in (
            ("vertex", "p", (f.Aw, f.Ow, f.Ew), f.vnull, f.vstrict),
            ("arc", "Pr", (f.Ae, f.Oe, f.Ee), f.anull, f.astrict)):
        A, O, E = rel
        # [x, y, 0]: A&O against null[x]; [x, y, 1]: E&O against strict[y]
        got = np.stack([A & O, E & O], axis=-1)
        want = np.stack(np.broadcast_arrays(null[:, None], strict), axis=-1)
        bad = (got != want) & ~np.eye(len(null), dtype=bool)[..., None]
        for x, y, k in zip(*np.nonzero(bad)):
            report.append("%s identity %s at (%d, %d): relation %d, "
                          "%s(PHI)=%d is %d"
                          % (kind, ("A&O", "E&O")[k], x, y, got[x, y, k], pr,
                             1 - k, want[x, y, k]))
    return report
