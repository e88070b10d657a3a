"""Synthesis of function-described graphs from labelled samples.

A common labelling places the vertices of every sample graph into a shared
frame of n slots.  Synthesis from AGs estimates the first-order pdfs by
frequency and derives the six second-order relations as universal statements
over the sample.  Synthesis from FDGs re-seats each input in the common frame
and combines them: pdfs are pooled count-wise (which weights each input by
its own sample size), relations are intersected, and the sample counters add
up.  Because all of this is integer arithmetic, building an FDG from z graphs
in one pass and growing it one graph at a time produce identical results.
"""

import numpy as np

from .core import (
    PHI,
    Fdg,
    Pdf,
    arc_index,
    remap_fdg,
    slot_pairs,
    vertex_list,
)


class CommonLabelling:
    """Vertex maps of several graphs into one frame of n slots.

    maps[g][i] is the slot of vertex i of graph g; each map is injective.
    """

    __slots__ = ("maps", "n")

    def __init__(self, maps, n):
        self.maps = [list(m) for m in maps]
        self.n = int(n)
        for g, m in enumerate(self.maps):
            real = [t for t in m if t is not None]
            if len(real) != len(set(real)):
                raise ValueError("labelling of graph %d is not injective" % g)
            if any(not (0 <= t < self.n) for t in real):
                raise ValueError("labelling of graph %d leaves the frame" % g)

    @classmethod
    def identity(cls, orders, n=None):
        n = max(orders, default=0) if n is None else n
        return cls([list(range(o)) for o in orders], n)

    def __len__(self):
        return len(self.maps)

    def __repr__(self):
        return "CommonLabelling(%d graphs, n=%d)" % (len(self.maps), self.n)


def _presence(ags, labelling):
    """Vertex and arc presence matrices (samples by slots) plus inverses."""
    n = labelling.n
    z = len(ags)
    pairs = slot_pairs(n)
    vp = np.zeros((z, n), dtype=bool)
    ap = np.zeros((z, len(pairs)), dtype=bool)
    inverses = []
    for g_i, (g, m) in enumerate(zip(ags, labelling.maps)):
        if len(m) != g.order:
            raise ValueError("labelling arity mismatch at graph %d" % g_i)
        inv = {}
        for v_i, s in enumerate(m):
            if s is None:
                if not g.vertices[v_i].is_null:
                    raise ValueError("graph %d leaves a non-null vertex "
                                     "outside the frame" % g_i)
            elif not g.vertices[v_i].is_null:
                vp[g_i, s] = True
                inv[s] = v_i
        inverses.append(inv)
        for (i, j), b in g.arcs.items():
            if not b.is_null:
                si, sj = m[i], m[j]
                ap[g_i, arc_index(si, sj, n)] = True
    return vp, ap, inverses


def _relations(pres):
    """A/O/E as universal statements, via counting matrix products."""
    p = pres.astype(np.int64)
    q = 1 - p
    return (p.T @ p == 0), (p.T @ q == 0), (q.T @ q == 0)


def synth_from_labelled_ags(ags, labelling, bin_width=1.0):
    """Build an FDG from a sample of AGs under a common labelling."""
    if len(ags) == 0:
        raise ValueError("cannot synthesise from an empty sample")
    if len(labelling.maps) != len(ags):
        raise ValueError("%d graphs but %d labellings"
                         % (len(ags), len(labelling.maps)))
    n = labelling.n
    z = len(ags)
    vp, ap, inverses = _presence(ags, labelling)

    vertex_pdfs = []
    for s in range(n):
        attrs = []
        for g_i, g in enumerate(ags):
            inv = inverses[g_i]
            attrs.append(g.vertices[inv[s]] if s in inv else PHI)
        vertex_pdfs.append(Pdf.from_attrs(attrs, bin_width))

    arc_pdfs = {}
    u = {}
    for (si, sj) in slot_pairs(n):
        attrs = []
        for g_i, g in enumerate(ags):
            inv = inverses[g_i]
            if si in inv and sj in inv:
                attrs.append(g.arcs.get((inv[si], inv[sj]), PHI))
        arc_pdfs[(si, sj)] = Pdf.from_attrs(attrs, bin_width)
        u[(si, sj)] = len(attrs)

    Aw, Ow, Ew = _relations(vp)
    Ae, Oe, Ee = _relations(ap)
    return Fdg(vertex_pdfs, arc_pdfs,
               {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
               z, u, bin_width)


def synth_from_labelled_fdgs(fdgs, labelling):
    """Combine FDGs into one under a common labelling of their slots.

    Each input is re-seated in the order-n frame; pooled pdfs weight every
    input by its own denominators (z for vertices, u per arc slot), the
    relations hold exactly when they hold in every input, and z and u add.
    All inputs must share one bin width, which the result keeps.
    """
    if len(fdgs) == 0:
        raise ValueError("cannot combine zero FDGs")
    if len(set(f.bin_width for f in fdgs)) > 1:
        raise ValueError("cannot combine FDGs with different bin widths")
    if len(labelling.maps) != len(fdgs):
        raise ValueError("%d FDGs but %d labellings"
                         % (len(fdgs), len(labelling.maps)))
    n = labelling.n
    seated = []
    for f, m in zip(fdgs, labelling.maps):
        if any(t is None for t in m):
            raise ValueError("FDG labellings must place every slot")
        seated.append(remap_fdg(f, m, n))

    acc = seated[0]
    vertex_pdfs = list(acc.vertex_pdfs)
    arc_pdfs = dict(acc.arc_pdfs)
    u = dict(acc.u)
    Aw, Ow, Ew = acc.Aw.copy(), acc.Ow.copy(), acc.Ew.copy()
    Ae, Oe, Ee = acc.Ae.copy(), acc.Oe.copy(), acc.Ee.copy()
    z = acc.z
    for f in seated[1:]:
        for s in range(n):
            vertex_pdfs[s] = vertex_pdfs[s].merge(f.vertex_pdfs[s])
        for ij in arc_pdfs:
            arc_pdfs[ij] = arc_pdfs[ij].merge(f.arc_pdfs[ij])
            u[ij] += f.u[ij]
        Aw &= f.Aw
        Ow &= f.Ow
        Ew &= f.Ew
        Ae &= f.Ae
        Oe &= f.Oe
        Ee &= f.Ee
        z += f.z
    return Fdg(vertex_pdfs, arc_pdfs,
               {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
               z, u, acc.bin_width)


def ag_to_fdg(g, bin_width=1.0):
    """FDG of the single-graph sample {g}, slots in vertex order."""
    lab = CommonLabelling([list(range(g.order))], g.order)
    return synth_from_labelled_ags([g], lab, bin_width)


def place_fresh(vmap, m):
    """Send each None of a vertex map to the next fresh slot after order m,
    in map order.  Returns the placement and the order of the grown frame."""
    placed = []
    nxt = m
    for t in vmap:
        if t is None:
            placed.append(nxt)
            nxt += 1
        else:
            placed.append(t)
    return placed, nxt


def update_fdg_with_ag(f, g, labelling):
    """Grow an FDG with one more AG, binned at f's bin width.

    labelling maps g's vertices to slots of f (None sends a vertex to a fresh
    slot; fresh slots are appended in vertex order).  Equivalent to
    re-synthesising from the enlarged sample.
    """
    placed, k = place_fresh(vertex_list(labelling, g.order), f.order)
    h = ag_to_fdg(g, f.bin_width)
    lab = CommonLabelling([list(range(f.order)), placed], k)
    return synth_from_labelled_fdgs([f, h], lab)
