"""Synthesis of function-described graphs from labelled samples.

A common labelling places the vertices of every sample graph into a shared
frame of n slots.  Synthesis from AGs estimates the first-order pdfs by
frequency and derives the six second-order relations as universal statements
over the sample.  Synthesis from FDGs seats each input in the common frame
without building an Fdg (core._seat) and combines them: pdfs are pooled
count-wise (which weights each input by its own sample size), relations are
intersected, and the sample counters add up.  Only the result is an Fdg; it
fixes its null and strict flags at construction and no pdf is written after,
so growing a prototype builds a new one.  Because all of this is integer
arithmetic, building an FDG from z graphs in one pass and growing it one
graph at a time produce identical results.
"""

import functools

import numpy as np

from .core import (
    PHI,
    Fdg,
    Pdf,
    _seat,
    arc_index,
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
    return Fdg(*_sample_args(ags, labelling, bin_width))


def _sample_args(ags, labelling, bin_width):
    """The arguments of the Fdg that synth_from_labelled_ags builds."""
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
    return (vertex_pdfs, arc_pdfs,
            {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
            z, u, bin_width)


def synth_from_labelled_fdgs(fdgs, labelling):
    """Combine FDGs into one under a common labelling of their slots.

    Each input is seated in the order-n frame (core._seat, no Fdg built);
    pooled pdfs weight every input by its own denominators (z for vertices,
    u per arc slot), the relations hold exactly when they hold in every
    input, and z and u add.  All inputs must share one bin width, which the
    result keeps.
    """
    if len(fdgs) == 0:
        raise ValueError("cannot combine zero FDGs")
    if len(set(f.bin_width for f in fdgs)) > 1:
        raise ValueError("cannot combine FDGs with different bin widths")
    if len(labelling.maps) != len(fdgs):
        raise ValueError("%d FDGs but %d labellings"
                         % (len(fdgs), len(labelling.maps)))
    seats = []
    for f, m in zip(fdgs, labelling.maps):
        if any(t is None for t in m):
            raise ValueError("FDG labellings must place every slot")
        seats.append(_seat(f, m, labelling.n))
    return Fdg(*_pool(seats))


def _pool(seats):
    """Fdg arguments of one frame, pooled in order into those of one Fdg."""
    vps, aps, rels, zs, us, widths = zip(*seats)
    return ([functools.reduce(Pdf.merge, ps) for ps in zip(*vps)],
            {ij: functools.reduce(Pdf.merge, [a[ij] for a in aps])
             for ij in aps[0]},
            {name: np.logical_and.reduce([r[name] for r in rels])
             for name in rels[0]},
            sum(zs), {ij: sum(x[ij] for x in us) for ij in us[0]},
            widths[0])


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
    re-synthesising from the enlarged sample, f's graphs first.
    """
    placed, k = place_fresh(vertex_list(labelling, g.order), f.order)
    return Fdg(*_pool([
        _seat(f, range(f.order), k),
        _sample_args([g], CommonLabelling([placed], k), f.bin_width)]))
