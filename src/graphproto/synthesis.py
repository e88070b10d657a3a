"""Synthesis of function-described graphs from labelled samples.

A common labelling places the vertices of every sample graph into a shared
frame of n slots.  Synthesis from AGs counts every sample's bins straight
into the FDG's count stores (core.BinStore) and derives the six
second-order relations as universal statements over the sample.  Synthesis
from FDGs seats each input in the common frame without building an Fdg
(core._seat, a re-indexing of the stores' rows) and combines them: the
stores add up count-wise (which weights each input by its own sample size),
relations are intersected, and the sample counters add up.  Only the result
is an Fdg; it fixes its null and strict flags at construction and no store
is written after, so growing a prototype builds a new one.  Because all of
this is integer arithmetic, building an FDG from z graphs in one pass and
growing it one graph at a time produce identical results.
"""

import functools

import numpy as np

from .core import (
    BinStore,
    Fdg,
    _check_count,
    _pair_ends,
    _seat,
    _slot_list,
    _slot_lists,
    checked_bin_width,
)


class CommonLabelling:
    """Vertex maps of several graphs into one frame of n slots.

    maps[g][i] is the slot of vertex i of graph g (see core's Conventions).
    """

    __slots__ = ("maps", "n")

    def __init__(self, maps, n):
        _check_count(n, "frame order")
        self.n = int(n)
        maps = list(maps)
        self.maps = _slot_lists(maps, [None] * len(maps), self.n)

    @classmethod
    def identity(cls, orders, n=None):
        n = max(orders, default=0) if n is None else n
        return cls([list(range(o)) for o in orders], n)

    def __len__(self):
        return len(self.maps)

    def __repr__(self):
        return "CommonLabelling(%d graphs, n=%d)" % (len(self.maps), self.n)


def _relations(pres):
    """A/O/E as universal statements, via counting matrix products."""
    p = pres.astype(np.int64)
    q = 1 - p
    return (p.T @ p == 0), (p.T @ q == 0), (q.T @ q == 0)


def synth_from_labelled_ags(ags, labelling, bin_width=1.0):
    """Build an FDG from a sample of AGs under a common labelling."""
    return Fdg(*_sample_args(ags, labelling, bin_width))


def _sample_args(ags, labelling, bin_width):
    """The arguments of the Fdg that synth_from_labelled_ags builds: every
    AG counts one sample into each vertex slot's row and into the row of
    each arc slot whose two endpoints it fills, PHI for what it leaves
    out, and the relations come from what it fills."""
    if len(ags) == 0:
        raise ValueError("cannot synthesise from an empty sample")
    if len(labelling.maps) != len(ags):
        raise ValueError("%d graphs but %d labellings"
                         % (len(ags), len(labelling.maps)))
    n = labelling.n
    z = len(ags)
    bin_width = checked_bin_width(bin_width)
    # the bin of every (sample, slot) and of every (sample, slot, slot),
    # the null bin 0 where the sample leaves it empty, each kind with keys
    # of its own
    vindex, aindex = {None: 0}, {None: 0}
    vkey = np.zeros((z, n), np.int64)
    akey = np.zeros((z, n, n), np.int64)
    maps = _slot_lists(labelling.maps, [g.order for g in ags], n)
    for g_i, (g, m) in enumerate(zip(ags, maps)):
        for s, a in zip(m, g.vertices):
            if a.is_null:
                continue
            if s is None:
                raise ValueError("graph %d leaves a non-null vertex "
                                 "outside the frame" % g_i)
            vkey[g_i, s] = vindex.setdefault(a.binned(bin_width),
                                              len(vindex))
        for (i, j), b in g.arcs.items():
            if not b.is_null:
                akey[g_i, m[i], m[j]] = aindex.setdefault(
                    b.binned(bin_width), len(aindex))
    src, dst = _pair_ends(n)
    akey = akey[:, src, dst]
    vp, ap = vkey > 0, akey > 0
    # an arc slot's row holds the samples that fill both of its endpoints
    slots, samples = np.nonzero((vp[:, src] & vp[:, dst]).T)
    # one sample puts at most one entry in a row, already in order
    store = BinStore if z == 1 else BinStore.tally
    vbins = store(list(vindex), np.repeat(np.arange(n), z), vkey.T.ravel(),
                  np.ones(n * z, np.int64), n, bin_width)
    abins = store(list(aindex), slots, akey[samples, slots],
                  np.ones(len(slots), np.int64), len(src), bin_width)
    Aw, Ow, Ew = _relations(vp)
    Ae, Oe, Ee = _relations(ap)
    return (vbins, abins,
            {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
            z, None)


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
    _one_bin_width(fdgs)
    if len(labelling.maps) != len(fdgs):
        raise ValueError("%d FDGs but %d labellings"
                         % (len(fdgs), len(labelling.maps)))
    n = labelling.n
    maps = _slot_lists(labelling.maps, [f.order for f in fdgs], n)
    if any(None in m for m in maps):
        raise ValueError("FDG labellings must place every slot")
    return Fdg(*_pool([_seat(f, m, n) for f, m in zip(fdgs, maps)]))


def _one_bin_width(fdgs):
    """ValueError unless the FDGs share one bin width."""
    if len(set(f.bin_width for f in fdgs)) > 1:
        raise ValueError("cannot combine FDGs with different bin widths")


def _pool(seats):
    """Fdg arguments of one frame, pooled in order into those of one Fdg:
    the stores add up count-wise (BinStore.pooled)."""
    vbs, abs_, rels, zs, _ = zip(*seats)
    return (BinStore.pooled(vbs), BinStore.pooled(abs_),
            {name: functools.reduce(np.logical_and, [r[name] for r in rels])
             for name in rels[0]},
            sum(zs), None)


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
    placed, k = place_fresh(_slot_list(labelling, g.order, f.order), f.order)
    return Fdg(*_pool([
        _seat(f, range(f.order), k),
        _sample_args([g], CommonLabelling([placed], k), f.bin_width)]))
