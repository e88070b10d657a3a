"""First-order random graphs: entropy, merging and entropy-based distance.

A first-order prototype keeps only the vertex and arc pdfs of an Fdg (the
relation matrices are simply ignored here).  Its entropy is the sum of the
vertex entropies and of the conditional arc entropies; merging two prototypes
under a labelling pools their samples, and the distance between two
prototypes is the smallest increase of average per-sample entropy any
labelling can achieve:

    d(F1, F2) = min over labellings of
                H(merge) - (z1 H(F1) + z2 H(F2)) / (z1 + z2)

which is non-negative and zero when the labelling makes the samples
indistinguishable.  The merged entropy is a sum of pooled entropies, one per
slot and one per pair of slots, so search._map_search finds it.
"""

import math

from .search import _map_search
from .core import PHI, _slot_list, null_pdf
from .synthesis import (CommonLabelling, _one_bin_width, place_fresh,
                        synth_from_labelled_fdgs)


def forg_entropy(f):
    """Sum of vertex entropies and conditional arc entropies, in bits: a
    row reduction of each count store (BinStore.entropies)."""
    return (sum(f.vbins.entropies().tolist())
            + sum(f.abins.entropies().tolist()))


def forg_synthesize(f1, f2, vertex_map):
    """Merge f1 into f2's frame under a slot map: vertex_map[i] is the f2
    slot receiving f1's slot i, or None to give it a fresh slot, appended in
    slot order.  Pdfs pool count-wise, f2's first."""
    placed, k = place_fresh(_slot_list(vertex_map, f1.order, f2.order),
                            f2.order)
    return synth_from_labelled_fdgs(
        [f2, f1], CommonLabelling([list(range(f2.order)), placed], k))


def forg_distance(f1, f2):
    """Entropy-increase distance and the map of f1's slots into f2's slots
    or fresh ones (None) that attains it; the search is exponential, so
    combined orders above twenty are refused, and so are prototypes of
    different bin widths."""
    if f1.order + f2.order > 20:
        raise ValueError("forg_distance refuses orders %d + %d"
                         % (f1.order, f2.order))
    if f1.z == f2.z == 0:
        raise ValueError("forg_distance needs samples: both prototypes "
                         "have z = 0")
    _one_bin_width((f1, f2))
    base = (f1.z * forg_entropy(f1) + f2.z * forg_entropy(f2)) / (f1.z + f2.z)
    # as in forg_synthesize, an empty slot side pads as certainly null, and
    # an empty arc side as the empty pdf, which leaves the other's entropy
    pad1, pad2 = null_pdf(f1.z, f1.bin_width), null_pdf(f2.z, f2.bin_width)
    v1, v2 = f1.vertex_pdfs, f2.vertex_pdfs
    a1, a2 = f1.arc_pdfs, f2.arc_pdfs
    pool = {(e1, e2): q1.merge(q2).entropy()
            for e1, q1 in a1.items() for e2, q2 in a2.items()}
    n2 = f2.order

    def arc():
        return [[[[pool[(p, s), (q, r)] + pool[(s, p), (r, q)]
                   if q != r else None for r in range(n2)]
                  for q in range(n2)] for s in range(p)]
                for p in range(f1.order)]

    a_del = {e1: q1.entropy() for e1, q1 in a1.items()}
    a_floor = {e1: min([a_del[e1]] + [pool[e1, e2] for e2 in a2])
               for e1 in a1}
    res = _map_search(
        [[p.merge(q).entropy() for q in v2] for p in v1],
        [p.merge(pad2).entropy() for p in v1],
        [pad1.merge(q).entropy() for q in v2],
        arc, a_del, a_floor, {e2: q2.entropy() for e2, q2 in a2.items()},
        math.inf)
    return res.distance - base, list(res.labelling.vertex_map)


def outcome_probability(f, g, labelling):
    """Probability that the prototype f emits the AG g under a labelling.

    labelling maps g's vertices to slots of f (every slot of f not hit is an
    absence, priced by its null probability).  Vertices draw independently
    from their pdfs; an arc draws from its conditional pdf when both of its
    endpoints came out present and is null for free otherwise.
    """
    vmap = _slot_list(labelling, g.order, f.order)
    n = f.order
    slot_attr = [PHI] * n
    for v_i, s in enumerate(vmap):
        if s is None:
            if not g.vertices[v_i].is_null:
                raise ValueError("non-null vertex %d has no slot" % v_i)
            continue
        slot_attr[s] = g.vertices[v_i]
    inv = {s: v_i for v_i, s in enumerate(vmap) if s is not None}

    pr = 1.0
    for p, a in zip(f.vertex_pdfs, slot_attr):
        pr *= p.prob_attr(a)
        if pr == 0.0:
            return 0.0
    for (si, sj), q in f.arc_pdfs.items():
        if slot_attr[si].is_null or slot_attr[sj].is_null:
            continue
        b = PHI
        if si in inv and sj in inv:
            b = g.arcs.get((inv[si], inv[sj]), PHI)
        pr *= q.prob_attr(b)
        if pr == 0.0:
            return 0.0
    return pr
