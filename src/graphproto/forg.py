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
indistinguishable.
"""

import itertools

from .core import PHI, Labelling, null_pdf, vertex_list
from .synthesis import CommonLabelling, place_fresh, synth_from_labelled_fdgs


def forg_entropy(f):
    """Sum of vertex entropies and conditional arc entropies, in bits."""
    h = sum(p.entropy() for p in f.vertex_pdfs)
    h += sum(q.entropy() for q in f.arc_pdfs.values())
    return h


def forg_synthesize(f1, f2, vertex_map):
    """Merge f1 into f2's frame under a slot map.

    vertex_map[i] is the f2 slot receiving f1's slot i, or None to give it a
    fresh slot; fresh slots are appended in slot order.  Pdfs pool count-wise,
    so each input weighs by its own denominators.
    """
    placed, k = place_fresh(vertex_list(vertex_map, f1.order), f2.order)
    lab = CommonLabelling([placed, list(range(f2.order))], k)
    return synth_from_labelled_fdgs([f1, f2], lab)


def _slot_maps(n1, n2):
    """All injective maps of n1 slots into n2 slots or None (the Q space),
    in lexicographic order with None after every slot."""
    return [list(m) for m in itertools.product(list(range(n2)) + [None],
                                               repeat=n1)
            if len(set(m) - {None}) == n1 - m.count(None)]


def _merged_entropy(f1, f2, vertex_map):
    """Entropy of forg_synthesize(f1, f2, vertex_map) without building it.

    Pools the pdfs slot by slot the way the synthesis route does (a side
    missing from a slot pads as certainly null, a missing arc side as the
    degenerate empty pdf) and sums their entropies directly.
    """
    pad1 = null_pdf(f1.z, f1.bin_width)
    pad2 = null_pdf(f2.z, f2.bin_width)
    inv = Labelling(vertex_map).inverse(f2.order)
    h = 0.0
    for t in range(f2.order):
        i = inv[t]
        left = f1.vertex_pdfs[i] if i is not None else pad1
        h += left.merge(f2.vertex_pdfs[t]).entropy()
    for i, t in enumerate(vertex_map):
        if t is None:
            h += f1.vertex_pdfs[i].merge(pad2).entropy()
    for (s, t), q2 in f2.arc_pdfs.items():
        i, j = inv[s], inv[t]
        if i is not None and j is not None:
            h += f1.arc_pdfs[(i, j)].merge(q2).entropy()
        else:
            h += q2.entropy()
    for (i, j), q1 in f1.arc_pdfs.items():
        if vertex_map[i] is None or vertex_map[j] is None:
            h += q1.entropy()
    return h


def forg_distance(f1, f2):
    """Entropy-increase distance and the map that attains it.

    Exhausts the labelling space of f1's slots into f2's slots or fresh ones,
    so it is only meant for small prototypes: combined orders above ten are
    refused.
    """
    if f1.order + f2.order > 10:
        raise ValueError("forg_distance refuses orders %d + %d"
                         % (f1.order, f2.order))
    base = (f1.z * forg_entropy(f1) + f2.z * forg_entropy(f2)) / (f1.z + f2.z)
    best = None
    best_map = None
    for vmap in _slot_maps(f1.order, f2.order):
        d = _merged_entropy(f1, f2, vmap) - base
        if best is None or d < best:
            best = d
            best_map = vmap
    return best, best_map


def outcome_probability(f, g, labelling):
    """Probability that the prototype f emits the AG g under a labelling.

    labelling maps g's vertices to slots of f (every slot of f not hit is an
    absence, priced by its null probability).  Vertices draw independently
    from their pdfs; an arc draws from its conditional pdf when both of its
    endpoints came out present and is null for free otherwise.
    """
    vmap = vertex_list(labelling, g.order)
    n = f.order
    slot_attr = [PHI] * n
    for v_i, s in enumerate(vmap):
        if s is None:
            if not g.vertices[v_i].is_null:
                raise ValueError("non-null vertex %d has no slot" % v_i)
            continue
        if not (0 <= s < n):
            raise ValueError("slot %r outside prototype order %d" % (s, n))
        slot_attr[s] = g.vertices[v_i]
    inv = {s: v_i for v_i, s in enumerate(vmap) if s is not None}

    pr = 1.0
    for s in range(n):
        pr *= f.vertex_pdfs[s].prob_attr(slot_attr[s])
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
