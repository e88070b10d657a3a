"""Unsupervised grouping of AGs into FDG prototypes.

Two schemes share the synthesis machinery:

  * incremental_clustering consumes the AGs in the order given.  Each one is
    matched against every live prototype (second-order weights forced to
    zero, since the growing structure is what those weights would have to
    describe); it joins the nearest prototype when the distance stays within
    d_alpha and seeds a new one otherwise.
  * hierarchical_clustering starts from singleton prototypes, one per AG,
    with a full table of pairwise AG distances and labellings.  While the
    smallest table entry stays within d_alpha the closest pair is merged;
    complete linkage keeps the larger of the two distances to every other
    cluster, single linkage the smaller, and the stored labelling is composed
    through the merge so later syntheses still know where each slot went.

The distance producing the hierarchical table is pluggable and defaults to
the edit distance between AGs.
"""

import math

import numpy as np

from .baseline import edit_distance
from .core import CostWeights, Labelling, extend_ag, extend_fdg, vertex_list
from .forg import forg_synthesize
from .matching import bnb_distance
from .synthesis import ag_to_fdg, place_fresh, update_fdg_with_ag


def extend_labelling(g, f, labelling):
    """Extend an AG, an FDG and a partial labelling between them to a common
    order and a bijection.

    Unplaced AG vertices get fresh null slots appended to the FDG in vertex
    order; uncovered FDG slots get null AG vertices, matched in ascending
    order.  Returns (extended AG, extended FDG, bijective Labelling).
    """
    vmap = vertex_list(labelling, g.order)
    covered = set(q for q in vmap if q is not None)
    full, k = place_fresh(vmap, f.order)
    full.extend(q for q in range(f.order) if q not in covered)
    return extend_ag(g, k), extend_fdg(f, k), Labelling(full)


def incremental_clustering(ags, d_alpha, weights=None, matcher=None,
                           bin_width=1.0, return_assignments=False):
    """One pass over an AG sequence, growing prototypes as it goes.

    matcher(g, f, weights) must return an object with distance, labelling
    and valid; the default is the exact branch-and-bound search.  Weights
    K3..K8 are forced to zero.  With return_assignments the second element
    maps each prototype to the set of input positions it absorbed.
    """
    ags = list(ags)
    if not ags:
        raise ValueError("at least one AG is required")
    w = (weights or CostWeights()).replace(K3=0.0, K4=0.0, K5=0.0,
                                           K6=0.0, K7=0.0, K8=0.0)
    match = matcher or bnb_distance
    fdgs = []
    members = []
    for idx, g in enumerate(ags):
        best_d = math.inf
        best = None
        for ci, f in enumerate(fdgs):
            res = match(g, f, w)
            if res.valid and res.distance < best_d:
                best_d = res.distance
                best = (ci, res.labelling)
        if best is not None and best_d <= d_alpha:
            ci, lab = best
            fdgs[ci] = update_fdg_with_ag(fdgs[ci], g, lab)
            members[ci].add(idx)
        else:
            fdgs.append(ag_to_fdg(g, bin_width))
            members.append({idx})
    if return_assignments:
        return fdgs, members
    return fdgs


def _inverse(vmap, target_order):
    inv = [None] * target_order
    for s, q in enumerate(vmap):
        if q is not None:
            inv[q] = s
    return inv


class ClusterState:
    """Bookkeeping of an agglomerative run: live prototypes, the pairwise
    distance and labelling tables and the provenance of each cluster.

    Rows and columns of dead clusters sit at infinity and their labellings
    are dropped, so the tables always describe exactly the live pairs.
    """

    def __init__(self, ags, ag_distance=None, bin_width=1.0):
        dist_fn = ag_distance or edit_distance
        count = len(ags)
        self.fdgs = [ag_to_fdg(g, bin_width) for g in ags]
        self.members = [{i} for i in range(count)]
        self.live = [True] * count
        self.dist = np.full((count, count), math.inf)
        self.phi = {}
        for i in range(count):
            for j in range(i + 1, count):
                dij, lab = dist_fn(ags[i], ags[j])
                vmap = vertex_list(lab, ags[i].order)
                self.dist[i, j] = self.dist[j, i] = dij
                self.phi[(i, j)] = vmap
                self.phi[(j, i)] = _inverse(vmap, ags[j].order)

    def closest_pair(self):
        """Lexicographically first pair realizing the smallest live
        distance, or None when fewer than two clusters remain."""
        count = len(self.fdgs)
        best = None
        best_d = math.inf
        for x in range(count):
            if not self.live[x]:
                continue
            for y in range(x + 1, count):
                if self.live[y] and self.dist[x, y] < best_d:
                    best_d = self.dist[x, y]
                    best = (x, y)
        return None if best is None else (best[0], best[1], best_d)

    def merge(self, x, y, linkage):
        """Fold cluster x into cluster y.

        The stored x->y labelling is extended to a bijection (unplaced x
        slots get fresh slots appended to y's frame), the prototypes are
        combined under it, and every other cluster's distance to y becomes
        the larger (complete) or smaller (single) of its two old distances,
        its labelling composed through the merge when the kept distance was
        the one to x.
        """
        if linkage not in ("single", "complete"):
            raise ValueError("linkage must be 'single' or 'complete'")
        mx = self.phi[(x, y)]
        old_y = self.fdgs[y].order
        full_x, k = place_fresh(mx, old_y)
        self.fdgs[y] = forg_synthesize(self.fdgs[x], self.fdgs[y], mx)
        self.members[y] |= self.members[x]

        for i in range(len(self.fdgs)):
            if i == x or i == y or not self.live[i]:
                continue
            dx, dy = self.dist[i, x], self.dist[i, y]
            keep_x = dx > dy if linkage == "complete" else dx < dy
            if keep_x:
                base = self.phi[(i, x)]
                comp = [None if q is None else full_x[q] for q in base]
                self.phi[(i, y)] = comp
                self.phi[(y, i)] = _inverse(comp, k)
            else:
                self.phi[(y, i)] = self.phi[(y, i)] + [None] * (k - old_y)
            self.dist[i, y] = self.dist[y, i] = max(dx, dy) \
                if linkage == "complete" else min(dx, dy)

        self.live[x] = False
        self.dist[x, :] = math.inf
        self.dist[:, x] = math.inf
        for key in [key for key in self.phi if x in key]:
            del self.phi[key]


def hierarchical_clustering(ags, d_alpha, linkage="complete",
                            ag_distance=None, bin_width=1.0,
                            return_assignments=False):
    """Agglomerative clustering over a full pairwise distance table.

    ag_distance(g1, g2) must return (distance, labelling); the default is
    the edit distance.  Merging continues while the smallest live distance
    is at most d_alpha.  With return_assignments the second element maps
    each prototype to the set of input positions it absorbed.
    """
    ags = list(ags)
    if not ags:
        raise ValueError("at least one AG is required")
    if linkage not in ("single", "complete"):
        raise ValueError("linkage must be 'single' or 'complete'")
    state = ClusterState(ags, ag_distance, bin_width)
    while True:
        hit = state.closest_pair()
        if hit is None or hit[2] > d_alpha:
            break
        state.merge(hit[0], hit[1], linkage)
    fdgs = [f for f, alive in zip(state.fdgs, state.live) if alive]
    if return_assignments:
        members = [m for m, alive in zip(state.members, state.live) if alive]
        return fdgs, members
    return fdgs
