"""Unsupervised grouping of AGs into FDG prototypes.

Two schemes share the synthesis machinery:

  * incremental_clustering consumes the AGs in the order given.  Each one
    joins the nearest live prototype when the distance stays within d_alpha
    and seeds a new one otherwise (second-order weights forced to zero,
    since the growing structure is what those weights would have to
    describe).  The search is fdg_classify's, bounded just above d_alpha,
    so prototypes that cannot come within d_alpha are abandoned early.
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
from .harness import _classify
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

    Each AG joins the nearest prototype (lowest index on a tie) when the
    distance is at most d_alpha.  matcher(g, f, weights) must return an
    object with distance, labelling and valid; the default is fdg_classify's
    bounded branch and bound, which gives the result of a full search per
    prototype.  A custom matcher gets no bound and may search in full.
    Weights K3..K8 are forced to zero.  With return_assignments the second
    element maps each prototype to the set of input positions it absorbed.
    """
    ags = list(ags)
    if not ags:
        raise ValueError("at least one AG is required")
    if math.isnan(d_alpha):
        raise ValueError("d_alpha must not be NaN")
    w = (weights or CostWeights()).replace(K3=0.0, K4=0.0, K5=0.0,
                                           K6=0.0, K7=0.0, K8=0.0)
    bound = math.nextafter(d_alpha, math.inf)
    fdgs = []
    members = []
    for idx, g in enumerate(ags):
        ci, d, results = _classify(g, fdgs, w, upper_bound=bound,
                                   matcher=matcher)
        if d < bound:
            fdgs[ci] = update_fdg_with_ag(fdgs[ci], g, results[ci].labelling)
            members[ci].add(idx)
        else:
            fdgs.append(ag_to_fdg(g, bin_width))
            members.append({idx})
    if return_assignments:
        return fdgs, members
    return fdgs


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
                if math.isnan(dij):
                    raise ValueError("ag_distance returned NaN")
                vmap = vertex_list(lab, ags[i].order)
                self.dist[i, j] = self.dist[j, i] = dij
                self.phi[(i, j)] = vmap
                self.phi[(j, i)] = Labelling(vmap).inverse(ags[j].order)

    def closest_pair(self):
        """Lexicographically first pair realizing the smallest live
        distance, or None when fewer than two clusters remain."""
        x, y = divmod(int(np.argmin(self.dist)), len(self.fdgs))
        return None if self.dist[x, y] == math.inf else (x, y, self.dist[x, y])

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
                self.phi[(y, i)] = Labelling(comp).inverse(k)
            else:
                self.phi[(y, i)] = self.phi[(y, i)] + [None] * (k - old_y)
            self.dist[i, y] = self.dist[y, i] = dx if keep_x else dy

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
    if math.isnan(d_alpha):
        raise ValueError("d_alpha must not be NaN")
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
