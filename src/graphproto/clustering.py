"""Unsupervised grouping of AGs into FDG prototypes.

  * incremental_clustering consumes the AGs in the order given.  Each one
    joins the nearest live prototype when the distance stays within d_alpha
    and seeds a new one otherwise (second-order weights forced to zero,
    since the growing structure is what those weights would have to
    describe).  The search is fdg_classify's, bounded just above d_alpha,
    so prototypes that cannot come within d_alpha are abandoned early.
  * hierarchical_clustering starts from singleton clusters, one per AG,
    with a full table of pairwise AG distances and labellings.  While the
    smallest table entry stays within d_alpha the closest pair is merged;
    complete linkage keeps the larger of the two distances to every other
    cluster, single linkage the smaller, and the stored labelling is composed
    through the merge.  No merge reads a prototype: a cluster is its AGs'
    vertex maps into one frame, synthesised into a prototype at the end.

The distance producing the hierarchical table is pluggable and defaults to
the edit distance between AGs, bounded just above d_alpha: a pair that
cannot come within d_alpha (most are refused before any table) sits in the
table at infinity, without a labelling.  Under either linkage such a pair
never merges, so the result is that of the unbounded table.
"""

import functools
import math

import numpy as np

from .baseline import edit_distance
from .core import (CostWeights, Labelling, _slot_list, checked_bin_width,
                   extend_ag, extend_fdg)
from .harness import _classify
from .synthesis import (CommonLabelling, ag_to_fdg, place_fresh,
                        synth_from_labelled_ags, update_fdg_with_ag)


def extend_labelling(g, f, labelling):
    """Extend an AG, an FDG and a partial labelling between them to a common
    order and a bijection.

    Unplaced AG vertices get fresh null slots appended to the FDG in vertex
    order; uncovered FDG slots get null AG vertices, matched in ascending
    order.  Returns (extended AG, extended FDG, bijective Labelling); a
    labelling that breaks core's vertex-map rule raises ValueError.
    """
    vmap = _slot_list(labelling, g.order, f.order)
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
    prototype and builds no cost tables for one whose root bound is beyond
    d_alpha.  A custom matcher gets every prototype, with no bound.
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
    """Bookkeeping of an agglomerative run: the pairwise distance and
    labelling tables and, per cluster c, maps[c], each member AG's total
    vertex map into c's frame of orders[c] slots, in joining order.

    Rows and columns of dead clusters sit at infinity and their labellings
    are dropped, so the tables always describe exactly the live pairs.  A
    pair at infinity, dead or beyond ag_distance's bound, has no labelling.
    """

    def __init__(self, ags, ag_distance=None):
        dist_fn = ag_distance or edit_distance
        count = len(ags)
        self.maps = [{i: list(range(g.order))} for i, g in enumerate(ags)]
        self.orders = [g.order for g in ags]
        self.members = [{i} for i in range(count)]
        self.live = [True] * count
        self.dist = np.full((count, count), math.inf)
        self.phi = {}
        for i in range(count):
            for j in range(i + 1, count):
                dij, lab = dist_fn(ags[i], ags[j])
                if math.isnan(dij):
                    raise ValueError("ag_distance returned NaN")
                self.dist[i, j] = self.dist[j, i] = dij
                if dij < math.inf:
                    vmap = _slot_list(lab, ags[i].order, ags[j].order)
                    self.phi[(i, j)] = vmap
                    self.phi[(j, i)] = Labelling(vmap).inverse(ags[j].order)

    def closest_pair(self):
        """Lexicographically first pair realizing the smallest live
        distance, or None when fewer than two clusters remain."""
        x, y = divmod(int(np.argmin(self.dist)), len(self.live))
        return None if self.dist[x, y] == math.inf else (x, y, self.dist[x, y])

    def merge(self, x, y, linkage):
        """Fold cluster x into cluster y.

        The stored x->y labelling is extended to a bijection (unplaced x
        slots get fresh slots appended to y's frame), x's maps are composed
        through it, and every other cluster's distance to y becomes the
        larger (complete) or smaller (single) of its two old distances, its
        labelling composed through the merge when the kept distance was the
        one to x and dropped when the kept distance is infinite.
        """
        if linkage not in ("single", "complete"):
            raise ValueError("linkage must be 'single' or 'complete'")
        full_x, k = place_fresh(self.phi[(x, y)], self.orders[y])
        for a, vmap in self.maps[x].items():
            self.maps[y][a] = [full_x[q] for q in vmap]
        self.members[y] |= self.members[x]

        for i in range(len(self.live)):
            if i == x or i == y or not self.live[i]:
                continue
            dx, dy = self.dist[i, x], self.dist[i, y]
            keep_x = dx > dy if linkage == "complete" else dx < dy
            kept = dx if keep_x else dy
            if kept == math.inf:
                self.phi.pop((i, y), None)
                self.phi.pop((y, i), None)
            elif keep_x:
                base = self.phi[(i, x)]
                comp = [None if q is None else full_x[q] for q in base]
                self.phi[(i, y)] = comp
                self.phi[(y, i)] = Labelling(comp).inverse(k)
            else:
                self.phi[(y, i)] += [None] * (k - self.orders[y])
            self.dist[i, y] = self.dist[y, i] = kept

        self.orders[y] = k
        self.live[x] = False
        self.dist[x, :] = math.inf
        self.dist[:, x] = math.inf
        for key in [key for key in self.phi if x in key]:
            del self.phi[key]


def hierarchical_clustering(ags, d_alpha, linkage="complete",
                            ag_distance=None, bin_width=1.0,
                            return_assignments=False):
    """Agglomerative clustering over a full pairwise distance table.

    ag_distance(g1, g2) must return (distance, labelling), or (inf, None)
    for a pair it did not search; the default is the edit distance with an
    upper bound just above d_alpha.  Merging continues while the smallest
    live distance is at most d_alpha; each prototype is then synthesised from
    its cluster's AGs.  With return_assignments the second element maps
    each prototype to the set of input positions it absorbed.
    """
    ags = list(ags)
    if not ags:
        raise ValueError("at least one AG is required")
    if linkage not in ("single", "complete"):
        raise ValueError("linkage must be 'single' or 'complete'")
    if math.isnan(d_alpha):
        raise ValueError("d_alpha must not be NaN")
    bin_width = checked_bin_width(bin_width)
    if ag_distance is None:
        ag_distance = functools.partial(
            edit_distance, upper_bound=math.nextafter(d_alpha, math.inf))
    state = ClusterState(ags, ag_distance)
    while True:
        hit = state.closest_pair()
        if hit is None or hit[2] > d_alpha:
            break
        state.merge(hit[0], hit[1], linkage)
    live = [c for c, alive in enumerate(state.live) if alive]
    fdgs = [synth_from_labelled_ags(
        [ags[a] for a in state.maps[c]],
        CommonLabelling(list(state.maps[c].values()), state.orders[c]),
        bin_width) for c in live]
    if return_assignments:
        return fdgs, [state.members[c] for c in live]
    return fdgs
