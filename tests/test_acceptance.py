"""End-to-end acceptance checks, one test per advertised claim.

Each test prints a single PASS/FAIL line (visible under `pytest -s`) and
asserts the same condition:

  1. the two-graph prototype worked example: entropy exactly 2 bits, merged
     entropies near 1.838, and the three-way distance tie near 0.505 between
     structurally different candidates
  2. the optimal matcher reproduces the exhaustive search bit for bit on 200
     random pairs across both modes, planar on and off
  3. with bounding and pruning off, the visit counters equal the closed-form
     labelling and node counts, themselves confirmed by direct enumeration
  4. both sub-optimal methods collapse to the optimal distance at their
     permissive limits, and shrinking the filter never lowers the distance
  5. the cyclic alignment distance matches a brute-force oracle on 500 pairs
  6. synthesised prototypes satisfy the pdf and stored-relation identities,
     and one-at-a-time updates equal one-pass synthesis field by field
  7. relation counts follow the reference-set size: antagonisms start at
     zero, rise, then fall; existences only fall
  8. a large antagonism weight shrinks the explored search tree
  9. with antagonism and occurrence weights on, classification under noise
     and one spurious vertex is at least as correct as without them
 10. clustering degenerate thresholds and input-order invariance
"""

import itertools
import time

import numpy as np
import pytest

from graphproto import (
    PHI,
    AttributedGraph,
    CommonLabelling,
    CostWeights,
    ag_to_fdg,
    arc_cost,
    attr,
    bnb_distance,
    compact_ag,
    count_labellings,
    count_search_nodes,
    exhaustive_oracle,
    expanded_vertex_distance,
    forg_distance,
    forg_entropy,
    forg_synthesize,
    hierarchical_clustering,
    incremental_clustering,
    match_by_method,
    perturb,
    split_into_expanded_vertices,
    synth_from_labelled_ags,
    update_fdg_with_ag,
    verify_identities,
    vertex_cost,
)
from graphproto.baseline import EditCosts, edit_distance
from graphproto.harness import _random_model


def _check(name, ok):
    print(("PASS" if ok else "FAIL"), name)
    assert ok, name


def _random_ag(rng, max_order=4, exact_order=None):
    order = exact_order
    if order is None:
        order = int(rng.integers(1, max_order + 1))
    vertices = [attr(int(rng.integers(0, 4))) for _ in range(order)]
    arcs = {}
    for i in range(order):
        for j in range(order):
            if i != j and rng.random() < 0.35:
                arcs[(i, j)] = attr(int(rng.integers(0, 4)))
    return AttributedGraph(vertices, arcs)


def _random_fdg(rng, max_order=4):
    n = int(rng.integers(1, max_order + 1))
    z = int(rng.integers(1, 4))
    ags, maps = [], []
    for _ in range(z):
        g = _random_ag(rng, max_order=n)
        ags.append(g)
        maps.append(list(rng.permutation(n))[:g.order])
    return synth_from_labelled_ags(ags, CommonLabelling(maps, n))


def test_prototype_entropy_and_distance_worked_example():
    t0 = time.perf_counter()
    b, a, c, d, e = attr(2), attr(1), attr(3), attr(4), attr(5)
    x, y, z, k, l = attr(10), attr(11), attr(12), attr(13), attr(14)
    a1 = AttributedGraph([b, a, c, d],
                         {(1, 0): x, (1, 2): y, (0, 2): z, (1, 3): k})
    a2 = AttributedGraph([b, a, c, e],
                         {(1, 0): x, (1, 2): y, (0, 2): z, (0, 3): l})
    g = synth_from_labelled_ags(
        [a1, a2], CommonLabelling([[0, 1, 2, 3], [0, 1, 2, 4]], 5))
    shared = AttributedGraph([b, a, c], {(1, 0): x, (1, 2): y, (0, 2): z})
    union = AttributedGraph([b, a, c, d, e],
                            {(1, 0): x, (1, 2): y, (0, 2): z, (1, 3): k,
                             (0, 4): l})
    # structurally different candidates that all land on the same score
    candidates = [ag_to_fdg(shared), ag_to_fdg(a1), ag_to_fdg(union)]

    ok = forg_entropy(g) == 2.0
    for cand in candidates:
        merged = forg_synthesize(cand, g, list(range(cand.order)))
        ok = ok and abs(forg_entropy(merged) - 1.838) <= 0.002
        dist, _ = forg_distance(cand, g)
        ok = ok and abs(dist - 0.505) <= 0.002
    ok = ok and time.perf_counter() - t0 < 1.0
    _check("prototype worked example: entropies and the three-way tie", ok)


def test_optimal_matcher_agrees_with_exhaustive_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for trial in range(200):
        g = _random_ag(rng, max_order=5)
        f = _random_fdg(rng, max_order=5)
        w = CostWeights(
            K1=float(rng.uniform(0.5, 2.0)),
            K2=float(rng.uniform(0.5, 2.0)),
            K3=float(rng.choice([0.0, 1.0])),
            K4=float(rng.choice([0.0, 0.5])),
            K5=float(rng.choice([0.0, 1.0])),
            K6=float(rng.choice([0.0, 0.5])),
            K7=float(rng.choice([0.0, 1.0])),
            K8=float(rng.choice([0.0, 0.5])),
            planar=bool(trial & 1),
            mode="restricted" if trial & 2 else "relaxed")
        want = exhaustive_oracle(g, f, w)
        got = bnb_distance(g, f, w)
        ok = ok and got.valid == want.valid
        if want.valid:
            ok = ok and got.distance == want.distance
    ok = ok and time.perf_counter() - t0 < 120.0
    _check("optimal matcher bit-equal to exhaustive search on 200 pairs", ok)


def _enumerated_labelling_count(n, m):
    """Count injective-on-real-targets vertex maps by direct enumeration."""
    count = 0
    for targets in itertools.product(list(range(m)) + [None], repeat=n):
        real = [t for t in targets if t is not None]
        if len(real) == len(set(real)):
            count += 1
    return count


def test_search_space_counts_without_pruning():
    t0 = time.perf_counter()
    ok = (_enumerated_labelling_count(1, 1) == count_labellings(1, 1) == 2
          and _enumerated_labelling_count(2, 1) == count_labellings(2, 1) == 3
          and _enumerated_labelling_count(2, 2) == count_labellings(2, 2) == 7)
    rng = np.random.default_rng(303)
    for n in range(5):
        for m in range(5):
            ok = ok and _enumerated_labelling_count(n, m) == count_labellings(n, m)
            g = _random_ag(rng, exact_order=n)
            f = ag_to_fdg(_random_ag(rng, exact_order=m))
            res = bnb_distance(g, f, disable_bound=True, disable_pruning=True)
            ok = ok and res.leaves == count_labellings(n, m)
            ok = ok and res.explored_nodes == count_search_nodes(n, m)
    ok = ok and time.perf_counter() - t0 < 10.0
    _check("unpruned visit counters equal the enumerated closed forms", ok)


def test_suboptimal_limits_recover_the_optimal_distance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for trial in range(100):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        w = CostWeights(K3=float(rng.choice([0.0, 1.0])),
                        K5=float(rng.choice([0.0, 1.0])),
                        mode="restricted" if trial % 3 == 0 else "relaxed")
        want = bnb_distance(g, f, w)
        wide = match_by_method(g, f, w, method="noniter", tau=1.0)
        ok = ok and wide.valid == want.valid and wide.distance == want.distance
        base = bnb_distance(g, f)
        soft = match_by_method(g, f, method="relax-v", t_p=0.0)
        ok = ok and soft.valid == base.valid and soft.distance == base.distance
        ds = [match_by_method(g, f, method="noniter", tau=tau).distance
              for tau in (1.0, 0.7, 0.4, 0.2)]
        ok = ok and all(lo <= hi for lo, hi in zip(ds, ds[1:]))
    ok = ok and time.perf_counter() - t0 < 120.0
    _check("sub-optimal limits are exact and the filter is monotone", ok)


def _brute_cyclic(ev_g, ev_f, w):
    """Independent minimum over rotations and monotone item alignments."""
    import math
    np_, mp = len(ev_g.items), len(ev_f.items)
    central = w.K1 * vertex_cost(ev_g.center, ev_f.center, w.K_pr)
    ins = w.K1 + w.K2
    delc = [w.K1 * vertex_cost(PHI, p, w.K_pr) for (_, p) in ev_f.items]
    best = math.inf
    for s in range(max(1, np_)):
        seq = ev_g.items[s:] + ev_g.items[:s]
        for k in range(min(np_, mp) + 1):
            for gpos in itertools.combinations(range(np_), k):
                for fpos in itertools.combinations(range(mp), k):
                    c = central + (np_ - k) * ins
                    c += sum(delc[x] for x in range(mp) if x not in fpos)
                    for i, x in zip(gpos, fpos):
                        b, a = seq[i]
                        q, p = ev_f.items[x]
                        c += w.K1 * vertex_cost(a, p, w.K_pr)
                        c += w.K2 * arc_cost(b, q, False, w.K_pr)
                    if c < best:
                        best = c
    return best


def test_cyclic_alignment_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    compared = 0
    while compared < 500:
        g = _random_ag(rng, max_order=6)
        f = _random_fdg(rng, max_order=6)
        w = CostWeights(K1=float(rng.uniform(0.5, 2.0)),
                        K2=float(rng.uniform(0.5, 2.0)))
        for ev_g in split_into_expanded_vertices(g):
            for ev_f in split_into_expanded_vertices(f):
                if len(ev_g.items) > 5 or len(ev_f.items) > 5:
                    continue
                got = expanded_vertex_distance(ev_g, ev_f, w)
                ok = ok and got == pytest.approx(_brute_cyclic(ev_g, ev_f, w),
                                                 abs=1e-12)
                compared += 1
    ok = ok and compared >= 500 and time.perf_counter() - t0 < 30.0
    _check("cyclic alignment equals brute force on %d pairs" % compared, ok)


def test_synthesis_identities_sweep():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(50):
        ags = [_random_ag(rng) for _ in range(int(rng.integers(2, 6)))]
        f = ag_to_fdg(ags[0])
        maps = [list(range(ags[0].order))]
        for g in ags[1:]:
            free = list(range(f.order))
            rng.shuffle(free)
            vmap = []
            for _ in range(g.order):
                if free and rng.random() < 0.5:
                    vmap.append(free.pop())
                else:
                    vmap.append(None)
            placed = []
            nxt = f.order
            for t in vmap:
                if t is None:
                    placed.append(nxt)
                    nxt += 1
                else:
                    placed.append(t)
            maps.append(placed)
            f = update_fdg_with_ag(f, g, vmap)
        batch = synth_from_labelled_ags(ags, CommonLabelling(maps, f.order))

        for p in batch.vertex_pdfs:
            ok = ok and abs(sum(p.probs().values()) - 1.0) <= 1e-9
        for q in batch.arc_pdfs.values():
            ok = ok and abs(sum(q.probs().values()) - 1.0) <= 1e-9
        # a slot both antagonist and occurrent with another is certainly
        # null; an existent and occurrent partner is certainly present
        n = batch.order
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                both = bool(batch.Aw[i, j]) and bool(batch.Ow[i, j])
                ok = ok and both == batch.vertex_null(i)
                both = bool(batch.Ew[i, j]) and bool(batch.Ow[i, j])
                ok = ok and both == batch.vertex_strict(j)
        ok = ok and verify_identities(batch, ags, maps) == []
        ok = ok and batch.z == f.z
        ok = ok and batch.vertex_pdfs == f.vertex_pdfs
        ok = ok and batch.arc_pdfs == f.arc_pdfs
        ok = ok and batch.u == f.u
        for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
            ok = ok and np.array_equal(getattr(batch, name), getattr(f, name))
    _check("synthesis identities and batch == incremental on 50 instances", ok)


def test_relation_counts_track_reference_set_size():
    nv, ne, nd, nl = 12, 40, 6, 1
    sizes = [1, 2, 3, 4, 6, 9, 12]
    ant = np.zeros((10, len(sizes)))
    exi = np.zeros((10, len(sizes)))
    for s in range(10):
        rng = np.random.default_rng(1000 + s)
        model = _random_model(rng, nv, ne)
        refs = [perturb(model, "delete_distort", int(rng.integers(2 ** 31)),
                        nd=nd, nl=nl)
                for _ in range(max(sizes))]
        for k, nr in enumerate(sizes):
            f = synth_from_labelled_ags(
                refs[:nr], CommonLabelling([list(range(nv))] * nr, nv))
            present = np.array([not f.vertex_null(i) for i in range(nv)])
            ant[s, k] = (np.triu(f.Aw, 1) & np.outer(present, present)).sum()
            exi[s, k] = np.triu(f.Ew, 1).sum()
    means = ant.mean(axis=0)
    peak = int(means.argmax())
    ok = ((ant[:, 0] == 0).all()
          and 0 < peak < len(sizes) - 1
          and means[peak] > means[0]
          and means[-1] < means[peak]
          and all((np.diff(row) <= 0).all() for row in exi))
    _check("antagonisms rise then fall with reference count, existences"
           " only fall", ok)


def test_antagonism_weight_shrinks_the_search():
    nv, ne, nd, nl = 10, 30, 6, 1
    sizes = [1, 2, 3, 4, 6, 9, 12]
    ant = np.zeros((10, len(sizes)))
    store = []
    for s in range(10):
        rng = np.random.default_rng(4000 + s)
        models = [_random_model(rng, nv, ne) for _ in range(2)]
        packs = []
        for model in models:
            refs = [perturb(model, "delete_distort",
                            int(rng.integers(2 ** 31)), nd=nd, nl=nl)
                    for _ in range(max(sizes))]
            packs.append({nr: synth_from_labelled_ags(
                refs[:nr], CommonLabelling([list(range(nv))] * nr, nv))
                for nr in sizes})
        for k, nr in enumerate(sizes):
            f = packs[0][nr]
            present = np.array([not f.vertex_null(i) for i in range(nv)])
            ant[s, k] = (np.triu(f.Aw, 1) & np.outer(present, present)).sum()
        probe = compact_ag(perturb(models[0], "delete_distort",
                                   int(rng.integers(2 ** 31)), nd=nd, nl=nl))
        store.append((packs, probe))
    star = sizes[int(ant.mean(axis=0).argmax())]
    plain, weighted = [], []
    for packs, probe in store:
        for pack in packs:
            plain.append(
                bnb_distance(probe, pack[star],
                             CostWeights(K3=0.0)).explored_nodes)
            weighted.append(
                bnb_distance(probe, pack[star],
                             CostWeights(K3=100.0)).explored_nodes)
    ok = float(np.mean(weighted)) < float(np.mean(plain))
    _check("large antagonism weight explores fewer nodes at the peak", ok)


_NSLOT, _NSUB, _VRANGE, _ERANGE = 8, 4, 32, 24


def _class_sample(rng, skeleton):
    """A class model on the common frame plus its four slot subsets."""
    verts = [attr(float(rng.integers(0, _VRANGE))) for _ in range(_NSLOT)]
    arcs = {ij: attr(float(rng.integers(0, _ERANGE))) for ij in skeleton}
    model = AttributedGraph(verts, arcs)
    subsets = [sorted(int(x)
                      for x in rng.choice(_NSLOT, size=_NSUB, replace=False))
               for _ in range(4)]
    return model, subsets


def _observed(model, subset, rng, sigma):
    """Noisy copy of the model with everything outside `subset` nulled."""
    g = perturb(model, "gaussian", int(rng.integers(1 << 30)), sigma=sigma)
    alive = set(subset)
    verts = [v if i in alive else PHI for i, v in enumerate(g.vertices)]
    full = {}
    for i in range(_NSLOT):
        for j in range(_NSLOT):
            if i == j:
                continue
            b = g.arcs.get((i, j))
            if b is None or i not in alive or j not in alive:
                full[(i, j)] = PHI
            else:
                full[(i, j)] = b
    return AttributedGraph(verts, full, extended=True)


def _with_spurious(g, model, rng, sigma):
    """One extra vertex whose attribute echoes a real model vertex."""
    src = model.vertices[int(rng.integers(0, len(model.vertices)))]
    val = float(src.values[0]) + float(rng.normal(0.0, sigma))
    verts = list(g.vertices) + [attr(val)]
    arcs = dict(g.arcs)
    j = len(verts) - 1
    k = int(rng.integers(0, j))
    b = attr(float(rng.integers(0, _ERANGE)))
    if rng.integers(0, 2):
        arcs[(j, k)] = b
    else:
        arcs[(k, j)] = b
    return AttributedGraph(verts, arcs)


def _classification_rate(seed, sigma, weights):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(_NSLOT) for j in range(_NSLOT) if i != j]
    rng.shuffle(pairs)
    skeleton = [tuple(ij) for ij in pairs[:16]]
    classes = [_class_sample(rng, skeleton) for _ in range(3)]
    fdgs = []
    for model, subsets in classes:
        refs = [_observed(model, sub, rng, sigma)
                for sub in subsets for _ in range(3)]
        fdgs.append(synth_from_labelled_ags(
            refs, CommonLabelling.identity([r.order for r in refs]), 8.0))
    hits = total = 0
    for c, (model, subsets) in enumerate(classes):
        for _ in range(8):
            subset = subsets[int(rng.integers(0, len(subsets)))]
            g = _with_spurious(compact_ag(_observed(model, subset, rng, sigma)),
                               model, rng, sigma)
            ds = [bnb_distance(g, f, weights).distance for f in fdgs]
            hits += int(np.argmin(ds)) == c
            total += 1
    return hits / total


def test_relations_preserve_correctness_under_noise():
    with_rel = CostWeights(K2=0.5, K3=2.0, K5=2.0)
    without = CostWeights(K2=0.5, K3=0.0)
    ok = True
    for sigma in (2.0, 8.0):
        rel = np.mean([_classification_rate(9000 + s, sigma, with_rel)
                       for s in range(10)])
        none = np.mean([_classification_rate(9000 + s, sigma, without)
                        for s in range(10)])
        ok = ok and rel >= none - 0.02
    _check("antagonism and occurrence keep correctness under noise and a"
           " spurious vertex", ok)


def _graded_distance(g1, g2):
    scale = lambda a, b: abs(a.values[0] - b.values[0]) / 100.0
    return edit_distance(g1, g2,
                         EditCosts(vertex_sub=scale, arc_sub=scale))


def test_clustering_degenerate_cases():
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 50, 100)]
    ok = len(incremental_clustering(ags, d_alpha=1e9)) == 1
    ok = ok and len(hierarchical_clustering(ags, d_alpha=1e9)) == 1
    singles = incremental_clustering(ags, d_alpha=-1.0)
    ok = ok and len(singles) == 3 and all(f.z == 1 for f in singles)
    # the smallest pairwise edit distance here is 1
    below = hierarchical_clustering(ags, d_alpha=0.5)
    ok = ok and len(below) == 3 and all(f.z == 1 for f in below)

    values = [0, 1, 3, 7, 15, 31]
    spread = [AttributedGraph([attr(v)], {}) for v in values]
    rng = np.random.default_rng(53)
    for linkage in ("single", "complete"):
        _, members = hierarchical_clustering(
            spread, d_alpha=0.05, linkage=linkage,
            ag_distance=_graded_distance, return_assignments=True)
        want = set(frozenset(m) for m in members)
        for _ in range(4):
            perm = list(rng.permutation(len(spread)))
            _, got = hierarchical_clustering(
                [spread[p] for p in perm], d_alpha=0.05, linkage=linkage,
                ag_distance=_graded_distance, return_assignments=True)
            back = set(frozenset(perm[i] for i in m) for m in got)
            ok = ok and back == want
    _check("clustering thresholds degenerate correctly and ignore input"
           " order", ok)
