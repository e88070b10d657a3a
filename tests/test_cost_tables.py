"""Cost tables against plain per-entry evaluation.

* every entry of vc, del_v, ce_absent and the rate matrices
  rates[arc_id] of the AG pairs equals the vertex_cost or arc_cost
  product it stands for, bit for bit
* forbid_matrix, which reads the tables, equals the expanded-vertex filter
  evaluated item by item with split_into_expanded_vertices and
  expanded_vertex_distance, at tau 0.3, 0.5 and 1.0
* the existable slot-pair matrix ex is f.existable off the diagonal and
  False on it, at orders 0 and 1 and with null slots
* the lower bound the filter prunes with never exceeds the exact
  expanded-vertex distance, and the pruned forbid_matrix equals the rule
  applied to the exact distances at tau from 0 to 1
* tables built from an FDG's cache, after other weights refilled it, equal
  tables built on a fresh copy of the FDG, and the cache is read-only
* classifying twice against the same prototypes scores each prototype's
  pdfs once, and weights the cache does not depend on leave it alone
* the relation instances cached for an order-14 prototype, synthesised as
  the benchmark's are, and the whole cache stay within budgets far below
  one dense arc matrix
* no array of that prototype's tables for a 12-vertex AG holds more than
  one m x m rate matrix per present AG arc plus ce_absent

Inputs mix string and numeric components, bin widths 0.5, 1 and 3, K_pr
1e-4 and 0.05, null vertex slots, arc pdfs with total 0 between present
slots, and AG bins that no slot has seen; the test checks that each of
these occurs.
"""

import numpy as np

from graphproto import (
    PHI,
    AttributedGraph,
    CommonLabelling,
    CostWeights,
    Fdg,
    GeneratorConfig,
    arc_cost,
    attr,
    compact_ag,
    extend_fdg,
    fdg_classify,
    generate_models,
    perturb,
    synth_from_labelled_ags,
    vertex_cost,
)
from graphproto.efficient import (
    _expanded_distances,
    _star_bound,
    expanded_max_distance,
    expanded_vertex_distance,
    forbid_matrix,
    split_into_expanded_vertices,
)
from graphproto.matching import _CostTables

_WORDS = ("a", "b", "c")


def _component(rng, spread):
    kind = int(rng.integers(3))
    if kind == 0:
        return int(rng.integers(-2, 3 + spread))
    if kind == 1:
        return float(np.round(rng.uniform(-2.0, 3.0 + spread), 2))
    return _WORDS[int(rng.integers(len(_WORDS)))] + "z" * int(
        rng.integers(0, 1 + spread))


def _attr(rng, spread):
    return attr(*(_component(rng, spread)
                  for _ in range(int(rng.integers(1, 3)))))


def _random_ag(rng, order, spread):
    arcs = {(i, j): _attr(rng, spread)
            for i in range(order) for j in range(order)
            if i != j and rng.random() < 0.45}
    return AttributedGraph([_attr(rng, spread) for _ in range(order)], arcs)


def _random_fdg(rng, width):
    """Synthesised from 1-3 AGs seated at random slots, so some present
    slot pairs were never co-present, and padded with null slots."""
    n = int(rng.integers(1, 5))
    ags, maps = [], []
    for _ in range(int(rng.integers(1, 4))):
        g = _random_ag(rng, int(rng.integers(1, n + 1)), 0)
        ags.append(g)
        maps.append([int(q) for q in rng.permutation(n)[:g.order]])
    f = synth_from_labelled_ags(ags, CommonLabelling(maps, n), width)
    return extend_fdg(f, n + int(rng.integers(0, 3)))


def _plain_tables(g, f, w):
    n, m = g.order, f.order
    k_pr = w.K_pr
    fnull = [f.vertex_null(q) for q in range(m)]
    vc = np.empty((n, m + 1))
    for i, a in enumerate(g.vertices):
        for q in range(m):
            vc[i, q] = w.K1 * vertex_cost(a, f.vertex_pdfs[q], k_pr)
        vc[i, m] = w.K1
    del_v = np.array([w.K1 * vertex_cost(PHI, p, k_pr)
                      for p in f.vertex_pdfs])
    ce = np.empty((n, n, m, m))
    ce_absent = np.zeros((m, m))
    for q in range(m):
        for r in range(m):
            if q != r:
                ce_absent[q, r] = w.K2 * arc_cost(
                    None, f.arc_pdfs[(q, r)], fnull[q] or fnull[r], k_pr)
    for i in range(n):
        for j in range(n):
            b = g.arcs.get((i, j))
            if b is None:
                ce[i, j] = ce_absent
                continue
            for q in range(m):
                for r in range(m):
                    ce[i, j, q, r] = w.K2 if q == r else w.K2 * arc_cost(
                        b, f.arc_pdfs[(q, r)], fnull[q] or fnull[r], k_pr)
    return vc, del_v, ce_absent, ce


def test_tables_and_filter_equal_per_entry_evaluation():
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(("string", "numeric", "null slot", "total 0",
                          "unseen bin"), 0)
    for case in range(240):
        width = (0.5, 1.0, 3.0)[case % 3]
        k_pr = (1e-4, 0.05)[(case // 3) % 2]
        k1, k2 = ((1.0, 1.0), (0.7, 1.9))[(case // 6) % 2]
        w = CostWeights(K1=k1, K2=k2, K_pr=k_pr)
        f = _random_fdg(rng, width)
        g = _random_ag(rng, int(rng.integers(1, 6)), 2)

        t = _CostTables(g, f, w)
        vc, del_v, ce_absent, ce = _plain_tables(g, f, w)
        assert np.array_equal(t.vc, vc)
        assert np.array_equal(t.del_v, del_v)
        assert np.array_equal(t.ce_absent, ce_absent)
        assert np.array_equal(t.rates[t.arc_id], ce)

        evg = split_into_expanded_vertices(g)
        evf = split_into_expanded_vertices(f)
        dist = np.array([[expanded_vertex_distance(a, b, w) for b in evf]
                         for a in evg]).reshape(g.order, f.order)
        assert np.array_equal(_expanded_distances(g, t)[0], dist)
        for tau in (0.3, 0.5, 1.0):
            want = np.array(
                [[dist[i, j] > tau * expanded_max_distance(a.size, b.size)
                  + 1e-9 for j, b in enumerate(evf)]
                 for i, a in enumerate(evg)],
                bool).reshape(g.order, f.order)
            assert np.array_equal(forbid_matrix(g, f, tau, w), want)

        values = [c for a in g.vertices for c in a.values]
        seen["string"] += any(isinstance(c, str) for c in values)
        seen["numeric"] += any(not isinstance(c, str) for c in values)
        seen["null slot"] += any(f.vertex_null(q) for q in range(f.order))
        seen["total 0"] += any(
            p.total == 0 and not (f.vertex_null(q) or f.vertex_null(r))
            for (q, r), p in f.arc_pdfs.items())
        seen["unseen bin"] += any(
            all(p.prob_attr(a) == 0 for p in f.vertex_pdfs)
            for a in g.vertices)
    assert min(seen.values()) >= 10, seen


def test_existable_slot_pairs_follow_the_fdg():
    rng = np.random.default_rng(2026)
    empty = synth_from_labelled_ags([AttributedGraph([], {})],
                                    CommonLabelling.identity([0]))
    fdgs = [empty, extend_fdg(empty, 1), extend_fdg(empty, 3)]
    fdgs += [_random_fdg(rng, 1.0) for _ in range(60)]
    g = AttributedGraph([attr(1)], {})
    null_slots = 0
    for f in fdgs:
        m = f.order
        ex = _CostTables(g, f, CostWeights()).ex
        assert ex.dtype == bool and ex.shape == (m, m)
        assert ex.tolist() == [[q != r and f.existable(q, r)
                                for r in range(m)] for q in range(m)]
        null_slots += any(f.vertex_null(q) for q in range(m))
    assert {f.order for f in fdgs} >= {0, 1} and null_slots >= 10


def test_star_bound_is_admissible_and_pruning_keeps_the_mask():
    rng = np.random.default_rng(2025)
    seen = dict.fromkeys(("null slot", "total 0", "empty AG star",
                          "empty FDG star", "pruned", "aligned"), 0)
    for case in range(240):
        width = (0.5, 1.0, 3.0)[case % 3]
        k_pr = (1e-4, 0.05)[(case // 3) % 2]
        k1, k2 = ((1.0, 1.0), (0.7, 1.9))[(case // 6) % 2]
        w = CostWeights(K1=k1, K2=k2, K_pr=k_pr)
        f = _random_fdg(rng, width)
        g = _random_ag(rng, int(rng.integers(1, 6)), 2)

        t = _CostTables(g, f, w)
        dist, size_g, size_f = _expanded_distances(g, t)
        bound = _star_bound(t)
        assert (bound <= dist + 1e-12).all()
        cap = np.array([[expanded_max_distance(a, b) for b in size_f]
                        for a in size_g], float).reshape(dist.shape)
        for tau in (0.0, 0.1, 0.3, 0.5, 0.75, 1.0):
            limit = tau * cap + 1e-9
            assert np.array_equal(forbid_matrix(g, f, tau, w, _tables=t),
                                  dist > limit)
            pruned = bound > limit + 1e-9
            seen["pruned"] += int(pruned.sum())
            seen["aligned"] += int((~pruned).sum())

        seen["null slot"] += any(f.vertex_null(q) for q in range(f.order))
        seen["total 0"] += any(
            p.total == 0 and not (f.vertex_null(q) or f.vertex_null(r))
            for (q, r), p in f.arc_pdfs.items())
        seen["empty AG star"] += min(size_g) == 1
        seen["empty FDG star"] += min(size_f) == 1
    assert min(seen.values()) >= 10, seen


def _attributes(t):
    """Every array, list and dict attribute of a _CostTables, arrays as
    (dtype, shape, bytes) so equal means bit for bit."""
    out = {}
    for name, v in vars(t).items():
        if isinstance(v, np.ndarray):
            out[name] = (v.dtype, v.shape, v.tobytes())
        elif isinstance(v, (list, dict)):
            out[name] = v
    return out


def _cached_arrays(f):
    """Every array f's cost cache holds, in its root and search parts."""
    root, search = f._costs[1:]
    arrays = [a for by_bin in root[:2] for a in by_bin[:2]] + [root[2]]
    return arrays + (list(search[0]) if search is not None else [])


def test_warm_tables_equal_cold_ones():
    rng = np.random.default_rng(2027)
    empty = synth_from_labelled_ags([AttributedGraph([], {})],
                                    CommonLabelling.identity([0]))
    fdgs = [empty, extend_fdg(empty, 1), extend_fdg(empty, 3)]
    fdgs += [_random_fdg(rng, (0.5, 1.0, 3.0)[k % 3]) for k in range(90)]
    seen = dict.fromkeys(("order 0", "order 1", "null slot", "total 0"), 0)
    for case, f in enumerate(fdgs):
        w1 = CostWeights(K_pr=(1e-4, 0.05)[case % 2], K3=0.5)
        # each of K1, K2 and K_pr alone refills the cache
        w2 = w1.replace(**({"K1": 0.7}, {"K2": 1.9}, {"K_pr": 0.01})[case % 3])
        for w in (w1, w2, w1):
            g = _random_ag(rng, int(rng.integers(0, 5)), 2)
            warm = _CostTables(g, f, w)
            fresh = Fdg(f.vertex_pdfs, f.arc_pdfs, f.relations(), f.z, f.u,
                        f.bin_width)
            assert _attributes(warm) == _attributes(_CostTables(g, fresh, w))
            arrays = _cached_arrays(f)
            arrays += [warm.del_v, warm.ce_absent, warm.sidx, warm.ex]
            assert not any(a.flags.writeable for a in arrays)
        seen["order 0"] += f.order == 0
        seen["order 1"] += f.order == 1
        seen["null slot"] += any(f.vertex_null(q) for q in range(f.order))
        seen["total 0"] += any(
            p.total == 0 and not (f.vertex_null(q) or f.vertex_null(r))
            for (q, r), p in f.arc_pdfs.items())
    assert min(seen.values()) >= 1 and seen["null slot"] >= 10 \
        and seen["total 0"] >= 10, seen


def test_each_prototype_is_scored_once(bin_maps):
    rng = np.random.default_rng(2028)
    models = [_random_fdg(rng, 1.0) for _ in range(3)]
    tests = [_random_ag(rng, 3, 0) for _ in range(2)]
    w = CostWeights()
    for g in tests:
        fdg_classify(g, models, w)
    # two bin maps (vertex and arc pdfs) per prototype, not per comparison
    assert len(bin_maps) == 6
    for other in (w.replace(K3=0.0, K4=1.0, K5=2.0, K6=0.5, K7=1.5, K8=3.0),
                  w.replace(mode="restricted"), w.replace(planar=True)):
        fdg_classify(tests[0], models, other)
    assert len(bin_maps) == 6
    fdg_classify(tests[0], models, w.replace(K1=2.0))
    assert len(bin_maps) == 12


def test_relation_instances_stay_within_their_memory_budget():
    # one dense float32 arc relation matrix of an order-14 FDG takes
    # 182 * 182 * 4 = 132,496 bytes; the cached relation instances of all
    # six relations stay under a fifth of it, and every array the cache
    # holds under half of it
    model = generate_models(GeneratorConfig(nFDG=1, nv=14, ne=42,
                                            seed=0))[0]
    ags = [perturb(model, "delete_distort", r, nd=2, nl=1)
           for r in range(10)]
    f = synth_from_labelled_ags(
        ags, CommonLabelling.identity([g.order for g in ags]))
    t = _CostTables(compact_ag(ags[0]), f, CostWeights())
    assert f.order == 14 and t.rel.shape[0] == 3
    # the arc relation matrices are dense before exempt slots are dropped
    assert f.Ae.sum() > 30000
    assert t.rel.nbytes <= 24 * 1024
    assert sum(a.nbytes for a in _cached_arrays(f)) <= 64 * 1024


def test_per_pair_tables_stay_small():
    # each AG arc's rates are held once: no array of the pair's tables has
    # more than (k + 1) * m * m entries, k present AG arcs plus ce_absent,
    # where a dense rate matrix per AG pair would take n * n * m * m
    model = generate_models(GeneratorConfig(nFDG=1, nv=14, ne=42,
                                            seed=0))[0]
    ags = [perturb(model, "delete_distort", r, nd=2, nl=1)
           for r in range(10)]
    f = synth_from_labelled_ags(
        ags, CommonLabelling.identity([g.order for g in ags]))
    g = compact_ag(ags[0])
    t = _CostTables(g, f, CostWeights())
    n, m, k = g.order, f.order, len(t.pn_pairs)
    assert n == 12 and m == 14 and 0 < k < n * (n - 1)
    assert max(v.size for v in vars(t).values()
               if isinstance(v, np.ndarray)) <= (k + 1) * m * m
    assert t.rates.shape == (k + 1, m, m)
