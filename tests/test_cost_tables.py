"""Cost tables against plain per-entry evaluation.

* every entry of vc, del_v, ce_absent and ce equals the vertex_cost or
  arc_cost product it stands for, bit for bit
* forbid_matrix, which reads the tables, equals the expanded-vertex filter
  evaluated item by item with split_into_expanded_vertices and
  expanded_vertex_distance, at tau 0.3, 0.5 and 1.0
* the lower bound the filter prunes with never exceeds the exact
  expanded-vertex distance, and the pruned forbid_matrix equals the rule
  applied to the exact distances at tau from 0 to 1

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
    arc_cost,
    attr,
    extend_fdg,
    synth_from_labelled_ags,
    vertex_cost,
)
from graphproto.efficient import (
    _existable_pairs,
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
        assert np.array_equal(t.ce, ce)

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
        ex = _existable_pairs(t)
        dist, size_g, size_f = _expanded_distances(g, t)
        bound = _star_bound(t, ex)
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
