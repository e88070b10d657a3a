"""Sub-optimal matching checks.

* expanded vertices split as documented: cyclic item order on the AG side,
  ascending existable slots on the FDG side
* the cyclic edit distance agrees with a brute-force minimum over rotations
  and monotone item alignments
* the distance cap holds at unit weights, so tau = 1 forbids nothing
* forbid masks are nested as tau shrinks
* at benchmark size (order-14 models, larger stars than the random
  inputs) the pruned forbid_matrix equals the rule applied to the exact
  distances
* suboptimal_distance at tau = 1 (expanded) and t_p = 0 (relaxation)
  reproduces the unrestricted search bit for bit
* relaxation rows are probability vectors and masking keeps each row's best
* a relaxation match builds its pair's cost tables once
"""

import itertools
import math

import numpy as np
import pytest

from graphproto import (
    PHI,
    AttributedGraph,
    CommonLabelling,
    CostWeights,
    GeneratorConfig,
    ag_to_fdg,
    arc_cost,
    attr,
    bnb_distance,
    compact_ag,
    generate_models,
    perturb,
    synth_from_labelled_ags,
    vertex_cost,
)
from graphproto.efficient import (
    ExpandedVertex,
    ProbMatrix,
    _expanded_distances,
    expanded_max_distance,
    expanded_vertex_distance,
    forbid_matrix,
    match_by_method,
    relax_probabilities,
    split_into_expanded_vertices,
    suboptimal_distance,
)
from graphproto.matching import _CostTables


def _brute_cyclic(ev_g, ev_f, w):
    """Independent minimum over rotations and monotone item alignments."""
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
                    for l, x in zip(gpos, fpos):
                        b, a = seq[l]
                        q, p = ev_f.items[x]
                        c += w.K1 * vertex_cost(a, p, w.K_pr)
                        c += w.K2 * arc_cost(b, q, False, w.K_pr)
                    if c < best:
                        best = c
    return best


def _random_ag(rng, max_order=4):
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


def test_split_ag_follows_cyclic_order():
    g = AttributedGraph(
        [attr(1), attr(2), attr(3)],
        {(0, 1): attr(10), (0, 2): attr(11), (2, 0): attr(12)},
        arc_order={0: [2, 1]})
    evs = split_into_expanded_vertices(g)
    assert [ev.index for ev in evs] == [0, 1, 2]
    assert evs[0].items == [(attr(11), attr(3)), (attr(10), attr(2))]
    assert evs[1].items == []
    assert evs[2].items == [(attr(12), attr(1))]
    assert evs[0].size == 3 and evs[1].size == 1


def test_split_fdg_keeps_existable_slots_only():
    # slot 2 of this prototype is null in one member graph, so arcs touching
    # it stay existable, but slot 1 never carries the (0, 1) arc at all
    g1 = AttributedGraph([attr(1), attr(2), attr(3)],
                         {(0, 2): attr(10), (2, 1): attr(11)})
    g2 = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(12)})
    f = synth_from_labelled_ags([g1, g2], CommonLabelling([[0, 1, 2], [0, 1]], 3))
    evs = split_into_expanded_vertices(f)
    slots = [[j for j in range(3) if j != i and f.existable(i, j)]
             for i in range(3)]
    for i in range(3):
        assert len(evs[i].items) == len(slots[i])
        for (q, p), j in zip(evs[i].items, slots[i]):
            assert q is f.arc_pdfs[(i, j)]
            assert p is f.vertex_pdfs[j]
    assert 1 in slots[0] and 2 in slots[0]


def test_max_distance_branches():
    assert expanded_max_distance(3, 2) == 5
    assert expanded_max_distance(2, 3) == 4
    assert expanded_max_distance(1, 1) == 1
    assert expanded_max_distance(2, 2) == 3


def test_distance_zero_on_own_prototype():
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(10), (0, 2): attr(11)})
    evg = split_into_expanded_vertices(g)
    evf = split_into_expanded_vertices(ag_to_fdg(g))
    for i in range(3):
        assert expanded_vertex_distance(evg[i], evf[i]) == 0.0


def test_distance_worked_example():
    # one AG item against an itemless slot: the centre matches for free,
    # the item is inserted at K1 + K2
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    f = ag_to_fdg(AttributedGraph([attr(1)], {}))
    evg = split_into_expanded_vertices(g)
    evf = split_into_expanded_vertices(f)
    assert expanded_vertex_distance(evg[0], evf[0]) == 2.0
    # the reverse: an itemless AG vertex against a slot with one existable
    # item pays that slot's deletion (certain presence, so one full unit)
    f2 = ag_to_fdg(g)
    evf2 = split_into_expanded_vertices(f2)
    bare = ExpandedVertex(attr(1), [], 0)
    assert expanded_vertex_distance(bare, evf2[0]) == 1.0


def test_distance_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(40):
        g = _random_ag(rng, max_order=5)
        f = _random_fdg(rng, max_order=4)
        w = CostWeights(K1=float(rng.uniform(0.5, 2.0)),
                        K2=float(rng.uniform(0.5, 2.0)))
        for ev_g in split_into_expanded_vertices(g):
            for ev_f in split_into_expanded_vertices(f):
                got = expanded_vertex_distance(ev_g, ev_f, w)
                want = _brute_cyclic(ev_g, ev_f, w)
                assert got == pytest.approx(want, abs=1e-12)


def test_rotation_matters():
    # leaves (2, 3) against a prototype whose cyclic order is (3, 2): only
    # the rotated alignment matches both items
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(9), (0, 2): attr(9)},
                        arc_order={0: [1, 2]})
    ref = AttributedGraph([attr(1), attr(3), attr(2)],
                          {(0, 1): attr(9), (0, 2): attr(9)},
                          arc_order={0: [1, 2]})
    evg = split_into_expanded_vertices(g)[0]
    evf = split_into_expanded_vertices(ag_to_fdg(ref))[0]
    assert expanded_vertex_distance(evg, evf) == 0.0


def test_unit_weight_cap_and_open_mask():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = _random_ag(rng, max_order=5)
        f = _random_fdg(rng, max_order=5)
        evg = split_into_expanded_vertices(g)
        evf = split_into_expanded_vertices(f)
        for ev_g in evg:
            for ev_f in evf:
                d = expanded_vertex_distance(ev_g, ev_f)
                assert d <= expanded_max_distance(ev_g.size, ev_f.size) + 1e-9
        assert not forbid_matrix(g, f, 1.0).any()


def test_forbid_masks_nest_with_tau():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = _random_ag(rng, max_order=5)
        f = _random_fdg(rng, max_order=5)
        masks = [~forbid_matrix(g, f, tau) for tau in (0.0, 0.25, 0.5, 1.0)]
        for lo, hi in zip(masks, masks[1:]):
            assert (~lo | hi).all()


def test_pruned_filter_matches_exact_rule_at_benchmark_size():
    models = generate_models(GeneratorConfig(nFDG=3, nv=14, ne=42, seed=5))
    rng = np.random.default_rng(31)

    def noisy(model):
        return perturb(model, "delete_distort", int(rng.integers(2 ** 31)),
                       nd=2, nl=1)

    protos = []
    for model in models:
        refs = [noisy(model) for _ in range(10)]
        protos.append(synth_from_labelled_ags(
            refs, CommonLabelling.identity([g.order for g in refs])))
    tests = [compact_ag(noisy(models[k % 3])) for k in range(3)]
    largest = 0
    for g in tests:
        for f in protos:
            dist, size_g, size_f = _expanded_distances(g, _CostTables(
                g, f, CostWeights()))
            largest = max(largest, *size_g, *size_f)
            cap = np.array([[expanded_max_distance(a, b) for b in size_f]
                            for a in size_g], float)
            for tau in (0.25, 0.5):
                assert np.array_equal(forbid_matrix(g, f, tau),
                                      dist > tau * cap + 1e-9)
    # the random inputs of test_cost_tables keep every star under six items
    assert largest - 1 >= 6


def test_forbid_at_zero_keeps_exact_pairs():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    forbid = forbid_matrix(g, ag_to_fdg(g), 0.0)
    assert not forbid[0, 0] and not forbid[1, 1]
    assert forbid[0, 1] and forbid[1, 0]


def test_suboptimal_expanded_tau_one_is_exact():
    rng = np.random.default_rng(17)
    for trial in range(25):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        w = CostWeights(K3=float(rng.choice([0.0, 1.0])),
                        K5=float(rng.choice([0.0, 1.0])),
                        mode="restricted" if trial % 3 == 0 else "relaxed")
        want = bnb_distance(g, f, w)
        got = suboptimal_distance(g, f, w, method="expanded", tau=1.0)
        assert got.valid == want.valid
        assert got.distance == want.distance
        assert got.labelling == want.labelling


def test_suboptimal_relaxation_tp_zero_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(25):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        want = bnb_distance(g, f)
        got = suboptimal_distance(g, f, method="relaxation", t_p=0.0)
        assert got.valid == want.valid
        assert got.distance == want.distance
        assert got.labelling == want.labelling


def test_suboptimal_never_beats_exact():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        want = bnb_distance(g, f)
        free = bnb_distance(g, f, disable_bound=True, disable_pruning=True)
        for res in (suboptimal_distance(g, f, method="expanded", tau=0.4),
                    suboptimal_distance(g, f, method="relaxation", t_p=0.3)):
            assert res.valid
            assert res.distance >= want.distance - 1e-12
            assert res.explored_nodes <= free.explored_nodes


def test_relaxation_rows_are_distributions():
    rng = np.random.default_rng(29)
    g = _random_ag(rng, max_order=4)
    f = _random_fdg(rng, max_order=4)
    for init in ("vertex", "expanded"):
        pm = relax_probabilities(g, f, init=init)
        assert pm.probs.shape == (g.order, f.order + 1)
        assert (pm.probs > 0.0).all()
        assert pm.probs.sum(axis=1) == pytest.approx(np.ones(g.order))


def test_mask_keeps_row_best():
    pm = ProbMatrix(np.array([[0.6, 0.3, 0.1],
                              [0.1, 0.2, 0.7],
                              [0.45, 0.45, 0.1]]))
    hard = pm.mask(0.99)
    # row 0 keeps its best real slot, row 1's best is the null target so
    # nothing real survives, row 2 keeps the first of its tied best slots
    assert hard.tolist() == [[True, False], [False, False], [True, False]]
    assert pm.mask(0.0).all()


def test_isolated_vertices_converge():
    g = AttributedGraph([attr(1), attr(2)], {})
    f = _random_fdg(np.random.default_rng(31))
    pm = relax_probabilities(g, f)
    assert pm.probs.sum(axis=1) == pytest.approx(np.ones(2))


def test_bad_arguments():
    g = AttributedGraph([attr(1)], {})
    f = ag_to_fdg(g)
    with pytest.raises(ValueError):
        split_into_expanded_vertices([1, 2])
    with pytest.raises(ValueError):
        relax_probabilities(g, f, init="nope")
    with pytest.raises(ValueError):
        suboptimal_distance(g, f, method="nope")


def test_relaxation_match_builds_tables_once(table_builds):
    rng = np.random.default_rng(29)
    for _ in range(5):
        g, f = _random_ag(rng), _random_fdg(rng)
        before = len(table_builds)
        match_by_method(g, f, method="relax-ev", t_p=0.05)
        assert len(table_builds) - before == 1
