"""Sub-optimal matching checks.

* expanded vertices split as documented: cyclic item order on the AG side,
  ascending existable slots on the FDG side
* the cyclic edit distance agrees with a brute-force minimum over rotations
  and monotone item alignments
* the distance cap holds at unit weights, so tau = 1 forbids nothing
* the alignment DP on a column range of longer rows is the same float as
  on the sliced rows; with a stop it returns at most the stop exactly when
  the minimum over the rotations is, and the minimum itself above it
* the star bound, read off the existable slot pairs only, is bit for bit
  the former formula over every (arc, slot, slot) triple
* forbid masks are nested as tau shrinks
* at benchmark size (order-14 models, larger stars than the random
  inputs) the pruned forbid_matrix equals the rule applied to the exact
  distances
* match_by_method at tau = 1 (noniter) and t_p = 0 (relax-v)
  reproduces the unrestricted search bit for bit
* the size cap broadcasts over arrays with the scalar rule's values
* every name in METHODS gives the search on the mask built by hand, node
  counts included, in both modes, planar or not, with an upper bound, and
  on tables the caller built
* relaxation rows are probability vectors and masking keeps each row's best
* a NaN tau or t_p is refused by the filter, the mask and the dispatcher
* a pair whose root is cut before its mask is built builds none and gives
  the search on the full mask; a noniter classify filters only the winner
* argument errors are raised even where the root would be cut, a pass
  count that is no integer >= 0 included, and relaxation refuses one
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
    extend_ag,
    extend_fdg,
    fdg_classify,
    generate_models,
    perturb,
    synth_from_labelled_ags,
    vertex_cost,
)
from graphproto import efficient
from graphproto.efficient import (
    METHODS,
    ExpandedVertex,
    ProbMatrix,
    _align,
    _expanded_distances,
    _star_bound,
    expanded_max_distance,
    expanded_vertex_distance,
    forbid_matrix,
    match_by_method,
    relax_probabilities,
    split_into_expanded_vertices,
)
from graphproto.matching import _binned, _cheap_root, _CostTables


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


def test_max_distance_broadcasts_over_arrays():
    sizes = np.arange(1, 9)
    got = expanded_max_distance(sizes[:, None], sizes)
    assert got.shape == (8, 8)
    assert got.tolist() == [[2 * a - 1 if a >= b else a + b - 1
                             for b in range(1, 9)] for a in range(1, 9)]
    assert got.tolist() == [[expanded_max_distance(a, b)
                             for b in range(1, 9)] for a in range(1, 9)]


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


def test_align_stops_at_the_first_rotation_within_the_stop():
    rng = np.random.default_rng(67)
    seen = dict.fromkeys(("stopped early", "stop below the minimum"), 0)

    def draw(*shape):
        # halves tie often, so rotations of equal cost are met
        return np.where(rng.random(shape) < 0.5, rng.integers(0, 3, shape) / 2,
                        rng.random(shape)).tolist()

    for trial in range(400):
        n_items, m_items = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        lo = int(rng.integers(0, 3))
        hi = lo + m_items
        width = hi + int(rng.integers(0, 3))
        central, ins = float(rng.random()), float(rng.uniform(0.5, 2.0))
        delc, vsub, asub = draw(width), draw(n_items, width), \
            draw(n_items, width)
        exact = _align(central, ins, delc, vsub, asub, lo, hi)
        cut = slice(lo, hi)
        assert exact == _align(central, ins, delc[cut],
                               [row[cut] for row in vsub],
                               [row[cut] for row in asub], 0, m_items)
        for stop in (exact, math.nextafter(exact, -math.inf),
                     math.nextafter(exact, math.inf), exact + 1.0, math.inf):
            got = _align(central, ins, delc, vsub, asub, lo, hi, stop)
            assert (got <= stop) == (exact <= stop)
            assert got >= exact
            if exact > stop:
                assert got == exact
                seen["stop below the minimum"] += 1
            seen["stopped early"] += got > exact
    assert min(seen.values()) >= 20, seen


def test_forbid_masks_nest_with_tau():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = _random_ag(rng, max_order=5)
        f = _random_fdg(rng, max_order=5)
        masks = [~forbid_matrix(g, f, tau) for tau in (0.0, 0.25, 0.5, 1.0)]
        for lo, hi in zip(masks, masks[1:]):
            assert (~lo | hi).all()


def _dense_star_bound(t):
    """_star_bound as it was first written, over every (AG arc, slot, star
    item) triple, non-existable pairs masked to inf: the reference."""
    n, m, ex = t.n, t.m, t.ex
    ag_side = np.zeros((n, m))
    best = np.full((n, m, m), np.inf)
    if t.pn_pairs:
        src, dst = np.array(t.pn_pairs).T
        pair = np.where(ex, t.vc[dst, :m][:, None, :] + t.rates[1:], np.inf)
        heads, starts = np.unique(src, return_index=True)
        ag_side[heads] = np.add.reduceat(np.minimum(
            pair.min(axis=2, initial=np.inf), t.w.K1 + t.w.K2), starts)
        best[heads] = np.minimum.reduceat(pair, starts)
    fdg_side = np.where(ex, np.minimum(best, t.del_v), 0.0).sum(axis=2)
    return t.vc[:, :m] + np.maximum(ag_side, fdg_side)


def test_star_bound_equals_the_dense_formula():
    rng = np.random.default_rng(53)
    models = generate_models(GeneratorConfig(nFDG=2, nv=14, ne=42, seed=7))
    big = [synth_from_labelled_ags(
        refs, CommonLabelling.identity([g.order for g in refs]))
        for refs in ([perturb(model, "delete_distort", 10 * k + r, nd=2,
                              nl=1) for r in range(6)]
                     for k, model in enumerate(models))]
    seen = dict.fromkeys(("null slot", "empty star", "order 8+"), 0)
    for trial in range(150):
        if trial % 10 == 0:
            f = big[trial // 10 % 2]
            g = compact_ag(perturb(models[trial // 10 % 2], "delete_distort",
                                   trial, nd=2, nl=1))
        else:
            g, f = _random_ag(rng, 6), _random_fdg(rng, 9)
            if trial % 3 == 0:
                f = extend_fdg(f, f.order + int(rng.integers(1, 3)))
        w = CostWeights(K1=float(rng.choice([1.0, 0.7, 2.5])),
                        K2=float(rng.choice([1.0, 0.4, 1.9])))
        t = _CostTables(g, f, w)
        got, want = _star_bound(t), _dense_star_bound(t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen["null slot"] += bool(f.vnull.any())
        seen["empty star"] += not t.ex.any(axis=1).all()
        seen["order 8+"] += f.order >= 8
    assert min(seen.values()) >= 10, seen


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
            for tau in (0.0, 0.25, 0.5, 1.0):
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
        got = match_by_method(g, f, w, method="noniter", tau=1.0)
        assert got.valid == want.valid
        assert got.distance == want.distance
        assert got.labelling == want.labelling


def test_suboptimal_relaxation_tp_zero_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(25):
        g = _random_ag(rng)
        f = _random_fdg(rng)
        want = bnb_distance(g, f)
        got = match_by_method(g, f, method="relax-v", t_p=0.0)
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
        for res in (match_by_method(g, f, method="noniter", tau=0.4),
                    match_by_method(g, f, method="relax-v", t_p=0.3)):
            assert res.valid
            assert res.distance >= want.distance - 1e-12
            assert res.explored_nodes <= free.explored_nodes


def test_every_method_is_the_search_on_its_own_mask():
    rng = np.random.default_rng(37)
    seen = dict.fromkeys(("restricted", "planar", "masked", "cut"), 0)
    for trial in range(40):
        g, f = _random_ag(rng), _random_fdg(rng)
        w = CostWeights(K3=float(rng.choice([0.0, 1.0])),
                        mode="restricted" if trial % 3 == 0 else "relaxed",
                        planar=trial % 4 == 1)
        bound = (math.inf, 1.5)[trial % 2]
        masks = {
            "optimal": None,
            "noniter": ~forbid_matrix(g, f, 0.5, w),
            "relax-v": relax_probabilities(g, f, w, 5, "vertex").mask(0.2),
            "relax-ev": relax_probabilities(g, f, w, 5, "expanded").mask(0.2),
        }
        for method, mask in masks.items():
            # on the bins and root the caller worked out, as in the
            # classify loop
            bins = _binned(g, f.bin_width)
            got = match_by_method(g, f, w, method, tau=0.5, t_p=0.2,
                                  iterations=5, upper_bound=bound,
                                  _root=(bins, _cheap_root(bins, f, w)))
            want = bnb_distance(g, f, w, allowed=mask, upper_bound=bound)
            assert ((got.distance, got.valid, got.labelling,
                     got.explored_nodes)
                    == (want.distance, want.valid, want.labelling,
                        want.explored_nodes))
            seen["masked"] += mask is not None and not mask.all()
            seen["cut"] += not got.valid
        seen["restricted"] += w.mode == "restricted"
        seen["planar"] += w.planar
    assert min(seen.values()) >= 5, seen


class _Built(Exception):
    """Raised by a filter that should not have run."""


def _refuse(*args, **kwargs):
    raise _Built


def _outcome(res):
    return (res.distance, res.valid, res.labelling, res.explored_nodes,
            res.leaves)


def test_a_root_cut_before_the_mask_builds_no_mask(monkeypatch):
    # with the filters refusing to run, a call that still returns was cut
    # at the root on every slot; it must be the search on the full mask
    rng = np.random.default_rng(41)
    cut = dict.fromkeys(METHODS[1:], 0)
    survived = 0
    for trial in range(60):
        g, f = _random_ag(rng), _random_fdg(rng)
        w = CostWeights(K3=float(rng.choice([0.0, 1.0])),
                        mode="restricted" if trial % 3 == 0 else "relaxed")
        bound = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        masks = {
            "noniter": ~forbid_matrix(g, f, 0.5, w),
            "relax-v": relax_probabilities(g, f, w, 5, "vertex").mask(0.2),
            "relax-ev": relax_probabilities(g, f, w, 5, "expanded").mask(0.2),
        }
        with monkeypatch.context() as m:
            m.setattr(efficient, "forbid_matrix", _refuse)
            m.setattr(efficient, "relax_probabilities", _refuse)
            for method, mask in masks.items():
                try:
                    got = match_by_method(g, f, w, method, tau=0.5, t_p=0.2,
                                          iterations=5, upper_bound=bound)
                except _Built:
                    survived += 1
                    continue
                want = bnb_distance(g, f, w, allowed=mask, upper_bound=bound)
                assert _outcome(got) == _outcome(want) \
                    == (math.inf, False, None, 1, 0)
                cut[method] += 1
    assert min(cut.values()) >= 5 and survived >= 5, (cut, survived)


def test_noniter_classify_filters_the_winner_only(monkeypatch):
    calls = []
    build = efficient.forbid_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(efficient, "forbid_matrix", counting)
    ags = [AttributedGraph([attr(v), attr(v + 1), attr(v + 2)],
                           {(0, 1): attr(v + 3), (1, 2): attr(v + 4)})
           for v in (1, 300, 600)]
    protos = [ag_to_fdg(g) for g in ags]
    assert fdg_classify(ags[1], protos, method="noniter", tau=0.5) == (1, 0.0)
    assert calls == [1]


def test_argument_errors_come_before_the_root_test():
    # at upper_bound 1 the search on this far pair stops at its root
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    f = ag_to_fdg(AttributedGraph([attr(500), attr(600)],
                                  {(1, 0): attr(700)}))
    assert match_by_method(g, f, method="noniter", tau=0.5,
                           upper_bound=1.0).explored_nodes == 1
    for method, kw in (("noniter", {"tau": math.nan}),
                       ("relax-v", {"t_p": math.nan}),
                       ("relax-ev", {"t_p": math.nan})):
        with pytest.raises(ValueError, match="NaN"):
            match_by_method(g, f, method=method, upper_bound=1.0, **kw)
    with pytest.raises(ValueError, match="unknown method"):
        match_by_method(g, f, method="nope", upper_bound=1.0)
    with pytest.raises(ValueError, match="upper_bound must not be NaN"):
        match_by_method(g, f, method="noniter", upper_bound=math.nan)
    with pytest.raises(ValueError, match="non-extended"):
        match_by_method(extend_ag(g, 3), f, method="relax-ev",
                        upper_bound=1.0)
    with pytest.raises(ValueError, match="2 x 2"):
        bnb_distance(g, f, allowed=np.ones((2, 3), bool), upper_bound=1.0)
    # cut at the root, these came back as an unrefused inf
    for method in ("relax-v", "relax-ev"):
        for bad in (2.5, "3", None, -1):
            with pytest.raises(ValueError, match="iterations"):
                match_by_method(g, f, method=method, iterations=bad,
                                upper_bound=1.0)


@pytest.mark.parametrize("bad", [2.5, "3", None, -1, np.float64(2.0)])
def test_a_pass_count_that_is_no_count_is_refused(bad):
    # a float, str or None raised TypeError once the root survived, and
    # -1 ran no pass at all
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    f = ag_to_fdg(g)
    with pytest.raises(ValueError, match="iterations"):
        relax_probabilities(g, f, iterations=bad)
    for method in ("relax-v", "relax-ev"):
        with pytest.raises(ValueError, match="iterations"):
            match_by_method(g, f, method=method, iterations=bad)


def test_integer_pass_counts_are_taken():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    f = ag_to_fdg(g)
    for count in (0, 3, np.int64(3)):
        relax_probabilities(g, f, iterations=count)
        assert match_by_method(g, f, method="relax-ev",
                               iterations=count).distance == 0.0
    # noniter and optimal run no relaxation, so the count is not read
    assert match_by_method(g, f, method="noniter", iterations=None).valid


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


def test_nan_thresholds_are_refused():
    # a NaN tau forbade nothing and a NaN t_p kept only each row's best
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    f = ag_to_fdg(g)
    with pytest.raises(ValueError, match="NaN"):
        forbid_matrix(g, f, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        relax_probabilities(g, f).mask(math.nan)
    for method, kw in (("noniter", {"tau": math.nan}),
                       ("relax-v", {"t_p": math.nan})):
        with pytest.raises(ValueError, match="NaN"):
            match_by_method(g, f, method=method, **kw)


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
        match_by_method(g, f, method="nope")


def test_relaxation_match_builds_tables_once(table_builds):
    rng = np.random.default_rng(29)
    for _ in range(5):
        g, f = _random_ag(rng), _random_fdg(rng)
        before = len(table_builds)
        match_by_method(g, f, method="relax-ev", t_p=0.05)
        assert len(table_builds) - before == 1
