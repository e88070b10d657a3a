"""Clustering checks.

* extend_labelling produces the documented bijection and, followed by plain
  FDG synthesis, reproduces update_fdg_with_ag exactly; a slot outside the
  FDG, negative ones included, is a ValueError
* incremental clustering: one prototype under a huge threshold, one per AG
  under a negative one, z grows when identical AGs are absorbed, each AG
  joins the nearest prototype, and second-order weights are forced to zero
* hierarchical clustering: identical AGs collapse, a threshold below the
  smallest distance keeps singletons, single and complete linkage part ways
  on a chain, z mass is conserved, and the partition does not depend on the
  input order when the pairwise distances are distinct
* ClusterState keeps dead rows at infinity and labellings only for live pairs
* ClusterState takes (inf, None) from any ag_distance and never composes or
  pads a labelling for a pair whose kept distance is infinite, under either
  linkage
* the hierarchical table bounded just above d_alpha gives the members and
  prototypes of the unbounded edit distance over random batches, thresholds
  and both linkages
* the bounded incremental search gives the members and prototypes of a full
  bnb_distance per prototype over random batches and thresholds, a distance
  of exactly d_alpha and a tie met out of index order included
* a NaN d_alpha and a bad bin width are refused before any work, the
  width before any AG distance
* an ag_distance or matcher that returns no vertex map is a ValueError
* hierarchical prototypes equal the ones pooled merge by merge with
  forg_synthesize from ag_to_fdg singletons, down to the stores and the
  written file, and each is the one Fdg built for its cluster
"""

import functools
import math

import numpy as np
import pytest

from graphproto import (
    AttributedGraph,
    CommonLabelling,
    CostWeights,
    Labelling,
    MatchResult,
    ag_to_fdg,
    attr,
    bnb_distance,
    synth_from_labelled_fdgs,
    update_fdg_with_ag,
)
from graphproto.baseline import EditCosts, edit_distance
from graphproto.clustering import (
    ClusterState,
    extend_labelling,
    hierarchical_clustering,
    incremental_clustering,
)
from graphproto.core import AttrTuple
from graphproto.fileio import write_fdg
from graphproto.forg import forg_synthesize
from graphproto.harness import (GeneratorConfig, compact_ag, generate_models,
                                perturb)
from graphproto.matching import _binned, _cheap_root
from graphproto import harness


def _same_fdg(f1, f2):
    assert f1.order == f2.order
    assert f1.z == f2.z
    assert f1.vertex_pdfs == f2.vertex_pdfs
    assert f1.arc_pdfs == f2.arc_pdfs
    assert f1.u == f2.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert (getattr(f1, name) == getattr(f2, name)).all(), name


def test_extend_labelling_shapes():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    f = ag_to_fdg(AttributedGraph([attr(5), attr(1), attr(6)], {}))
    g_ext, f_ext, lab = extend_labelling(g, f, [1, None])
    assert g_ext.order == f_ext.order == 4
    assert list(lab.vertex_map) == [1, 3, 0, 2]
    assert g_ext.vertices[2].is_null and g_ext.vertices[3].is_null
    assert f_ext.vertex_pdfs[3].is_null()


@pytest.mark.parametrize("vmap, slot", [([-1, None], -1), ([5, None], 5),
                                        ([None, 2], 2)])
def test_extend_labelling_refuses_a_slot_outside_the_fdg(vmap, slot):
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    f = ag_to_fdg(g)
    with pytest.raises(ValueError, match="slot %d outside prototype order 2"
                       % slot):
        extend_labelling(g, f, vmap)


def test_cluster_state_refuses_a_labelling_outside_the_other_ag():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    with pytest.raises(ValueError, match="vertex 0: slot 5 outside"):
        hierarchical_clustering(
            [g, g], 1.0, ag_distance=lambda a, b: (0.0, [5, None]))


def test_extend_then_synthesise_matches_update():
    g1 = AttributedGraph([attr(1), attr(2), attr(3)],
                         {(0, 1): attr(10), (1, 2): attr(11)})
    f = ag_to_fdg(g1)
    g2 = AttributedGraph([attr(1), attr(4)], {(0, 1): attr(12)})
    for vmap in ([0, 1], [0, None], [2, None], [None, None]):
        direct = update_fdg_with_ag(f, g2, vmap)
        g_ext, f_ext, lab = extend_labelling(g2, f, vmap)
        k = f_ext.order
        routed = synth_from_labelled_fdgs(
            [ag_to_fdg(g_ext), f_ext],
            CommonLabelling([list(lab.vertex_map), list(range(k))], k))
        _same_fdg(direct, routed)


def test_incremental_threshold_extremes():
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 50, 100)]
    assert len(incremental_clustering(ags, d_alpha=1e9)) == 1
    assert len(incremental_clustering(ags, d_alpha=-1.0)) == 3


def test_incremental_identical_ags_share_a_prototype():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    fdgs = incremental_clustering([g, g], d_alpha=0.0)
    assert len(fdgs) == 1
    assert fdgs[0].z == 2
    assert fdgs[0].vertex_pdfs[0].prob_attr(attr(1)) == 1.0


def test_incremental_joins_the_nearest_prototype():
    a = AttributedGraph([attr(0)], {})
    b = AttributedGraph([attr(100)], {})
    fdgs, members = incremental_clustering([a, b, a], d_alpha=0.5,
                                           return_assignments=True)
    assert len(fdgs) == 2
    assert members == [{0, 2}, {1}]
    assert fdgs[0].z == 2


def test_incremental_zeroes_second_order_weights():
    seen = []

    def spy(g, f, w):
        seen.append(w)
        return bnb_distance(g, f, w)

    ags = [AttributedGraph([attr(v)], {}) for v in (0, 1)]
    incremental_clustering(ags, d_alpha=1e9,
                           weights=CostWeights(K1=2.0, K3=7.0, K8=2.0),
                           matcher=spy)
    assert seen
    for w in seen:
        assert w.K1 == 2.0
        assert (w.K3, w.K4, w.K5, w.K6, w.K7, w.K8) == (0,) * 6


def test_hierarchical_identical_ags_single_linkage():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    fdgs = hierarchical_clustering([g, g, g], d_alpha=0.0, linkage="single")
    assert len(fdgs) == 1
    assert fdgs[0].z == 3
    assert fdgs[0].order == 2


def test_hierarchical_threshold_below_minimum():
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 50, 100)]
    fdgs = hierarchical_clustering(ags, d_alpha=0.5)
    assert len(fdgs) == 3
    assert all(f.z == 1 for f in fdgs)


def test_linkages_part_ways_on_a_chain():
    # pairwise edit distances 1 (a, b), 2 (b, c), 3 (a, c)
    a = AttributedGraph([attr(1)], {})
    b = AttributedGraph([attr(1), attr(2)], {})
    c = AttributedGraph([attr(1), attr(2), attr(3), attr(4)], {})
    single = hierarchical_clustering([a, b, c], d_alpha=2.0, linkage="single")
    complete = hierarchical_clustering([a, b, c], d_alpha=2.0,
                                       linkage="complete")
    assert len(single) == 1
    assert len(complete) == 2


def test_hierarchical_conserves_z():
    rng = np.random.default_rng(47)
    ags = []
    for _ in range(6):
        order = int(rng.integers(1, 4))
        vertices = [attr(int(rng.integers(0, 5))) for _ in range(order)]
        arcs = {}
        for i in range(order):
            for j in range(order):
                if i != j and rng.random() < 0.3:
                    arcs[(i, j)] = attr(int(rng.integers(0, 5)))
        ags.append(AttributedGraph(vertices, arcs))
    for d_alpha in (0.5, 1.5, 3.0, 100.0):
        fdgs, members = hierarchical_clustering(
            ags, d_alpha, return_assignments=True)
        assert sum(f.z for f in fdgs) == len(ags)
        assert sorted(i for m in members for i in m) == list(range(len(ags)))


def _graded_distance(g1, g2):
    scale = lambda a, b: abs(a.values[0] - b.values[0]) / 100.0
    return edit_distance(g1, g2,
                         EditCosts(vertex_sub=scale, arc_sub=scale))


def test_partition_ignores_input_order():
    values = [0, 1, 3, 7, 15, 31]
    ags = [AttributedGraph([attr(v)], {}) for v in values]
    rng = np.random.default_rng(53)
    for linkage in ("single", "complete"):
        _, members = hierarchical_clustering(
            ags, d_alpha=0.05, linkage=linkage,
            ag_distance=_graded_distance, return_assignments=True)
        want = set(frozenset(m) for m in members)
        for _ in range(4):
            perm = list(rng.permutation(len(ags)))
            _, got = hierarchical_clustering(
                [ags[p] for p in perm], d_alpha=0.05, linkage=linkage,
                ag_distance=_graded_distance, return_assignments=True)
            back = set(frozenset(perm[i] for i in m) for m in got)
            assert back == want


def test_cluster_state_sentinels():
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 1, 50)]
    state = ClusterState(ags)
    hit = state.closest_pair()
    assert hit == (0, 1, 1.0)
    state.merge(0, 1, "complete")
    assert not state.live[0]
    assert np.isinf(state.dist[0]).all() and np.isinf(state.dist[:, 0]).all()
    assert all(0 not in key for key in state.phi)
    assert state.members[1] == {0, 1}
    nxt = state.closest_pair()
    assert nxt[0] == 1 and nxt[1] == 2


def _far_apart(far):
    """Distance |a - b| between single-vertex AGs, (inf, None) for pairs of
    values in `far`."""
    def distance(g1, g2):
        a, b = g1.vertices[0].values[0], g2.vertices[0].values[0]
        if frozenset((a, b)) in far:
            return math.inf, None
        return float(abs(a - b)), Labelling([0])
    return distance


@pytest.mark.parametrize("linkage", ["single", "complete"])
def test_cluster_state_takes_pairs_at_infinity(linkage):
    # after 0 and 1 merge, 2 is at inf from 0 and 1 from 1 (complete keeps
    # inf, single 1); 10 is at inf from both (either keeps inf)
    far = {frozenset(p) for p in ((0, 2), (0, 10), (1, 10))}
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 1, 2, 10)]
    state = ClusterState(ags, _far_apart(far))
    merges = 0
    while True:
        hit = state.closest_pair()
        if hit is None or hit[2] > 1.0:
            break
        state.merge(hit[0], hit[1], linkage)
        merges += 1
        for i in range(len(ags)):
            for j in range(len(ags)):
                finite = state.dist[i, j] < math.inf
                assert ((i, j) in state.phi) == finite
                assert ((j, i) in state.phi) == finite
    want = [{0, 1, 2}, {3}] if linkage == "single" else [{0, 1}, {2}, {3}]
    assert [m for m, alive in zip(state.members, state.live) if alive] == want
    assert merges == 4 - len(want)
    _, members = hierarchical_clustering(
        ags, 1.0, linkage=linkage, ag_distance=_far_apart(far),
        return_assignments=True)
    assert members == want


@pytest.mark.parametrize("d_alpha", [-1.0, 0.0, 6.0, 7.0, 9.0, 10.0,
                                     math.inf])
def test_bounded_hierarchical_equals_full_search(d_alpha):
    # the default table searches each pair only below nextafter(d_alpha);
    # edit_distance passed in searches every pair in full
    for ags in _noisy_batches(4, seed=11):
        for linkage in ("single", "complete"):
            fdgs, members = hierarchical_clustering(
                ags, d_alpha, linkage=linkage, return_assignments=True)
            full, full_members = hierarchical_clustering(
                ags, d_alpha, linkage=linkage, ag_distance=edit_distance,
                return_assignments=True)
            assert members == full_members
            assert len(fdgs) == len(full)
            for f1, f2 in zip(fdgs, full):
                _same_fdg(f1, f2)


def test_validation():
    with pytest.raises(ValueError):
        incremental_clustering([], d_alpha=1.0)
    with pytest.raises(ValueError):
        hierarchical_clustering([], d_alpha=1.0)
    g = AttributedGraph([attr(1)], {})
    with pytest.raises(ValueError):
        hierarchical_clustering([g, g], d_alpha=1.0, linkage="average")


def _zeroed(weights=None):
    return (weights or CostWeights()).replace(K3=0.0, K4=0.0, K5=0.0,
                                              K6=0.0, K7=0.0, K8=0.0)


def _noisy_batches(count, seed):
    """Batches of six AGs, two noisy copies of each of three random models,
    in shuffled order."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(count):
        models = generate_models(GeneratorConfig(
            nFDG=3, nv=5, ne=9, seed=int(rng.integers(2 ** 31))))
        ags = [compact_ag(perturb(g, "delete_distort",
                                  int(rng.integers(2 ** 31)), nd=1, nl=1))
               for g in models for _ in range(2)]
        batches.append([ags[int(k)] for k in rng.permutation(len(ags))])
    return batches


@pytest.mark.parametrize("d_alpha", [-1.0, 0.0, 6.0, 7.0, 9.0, 10.0,
                                     math.inf])
def test_bounded_incremental_equals_full_search(d_alpha):
    # distances here are whole numbers, so the thresholds 6..10 meet many
    # distances of exactly d_alpha
    for ags in _noisy_batches(4, seed=11):
        fdgs, members = incremental_clustering(ags, d_alpha,
                                               return_assignments=True)
        full, full_members = incremental_clustering(
            ags, d_alpha, matcher=bnb_distance, return_assignments=True)
        assert members == full_members
        assert len(fdgs) == len(full)
        for f1, f2 in zip(fdgs, full):
            _same_fdg(f1, f2)


def test_incremental_joins_at_a_distance_of_exactly_d_alpha():
    for ags in _noisy_batches(3, seed=5):
        d = bnb_distance(ags[1], ag_to_fdg(ags[0]), _zeroed()).distance
        for matcher in (None, bnb_distance):
            _, members = incremental_clustering(
                ags[:2], d, matcher=matcher, return_assignments=True)
            assert members == [{0, 1}]
            _, members = incremental_clustering(
                ags[:2], math.nextafter(d, -math.inf), matcher=matcher,
                return_assignments=True)
            assert members == [{0}, {1}]


def test_incremental_tie_met_out_of_index_order(monkeypatch):
    # t lies at distance 2 = d_alpha from both prototypes, but only the
    # second one's root bound is below 2, so the second is searched
    # first; the tie must still go to the first.  b's root against the
    # first prototype is 3, so that pair is cut at its root
    a = AttributedGraph([attr(1), attr(1), attr(1)], {})
    b = AttributedGraph([attr(1), attr(2)], {(1, 0): attr(5)})
    t = AttributedGraph([attr(2), attr(1), attr(2)], {})
    w = _zeroed()
    p0, p1 = ag_to_fdg(a), ag_to_fdg(b)
    assert bnb_distance(b, p0, w).distance > 2.0
    assert bnb_distance(t, p0, w).distance == 2.0
    assert bnb_distance(t, p1, w).distance == 2.0
    roots = [_cheap_root(_binned(t, 1.0), p, w) for p in (p0, p1)]
    assert roots[1] < roots[0] == 2.0
    assert _cheap_root(_binned(b, 1.0), p0, w) > 2.0
    visits = []
    match = harness.match_by_method

    def recording(g, f, *args, **kwargs):
        visits.append(f.order)
        return match(g, f, *args, **kwargs)

    monkeypatch.setattr(harness, "match_by_method", recording)
    _, members = incremental_clustering([a, b, t], 2.0,
                                        return_assignments=True)
    assert members == [{0, 2}, {1}]
    assert visits == [3, 2, 3]
    monkeypatch.undo()
    _, members = incremental_clustering([a, b, t], 2.0, matcher=bnb_distance,
                                        return_assignments=True)
    assert members == [{0, 2}, {1}]


@pytest.mark.parametrize("learner", [incremental_clustering,
                                     hierarchical_clustering])
def test_nan_d_alpha_is_refused(learner):
    # three singletons: a NaN threshold used to merge them all in the
    # hierarchical learner and keep them apart in the incremental one
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 50, 100)]
    with pytest.raises(ValueError, match="NaN"):
        learner(ags, math.nan)


@pytest.mark.parametrize("learner", [incremental_clustering,
                                     hierarchical_clustering])
@pytest.mark.parametrize("width", [0, -1.0, math.nan, math.inf])
def test_bad_bin_width_is_refused_before_binning(learner, width,
                                                 monkeypatch):
    def never(self, width=1.0):
        raise AssertionError("binned with a bad width")

    monkeypatch.setattr(AttrTuple, "binned", never)
    ags = [AttributedGraph([attr(v)], {}) for v in (0, 1)]
    with pytest.raises(ValueError, match="bin width"):
        learner(ags, 1.0, bin_width=width)


@pytest.mark.parametrize("width", [0, -1.0, math.nan, math.inf])
def test_bad_bin_width_is_refused_before_any_distance(width):
    calls = []

    def counting(g1, g2):
        calls.append(1)
        return edit_distance(g1, g2)

    ags = [AttributedGraph([attr(v)], {}) for v in (0, 1)]
    with pytest.raises(ValueError, match="bin width"):
        hierarchical_clustering(ags, 1.0, bin_width=width,
                                ag_distance=counting)
    assert calls == []


def test_a_callback_without_a_map_is_refused():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    h = AttributedGraph([attr(1)], {})
    with pytest.raises(ValueError, match="labelling None is not a sequence"):
        hierarchical_clustering([g, h], 5.0,
                                ag_distance=lambda a, b: (1.0, None))
    with pytest.raises(ValueError, match="labelling None is not a sequence"):
        incremental_clustering(
            [g, g], 5.0,
            matcher=lambda g, f, w: MatchResult(0.0, None, 1, True))


def _same_stores(f1, f2):
    for a, b in ((f1.vbins, f2.vbins), (f1.abins, f2.abins)):
        assert a.keys == b.keys and a.width == b.width
        for name in ("slot", "bin", "count", "total"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert f1.bin_width == f2.bin_width


@pytest.mark.parametrize("linkage", ["single", "complete"])
@pytest.mark.parametrize("width", [1.0, 2.0])
def test_hierarchical_prototypes_equal_merge_by_merge_pooling(
        linkage, width, tmp_path):
    # the oracle grows a prototype per cluster as the merges happen: an
    # ag_to_fdg singleton per AG, and forg_synthesize under the stored
    # x->y labelling at every merge
    merged = 0
    for ags in _noisy_batches(4, seed=29):
        distance = functools.lru_cache(None)(edit_distance)
        for d_alpha in (6.0, 10.0, math.inf):
            state = ClusterState(ags, distance)
            pooled = [ag_to_fdg(g, width) for g in ags]
            while True:
                hit = state.closest_pair()
                if hit is None or hit[2] > d_alpha:
                    break
                x, y, _ = hit
                pooled[y] = forg_synthesize(pooled[x], pooled[y],
                                            state.phi[(x, y)])
                state.merge(x, y, linkage)
                merged += 1
            want = [f for f, alive in zip(pooled, state.live) if alive]
            got = hierarchical_clustering(ags, d_alpha, linkage=linkage,
                                          ag_distance=distance,
                                          bin_width=width)
            assert len(got) == len(want)
            for f1, f2 in zip(got, want):
                _same_fdg(f1, f2)
                _same_stores(f1, f2)
                write_fdg(f1, tmp_path / "got.fdg")
                write_fdg(f2, tmp_path / "want.fdg")
                assert ((tmp_path / "got.fdg").read_bytes()
                        == (tmp_path / "want.fdg").read_bytes())
    assert merged > 0


@pytest.mark.parametrize("linkage", ["single", "complete"])
def test_hierarchical_builds_one_fdg_per_cluster(linkage, fdg_builds):
    merged = 0
    for ags in _noisy_batches(4, seed=11):
        fdg_builds.clear()
        fdgs = hierarchical_clustering(ags, 10.0, linkage=linkage)
        assert len(fdg_builds) == len(fdgs)
        merged += len(ags) - len(fdgs)
    assert merged > 0
