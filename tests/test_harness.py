"""Synthetic pipeline checks.

- generator: shape, determinism, attribute range, config validation (a
  count that is no integer too; numpy integers are taken)
- perturb refuses a negative or non-integer nd, nl or structural
- delete_distort: no-op case, survivor counts, determinism
- gaussian: exact no-op at sigma 0, structural order drift bounds
- compact_ag drops nulls and renumbers arcs
- smoothing: exact counts, circular uniform fixed point, null share kept
- fdg_classify: own prototype wins, ties to the lowest index, rescaling
  of all K weights leaves predictions alone; for every method the bounded
  search equals the argmin of per-pair distances, duplicates and a tie met
  out of index order included, and builds at most one set of cost tables
  per prototype, none for one cut at its root; its per-prototype results
  are those of match_by_method on full tables under the same bounds; a
  custom matcher gets every prototype and its results are kept as
  returned; arguments are refused before any prototype is cut; the
  filtered search bins each attribute of the test AG once per prototype;
  under an upper bound that no prototype beats, the bounded search
  reports no winner and abandons every prototype
- run_experiment: a repetition count that is no integer >= 1 is refused;
  zero noise scores 1.0, confusion row sums, determinism,
  noniter at tau 1 matches optimal, csv rows line up with CSV_COLUMNS
- when no prototype admits a valid labelling, fdg_classify returns
  (None, inf) and run_experiment counts a miss in no confusion cell
"""

import math

import numpy as np
import pytest

from graphproto.core import (PHI, AttributedGraph, CostWeights, Pdf, attr,
                             extend_ag)
from graphproto.efficient import METHODS, match_by_method
from graphproto.harness import (CSV_COLUMNS, GeneratorConfig, _classify,
                                compact_ag, csv_row, fdg_classify,
                                generate_models, perturb, run_experiment,
                                smooth_pdf)
from graphproto.matching import _binned, _cheap_root
from graphproto.search import MatchResult
from graphproto.synthesis import (CommonLabelling, ag_to_fdg,
                                  synth_from_labelled_ags)
from graphproto import fileio, harness


def _same_ag(a, b):
    return (a.vertices == b.vertices and a.arcs == b.arcs
            and a.extended == b.extended)


def test_generate_models_shape_and_range():
    cfg = GeneratorConfig(nFDG=3, nv=6, ne=11, seed=5)
    models = generate_models(cfg)
    assert len(models) == 3
    for g in models:
        assert g.order == 6
        assert len(g.present_arcs()) == 11
        for v in g.vertices:
            assert 0 <= v.values[0] < 1000
        for (i, j), b in g.present_arcs():
            assert i != j
            assert 0 <= b.values[0] < 1000


def test_generate_models_deterministic():
    cfg = GeneratorConfig(nFDG=2, nv=5, ne=7, seed=42)
    a = generate_models(cfg)
    b = generate_models(cfg)
    assert all(_same_ag(x, y) for x, y in zip(a, b))
    c = generate_models(GeneratorConfig(nFDG=2, nv=5, ne=7, seed=43))
    assert not all(_same_ag(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("kw", [
    dict(nv=3, ne=7),
    dict(nv=4, nd=3, nl=2),
    dict(nFDG=0),
    dict(ne=-1),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        GeneratorConfig(**kw)


def test_delete_distort_noop():
    g = generate_models(GeneratorConfig(nv=5, ne=9, seed=1))[0]
    p = perturb(g, "delete_distort", seed=3, nd=0, nl=0)
    assert _same_ag(p, g)
    assert not p.extended


def test_delete_distort_survivor_counts():
    g = generate_models(GeneratorConfig(nv=27, ne=108, seed=7))[0]
    p = perturb(g, "delete_distort", seed=11, nd=21, nl=2)
    assert p.extended
    assert p.order == 27
    alive = [i for i, v in enumerate(p.vertices) if not v.is_null]
    assert len(alive) == 6
    untouched = [i for i in alive if p.vertices[i] == g.vertices[i]]
    assert len(untouched) == 4
    for (i, j), b in p.arcs.items():
        if p.vertices[i].is_null or p.vertices[j].is_null:
            assert b.is_null
        elif not b.is_null:
            assert b == g.arcs[(i, j)]


def test_delete_distort_deterministic():
    g = generate_models(GeneratorConfig(nv=8, ne=20, seed=2))[0]
    a = perturb(g, "delete_distort", seed=9, nd=3, nl=2)
    b = perturb(g, "delete_distort", seed=9, nd=3, nl=2)
    assert _same_ag(a, b)
    c = perturb(g, "delete_distort", seed=10, nd=3, nl=2)
    assert not _same_ag(a, c)


def test_delete_distort_rejects_overfull():
    g = generate_models(GeneratorConfig(nv=4, ne=6, seed=0))[0]
    with pytest.raises(ValueError):
        perturb(g, "delete_distort", seed=0, nd=3, nl=2)


def test_gaussian_noop():
    g = generate_models(GeneratorConfig(nv=5, ne=8, seed=3))[0]
    p = perturb(g, "gaussian", seed=4, sigma=0.0, structural=0)
    assert _same_ag(p, g)


def test_gaussian_noise_moves_attributes():
    g = generate_models(GeneratorConfig(nv=5, ne=8, seed=3))[0]
    p = perturb(g, "gaussian", seed=4, sigma=2.0, structural=0)
    assert p.order == g.order
    assert len(p.present_arcs()) == len(g.present_arcs())
    assert all(pv != gv for pv, gv in zip(p.vertices, g.vertices))
    q = perturb(g, "gaussian", seed=4, sigma=2.0, structural=0)
    assert _same_ag(p, q)


def test_gaussian_structural_bounds():
    g = generate_models(GeneratorConfig(nv=6, ne=10, seed=5))[0]
    for seed in range(10):
        p = perturb(g, "gaussian", seed=seed, sigma=1.0, structural=2)
        assert 4 <= p.order <= 8


def test_perturb_unknown_mode():
    g = generate_models(GeneratorConfig(nv=3, ne=2, seed=0))[0]
    with pytest.raises(ValueError):
        perturb(g, "salt_and_pepper", seed=0)


@pytest.mark.parametrize("mode, kw", [
    ("delete_distort", dict(nd=-1)),      # nulled 4 of 5 vertices
    ("delete_distort", dict(nl=-1)),      # redrew 4 of 5
    ("delete_distort", dict(nd=1.5)),     # TypeError from a slice
    ("delete_distort", dict(nl=1.5)),
    ("gaussian", dict(structural=-1)),    # was taken as 0
    ("gaussian", dict(structural=1.5)),
])
def test_perturb_refuses_a_count_that_is_no_count(mode, kw):
    g = generate_models(GeneratorConfig(nv=5, ne=8, seed=3))[0]
    (name, value), = kw.items()
    with pytest.raises(ValueError, match="^%s %r must be an integer >= 0$"
                       % (name, value)):
        perturb(g, mode, 1, **kw)


def test_perturb_takes_numpy_integer_counts():
    g = generate_models(GeneratorConfig(nv=5, ne=8, seed=3))[0]
    assert _same_ag(perturb(g, "delete_distort", 1, nd=np.int64(1),
                            nl=np.int32(2)),
                    perturb(g, "delete_distort", 1, nd=1, nl=2))
    assert _same_ag(perturb(g, "gaussian", 1, sigma=1.0,
                            structural=np.int64(2)),
                    perturb(g, "gaussian", 1, sigma=1.0, structural=2))


@pytest.mark.parametrize("kw", [dict(nv=2.5, ne=1), dict(nFDG=2.0),
                                dict(NT="1"), dict(NR=None), dict(ne=1.0),
                                dict(nd=0.5), dict(nl=1.5)])
def test_config_refuses_a_count_that_is_no_integer(kw):
    # nv=2.5 was accepted, and generate_models raised TypeError later
    with pytest.raises(ValueError, match="must be an integer"):
        GeneratorConfig(**kw)


def test_config_takes_numpy_integer_counts():
    cfg = GeneratorConfig(nFDG=np.int64(2), nv=np.int32(4), ne=np.int64(5),
                          nd=np.int64(1))
    assert len(generate_models(cfg)) == 2


def test_experiment_refuses_a_repetition_count_that_is_no_integer():
    cfg = GeneratorConfig(nv=3, ne=3)
    for reps in (1.5, 1.0, "1", 0):
        with pytest.raises(ValueError, match="^repetitions .* must be an "
                           "integer >= 1$"):
            run_experiment(cfg, repetitions=reps)
    assert run_experiment(cfg, repetitions=np.int64(1)).params[
        "repetitions"] == 1


def test_compact_ag():
    g = AttributedGraph(
        [attr(1), PHI, attr(3), attr(4)],
        {(0, 2): attr(9), (2, 3): attr(8), (0, 1): PHI, (1, 3): PHI,
         (3, 0): attr(7)},
        extended=True)
    c = compact_ag(g)
    assert not c.extended
    assert c.vertices == [attr(1), attr(3), attr(4)]
    assert c.arcs == {(0, 1): attr(9), (1, 2): attr(8), (2, 0): attr(7)}


def test_smooth_single_bin():
    p = smooth_pdf(Pdf({(5,): 4}, 4))
    assert p.counts == {(5,): 8, (4,): 4, (6,): 4}
    assert p.total == 16
    assert p.prob((5,)) == pytest.approx(0.5)


def test_smooth_circular_uniform_fixed_point():
    p = Pdf({(b,): 3 for b in range(6)}, 18)
    s = smooth_pdf(p, period=6)
    assert s.total == 72
    for b in range(6):
        assert s.prob((b,)) == pytest.approx(p.prob((b,)))


def test_smooth_wraps_across_zero():
    s = smooth_pdf(Pdf({(0,): 1}, 1), period=3)
    assert s.counts == {(0,): 2, (2,): 1, (1,): 1}


def test_smooth_keeps_null_share():
    p = Pdf({None: 2, (0,): 2}, 4)
    s = smooth_pdf(p)
    assert s.prob(None) == pytest.approx(0.5)
    assert s.total == 16
    assert sum(s.counts.values()) == 16


@pytest.mark.parametrize("counts,period", [
    ({(1, 2): 1}, None),
    ({("red",): 1}, None),
    ({(9,): 1}, 4),
])
def test_smooth_rejects_bad_bins(counts, period):
    with pytest.raises(ValueError):
        smooth_pdf(Pdf(counts, 1), period=period)


def _two_prototypes():
    cfg = GeneratorConfig(nFDG=2, nv=4, ne=6, seed=21)
    models = generate_models(cfg)
    return models, [ag_to_fdg(g) for g in models]


def test_classify_own_prototype():
    models, protos = _two_prototypes()
    for i, g in enumerate(models):
        cls, d = fdg_classify(g, protos)
        assert cls == i
        assert d == pytest.approx(0.0)


def test_classify_tie_takes_lowest_index():
    models, protos = _two_prototypes()
    cls, d = fdg_classify(models[1], [protos[1], protos[1]])
    assert cls == 0
    assert d == pytest.approx(0.0)


def test_classify_rescaling_invariant():
    models, protos = _two_prototypes()
    w1 = CostWeights(K1=1.0, K2=0.5, K3=2.0, K4=1.0)
    w7 = CostWeights(K1=7.0, K2=3.5, K3=14.0, K4=7.0)
    rng = np.random.default_rng(3)
    for seed in range(5):
        t = perturb(models[int(rng.integers(0, 2))], "gaussian",
                    seed=seed, sigma=30.0)
        c1, d1 = fdg_classify(t, protos, weights=w1)
        c7, d7 = fdg_classify(t, protos, weights=w7)
        assert c1 == c7
        assert d7 == pytest.approx(7.0 * d1)


def test_classify_validation():
    models, protos = _two_prototypes()
    with pytest.raises(ValueError):
        fdg_classify(models[0], [])
    with pytest.raises(ValueError):
        fdg_classify(models[0], protos, method="sideways")


def _argmin_over_pairs(test, models, method, **kw):
    """Nearest prototype by one full search per pair; ties go to the lowest
    index."""
    ds = []
    for f in models:
        res = match_by_method(test, f, CostWeights(), method, **kw)
        ds.append(res.distance if res.valid else math.inf)
    best = min(range(len(ds)), key=lambda i: (ds[i], i))
    return best, ds[best]


def _synthesised_prototypes(seed):
    cfg = GeneratorConfig(nFDG=3, nv=5, ne=9, seed=seed)
    models = generate_models(cfg)
    protos = []
    for k, g in enumerate(models):
        refs = [perturb(g, "delete_distort", 100 * seed + 10 * k + r,
                        nd=1, nl=1) for r in range(3)]
        protos.append(synth_from_labelled_ags(
            refs, CommonLabelling.identity([r.order for r in refs])))
    return models, protos


@pytest.mark.parametrize("method", METHODS)
def test_classify_equals_argmin_over_pairs(method):
    rng = np.random.default_rng(41)
    kw = dict(tau=0.5, t_p=0.05)
    for seed in range(3):
        models, protos = _synthesised_prototypes(seed)
        pool = protos + [protos[int(k)] for k in rng.integers(0, 3, 3)]
        pool = [pool[int(k)] for k in rng.permutation(len(pool))]
        for k, g in enumerate(models):
            test = compact_ag(perturb(g, "delete_distort", 7 * seed + k,
                                      nd=1, nl=1))
            assert (fdg_classify(test, pool, method=method, **kw)
                    == _argmin_over_pairs(test, pool, method, **kw))


@pytest.mark.parametrize("method", METHODS)
def test_classify_tie_met_out_of_index_order(method, monkeypatch):
    # both prototypes are at distance 1: the first lacks the AG's arc
    # label, which its root bound already charges, while the second holds
    # it on both of its arcs, so its root owes nothing, and it pays the
    # unit for the arc no AG arc lands on; the second is visited first and
    # the first must still win the tie
    g = AttributedGraph([attr(1), attr(1)], {(0, 1): attr(6)})
    lacking = ag_to_fdg(AttributedGraph([attr(1), attr(1)],
                                        {(1, 0): attr(5)}))
    both = ag_to_fdg(AttributedGraph([attr(1), attr(1)],
                                     {(0, 1): attr(6), (1, 0): attr(6)}))
    w = CostWeights()
    bins = _binned(g, 1.0)
    assert _cheap_root(bins, both, w) < _cheap_root(bins, lacking, w)
    visits = []

    def recording(test, f, *args, **kwargs):
        visits.append(f)
        return match_by_method(test, f, *args, **kwargs)

    monkeypatch.setattr(harness, "match_by_method", recording)
    assert fdg_classify(g, [lacking, both], method=method) == (0, 1.0)
    assert visits == [both, lacking]
    assert _argmin_over_pairs(g, [lacking, both], method) == (0, 1.0)


@pytest.mark.parametrize("method", METHODS)
def test_classify_builds_tables_once_per_prototype(method, table_builds):
    # tables are built at most once per prototype; a prototype with none
    # was cut at its root and comes back as bnb_distance's root cut
    models, protos = _synthesised_prototypes(5)
    cut = 0
    for k, g in enumerate(models):
        test = compact_ag(perturb(g, "delete_distort", k, nd=1, nl=1))
        del table_builds[:]
        _, _, results = _classify(test, protos, None, method, tau=0.5,
                                  t_p=0.05)
        assert len(set(map(id, table_builds))) == len(table_builds)
        for f, res in zip(protos, results):
            if all(f is not b for b in table_builds):
                assert (res.distance, res.labelling, res.explored_nodes,
                        res.valid, res.leaves) == (math.inf, None, 1, False, 0)
                cut += 1
    assert cut >= len(models)


def _outcome(res):
    return (res.distance, res.valid, res.labelling, res.explored_nodes,
            res.leaves)


@pytest.mark.parametrize("method", METHODS)
def test_classify_results_equal_searches_on_full_tables(method):
    # each prototype, in order of (root bound, index), searched by
    # match_by_method on its full tables below the same bounds the
    # classify loop uses: the same results, root cuts included
    kw = dict(tau=0.5, t_p=0.05)
    cut = 0
    for seed in range(4):
        models, protos = _synthesised_prototypes(seed)
        for k, g in enumerate(models):
            test = compact_ag(perturb(g, "delete_distort", 11 * seed + k,
                                      nd=1, nl=1))
            for w, upper in ((CostWeights(), math.inf),
                             (CostWeights(mode="restricted", planar=True),
                              6.0)):
                _, _, results = _classify(test, protos, w, method,
                                          upper_bound=upper, **kw)
                roots = [_cheap_root(_binned(test, f.bin_width), f, w)
                         for f in protos]
                best, best_d = -1, upper
                for i in sorted(range(3), key=lambda i: (roots[i], i)):
                    bound = best_d if i > best else \
                        math.nextafter(best_d, math.inf)
                    want = match_by_method(test, protos[i], w, method,
                                           upper_bound=bound, **kw)
                    assert _outcome(results[i]) == _outcome(want)
                    cut += _outcome(want) == (math.inf, False, None, 1, 0)
                    d = want.distance if want.valid else math.inf
                    if (d, i) < (best_d, best):
                        best, best_d = i, d
    assert cut >= 10


def test_classify_hands_every_prototype_to_a_custom_matcher(table_builds):
    # nothing is cut, even below a bound no prototype beats, and each
    # result is the matcher's own object
    _, protos = _synthesised_prototypes(3)
    far = AttributedGraph([attr(5000), attr(5001)], {(0, 1): attr(5002)})
    for upper, want in ((0.0, (0, 0.0)), (math.inf, (1, 1.0))):
        seen, given = [], []

        def matcher(test, f, w):
            seen.append(f)
            given.append(MatchResult((3.0, 1.0, 2.0)[len(given)], None, 7,
                                     True, 3))
            return given[-1]

        got, got_d, results = _classify(far, protos, None,
                                        upper_bound=upper, matcher=matcher)
        assert seen == protos
        assert all(r is g for r, g in zip(results, given))
        assert (got, got_d) == want
    assert table_builds == []


def test_classify_refuses_arguments_before_any_cut(table_builds,
                                                   relation_builds):
    # every prototype's root reaches 0, so all are cut before any table
    _, protos = _synthesised_prototypes(4)
    far = AttributedGraph([attr(5000), attr(5001)], {(0, 1): attr(5002)})
    _, _, results = _classify(far, protos, None, "noniter", tau=0.5,
                              upper_bound=0.0)
    assert [_outcome(r) for r in results] == \
        [(math.inf, False, None, 1, 0)] * 3
    assert table_builds == [] and relation_builds == []
    assert all(f._costs[2] is None for f in protos)
    for kw in ({"method": "bogus"}, {"method": "noniter", "tau": math.nan},
               {"method": "relax-v", "t_p": math.nan},
               {"method": "relax-ev", "t_p": math.nan}):
        with pytest.raises(ValueError):
            _classify(far, protos, None, upper_bound=0.0, **kw)
    with pytest.raises(ValueError, match="non-extended"):
        _classify(extend_ag(far, 3), protos, None, upper_bound=0.0)


def test_filtered_classify_bins_each_attribute_once_per_prototype(
        binned_calls):
    models, protos = _synthesised_prototypes(6)
    for k, g in enumerate(models):
        test = compact_ag(perturb(g, "delete_distort", k, nd=1, nl=1))
        before = len(binned_calls)
        fdg_classify(test, protos, method="noniter", tau=0.5)
        assert (len(binned_calls) - before
                <= len(protos) * (test.order + len(test.arcs)))


@pytest.mark.parametrize("method", METHODS)
def test_classify_bound_that_no_prototype_beats(method):
    kw = dict(tau=0.5, t_p=0.05)
    models, protos = _synthesised_prototypes(2)
    for k, g in enumerate(models):
        test = compact_ag(perturb(g, "delete_distort", 30 + k, nd=1, nl=1))
        best, d = fdg_classify(test, protos, method=method, **kw)
        for bound in (0.0, math.nextafter(d, -math.inf), d):
            got, got_d, results = _classify(test, protos, None, method,
                                            upper_bound=bound, **kw)
            assert (got, got_d) == (0, bound)
            assert not any(res.valid for res in results)
        got, got_d, _ = _classify(test, protos, None, method,
                                  upper_bound=math.nextafter(d, math.inf),
                                  **kw)
        assert (got, got_d) == (best, d)
    assert _classify(models[0], [], None, upper_bound=3.0) == (0, 3.0, [])
    with pytest.raises(ValueError):
        fdg_classify(models[0], [])


def test_experiment_zero_noise_is_perfect():
    cfg = GeneratorConfig(nFDG=3, NT=2, NR=2, nv=4, ne=6, nd=0, nl=0,
                          seed=17)
    rep = run_experiment(cfg)
    assert rep.correctness == 1.0
    assert np.array_equal(rep.confusion, 2 * np.eye(3, dtype=int))
    assert rep.mean_nodes > 0
    assert rep.mean_ms >= 0.0
    assert rep.params["method"] == "optimal"
    assert rep.params["NR"] == 2


def test_experiment_deterministic():
    cfg = GeneratorConfig(nFDG=2, NT=2, NR=3, nv=5, ne=8, nd=1, nl=1,
                          seed=23)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.correctness == b.correctness
    assert np.array_equal(a.confusion, b.confusion)
    assert a.mean_nodes == b.mean_nodes


def test_experiment_confusion_rows_sum_to_tests():
    cfg = GeneratorConfig(nFDG=2, NT=3, NR=2, nv=5, ne=8, nd=1, nl=1,
                          seed=29)
    rep = run_experiment(cfg, repetitions=2)
    assert rep.confusion.shape == (2, 2)
    assert list(rep.confusion.sum(axis=1)) == [6, 6]
    assert 0.0 <= rep.correctness <= 1.0


def test_experiment_noniter_tau_one_matches_optimal():
    cfg = GeneratorConfig(nFDG=2, NT=2, NR=2, nv=4, ne=7, nd=1, nl=1,
                          seed=31)
    a = run_experiment(cfg, method="optimal")
    b = run_experiment(cfg, method="noniter", tau=1.0)
    assert np.array_equal(a.confusion, b.confusion)
    assert a.correctness == b.correctness


def test_experiment_gaussian_mode():
    cfg = GeneratorConfig(nFDG=2, NT=2, NR=2, nv=4, ne=5, seed=37)
    rep = run_experiment(cfg, noise="gaussian", sigma=2.0, structural=1)
    assert 0.0 <= rep.correctness <= 1.0
    assert rep.params["sigma"] == 2.0
    assert rep.params["structural_noise"] == 1


def test_experiment_validation():
    cfg = GeneratorConfig(nv=3, ne=3)
    with pytest.raises(ValueError):
        run_experiment(cfg, repetitions=0)
    with pytest.raises(ValueError):
        run_experiment(cfg, noise="rain")


def test_csv_row_lines_up():
    cfg = GeneratorConfig(nFDG=2, NT=1, NR=2, nv=4, ne=5, seed=41)
    rep = run_experiment(cfg, method="noniter", tau=0.8)
    row = csv_row(rep)
    assert len(row) == len(CSV_COLUMNS)
    assert all(isinstance(x, str) for x in row)
    named = dict(zip(CSV_COLUMNS, row))
    assert named["method"] == "noniter"
    assert named["NR"] == "2"
    assert named["tau_or_tp"] == "0.8"
    assert float(named["correctness"]) == pytest.approx(rep.correctness)


def test_csv_row_carries_the_generator_parameters():
    cfg = GeneratorConfig(nFDG=2, NT=1, NR=2, nv=4, ne=5, nd=1, nl=2,
                          seed=43)
    rep = run_experiment(cfg, method="noniter", repetitions=2)
    named = dict(zip(CSV_COLUMNS, csv_row(rep)))
    for col in ("nv", "ne", "nd", "nl", "seed", "repetitions"):
        assert named[col] == str(rep.params[col])
    assert [named[col] for col in ("nv", "ne", "nd", "nl", "seed",
                                   "repetitions")] == \
        ["4", "5", "1", "2", "43", "2"]


def test_fileio_reexports():
    assert harness.read_ag is fileio.read_ag
    assert harness.write_fdg is fileio.write_fdg


def test_classify_reports_no_winner_when_no_prototype_admits_the_ag():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    empty = AttributedGraph([], {})
    w = CostWeights(mode="restricted")
    assert fdg_classify(empty, [ag_to_fdg(g)] * 2, w) == (None, math.inf)
    got, got_d, results = _classify(empty, [ag_to_fdg(g)] * 2, w)
    assert (got, got_d) == (0, math.inf)
    assert not any(res.valid for res in results)


def test_experiment_counts_an_unclassifiable_ag_as_a_miss():
    # under hard constraints no class-0 test AG has a valid labelling
    cfg = GeneratorConfig(nFDG=2, NT=2, NR=1, nv=4, ne=4, seed=0)
    rep = run_experiment(cfg, CostWeights(mode="restricted"),
                         noise="gaussian", structural=1)
    assert rep.correctness == 0.5
    assert rep.confusion.tolist() == [[0, 0], [0, 2]]
