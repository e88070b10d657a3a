"""Synthetic pipeline checks.

- generator: shape, determinism, attribute range, config validation
- delete_distort: no-op case, survivor counts, determinism
- gaussian: exact no-op at sigma 0, structural order drift bounds
- compact_ag drops nulls and renumbers arcs
- smoothing: exact counts, circular uniform fixed point, null share kept
- fdg_classify: own prototype wins, ties to the lowest index, rescaling
  of all K weights leaves predictions alone; for every method the bounded
  search equals the argmin of per-pair distances, duplicates and a tie met
  out of index order included, and builds one set of cost tables per
  prototype; under an upper bound that no prototype beats, the bounded
  search reports no winner and abandons every prototype
- run_experiment: zero noise scores 1.0, confusion row sums, determinism,
  noniter at tau 1 matches optimal, csv rows line up with CSV_COLUMNS
- when no prototype admits a valid labelling, fdg_classify returns
  (None, inf) and run_experiment counts a miss in no confusion cell
"""

import math

import numpy as np
import pytest

from graphproto.core import PHI, AttributedGraph, CostWeights, Pdf, attr
from graphproto.efficient import METHODS, match_by_method
from graphproto.harness import (CSV_COLUMNS, GeneratorConfig, _classify,
                                compact_ag, csv_row, fdg_classify,
                                generate_models, perturb, run_experiment,
                                smooth_pdf)
from graphproto.matching import _CostTables, _greedy_cost
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
    # the same two-vertex graph with its arc reversed: both prototypes are
    # at distance 0, but only the second one's greedy labelling finds it,
    # so the second is visited first and the first must still win the tie
    g = AttributedGraph([attr(1), attr(1)], {(0, 1): attr(5)})
    reversed_ = ag_to_fdg(AttributedGraph([attr(1), attr(1)],
                                          {(1, 0): attr(5)}))
    same = ag_to_fdg(g)
    w = CostWeights()
    assert (_greedy_cost(g, same, _CostTables(g, same, w))
            < _greedy_cost(g, reversed_, _CostTables(g, reversed_, w)))
    visits = []

    def recording(test, f, *args, **kwargs):
        visits.append(f)
        return match_by_method(test, f, *args, **kwargs)

    monkeypatch.setattr(harness, "match_by_method", recording)
    assert fdg_classify(g, [reversed_, same], method=method) == (0, 0.0)
    assert visits == [same, reversed_]
    assert _argmin_over_pairs(g, [reversed_, same], method) == (0, 0.0)


@pytest.mark.parametrize("method", METHODS)
def test_classify_builds_tables_once_per_prototype(method, table_builds):
    models, protos = _synthesised_prototypes(5)
    for k, g in enumerate(models):
        test = compact_ag(perturb(g, "delete_distort", k, nd=1, nl=1))
        before = len(table_builds)
        fdg_classify(test, protos, method=method, tau=0.5, t_p=0.05)
        assert len(table_builds) - before == len(protos)


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
