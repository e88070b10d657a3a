"""Core type checks.

Covers:
  * arc slot numbering (worked values, bijection, round trip with slot_pairs)
  * attribute binning and pdf estimation, entropy against scipy, exact merges
  * non-finite attribute components are refused where the tuple is built
  * a non-positive or non-finite bin width is refused before any binning
  * AG validation (coherence, self loops, arc_order) and null-padding extension
  * FDG construction, unconditional arc probabilities, co-occurrence
  * FDG extension: kept bits, null/strict table rules, arc slot re-indexing
  * verify_identities on a hand-built sample, including single-bit damage
  * every public function that takes a labelling accepts a Labelling and a
    plain list alike and rejects a wrong arity
"""

import math

import numpy as np
import pytest
from scipy import stats

from graphproto.clustering import extend_labelling
from graphproto.core import (
    PHI,
    AttributedGraph,
    AttrTuple,
    CostWeights,
    Fdg,
    Labelling,
    Pdf,
    arc_index,
    arc_number,
    attr,
    co_occurrence,
    extend_ag,
    extend_fdg,
    induced_arc_map,
    null_pdf,
    slot_pairs,
    unconditional_arc_prob,
    verify_identities,
)
from graphproto.forg import forg_synthesize, outcome_probability
from graphproto.matching import (check_constraints, labelling_cost,
                                 second_order_cost)
from graphproto.synthesis import (CommonLabelling, ag_to_fdg,
                                  synth_from_labelled_ags, update_fdg_with_ag)


def _relations_from_presence(pres):
    """Universal-statement oracle over a presence matrix (rows = samples)."""
    cols = pres.shape[1]
    A = np.zeros((cols, cols), bool)
    O = np.zeros((cols, cols), bool)
    E = np.zeros((cols, cols), bool)
    for x in range(cols):
        for y in range(cols):
            A[x, y] = not (pres[:, x] & pres[:, y]).any()
            O[x, y] = not (pres[:, x] & ~pres[:, y]).any()
            E[x, y] = not (~pres[:, x] & ~pres[:, y]).any()
    return A, O, E


def _fixture():
    """Four small AGs over slots {0, 1, 2, 3} and the matching FDG.

    Slot 2 is never instantiated, slot 3 always.  Presence patterns:
      slot 0: g1, g2        slot 1: g1, g3        slot 3: all.
    Arcs: (0, 3) carries X in g1 and Y in g2; (1, 3) carries Z in g1 only.
    """
    a, b, c, d = attr(1), attr(2), attr(3), attr(4)
    X, Y, Z = attr(10), attr(11), attr(12)
    g1 = AttributedGraph([a, b, d], {(0, 2): X, (1, 2): Z})
    g2 = AttributedGraph([a, d], {(0, 1): Y})
    g3 = AttributedGraph([c, d], {})
    g4 = AttributedGraph([d], {})
    ags = [g1, g2, g3, g4]
    labellings = [[0, 1, 3], [0, 3], [1, 3], [3]]

    vp = np.array([[1, 1, 0, 1],
                   [1, 0, 0, 1],
                   [0, 1, 0, 1],
                   [0, 0, 0, 1]], bool)
    ap = np.zeros((4, 12), bool)
    ap[0, arc_index(0, 3, 4)] = True
    ap[1, arc_index(0, 3, 4)] = True
    ap[0, arc_index(1, 3, 4)] = True
    Aw, Ow, Ew = _relations_from_presence(vp)
    Ae, Oe, Ee = _relations_from_presence(ap)

    vertex_pdfs = [Pdf({(1,): 2, None: 2}, 4),
                   Pdf({(2,): 1, (3,): 1, None: 2}, 4),
                   Pdf({None: 4}, 4),
                   Pdf({(4,): 4}, 4)]
    arc_pdfs, u = {}, {}
    for (i, j) in slot_pairs(4):
        arc_pdfs[(i, j)], u[(i, j)] = Pdf({}, 0), 0
    arc_pdfs[(0, 3)], u[(0, 3)] = Pdf({(10,): 1, (11,): 1}, 2), 2
    arc_pdfs[(3, 0)], u[(3, 0)] = Pdf({None: 2}, 2), 2
    arc_pdfs[(1, 3)], u[(1, 3)] = Pdf({(12,): 1, None: 1}, 2), 2
    arc_pdfs[(3, 1)], u[(3, 1)] = Pdf({None: 2}, 2), 2
    arc_pdfs[(0, 1)], u[(0, 1)] = Pdf({None: 1}, 1), 1
    arc_pdfs[(1, 0)], u[(1, 0)] = Pdf({None: 1}, 1), 1

    f = Fdg(vertex_pdfs, arc_pdfs,
            {"Aw": Aw, "Ow": Ow, "Ew": Ew, "Ae": Ae, "Oe": Oe, "Ee": Ee},
            4, u)
    return ags, labellings, f


def test_arc_number_worked_values():
    assert arc_number(1, 2, 3) == 1
    assert arc_number(2, 1, 3) == 3
    with pytest.raises(ValueError):
        arc_number(2, 2, 3)
    with pytest.raises(ValueError):
        arc_number(0, 1, 3)
    with pytest.raises(ValueError):
        arc_number(1, 4, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_arc_number_bijection(n):
    labels = sorted(arc_number(k, l, n)
                    for k in range(1, n + 1) for l in range(1, n + 1) if k != l)
    assert labels == list(range(1, n * (n - 1) + 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_slot_pairs_roundtrip(n):
    pairs = slot_pairs(n)
    assert len(pairs) == n * (n - 1)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert pairs[arc_index(i, j, n)] == (i, j)


def test_attr_binning():
    assert attr(7.9).binned(2.0) == (3,)
    assert attr(-0.1).binned(1.0) == (-1,)
    assert attr(5, "red").binned(1.0) == (5, "red")
    assert PHI.binned(1.0) is None
    assert attr(3).binned(0.5) == (6,)


def test_attr_validation():
    with pytest.raises(ValueError):
        AttrTuple(())
    with pytest.raises(ValueError):
        AttrTuple((1,), is_null=True)
    assert attr(1) == attr(1.0)
    assert attr(1) != PHI


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   np.float64("nan"), np.float32("inf")])
def test_attr_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        attr(1, value)


def test_non_finite_vertex_fails_where_it_is_built():
    from graphproto.synthesis import ag_to_fdg
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            ag_to_fdg(AttributedGraph([attr(value)], {}))


@pytest.mark.parametrize("width", [0, 0.0, -1.0, math.nan, math.inf])
def test_bad_bin_width_is_refused_before_binning(width, monkeypatch):
    def never(self, width=1.0):
        raise AssertionError("binned with a bad width")

    monkeypatch.setattr(AttrTuple, "binned", never)
    g = AttributedGraph([attr(1)], {})
    calls = [lambda: Pdf({None: 1}, 1, width),
             lambda: Pdf.from_attrs([attr(1)], width),
             lambda: null_pdf(2, width)]
    calls += [lambda: ag_to_fdg(g, width),
              lambda: synth_from_labelled_ags(
                  [g], CommonLabelling.identity([1]), width)]
    for call in calls:
        with pytest.raises(ValueError, match="bin width"):
            call()


def test_pdf_from_attrs():
    p = Pdf.from_attrs([attr(1), attr(1), attr(2), PHI, None])
    assert p.total == 5
    assert p.counts == {(1,): 2, (2,): 1, None: 2}
    assert p.prob_attr(attr(1)) == pytest.approx(0.4)
    assert p.prob_null() == pytest.approx(0.4)
    assert p.prob_attr(attr(9)) == 0.0
    assert not p.is_null() and not p.is_strict()


def test_pdf_degenerate():
    q = Pdf({}, 0)
    assert q.prob_null() == 1.0
    assert q.prob_attr(attr(1)) == 0.0
    assert q.entropy() == 0.0
    assert q.is_null() and not q.is_strict()
    assert null_pdf(3).counts == {None: 3}
    assert null_pdf(0).total == 0


def test_pdf_entropy_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = rng.integers(0, 6, size=5)
        if counts.sum() == 0:
            continue
        p = Pdf({(k,): int(c) for k, c in enumerate(counts) if c},
                int(counts.sum()))
        expected = stats.entropy([c for c in counts if c], base=2)
        assert p.entropy() == pytest.approx(expected, abs=1e-12)


def test_pdf_merge_is_exact_pooling():
    rng = np.random.default_rng(11)
    for _ in range(25):
        xs = [attr(int(v)) if v >= 0 else PHI
              for v in rng.integers(-1, 4, size=rng.integers(1, 8))]
        ys = [attr(int(v)) if v >= 0 else PHI
              for v in rng.integers(-1, 4, size=rng.integers(1, 8))]
        merged = Pdf.from_attrs(xs).merge(Pdf.from_attrs(ys))
        assert merged == Pdf.from_attrs(xs + ys)


def test_pdf_validation():
    with pytest.raises(ValueError):
        Pdf({(1,): 2}, 3)
    with pytest.raises(ValueError):
        Pdf({(1,): -1}, -1)
    with pytest.raises(ValueError):
        Pdf({(1,): 1}, 1).merge(Pdf({(1,): 1}, 1, bin_width=2.0))


def test_ag_validation():
    with pytest.raises(ValueError):
        AttributedGraph([attr(1)], {(0, 0): attr(2)})
    with pytest.raises(ValueError):
        AttributedGraph([attr(1), PHI], {})
    with pytest.raises(ValueError):
        AttributedGraph([attr(1), PHI], {(0, 1): attr(2)}, extended=True)
    with pytest.raises(ValueError):
        AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)},
                        arc_order={0: [1, 1]})
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)},
                        arc_order={0: [1]})
    assert g.out_targets(0) == [1]
    assert g.out_targets(1) == []


def test_extend_ag():
    g = AttributedGraph([attr(1), attr(2)], {(1, 0): attr(5)})
    e = extend_ag(g, 4)
    assert e.order == 4 and e.extended
    assert e.vertices[2:] == [PHI, PHI]
    assert len(e.arcs) == 12
    assert e.arcs[(1, 0)] == attr(5)
    assert e.arcs[(0, 1)].is_null and e.arcs[(2, 3)].is_null
    again = extend_ag(e, 4)
    assert again.vertices == e.vertices and again.arcs == e.arcs
    with pytest.raises(ValueError):
        extend_ag(g, 1)


def test_labelling():
    lab = Labelling([2, None, 0])
    assert lab.target(0) == 2 and lab.target(1) is None
    assert lab.inverse(3) == [2, None, 0]
    assert lab.real_pairs() == [(0, 2), (2, 0)]
    with pytest.raises(ValueError):
        Labelling([1, 1])


def test_cost_weights():
    w = CostWeights()
    assert w.K1 == 1.0 and w.K3 == 1.0 and w.K4 == 0.0
    assert w.mode == "relaxed" and not w.planar
    w2 = w.replace(K3=0.0, planar=True)
    assert w2.K3 == 0.0 and w2.planar and w.K3 == 1.0
    with pytest.raises(ValueError):
        CostWeights(K_pr=1.5)
    with pytest.raises(ValueError):
        CostWeights(K1=-1)
    with pytest.raises(ValueError):
        CostWeights(mode="loose")


def test_fdg_validation():
    _, _, f = _fixture()
    bad_u = dict(f.u)
    bad_u[(0, 3)] = 1
    with pytest.raises(ValueError):
        Fdg(f.vertex_pdfs, f.arc_pdfs, f.relations(), f.z, bad_u)
    asym = f.Aw.copy()
    asym[0, 1] = ~asym[0, 1]
    rel = f.relations()
    rel["Aw"] = asym
    with pytest.raises(ValueError):
        Fdg(f.vertex_pdfs, f.arc_pdfs, rel, f.z, f.u)


def test_unconditional_arc_prob():
    _, _, f = _fixture()
    assert unconditional_arc_prob(f, (0, 3), attr(10)) == pytest.approx(0.25)
    assert unconditional_arc_prob(f, (0, 3), PHI) == pytest.approx(0.5)
    assert unconditional_arc_prob(f, (1, 3), None) == pytest.approx(0.75)
    assert unconditional_arc_prob(f, (1, 3), attr(12)) == pytest.approx(0.25)
    assert unconditional_arc_prob(f, (0, 2), PHI) == 1.0
    assert unconditional_arc_prob(f, (0, 2), attr(10)) == 0.0


def test_unconditional_sums_to_one():
    _, _, f = _fixture()
    for (i, j) in slot_pairs(4):
        support = [k for k in f.arc_pdfs[(i, j)].counts if k is not None]
        total = unconditional_arc_prob(f, (i, j), None)
        for k in support:
            total += f.arc_pdfs[(i, j)].prob(k) * (
                (1 - f.vertex_pdfs[i].prob_null())
                * (1 - f.vertex_pdfs[j].prob_null()))
        assert total == pytest.approx(1.0)


def test_fdg_null_strict_flags():
    _, _, f = _fixture()
    assert f.vertex_null(2) and not f.vertex_null(0)
    assert f.vertex_strict(3) and not f.vertex_strict(1)
    assert f.arc_null(0, 2) and f.arc_null(2, 3)
    assert not f.arc_null(0, 3)
    assert not f.arc_strict(0, 3)
    g = Fdg([Pdf({(1,): 2}, 2), Pdf({(2,): 2}, 2)],
            {(0, 1): Pdf({(9,): 2}, 2), (1, 0): Pdf({None: 2}, 2)},
            {"Aw": np.zeros((2, 2), bool), "Ow": np.ones((2, 2), bool),
             "Ew": np.ones((2, 2), bool), "Ae": np.zeros((2, 2), bool),
             "Oe": np.eye(2, dtype=bool), "Ee": np.eye(2, dtype=bool)},
            2, {(0, 1): 2, (1, 0): 2})
    assert g.arc_strict(0, 1) and not g.arc_strict(1, 0)


def test_co_occurrence():
    _, _, f = _fixture()
    cv, ce = co_occurrence(f)
    assert np.array_equal(cv, f.Ow & f.Ow.T)
    assert np.array_equal(ce, f.Oe & f.Oe.T)
    assert cv[3, 3] and cv[2, 0] == (f.Ow[2, 0] and f.Ow[0, 2])


def test_induced_arc_map():
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(4), (1, 2): attr(5)})
    amap = induced_arc_map([2, 0, None], g)
    assert amap[(0, 1)] == (2, 0)
    assert amap[(1, 2)] is None


def test_verify_identities_clean():
    ags, labellings, f = _fixture()
    assert verify_identities(f, ags, labellings) == []


def test_verify_identities_single_bit():
    ags, labellings, f = _fixture()
    # slots 0 and 1: A and E both fail on the sample, so the occurrence bit
    # feeds no identity check and the damage shows up exactly once
    assert not f.Aw[0, 1] and not f.Ew[0, 1] and not f.Ow[0, 1]
    f.Ow[0, 1] = True
    report = verify_identities(f, ags, labellings)
    assert len(report) == 1 and "Ow" in report[0]
    f.Ow[0, 1] = False
    assert verify_identities(f, ags, labellings) == []


def test_verify_identities_arc_bit():
    ags, labellings, f = _fixture()
    s = arc_index(0, 3, 4)
    t = arc_index(1, 3, 4)
    f.Ae[s, t] = f.Ae[t, s] = True
    report = verify_identities(f, ags, labellings)
    assert len(report) >= 2
    assert any("Ae" in line for line in report)


def test_verify_identities_rejects_bad_sample():
    ags, labellings, f = _fixture()
    with pytest.raises(ValueError):
        verify_identities(f, ags, labellings[:-1])
    with pytest.raises(ValueError):
        verify_identities(f, ags, [[0, 1, 3], [0, 3], [1, 3], [9]])
    with pytest.raises(ValueError):
        verify_identities(f, [], [])


def test_extend_fdg_pads():
    _, _, f = _fixture()
    e = extend_fdg(f, 6)
    assert e.order == 6 and e.z == 4
    for i in (4, 5):
        assert e.vertex_pdfs[i] == null_pdf(4)
    assert e.arc_pdfs[(4, 0)].total == 0 and e.u[(4, 0)] == 0
    assert e.arc_pdfs[(0, 3)] == f.arc_pdfs[(0, 3)]
    assert e.u[(0, 3)] == 2
    with pytest.raises(ValueError):
        extend_fdg(f, 3)


def test_extend_fdg_vertex_tables():
    _, _, f = _fixture()
    e = extend_fdg(f, 6)
    # old block survives
    assert np.array_equal(e.Aw[:4, :4], f.Aw)
    assert np.array_equal(e.Ow[:4, :4], f.Ow)
    assert np.array_equal(e.Ew[:4, :4], f.Ew)
    # every pair with a padded slot is antagonistic
    assert e.Aw[:, 4].all() and e.Aw[5, :].all()
    # a padded slot occurs in everything, nothing non-null occurs in it
    assert e.Ow[4, :].all()
    assert not e.Ow[0, 4] and not e.Ow[3, 5]
    assert e.Ow[2, 4]
    # existence against a padded slot needs a strict partner
    assert e.Ew[3, 4] and e.Ew[4, 3]
    assert not e.Ew[0, 4] and not e.Ew[1, 5] and not e.Ew[4, 5]
    assert not e.Ew[2, 4]


def test_extend_fdg_arc_tables():
    _, _, f = _fixture()
    e = extend_fdg(f, 6)
    remap = {old: arc_index(i, j, 6)
             for old, (i, j) in enumerate(slot_pairs(4))}
    for s_old, s_new in remap.items():
        si, sj = slot_pairs(4)[s_old]
        if f.arc_null(si, sj):
            continue
        for t_old, t_new in remap.items():
            ti, tj = slot_pairs(4)[t_old]
            if f.arc_null(ti, tj):
                continue
            assert e.Ae[s_new, t_new] == f.Ae[s_old, t_old]
            assert e.Oe[s_new, t_new] == f.Oe[s_old, t_old]
            assert e.Ee[s_new, t_new] == f.Ee[s_old, t_old]
    # arcs touching padded vertices are null slots: antagonistic with all,
    # occurring in all, existent with nothing (no arc slot is strict here)
    k = arc_index(4, 0, 6)
    assert e.Ae[k, :].all() and e.Oe[k, :].all() and not e.Ee[k, :].any()
    real = arc_index(0, 3, 6)
    assert not e.Oe[real, k]


def test_extend_fdg_idempotent():
    _, _, f = _fixture()
    e1 = extend_fdg(f, 6)
    e2 = extend_fdg(e1, 6)
    assert e2.vertex_pdfs == e1.vertex_pdfs
    assert e2.arc_pdfs == e1.arc_pdfs
    assert e2.u == e1.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert np.array_equal(getattr(e2, name), getattr(e1, name)), name


def test_extended_fdg_identities_still_hold():
    ags, labellings, f = _fixture()
    e = extend_fdg(f, 5)
    assert verify_identities(e, ags, labellings) == []


def _summary(x):
    """Comparable view of a result: FDGs and AGs by their contents."""
    if isinstance(x, tuple):
        return tuple(_summary(v) for v in x)
    if isinstance(x, Fdg):
        return (x.vertex_pdfs, sorted(x.arc_pdfs.items()), x.z,
                sorted(x.u.items()),
                [m.tolist() for m in x.relations().values()])
    if isinstance(x, AttributedGraph):
        return x.vertices, sorted(x.arcs.items())
    return x


def _labelling_takers():
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(10), (1, 2): attr(20)})
    f = ag_to_fdg(AttributedGraph([attr(3), attr(1), attr(2)],
                                  {(1, 2): attr(10), (2, 0): attr(20)}))
    h = ag_to_fdg(g)
    return {
        "labelling_cost": lambda lab: labelling_cost(g, f, lab),
        "second_order_cost": lambda lab: second_order_cost(g, f, lab),
        "check_constraints": lambda lab: check_constraints(g, f, lab),
        "update_fdg_with_ag": lambda lab: update_fdg_with_ag(f, g, lab),
        "forg_synthesize": lambda lab: forg_synthesize(h, f, lab),
        "outcome_probability": lambda lab: outcome_probability(f, g, lab),
        "extend_labelling": lambda lab: extend_labelling(g, f, lab),
    }


@pytest.mark.parametrize("name", sorted(_labelling_takers()))
def test_labelling_takers_accept_both_forms_and_check_arity(name):
    call = _labelling_takers()[name]
    vmap = [1, 2, 0]
    assert _summary(call(Labelling(vmap))) == _summary(call(list(vmap)))
    for short in ([1, 2], Labelling([1, 2])):
        with pytest.raises(ValueError):
            call(short)
