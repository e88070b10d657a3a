"""First-order prototype checks.

Covers:
  * entropy of the two-graph prototype (exactly 2 bits), and on random
    prototypes the sum of the pdfs' entropies, bit for bit
  * merged entropies and distances of three candidate prototypes against it,
    frozen to closed-form values, with the identity map optimal each time
  * the distance against the minimum over every slot map of the synthesis
    route's entropy, on random prototype pairs, and its symmetry above that
    route's reach
  * outcome probabilities of the training graphs and impossible graphs
  * the distance refuses combined orders above twenty, and two prototypes
    with no samples
"""

import itertools
import math

import numpy as np
import pytest

from graphproto.core import AttributedGraph, attr
from graphproto.fileio import read_forg
from graphproto.forg import (
    forg_distance,
    forg_entropy,
    forg_synthesize,
    outcome_probability,
)
from graphproto.synthesis import CommonLabelling, ag_to_fdg, synth_from_labelled_ags


def _prototype_and_candidates():
    b, a, c, d, e = attr(2), attr(1), attr(3), attr(4), attr(5)
    X, Y, Z, K, L = attr(10), attr(11), attr(12), attr(13), attr(14)
    a1 = AttributedGraph([b, a, c, d],
                         {(1, 0): X, (1, 2): Y, (0, 2): Z, (1, 3): K})
    a2 = AttributedGraph([b, a, c, e],
                         {(1, 0): X, (1, 2): Y, (0, 2): Z, (0, 3): L})
    g = synth_from_labelled_ags(
        [a1, a2], CommonLabelling([[0, 1, 2, 3], [0, 1, 2, 4]], 5))
    shared = AttributedGraph([b, a, c], {(1, 0): X, (1, 2): Y, (0, 2): Z})
    union = AttributedGraph([b, a, c, d, e],
                            {(1, 0): X, (1, 2): Y, (0, 2): Z, (1, 3): K,
                             (0, 4): L})
    candidates = [ag_to_fdg(shared), ag_to_fdg(a1), ag_to_fdg(union)]
    return g, candidates, (a1, a2)


def test_prototype_entropy():
    g, candidates, _ = _prototype_and_candidates()
    assert forg_entropy(g) == 2.0
    for cand in candidates:
        assert forg_entropy(cand) == 0.0


def test_merged_entropy_frozen():
    g, candidates, _ = _prototype_and_candidates()
    expected = 2 * math.log2(3) - 4 / 3
    for cand in candidates:
        merged = forg_synthesize(cand, g, list(range(cand.order)))
        assert merged.z == 3
        assert forg_entropy(merged) == pytest.approx(expected, abs=1e-12)


def test_distance_frozen_and_identity_optimal():
    g, candidates, _ = _prototype_and_candidates()
    expected = 2 * math.log2(3) - 8 / 3
    for cand in candidates:
        d, vmap = forg_distance(cand, g)
        assert d == pytest.approx(expected, abs=1e-12)
        assert vmap == list(range(cand.order))


def _all_maps(n1, n2):
    """Every injective map of n1 slots into n2 slots or None."""
    return [list(m) for m in itertools.product(list(range(n2)) + [None],
                                               repeat=n1)
            if len(set(m) - {None}) == n1 - m.count(None)]


def _random_prototype(rng, n, z, width):
    """Synthesis of z random AGs, each on a random subset of n slots: a
    slot no AG fills is certainly null, and an arc slot whose endpoints
    never meet has a pdf of total 0."""
    ags, maps = [], []
    for _ in range(z):
        slots = [s for s in range(n) if rng.random() < 0.6]
        k = len(slots)
        arcs = {(i, j): attr(float(rng.uniform(0, 6))) for i in range(k)
                for j in range(k) if i != j and rng.random() < 0.4}
        ags.append(AttributedGraph(
            [attr(float(rng.uniform(0, 6))) for _ in slots], arcs))
        maps.append(slots)
    return synth_from_labelled_ags(ags, CommonLabelling(maps, n), width)


def test_distance_is_the_minimum_over_every_map():
    rng = np.random.default_rng(3)
    seen = set()
    for width in (0.5, 3.0):
        for _ in range(20):
            n1 = int(rng.integers(0, 5))
            n2 = int(rng.integers(0, 9 - n1))
            f1 = _random_prototype(rng, n1, int(rng.integers(1, 4)), width)
            f2 = _random_prototype(rng, n2, int(rng.integers(1, 4)), width)
            base = (f1.z * forg_entropy(f1) + f2.z * forg_entropy(f2)) \
                / (f1.z + f2.z)
            brute = min(forg_entropy(forg_synthesize(f1, f2, m)) - base
                        for m in _all_maps(n1, n2))
            d, vmap = forg_distance(f1, f2)
            assert d == pytest.approx(brute, abs=1e-12)
            reached = forg_entropy(forg_synthesize(f1, f2, vmap)) - base
            assert reached == pytest.approx(brute, abs=1e-12)
            pdfs = f1.vertex_pdfs + f2.vertex_pdfs
            arcs = list(f1.arc_pdfs.values()) + list(f2.arc_pdfs.values())
            seen.update(name for name, hit in (
                ("null slot", any(p.is_null() for p in pdfs)),
                ("empty arc pdf", any(q.total == 0 for q in arcs)),
                ("unequal z", f1.z != f2.z),
                ("order 0", 0 in (n1, n2))) if hit)
    assert len(seen) == 4


def test_distance_is_symmetric_above_the_brute_force():
    # pooling does not care which side a sample came from, so the search
    # must find the same optimum both ways; a bound that cut an optimal
    # branch on one side would show here
    rng = np.random.default_rng(4)
    for _ in range(4):
        f1 = _random_prototype(rng, 6, int(rng.integers(1, 4)), 1.0)
        f2 = _random_prototype(rng, 6, int(rng.integers(1, 4)), 1.0)
        assert forg_distance(f1, f2)[0] == \
            pytest.approx(forg_distance(f2, f1)[0], abs=1e-12)


def test_distance_to_self_is_zero():
    g, candidates, _ = _prototype_and_candidates()
    d, vmap = forg_distance(g, g)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert vmap == list(range(5))


def test_outcome_probability_training_graphs():
    g, _, (a1, a2) = _prototype_and_candidates()
    assert outcome_probability(g, a1, [0, 1, 2, 3]) == pytest.approx(0.25)
    assert outcome_probability(g, a2, [0, 1, 2, 4]) == pytest.approx(0.25)
    # swapping the private vertices kills the vertex factor
    assert outcome_probability(g, a1, [0, 1, 2, 4]) == 0.0
    # a never-seen arc value kills the arc factor
    odd = AttributedGraph([attr(2), attr(1), attr(3), attr(4)],
                          {(1, 0): attr(99), (1, 2): attr(11),
                           (0, 2): attr(12), (1, 3): attr(13)})
    assert outcome_probability(g, odd, [0, 1, 2, 3]) == 0.0
    # dropping a certain arc also kills it: (1, 0) carries X with q = 1
    bare = AttributedGraph([attr(2), attr(1), attr(3)],
                           {(1, 2): attr(11), (0, 2): attr(12)})
    assert outcome_probability(g, bare, [0, 1, 2]) == 0.0


def test_outcome_probability_validation():
    g, _, (a1, _) = _prototype_and_candidates()
    with pytest.raises(ValueError):
        outcome_probability(g, a1, [0, 1, 2])
    with pytest.raises(ValueError):
        outcome_probability(g, a1, [0, 1, 2, None])
    with pytest.raises(ValueError):
        outcome_probability(g, a1, [0, 1, 2, 9])


def test_synthesize_fresh_slots():
    g, candidates, _ = _prototype_and_candidates()
    cand = candidates[0]
    merged = forg_synthesize(cand, g, [0, None, 2])
    assert merged.order == 6
    # the unmapped slot lands after g's frame and holds one sample
    assert merged.vertex_pdfs[5].counts == {(1,): 1, None: 2}


def test_distance_refuses_orders_above_twenty():
    ten = ag_to_fdg(AttributedGraph([attr(v) for v in range(10)], {}))
    eleven = ag_to_fdg(AttributedGraph([attr(v) for v in range(11)], {}))
    assert forg_distance(ten, ten)[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        forg_distance(eleven, ten)


def test_distance_refuses_two_prototypes_without_samples(tmp_path):
    path = tmp_path / "empty.forg"
    path.write_text("forg\norder 0\nz 0\nbin_width 1.0\n")
    empty = read_forg(path)
    assert empty.z == 0
    with pytest.raises(ValueError, match="z = 0"):
        forg_distance(empty, empty)
    one = ag_to_fdg(AttributedGraph([attr(1)], {}))
    assert forg_distance(empty, one)[0] == pytest.approx(0.0, abs=1e-12)


def test_entropy_is_the_sum_over_the_pdf_views_bit_for_bit():
    """The row reduction of the count stores adds each pdf's terms in its
    bin order and the pdfs in slot order, as summing Pdf.entropy does."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        n, width = int(rng.integers(0, 6)), (0.5, 1.0, 3.0)[_ % 3]
        f = _random_prototype(rng, n, int(rng.integers(1, 5)), width)
        if rng.random() < 0.5:
            g = _random_prototype(rng, n, int(rng.integers(1, 4)), width)
            f = forg_synthesize(g, f, [None] * n)
        want = sum(p.entropy() for p in f.vertex_pdfs)
        want += sum(q.entropy() for q in f.arc_pdfs.values())
        assert forg_entropy(f) == want
