"""First-order prototype checks.

Covers:
  * entropy of the two-graph prototype (exactly 2 bits)
  * merged entropies and distances of three candidate prototypes against it,
    frozen to closed-form values, with the identity map optimal each time
  * the size of the labelling space for 3 slots into 5
  * outcome probabilities of the training graphs and impossible graphs
  * the exhaustive distance refuses combined orders above ten
"""

import math

import pytest

from graphproto.core import AttributedGraph, attr
from graphproto.forg import (
    _merged_entropy,
    _slot_maps,
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


def test_slot_map_count():
    assert len(_slot_maps(3, 5)) == 136
    assert len(_slot_maps(1, 1)) == 2
    assert len(_slot_maps(2, 2)) == 7
    maps = _slot_maps(2, 3)
    assert len(maps) == len(set(tuple(m) for m in maps))


def test_merged_entropy_shortcut_matches_synthesis_route():
    g, candidates, _ = _prototype_and_candidates()
    for cand in candidates + [g]:
        for vmap in _slot_maps(cand.order, g.order)[::7]:
            direct = _merged_entropy(cand, g, vmap)
            routed = forg_entropy(forg_synthesize(cand, g, vmap))
            assert direct == pytest.approx(routed, abs=1e-12)


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


def test_distance_refuses_orders_above_ten():
    g, _, _ = _prototype_and_candidates()
    six = ag_to_fdg(AttributedGraph([attr(v) for v in range(6)], {}))
    with pytest.raises(ValueError):
        forg_distance(six, g)
