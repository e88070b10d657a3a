"""FDG synthesis checks.

Covers:
  * the two-graph worked example: pdfs, denominators and relation bits by hand
  * consistency of synthesised FDGs with verify_identities (independent route)
  * single-graph synthesis (ag_to_fdg)
  * combining FDGs: grouping invariance and agreement with direct synthesis
  * one-at-a-time updates equal one-pass synthesis, exactly, field by field
  * input validation; a bad map among several names its graph, a map
    that is no sequence is a ValueError, and so is a frame order that is
    not an integer >= 0
"""

import numpy as np
import pytest

from graphproto.core import (
    PHI,
    AttributedGraph,
    Pdf,
    attr,
    null_pdf,
    verify_identities,
)
from graphproto.synthesis import (
    CommonLabelling,
    ag_to_fdg,
    synth_from_labelled_ags,
    synth_from_labelled_fdgs,
    update_fdg_with_ag,
)


def _worked_pair():
    """Two order-4 AGs sharing three vertices, one private vertex each."""
    b, a, c, d, e = attr(2), attr(1), attr(3), attr(4), attr(5)
    X, Y, Z, K, L = attr(10), attr(11), attr(12), attr(13), attr(14)
    g1 = AttributedGraph([b, a, c, d],
                         {(1, 0): X, (1, 2): Y, (0, 2): Z, (1, 3): K})
    g2 = AttributedGraph([b, a, c, e],
                         {(1, 0): X, (1, 2): Y, (0, 2): Z, (0, 3): L})
    lab = CommonLabelling([[0, 1, 2, 3], [0, 1, 2, 4]], 5)
    return [g1, g2], lab


def test_worked_pair_first_order():
    ags, lab = _worked_pair()
    f = synth_from_labelled_ags(ags, lab)
    assert f.z == 2 and f.order == 5
    assert f.vertex_pdfs[0] == Pdf({(2,): 2}, 2)
    assert f.vertex_pdfs[3] == Pdf({(4,): 1, None: 1}, 2)
    assert f.vertex_pdfs[4] == Pdf({(5,): 1, None: 1}, 2)
    assert f.u[(0, 1)] == 2 and f.u[(1, 3)] == 1 and f.u[(3, 4)] == 0
    assert f.arc_pdfs[(1, 0)] == Pdf({(10,): 2}, 2)
    assert f.arc_pdfs[(1, 3)] == Pdf({(13,): 1}, 1)
    assert f.arc_pdfs[(0, 4)] == Pdf({(14,): 1}, 1)
    assert f.arc_pdfs[(0, 1)] == Pdf({None: 2}, 2)
    assert f.arc_pdfs[(3, 4)] == Pdf({}, 0)


def test_worked_pair_relations():
    ags, lab = _worked_pair()
    f = synth_from_labelled_ags(ags, lab)
    # the private vertices never met
    assert f.Aw[3, 4] and f.Aw[4, 3]
    assert not f.Aw[0, 1] and not f.Aw[0, 3] and not f.Aw[3, 3]
    # each private vertex occurs in the shared trio but not vice versa
    assert f.Ow[3, 0] and f.Ow[3, 1] and f.Ow[3, 2]
    assert not f.Ow[3, 4] and not f.Ow[0, 3] and not f.Ow[4, 3]
    assert f.Ow[0, 1] and f.Ow[1, 0]
    # no two distinct slots were ever absent together
    assert (f.Ew | np.eye(5, dtype=bool)).all()
    assert not f.Aw.diagonal().any()
    assert np.array_equal(f.Ew.diagonal(),
                          np.array([1, 1, 1, 0, 0], dtype=bool))


def test_worked_pair_identities():
    ags, lab = _worked_pair()
    f = synth_from_labelled_ags(ags, lab)
    assert verify_identities(f, ags, lab.maps) == []


def test_ag_to_fdg():
    from graphproto.core import arc_index
    g = AttributedGraph([attr(1), attr(2), attr(3)],
                        {(0, 1): attr(7), (2, 0): attr(8)})
    f = ag_to_fdg(g)
    assert f.z == 1 and f.order == 3
    assert all(u == 1 for u in f.u.values())
    assert f.vertex_pdfs[1] == Pdf({(2,): 1}, 1)
    assert f.arc_pdfs[(0, 1)] == Pdf({(7,): 1}, 1)
    assert f.arc_pdfs[(1, 0)] == Pdf({None: 1}, 1)
    assert not f.Aw.any()
    assert f.Ow.all() and f.Ew.all()
    s01, s20 = arc_index(0, 1, 3), arc_index(2, 0, 3)
    s02, s10 = arc_index(0, 2, 3), arc_index(1, 0, 3)
    assert not f.Ae[s01, s20] and f.Ae[s02, s10] and f.Ae[s01, s02]
    assert f.Oe[s01, s20] and not f.Oe[s01, s02] and f.Oe[s02, s01]
    assert f.Ee[s01, s02] and not f.Ee[s02, s10]
    assert verify_identities(f, [g]) == []


def test_combine_matches_direct_synthesis():
    ags, lab = _worked_pair()
    f_direct = synth_from_labelled_ags(ags, lab)
    parts = [ag_to_fdg(g) for g in ags]
    f_comb = synth_from_labelled_fdgs(parts, lab)
    assert f_comb.z == f_direct.z
    assert f_comb.vertex_pdfs == f_direct.vertex_pdfs
    assert f_comb.arc_pdfs == f_direct.arc_pdfs
    assert f_comb.u == f_direct.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert np.array_equal(getattr(f_comb, name), getattr(f_direct, name))


def test_combine_grouping_invariance():
    rng = np.random.default_rng(3)
    ags = [_random_ag(rng, exact_order=3) for _ in range(3)]
    parts = [ag_to_fdg(g) for g in ags]
    ident = [[0, 1, 2]] * 3
    all_at_once = synth_from_labelled_fdgs(parts, CommonLabelling(ident, 3))
    two = synth_from_labelled_fdgs(parts[:2], CommonLabelling(ident[:2], 3))
    nested = synth_from_labelled_fdgs([two, parts[2]],
                                      CommonLabelling(ident[:2], 3))
    assert nested.vertex_pdfs == all_at_once.vertex_pdfs
    assert nested.arc_pdfs == all_at_once.arc_pdfs
    assert nested.u == all_at_once.u and nested.z == all_at_once.z
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert np.array_equal(getattr(nested, name), getattr(all_at_once, name))


def _random_ag(rng, exact_order=None, max_order=4):
    order = exact_order or int(rng.integers(1, max_order + 1))
    vertices = [attr(int(rng.integers(0, 5))) for _ in range(order)]
    arcs = {}
    for i in range(order):
        for j in range(order):
            if i != j and rng.random() < 0.4:
                arcs[(i, j)] = attr(int(rng.integers(0, 5)))
    return AttributedGraph(vertices, arcs)


def test_incremental_equals_batch():
    rng = np.random.default_rng(29)
    for _ in range(15):
        ags = [_random_ag(rng) for _ in range(int(rng.integers(2, 6)))]
        f = ag_to_fdg(ags[0])
        batch_maps = [list(range(ags[0].order))]
        for g in ags[1:]:
            free = list(range(f.order))
            rng.shuffle(free)
            vmap = []
            for _ in range(g.order):
                if free and rng.random() < 0.5:
                    vmap.append(free.pop())
                else:
                    vmap.append(None)
            placed = []
            nxt = f.order
            for t in vmap:
                if t is None:
                    placed.append(nxt)
                    nxt += 1
                else:
                    placed.append(t)
            batch_maps.append(placed)
            f = update_fdg_with_ag(f, g, vmap)
        batch = synth_from_labelled_ags(ags, CommonLabelling(batch_maps, f.order))
        assert batch.z == f.z
        assert batch.vertex_pdfs == f.vertex_pdfs
        assert batch.arc_pdfs == f.arc_pdfs
        assert batch.u == f.u
        for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
            assert np.array_equal(getattr(batch, name), getattr(f, name)), name
        assert verify_identities(batch, ags, batch_maps) == []


def test_vertex_pdf_totals_track_z():
    ags, lab = _worked_pair()
    f = synth_from_labelled_ags(ags, lab)
    assert all(p.total == f.z for p in f.vertex_pdfs)
    assert all(f.arc_pdfs[ij].total == f.u[ij] for ij in f.u)


def test_synthesis_validation():
    ags, lab = _worked_pair()
    with pytest.raises(ValueError):
        synth_from_labelled_ags([], CommonLabelling([], 0))
    with pytest.raises(ValueError):
        synth_from_labelled_ags(ags, CommonLabelling([[0, 1, 2, 3]], 5))
    with pytest.raises(ValueError):
        CommonLabelling([[0, 0, 1, 2]], 5)
    with pytest.raises(ValueError):
        CommonLabelling([[0, 1, 2, 9]], 5)
    with pytest.raises(ValueError):
        synth_from_labelled_ags(ags, CommonLabelling([[0, 1, 2], [0, 1, 2, 4]], 5))
    with pytest.raises(ValueError):
        synth_from_labelled_ags(
            ags, CommonLabelling([[0, 1, 2, None], [0, 1, 2, 4]], 5))
    f = ag_to_fdg(ags[0])
    with pytest.raises(ValueError):
        update_fdg_with_ag(f, ags[1], [0, 1])


def test_extended_inputs_are_equivalent():
    from graphproto.core import extend_ag
    ags, lab = _worked_pair()
    plain = synth_from_labelled_ags(ags, lab)
    padded = [extend_ag(g, 5) for g in ags]
    lab5 = CommonLabelling([[0, 1, 2, 3, 4], [0, 1, 2, 4, 3]], 5)
    f = synth_from_labelled_ags(padded, lab5)
    assert f.vertex_pdfs == plain.vertex_pdfs
    assert f.arc_pdfs == plain.arc_pdfs
    assert f.u == plain.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert np.array_equal(getattr(f, name), getattr(plain, name))


def test_null_slot_padding():
    g = AttributedGraph([attr(1)], {})
    f = synth_from_labelled_ags([g], CommonLabelling([[1]], 3))
    assert f.vertex_pdfs[0] == null_pdf(1)
    assert f.vertex_pdfs[1] == Pdf({(1,): 1}, 1)
    assert f.vertex_pdfs[2] == null_pdf(1)
    assert f.u[(0, 2)] == 0 and f.arc_pdfs[(0, 2)].is_null()


def _assert_same_fdg(got, want):
    assert got.z == want.z and got.bin_width == want.bin_width
    assert got.vertex_pdfs == want.vertex_pdfs
    assert got.arc_pdfs == want.arc_pdfs
    assert got.u == want.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _random_labelling(rng, ags, spare=2):
    """Random injective maps of the AGs into one frame that is often larger
    than any of them, so slots go private or stay unused."""
    n = int(rng.integers(max(g.order for g in ags),
                         sum(g.order for g in ags) + spare))
    return CommonLabelling(
        [rng.choice(n, size=g.order, replace=False).tolist() for g in ags], n)


def _random_partial_map(rng, g, m):
    free = list(range(m))
    rng.shuffle(free)
    return [free.pop() if free and rng.random() < 0.6 else None
            for _ in range(g.order)]


def test_pooling_with_fresh_slots_is_free_of_order_and_grouping():
    """Random maps with private and unused slots: pooling one FDG per AG, in
    any input order, or pooling groups synthesised over their own compact
    frames, equals direct synthesis over the common labelling."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        ags = [_random_ag(rng) for _ in range(int(rng.integers(2, 6)))]
        lab = _random_labelling(rng, ags)
        direct = synth_from_labelled_ags(ags, lab)
        perm = rng.permutation(len(ags)).tolist()
        _assert_same_fdg(synth_from_labelled_fdgs(
            [ag_to_fdg(ags[k]) for k in perm],
            CommonLabelling([lab.maps[k] for k in perm], lab.n)), direct)
        cuts = sorted(rng.choice(np.arange(1, len(ags)),
                                 size=int(rng.integers(1, len(ags))),
                                 replace=False).tolist())
        groups, outer = [], []
        for grp in np.split(np.array(perm), cuts):
            used = sorted(set(t for k in grp for t in lab.maps[k]))
            rng.shuffle(used)
            local = {t: s for s, t in enumerate(used)}
            groups.append(synth_from_labelled_fdgs(
                [ag_to_fdg(ags[k]) for k in grp],
                CommonLabelling([[local[t] for t in lab.maps[k]]
                                 for k in grp], len(used))))
            outer.append(used)
        _assert_same_fdg(synth_from_labelled_fdgs(
            groups, CommonLabelling(outer, lab.n)), direct)
        _assert_same_fdg(synth_from_labelled_fdgs(
            groups[::-1], CommonLabelling(outer[::-1], lab.n)), direct)


def test_update_is_the_merge_of_the_ags_fdg():
    from graphproto.forg import forg_synthesize
    rng = np.random.default_rng(17)
    for _ in range(300):
        ags = [_random_ag(rng) for _ in range(int(rng.integers(1, 4)))]
        width = float(rng.choice([1.0, 2.0]))
        f = synth_from_labelled_ags(ags, _random_labelling(rng, ags), width)
        g = _random_ag(rng)
        vmap = _random_partial_map(rng, g, f.order)
        _assert_same_fdg(update_fdg_with_ag(f, g, vmap),
                         forg_synthesize(ag_to_fdg(g, width), f, vmap))


def _assert_flags_are_the_pdfs(f):
    """vnull, vstrict, anull and astrict, and the methods that read them,
    equal the per-pdf definitions of Pr(PHI) = 1 and Pr(PHI) = 0."""
    from graphproto.core import slot_pairs
    pdfs = f.vertex_pdfs
    pairs = slot_pairs(f.order)
    want = {
        "vnull": [p.is_null() for p in pdfs],
        "vstrict": [p.is_strict() for p in pdfs],
        "anull": [f.arc_pdfs[(i, j)].is_null() or pdfs[i].is_null()
                  or pdfs[j].is_null() for (i, j) in pairs],
        "astrict": [f.arc_pdfs[(i, j)].is_strict() and pdfs[i].is_strict()
                    and pdfs[j].is_strict() for (i, j) in pairs],
    }
    for name, flags in want.items():
        got = getattr(f, name)
        assert got.dtype == bool and got.tolist() == flags, name
        assert not got.flags.writeable, name
    assert [f.vertex_null(i) for i in range(f.order)] == want["vnull"]
    assert [f.vertex_strict(i) for i in range(f.order)] == want["vstrict"]
    assert [f.arc_null(i, j) for (i, j) in pairs] == want["anull"]
    assert [f.arc_strict(i, j) for (i, j) in pairs] == want["astrict"]
    assert [f.existable(i, j) for (i, j) in pairs] == [
        not x for x in want["anull"]]


def _flag_cases(rng, path, tmp_path):
    """FDGs from one constructor path, order 0 among them."""
    from graphproto.core import extend_fdg, remap_fdg
    from graphproto.fileio import read_fdg, read_forg, write_fdg, write_forg
    from graphproto.forg import forg_synthesize
    ags = [_random_ag(rng) for _ in range(int(rng.integers(1, 5)))]
    lab = _random_labelling(rng, ags)
    f = synth_from_labelled_ags(ags, lab)
    empty = ag_to_fdg(AttributedGraph([], {}))
    if path == "synth_from_labelled_ags":
        return [f, empty]
    if path == "synth_from_labelled_fdgs":
        return [synth_from_labelled_fdgs([ag_to_fdg(g) for g in ags], lab),
                synth_from_labelled_fdgs([empty, empty],
                                         CommonLabelling([[], []], 0))]
    if path == "remap_fdg":
        k = f.order + int(rng.integers(0, 4))
        return [remap_fdg(f, rng.choice(k, size=f.order,
                                        replace=False).tolist(), k),
                remap_fdg(empty, [], 0), remap_fdg(empty, [], 2)]
    if path == "extend_fdg":
        return [extend_fdg(f, f.order + 2), extend_fdg(empty, 0),
                extend_fdg(empty, 3)]
    if path == "read_fdg":
        write_fdg(f, tmp_path / "f.fdg")
        write_forg(f, tmp_path / "f.forg")
        write_fdg(empty, tmp_path / "e.fdg")
        return [read_fdg(tmp_path / "f.fdg"), read_forg(tmp_path / "f.forg"),
                read_fdg(tmp_path / "e.fdg")]
    g = synth_from_labelled_ags(ags[:1], CommonLabelling(lab.maps[:1], lab.n))
    return [forg_synthesize(g, f, _random_partial_map(rng, g, f.order)),
            forg_synthesize(empty, empty, []), forg_synthesize(empty, f, []),
            forg_synthesize(f, empty, [None] * f.order)]


@pytest.mark.parametrize("path", [
    "synth_from_labelled_ags", "synth_from_labelled_fdgs", "remap_fdg",
    "extend_fdg", "read_fdg", "forg_synthesize"])
def test_flags_are_worked_out_from_the_pdfs(path, tmp_path):
    rng = np.random.default_rng(23)
    seen = {"order 0": 0, "null slot": 0, "total-0 arc pdf": 0}
    for _ in range(40):
        for f in _flag_cases(rng, path, tmp_path):
            _assert_flags_are_the_pdfs(f)
            seen["order 0"] += f.order == 0
            seen["null slot"] += bool(f.vnull.any())
            seen["total-0 arc pdf"] += any(
                q.total == 0 for q in f.arc_pdfs.values())
    assert all(seen.values()), seen


def test_seating_and_pooling_build_one_fdg(fdg_builds):
    from graphproto.core import remap_fdg
    rng = np.random.default_rng(5)
    parts = [ag_to_fdg(_random_ag(rng, exact_order=3)) for _ in range(3)]
    fdg_builds.clear()
    remap_fdg(parts[0], [4, 0, 2], 5)
    assert len(fdg_builds) == 1
    fdg_builds.clear()
    synth_from_labelled_fdgs(
        parts, CommonLabelling([[0, 1, 2], [2, 3, 4], [4, 1, 0]], 5))
    assert len(fdg_builds) == 1


def test_growing_lists_bins_in_one_pass_order():
    """A prototype grown one AG at a time keeps each pdf's bins in the order
    one-pass synthesis gives them, so even float sums over bins agree."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        ags = [_random_ag(rng) for _ in range(int(rng.integers(2, 6)))]
        f = ag_to_fdg(ags[0])
        maps = [list(range(ags[0].order))]
        for g in ags[1:]:
            vmap = _random_partial_map(rng, g, f.order)
            fresh = iter(range(f.order, f.order + g.order))
            maps.append([next(fresh) if t is None else t for t in vmap])
            f = update_fdg_with_ag(f, g, vmap)
        batch = synth_from_labelled_ags(ags, CommonLabelling(maps, f.order))
        assert [list(p.counts) for p in f.vertex_pdfs] == [
            list(p.counts) for p in batch.vertex_pdfs]
        assert {ij: list(q.counts) for ij, q in f.arc_pdfs.items()} == {
            ij: list(q.counts) for ij, q in batch.arc_pdfs.items()}


def test_a_bad_map_among_several_names_its_graph():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    f = ag_to_fdg(g)
    with pytest.raises(ValueError, match="^graph 1: labelling maps two "
                       "vertices to one target$"):
        CommonLabelling([[0, 1], [0, 0]], 2)
    with pytest.raises(ValueError, match="^graph 1: labelling arity 1 does "
                       "not match order 2$"):
        synth_from_labelled_ags([g, g], CommonLabelling([[0, 1], [0]], 2))
    with pytest.raises(ValueError, match="^graph 1: labelling arity 1 does "
                       "not match order 2$"):
        synth_from_labelled_fdgs([f, f], CommonLabelling([[0, 1], [0]], 2))
    with pytest.raises(ValueError, match="^graph 1: vertex 1: slot 2 "
                       "outside prototype order 2$"):
        verify_identities(f, [g, g], [[0, 1], [0, 2]])
    with pytest.raises(ValueError, match="^graph 0: labelling None is not "
                       "a sequence$"):
        verify_identities(f, [g], [None])


def test_common_labelling_refuses_a_map_that_is_no_sequence():
    with pytest.raises(ValueError, match="^graph 0: labelling None is not "
                       "a sequence$"):
        CommonLabelling([None], 2)
    with pytest.raises(ValueError, match="^graph 1: labelling 3 is not a "
                       "sequence$"):
        CommonLabelling([[0], 3], 2)


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), "2", None, -1],
                         ids=["2.5", "2.0", "float64", "str", "None", "-1"])
def test_common_labelling_refuses_a_frame_order_that_is_no_count(n):
    with pytest.raises(ValueError, match="^frame order .* must be an "
                       "integer >= 0$"):
        CommonLabelling([[0]], n)


def test_common_labelling_takes_integer_frame_orders():
    for n in (0, 3, np.int64(3)):
        lab = CommonLabelling([[]], n)
        assert lab.n == n and type(lab.n) is int
    assert CommonLabelling.identity([2, 3]).n == 3
