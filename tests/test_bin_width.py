"""An FDG's bin width is a field of the FDG, kept at order 0 too.

- an FDG built from pdfs takes their width, 1.0 without any, and refuses
  pdfs of mixed widths or of a width other than its own
- incremental and hierarchical clustering, forg_distance, forg_synthesize,
  update_fdg_with_ag and extend_fdg keep the width of an order-0 prototype
- synth_from_labelled_fdgs refuses inputs of different widths, at order 0
  as well
- an order-0 FDG and FORG written and read back keep their width
- `graphproto cluster --bin-width 5` with an empty AG file bins at width 5
"""

import math

import pytest

from graphproto.cli import main
from graphproto.clustering import (hierarchical_clustering,
                                   incremental_clustering)
from graphproto.core import AttributedGraph, Fdg, Pdf, attr, extend_fdg
from graphproto.fileio import (read_fdg, read_forg, write_ag, write_fdg,
                               write_forg)
from graphproto.forg import forg_distance, forg_synthesize
from graphproto.synthesis import (CommonLabelling, ag_to_fdg,
                                  synth_from_labelled_fdgs,
                                  update_fdg_with_ag)


def _empty():
    return AttributedGraph([], {})


def _seven():
    return AttributedGraph([attr(7)], {})


def _all_widths(f):
    return {p.bin_width for p in f.vertex_pdfs + list(f.arc_pdfs.values())}


def test_fdg_width_comes_from_its_pdfs_or_defaults_to_one():
    a = ag_to_fdg(_seven(), 5.0)
    assert a.bin_width == 5.0
    assert Fdg(a.vertex_pdfs, a.arc_pdfs, a.relations(), a.z,
               a.u).bin_width == 5.0
    e = ag_to_fdg(_empty(), 5.0)
    assert e.bin_width == 5.0
    assert Fdg([], {}, e.relations(), e.z, {}).bin_width == 1.0
    with pytest.raises(ValueError):
        ag_to_fdg(_empty(), 0.0)


def test_fdg_refuses_pdfs_of_another_width():
    a = ag_to_fdg(_seven(), 5.0)
    with pytest.raises(ValueError, match="bin width"):
        Fdg(a.vertex_pdfs, a.arc_pdfs, a.relations(), a.z, a.u, 1.0)
    f = ag_to_fdg(AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)}))
    mixed = [f.vertex_pdfs[0], Pdf({(0,): 1}, 1, 2.0)]
    with pytest.raises(ValueError, match="bin width"):
        Fdg(mixed, f.arc_pdfs, f.relations(), f.z, f.u)
    arcs = dict(f.arc_pdfs)
    arcs[(0, 1)] = Pdf({(1,): 1}, 1, 2.0)
    with pytest.raises(ValueError, match="bin width"):
        Fdg(f.vertex_pdfs, arcs, f.relations(), f.z, f.u)


def test_incremental_clustering_keeps_an_empty_prototypes_width():
    fdgs = incremental_clustering([_empty(), _seven()], 1e9, bin_width=5.0)
    assert len(fdgs) == 1
    assert fdgs[0].bin_width == 5.0
    assert fdgs[0].vertex_pdfs[0].counts == {None: 1, (1,): 1}
    assert _all_widths(fdgs[0]) == {5.0}


def test_hierarchical_clustering_merges_an_empty_prototype():
    fdgs = hierarchical_clustering([_empty(), _seven()], 1e9,
                                   bin_width=5.0)
    assert len(fdgs) == 1
    assert fdgs[0].bin_width == 5.0
    assert fdgs[0].vertex_pdfs[0].counts == {None: 1, (1,): 1}


def test_forg_routines_accept_an_empty_prototype():
    e, a = ag_to_fdg(_empty(), 5.0), ag_to_fdg(_seven(), 5.0)
    d, vmap = forg_distance(e, a)
    assert math.isfinite(d) and vmap == []
    merged = forg_synthesize(e, a, [])
    assert merged.bin_width == 5.0
    assert merged.vertex_pdfs[0].counts == {None: 1, (1,): 1}
    d, vmap = forg_distance(a, e)
    assert math.isfinite(d) and vmap == [None]


def test_update_and_extend_keep_an_empty_prototypes_width():
    e = ag_to_fdg(_empty(), 5.0)
    grown = update_fdg_with_ag(e, _seven(), [None])
    assert grown.bin_width == 5.0
    assert grown.vertex_pdfs[0].counts == {None: 1, (1,): 1}
    wide = extend_fdg(e, 2)
    assert wide.bin_width == 5.0
    assert _all_widths(wide) == {5.0}


def test_synth_from_fdgs_refuses_different_widths():
    with pytest.raises(ValueError, match="bin widths"):
        synth_from_labelled_fdgs(
            [ag_to_fdg(_empty(), 1.0), ag_to_fdg(_empty(), 5.0)],
            CommonLabelling([[], []], 0))
    with pytest.raises(ValueError, match="bin widths"):
        synth_from_labelled_fdgs(
            [ag_to_fdg(_seven(), 1.0), ag_to_fdg(_seven(), 5.0)],
            CommonLabelling([[0], [0]], 1))
    both = synth_from_labelled_fdgs(
        [ag_to_fdg(_empty(), 5.0), ag_to_fdg(_empty(), 5.0)],
        CommonLabelling([[], []], 0))
    assert both.bin_width == 5.0 and both.z == 2


@pytest.mark.parametrize("write, read, header", [
    (write_fdg, read_fdg, "fdg"), (write_forg, read_forg, "forg")])
def test_order_zero_file_keeps_its_width(tmp_path, write, read, header):
    path = tmp_path / ("empty." + header)
    write(ag_to_fdg(_empty(), 5.0), path)
    assert "\nbin_width 5.0\n" in path.read_text()
    back = read(path)
    assert back.order == 0 and back.bin_width == 5.0


@pytest.mark.parametrize("method", ["incremental", "complete"])
def test_cli_cluster_bins_at_the_flag_width(tmp_path, capsys, method):
    write_ag(_empty(), tmp_path / "e.ag")
    write_ag(_seven(), tmp_path / "a.ag")
    out = tmp_path / "out"
    assert main(["cluster", "--ag", str(tmp_path / "e.ag"),
                 "--ag", str(tmp_path / "a.ag"), "--method", method,
                 "--dalpha", "1e9", "--bin-width", "5",
                 "--out", str(out)]) == 0
    f = read_fdg(out / "cluster_1.fdg")
    assert f.bin_width == 5.0
    assert f.vertex_pdfs[0].counts == {None: 1, (1,): 1}
