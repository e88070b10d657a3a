"""File format checks.

* AG round-trips preserve vertices, arcs and the extended flag; files use
  `#` for null elements and the diagonal
* FDG round-trips preserve pdfs (counts recovered from probabilities and
  totals), z, u and all six relation matrices; FORG files drop relations and
  reading one yields the neutral matrices
* labelling and distance-record round-trips
* malformed input raises ParseError with the offending location, and a
  truncated file never yields a partial value; a non-finite attribute is
  reported by the parser, with its line, before the tuple is built
* a non-positive or non-finite bin_width line is a ParseError at that line,
  in FDG and FORG files alike
* a malformed `i->l` token in a distance record is a ParseError at its line
* a distance record places each slot at its pair's vertex index, and a
  duplicate, missing or out-of-range vertex is a ParseError at its line
"""

import math
from pathlib import Path

import numpy as np
import pytest

from graphproto import (
    AttributedGraph,
    CommonLabelling,
    Labelling,
    ag_to_fdg,
    attr,
    bnb_distance,
    extend_ag,
    extend_fdg,
    synth_from_labelled_ags,
)
from graphproto.fileio import (
    ParseError,
    format_dist_record,
    parse_dist_record,
    read_ag,
    read_fdg,
    read_forg,
    read_labelling,
    write_ag,
    write_fdg,
    write_forg,
    write_labelling,
)


def _sample_ag():
    return AttributedGraph(
        [attr(1, 2.5), attr("red", 3), attr(7)],
        {(0, 1): attr(10), (2, 0): attr("x", 1.5)})


def _sample_fdg():
    g1 = AttributedGraph([attr(1), attr(2), attr(3)],
                         {(0, 1): attr(10), (1, 2): attr(11)})
    g2 = AttributedGraph([attr(1), attr(4)], {(0, 1): attr(12)})
    return synth_from_labelled_ags([g1, g2],
                                   CommonLabelling([[0, 1, 2], [0, 1]], 3))


def _same_fdg(f1, f2):
    assert f1.order == f2.order
    assert f1.z == f2.z
    assert f1.vertex_pdfs == f2.vertex_pdfs
    assert f1.arc_pdfs == f2.arc_pdfs
    assert f1.u == f2.u
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        assert (getattr(f1, name) == getattr(f2, name)).all(), name


def test_ag_round_trip(tmp_path):
    g = _sample_ag()
    p = str(tmp_path / "g.ag")
    write_ag(g, p)
    back = read_ag(p)
    assert back.order == g.order
    assert back.vertices == g.vertices
    assert back.arcs == g.arcs
    assert not back.extended


def test_extended_ag_round_trip(tmp_path):
    g = extend_ag(_sample_ag(), 5)
    p = str(tmp_path / "g.ag")
    write_ag(g, p)
    back = read_ag(p)
    assert back.extended
    assert back.vertices == g.vertices
    assert back.arcs == g.arcs


def test_ag_file_shape(tmp_path):
    p = str(tmp_path / "g.ag")
    write_ag(_sample_ag(), p)
    lines = Path(p).read_text().splitlines()
    assert lines[0] == "3"
    assert len(lines) == 5
    for i, row in enumerate(lines[2:]):
        assert row.split()[i] == "#"


def test_ag_hand_written(tmp_path):
    p = tmp_path / "g.ag"
    p.write_text("2\n1,2.5,abc 4\n# 9\n# #\n")
    g = read_ag(str(p))
    assert g.vertices[0].values == (1, 2.5, "abc")
    assert g.vertices[1].values == (4,)
    assert g.arcs == {(0, 1): attr(9)}


@pytest.mark.parametrize("text", [
    "2\n1\n# 9\n# #\n",            # vertex count off
    "2\n1 4\n5 9\n# #\n",          # non-# diagonal
    "2\n1 4\n# 9\n",               # truncated arc rows
    "x\n",                         # bad order
    "1\n1\n#\nleftover\n",         # trailing content
    "2\n# 4\n# 9\n# #\n",          # arc out of a null vertex
])
def test_ag_parse_errors(tmp_path, text):
    p = tmp_path / "bad.ag"
    p.write_text(text)
    with pytest.raises(ParseError):
        read_ag(str(p))


def test_fdg_round_trip(tmp_path):
    f = _sample_fdg()
    p = str(tmp_path / "f.fdg")
    write_fdg(f, p)
    _same_fdg(read_fdg(p), f)


def test_extended_fdg_round_trip(tmp_path):
    f = extend_fdg(_sample_fdg(), 5)
    p = str(tmp_path / "f.fdg")
    write_fdg(f, p)
    _same_fdg(read_fdg(p), f)


def test_string_bins_round_trip(tmp_path):
    g = AttributedGraph([attr("red", 1), attr("blue", 2)],
                        {(0, 1): attr("fat")})
    f = ag_to_fdg(g)
    p = str(tmp_path / "f.fdg")
    write_fdg(f, p)
    _same_fdg(read_fdg(p), f)


def test_forg_round_trip(tmp_path):
    f = _sample_fdg()
    p = str(tmp_path / "f.forg")
    write_forg(f, p)
    back = read_forg(p)
    assert back.vertex_pdfs == f.vertex_pdfs
    assert back.arc_pdfs == f.arc_pdfs
    assert back.z == f.z and back.u == f.u
    assert not back.Aw.any() and not back.Ew.any()
    assert (back.Ow == np.eye(f.order, dtype=bool)).all()
    assert "relations" not in Path(p).read_text()


def test_fdg_header_checked(tmp_path):
    f = _sample_fdg()
    p = str(tmp_path / "f.fdg")
    write_fdg(f, p)
    with pytest.raises(ParseError):
        read_forg(p)


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("fdg", "graph", 1),
    lambda t: t.replace("vertex 2", "vertex 1", 1),
    lambda t: t[:t.index("relations")],
    lambda t: t.replace("01", "0x", 1),
    lambda t: t.replace("z 2", "z x", 1),
])
def test_fdg_parse_errors(tmp_path, mangle):
    f = _sample_fdg()
    p = tmp_path / "f.fdg"
    write_fdg(f, str(p))
    p.write_text(mangle(p.read_text()))
    with pytest.raises(ParseError):
        read_fdg(str(p))


def test_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.ag"
    p.write_text("2\n1 4\n5 9\n# #\n")
    with pytest.raises(ParseError) as err:
        read_ag(str(p))
    assert str(p) in str(err.value)
    assert err.value.lineno == 3


@pytest.mark.parametrize("token", ["inf", "nan", "1,-inf"])
def test_non_finite_attribute_fails_in_the_parser(tmp_path, token):
    p = tmp_path / "bad.ag"
    p.write_text("2\n1 2\n# %s\n# #\n" % token)
    with pytest.raises(ParseError) as err:
        read_ag(str(p))
    assert str(p) in str(err.value)
    assert err.value.lineno == 3


@pytest.mark.parametrize("reader, writer", [(read_fdg, write_fdg),
                                            (read_forg, write_forg)])
@pytest.mark.parametrize("width", ["0.0", "-1.0", "nan", "inf"])
def test_bad_bin_width_is_a_parse_error_at_its_line(tmp_path, reader, writer,
                                                    width):
    p = tmp_path / "bad.fdg"
    writer(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("bin_"))
    lines[k] = "bin_width " + width
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        reader(str(p))
    assert str(p) in str(err.value)
    assert "bin_width" in str(err.value)
    assert err.value.lineno == k + 1


def test_labelling_round_trip(tmp_path):
    maps = [[0, None, 2], [1, 0]]
    p = str(tmp_path / "lab.txt")
    write_labelling(maps, p)
    assert Path(p).read_text() == "1->1 2-># 3->3\n1->2 2->1\n"
    back = read_labelling(p)
    assert back == [{0: 0, 1: None, 2: 2}, {0: 1, 1: 0}]


def test_labelling_accepts_labelling_objects(tmp_path):
    p = str(tmp_path / "lab.txt")
    write_labelling([Labelling([2, None])], p)
    assert read_labelling(p) == [{0: 2, 1: None}]


@pytest.mark.parametrize("text", [
    "1->1 1->2\n",
    "0->1\n",
    "1->0\n",
    "1=>2\n",
])
def test_labelling_parse_errors(tmp_path, text):
    p = tmp_path / "lab.txt"
    p.write_text(text)
    with pytest.raises(ParseError):
        read_labelling(str(p))


def test_dist_record_round_trip():
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(9)})
    res = bnb_distance(g, ag_to_fdg(g))
    text = format_dist_record(res)
    back = parse_dist_record(text)
    assert back["distance"] == res.distance
    assert back["valid"] is True
    assert back["vertex_map"] == [0, 1]
    assert back["explored"] == res.explored_nodes


def test_dist_record_invalid_result():
    class Res:
        distance = math.inf
        labelling = None
        explored_nodes = 4
        valid = False

    back = parse_dist_record(format_dist_record(Res()))
    assert back["distance"] == math.inf
    assert back["valid"] is False
    assert back["vertex_map"] is None


@pytest.mark.parametrize("token", ["1-2", "1->x", "x->1", "0->1", "1->0"])
def test_dist_record_bad_labelling_token(token):
    text = "distance 1.0\nvalid 1\nlabelling 1->1 %s\nexplored 3\n" % token
    with pytest.raises(ParseError, match="<record>:3"):
        parse_dist_record(text)


def test_dist_record_places_slots_by_vertex_index():
    text = "distance 1.0\nvalid 1\nlabelling 3->2 1-># 2->1\nexplored 0\n"
    assert parse_dist_record(text)["vertex_map"] == [None, 0, 1]


@pytest.mark.parametrize("pairs", [
    "3->1 1->2",      # vertex 2 missing, 3 out of range
    "2->1 2->2",      # vertex 2 twice, 1 missing
    "1->1 2->2 5->3",
])
def test_dist_record_needs_each_vertex_once(pairs):
    text = "distance 1.0\nvalid 1\nlabelling %s\nexplored 0\n" % pairs
    with pytest.raises(ParseError, match="<record>:3"):
        parse_dist_record(text)
