"""File format checks.

* AG round-trips preserve vertices, arcs and the extended flag; files use
  `#` for null elements and the diagonal
* FDG round-trips preserve pdfs (counts recovered from probabilities and
  totals), z, u and all six relation matrices; FORG files drop relations and
  reading one yields the neutral matrices
* labelling and distance-record round-trips; write_labelling refuses a
  map read_labelling would refuse, or one that is no sequence, with
  ValueError and leaves no file
* malformed input raises ParseError with the offending location, and a
  truncated file never yields a partial value; a non-finite attribute is
  reported by the parser, with its line, before the tuple is built
* a non-positive or non-finite bin_width line is a ParseError at that line,
  in FDG and FORG files alike
* a malformed `i->l` token in a distance record is a ParseError at its line
* a distance record places each slot at its pair's vertex index, and a
  duplicate, missing or out-of-range vertex is a ParseError at its line
* a bad distance, valid or explored number in a distance record is a
  ParseError at its line, and a missing field one at the record's last line
* relation rows are written as the digit strings of the 0/1 matrices, at
  every order from 0 up
* the first bad relation row (a character other than 0 or 1, non-ASCII
  ones included, or the wrong length) is a ParseError at its own line, also
  when later rows are bad or the file ends after it
* a pdf count below 0 or above its section's total is a ParseError at its
  bin's line, and counts that do not sum to the total one at the total's
  line
* sections are read in slot order only: one out of place is a ParseError at
  its head line, in FDG and FORG files alike
* a bin line without exactly two fields is a ParseError at its line
"""

import math
from pathlib import Path

import numpy as np
import pytest

from graphproto import (
    AttributedGraph,
    CommonLabelling,
    Fdg,
    Labelling,
    Pdf,
    ag_to_fdg,
    attr,
    bnb_distance,
    extend_ag,
    extend_fdg,
    synth_from_labelled_ags,
)
from graphproto.fileio import (
    ParseError,
    _matrix_rows,
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
    lambda t: t.replace("2 0.5", "2 nan", 1),
    lambda t: t.replace("2 0.5", "2 inf", 1),
    lambda t: t.replace("2 0.5", "2 -inf", 1),
    lambda t: t.replace("2 0.5", "2 1e400", 1),
])
def test_fdg_parse_errors(tmp_path, mangle):
    f = _sample_fdg()
    p = tmp_path / "f.fdg"
    write_fdg(f, str(p))
    p.write_text(mangle(p.read_text()))
    with pytest.raises(ParseError):
        read_fdg(str(p))


@pytest.mark.parametrize("edits, cut, bad", [
    ({2: "\u00e9"}, None, 2),
    ({1: "\u4e2d"}, None, 1),
    ({3: "2", 4: "+"}, None, 3),
    ({2: "x", 4: ""}, None, 2),
    ({1: "", 3: "\u00e9"}, None, 1),
    ({4: "\u00e9"}, 5, 4),
])
def test_first_bad_relation_row_is_reported_at_its_line(tmp_path, edits, cut,
                                                        bad):
    """Row k of the Ae block gets edits[k] in place of its first digit (""
    drops it); with cut, the file ends after that many rows."""
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), str(p))
    lines = p.read_text().splitlines()
    head = lines.index("Ae")
    for k, c in edits.items():
        lines[head + 1 + k] = c + lines[head + 1 + k][1:]
    if cut is not None:
        lines = lines[:head + 1 + cut]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_fdg(str(p))
    assert err.value.lineno == head + 2 + bad
    assert str(err.value).endswith("bad 0/1 row %r" % lines[head + 1 + bad])


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


@pytest.mark.parametrize("maps", [[[0, 0]], [[-1]], [None]])
def test_write_labelling_refuses_what_read_labelling_refuses(tmp_path, maps):
    p = tmp_path / "lab.txt"
    with pytest.raises(ValueError):
        write_labelling(maps, str(p))
    assert not p.exists()


@pytest.mark.parametrize("text", [
    "1->1 1->2\n",
    "1->2 2->2\n",
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


@pytest.mark.parametrize("line, lineno", [
    ("distance x", 1), ("valid z", 2), ("explored y", 4),
    ("distance", 1), ("explored 1.5", 4)])
def test_dist_record_bad_number_is_a_parse_error_at_its_line(line, lineno):
    fields = ["distance 1.0", "valid 1", "labelling none", "explored 0"]
    key = line.split()[0]
    text = "\n".join(line if f.split()[0] == key else f for f in fields)
    with pytest.raises(ParseError, match="<record>:%d: bad %s" % (lineno, key)):
        parse_dist_record(text + "\n")


@pytest.mark.parametrize("missing", ["distance", "valid", "labelling",
                                     "explored"])
def test_dist_record_missing_field_names_the_last_line(missing):
    fields = ["distance 1.0", "valid 1", "labelling none", "explored 0"]
    text = "\n".join(f for f in fields if f.split()[0] != missing)
    with pytest.raises(ParseError, match="<record>:3: missing field %r"
                       % missing):
        parse_dist_record(text + "\n")


def test_relation_rows_equal_the_digit_join():
    rng = np.random.default_rng(7)
    for k in (0, 1, 2, 3, 6, 30):
        for density in (0.0, 0.5, 1.0):
            mat = rng.random((k, k)) < density
            assert _matrix_rows(mat) == ["".join(str(b) for b in row)
                                         for row in mat.astype(int)]


@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_fdg_relation_rows_at_small_orders(tmp_path, order):
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(3)})
    f = ag_to_fdg(g) if order >= 2 else synth_from_labelled_ags(
        [AttributedGraph([attr(1)] * order, {})],
        CommonLabelling.identity([order]))
    if order > f.order:
        f = extend_fdg(f, order)
    path = tmp_path / "f.fdg"
    write_fdg(f, str(path))
    lines = path.read_text().splitlines()
    rows = lines[lines.index("relations") + 1:]
    want = []
    for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
        want.append(name)
        want.extend("".join(str(b) for b in row)
                    for row in getattr(f, name).astype(int))
    assert rows == want
    _same_fdg(read_fdg(str(path)), f)


def _golden_fdg():
    """Order 2, z = 3: numeric, string, mixed and null bins, thirds that
    need every digit of %r, and an arc slot with total 0."""
    vertex_pdfs = [Pdf({("red",): 1, (1,): 1, None: 1}, 3, 0.5),
                   Pdf({(2, "x"): 2, None: 1}, 3, 0.5)]
    arc_pdfs = {(0, 1): Pdf({(-3,): 1, None: 1}, 2, 0.5),
                (1, 0): Pdf({}, 0, 0.5)}
    relations = {"Aw": [[1, 0], [0, 1]], "Ow": [[1, 1], [0, 1]],
                 "Ew": [[0, 1], [1, 0]], "Ae": [[1, 1], [1, 1]],
                 "Oe": [[1, 0], [1, 1]], "Ee": [[0, 0], [0, 0]]}
    return Fdg(vertex_pdfs, arc_pdfs, relations, 3, {(0, 1): 2, (1, 0): 0},
               0.5)


_GOLDEN_PDFS = """order 2
z 3
bin_width 0.5
vertex 1
total 3
# 0.3333333333333333
1 0.3333333333333333
red 0.3333333333333333
vertex 2
total 3
# 0.3333333333333333
2,x 0.6666666666666666
arc 1 2
u 2
# 0.5
-3 0.5
arc 2 1
u 0
"""

_GOLDEN_RELATIONS = """relations
Aw
10
01
Ow
11
01
Ew
01
10
Ae
11
11
Oe
10
11
Ee
00
00
"""


@pytest.mark.parametrize("writer, text", [
    (write_fdg, "fdg\n" + _GOLDEN_PDFS + _GOLDEN_RELATIONS),
    (write_forg, "forg\n" + _GOLDEN_PDFS)])
def test_written_text_is_pinned_byte_for_byte(tmp_path, writer, text):
    p = tmp_path / "golden"
    writer(_golden_fdg(), str(p))
    assert p.read_bytes() == text.encode()


@pytest.mark.parametrize("reader, writer", [(read_fdg, write_fdg),
                                            (read_forg, write_forg)])
@pytest.mark.parametrize("prob", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_probability_is_a_parse_error_at_its_line(
        tmp_path, reader, writer, prob):
    p = tmp_path / "bad.fdg"
    writer(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    k = lines.index("2 0.5")
    lines[k] = "2 " + prob
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        reader(str(p))
    assert str(p) in str(err.value)
    assert err.value.lineno == k + 1


def test_negative_z_is_a_parse_error_at_its_line(tmp_path):
    p = tmp_path / "bad.fdg"
    write_fdg(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    k = lines.index("z 2")
    lines[k] = "z -1"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_fdg(str(p))
    assert err.value.lineno == k + 1
    assert "z" in str(err.value)


def test_a_bin_at_probability_zero_holds_no_samples(tmp_path):
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    text = p.read_text().replace("2 0.5\n", "2 0.5\n7 0.0\n", 1)
    p.write_text(text)
    f = read_fdg(str(p))
    assert f.vertex_pdfs[1].counts == {(2,): 1, (4,): 1}
    again = tmp_path / "again.fdg"
    write_fdg(f, again)
    assert "7 0.0" not in again.read_text()


def test_a_pdf_of_bins_at_probability_zero_is_empty(tmp_path):
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    p.write_text(p.read_text().replace("u 2\n", "u 0\n", 1))
    f = read_fdg(str(p))
    assert f.arc_pdfs[(0, 1)].total == 0 and not f.arc_pdfs[(0, 1)].counts


@pytest.mark.parametrize("order", ["1000000", "99999999999999999999"])
def test_an_order_the_file_cannot_hold_ends_at_its_last_line(tmp_path,
                                                            order):
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    p.write_text(p.read_text().replace("order 3", "order " + order, 1))
    with pytest.raises(ParseError) as err:
        read_fdg(str(p))
    assert err.value.lineno <= len(lines)


def test_probabilities_past_two_to_the_53_are_written_exactly(tmp_path):
    big = 2 ** 53 + 1
    rel = {name: [[name[0] == "O"]] for name in ("Aw", "Ow", "Ew")}
    rel.update({name: np.zeros((0, 0), bool) for name in ("Ae", "Oe", "Ee")})
    f = Fdg([Pdf({(1,): big, (2,): 2}, big + 2)], {}, rel, big + 2, {})
    p = tmp_path / "f.fdg"
    write_fdg(f, p)
    assert "1 %r\n" % (big / (big + 2)) in p.read_text()


@pytest.mark.parametrize("line, value", [("total 2", "total %d"),
                                         ("z 2", "z %d")])
def test_a_count_past_64_bits_is_a_parse_error_at_its_line(tmp_path, line,
                                                          value):
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    k = lines.index(line)
    # the first total's one bin is at probability 1.0
    lines[k] = value % 2 ** 63
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="too large") as err:
        read_fdg(str(p))
    assert err.value.lineno == k + 1


@pytest.mark.parametrize("bins, lineno, message", [
    (("2 -0.5", "4 0.5"), 10, "pdf count -1 outside 0..2"),
    (("2 1.5", "4 0.5"), 10, "pdf count 3 outside 0..2"),
    (("2 -0.5", "4 1.5"), 10, "pdf count -1 outside 0..2"),
    (("2 0.5", "4 1.5"), 11, "pdf count 3 outside 0..2"),
    (("2 1.0", "4 0.5"), 9, "pdf counts sum to 3, expected total 2")])
def test_a_count_outside_its_total_is_a_parse_error_at_its_line(
        tmp_path, bins, lineno, message):
    # vertex 2's section: `vertex 2` at line 8, `total 2` at 9, then the
    # bins `2 0.5` and `4 0.5` at 10 and 11; a count that no total admits
    # is reported at its own line, a sum that misses the total at the
    # total's line
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    assert lines[7:11] == ["vertex 2", "total 2", "2 0.5", "4 0.5"]
    lines[9:11] = bins
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_fdg(str(p))
    assert err.value.lineno == lineno
    assert str(err.value) == "%s:%d: %s" % (p, lineno, message)


def _swap_sections(lines, first, second):
    """lines with the section under head `first` and the one under head
    `second`, which follows it, swapped."""
    a, b = lines.index(first), lines.index(second)
    c = next((k for k in range(b + 1, len(lines))
              if lines[k].split()[0] in ("vertex", "arc", "relations")),
             len(lines))
    return lines[:a] + lines[b:c] + lines[a:b] + lines[c:]


@pytest.mark.parametrize("reader, writer", [(read_fdg, write_fdg),
                                            (read_forg, write_forg)])
@pytest.mark.parametrize("first, second", [("vertex 1", "vertex 2"),
                                           ("vertex 2", "arc 1 2"),
                                           ("arc 1 2", "arc 1 3"),
                                           ("arc 3 1", "arc 3 2")])
def test_a_section_out_of_slot_order_is_a_parse_error_at_its_head_line(
        tmp_path, reader, writer, first, second):
    p = tmp_path / "f"
    writer(_sample_fdg(), p)
    lines = _swap_sections(p.read_text().splitlines(), first, second)
    p.write_text("\n".join(lines) + "\n")
    k = lines.index(second)
    with pytest.raises(ParseError) as err:
        reader(str(p))
    assert str(err.value) == "%s:%d: expected %r, found %r" % (
        p, k + 1, first, second)


@pytest.mark.parametrize("line", ["1 7 1.0", "1,7 1.0 x", "1"])
def test_a_bin_line_without_two_fields_is_a_parse_error_at_its_line(
        tmp_path, line):
    # vertex 1's section: `vertex 1` at line 5, `total 2` at 6 and its one
    # bin `1 1.0` at 7
    p = tmp_path / "f.fdg"
    write_fdg(_sample_fdg(), p)
    lines = p.read_text().splitlines()
    assert lines[4:7] == ["vertex 1", "total 2", "1 1.0"]
    lines[6] = line
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_fdg(str(p))
    assert str(err.value) == "%s:7: expected 'bin probability', found %r" % (
        p, line)
