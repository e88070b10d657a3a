"""Write/read round trips of every file format, on random inputs.

* an FDG built by synthesis, extension, growth by one AG and FORG merging
  reads back with the same pdfs, z, u, bin width, flags and relations,
  and writing it again gives the same bytes
* a FORG file does the same for everything but the relations, which read
  back neutral
* an AG file keeps vertices, arcs and the extended flag, and a labelling
  file every vertex's slot; both write again byte for byte
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from graphproto import (
    AttributedGraph,
    CommonLabelling,
    ag_to_fdg,
    attr,
    extend_ag,
    extend_fdg,
    forg_synthesize,
    synth_from_labelled_ags,
    update_fdg_with_ag,
)
from graphproto.fileio import (
    read_ag,
    read_fdg,
    read_forg,
    read_labelling,
    write_ag,
    write_fdg,
    write_forg,
    write_labelling,
)

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# components that a file gives back as they were: strings that no number
# parser takes, ints, and floats that print without loss
_components = st.one_of(
    st.integers(-20, 20),
    st.sampled_from(["red", "blue", "x", "q7"]),
    st.floats(-30.0, 30.0, allow_nan=False).map(lambda v: round(v, 2)))


@st.composite
def _ags(draw, max_order=4):
    n = draw(st.integers(0, max_order))
    arity = draw(st.integers(1, 2))
    tuples = st.lists(_components, min_size=arity, max_size=arity).map(
        lambda vs: attr(*vs))
    vertices = [draw(tuples) for _ in range(n)]
    arcs = {(i, j): draw(tuples) for i in range(n) for j in range(n)
            if i != j and draw(st.booleans())}
    return AttributedGraph(vertices, arcs)


@st.composite
def _fdgs(draw):
    """An FDG from one of the four ways the package builds them."""
    width = draw(st.sampled_from([0.5, 1.0, 3.0]))
    ags = draw(st.lists(_ags(), min_size=1, max_size=3))
    n = max(g.order for g in ags) + draw(st.integers(0, 2))
    maps = [draw(st.permutations(range(n)))[:g.order] for g in ags]
    f = synth_from_labelled_ags(ags, CommonLabelling(maps, n), width)
    how = draw(st.sampled_from(["synth", "extend", "grow", "merge"]))
    if how == "extend":
        f = extend_fdg(f, f.order + draw(st.integers(0, 2)))
    elif how == "grow":
        g = draw(_ags())
        free = list(range(f.order)) + [None] * g.order
        vmap = draw(st.permutations(free))[:g.order]
        f = update_fdg_with_ag(f, g, vmap)
    elif how == "merge":
        other = ag_to_fdg(draw(_ags()), width) if draw(st.booleans()) else f
        free = list(range(f.order)) + [None] * other.order
        f = forg_synthesize(other, f, draw(st.permutations(free))[:other.order])
    return f


def _same_pdfs(a, b):
    assert a.order == b.order and a.z == b.z and a.u == b.u
    assert a.bin_width == b.bin_width
    assert a.vertex_pdfs == b.vertex_pdfs and a.arc_pdfs == b.arc_pdfs
    for name in ("vnull", "vstrict", "anull", "astrict"):
        assert (getattr(a, name) == getattr(b, name)).all(), name


def _round_trip(f, write, read):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(f, first)
        back = read(str(first))
        write(back, second)
        assert second.read_bytes() == first.read_bytes()
    return back


@_PROPERTY
@given(f=_fdgs())
def test_fdg_files_round_trip(f):
    back = _round_trip(f, write_fdg, read_fdg)
    _same_pdfs(back, f)
    for name, mat in f.relations().items():
        assert (getattr(back, name) == mat).all(), name


@_PROPERTY
@given(f=_fdgs())
def test_forg_files_round_trip(f):
    back = _round_trip(f, write_forg, read_forg)
    _same_pdfs(back, f)
    m = f.order * (f.order - 1)
    assert not back.Aw.any() and not back.Ew.any()
    assert not back.Ae.any() and not back.Ee.any()
    assert (back.Ow == np.eye(f.order, dtype=bool)).all()
    assert (back.Oe == np.eye(m, dtype=bool)).all()


@_PROPERTY
@given(g=_ags(max_order=5), pad=st.integers(0, 2))
def test_ag_files_round_trip(g, pad):
    if pad:
        g = extend_ag(g, g.order + pad)
    back = _round_trip(g, write_ag, read_ag)
    assert back.vertices == g.vertices
    assert back.arcs == g.arcs
    assert back.extended == g.extended


@_PROPERTY
@given(maps=st.lists(st.integers(0, 5).flatmap(
    lambda n: st.permutations(list(range(n)) + [None] * n).map(
        lambda p: p[:n])), max_size=4))
def test_labelling_files_round_trip(maps):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write_labelling(maps, first)
        back = read_labelling(str(first))
        assert back == [dict(enumerate(m)) for m in maps if m]
        write_labelling([[d[i] for i in range(len(d))] for d in back],
                        second)
        if all(maps):
            assert second.read_bytes() == first.read_bytes()
