"""Text formats for AGs, FDGs, FORGs, labellings and match results.

All indices on disk are 1-based and `#` stands for a null element; in memory
everything is 0-based.

AG file: the first line is the order n, the second line the n vertex
attribute tuples (components comma-separated, `#` for a null vertex), then n
lines of n arc entries each in the same encoding.  Diagonal entries must be
`#`; an off-diagonal `#` is an absent arc (a null one when the graph has
null vertices, which marks it as extended).

FDG file: a `fdg` header, then order / z / bin_width lines, one `vertex i`
section per slot and one `arc i j` section per ordered slot pair, each
listing `bin probability` pairs (bins are comma-separated components, `#`
for the null bin); vertex sections carry their sample total, arc sections
their denominator u.  Counts are recovered as probability times total.  The
bin_width line holds the FDG's bin width at every order, 0 included.  A
final `relations` section gives the six matrices as 0/1 row strings.  The
FORG format is the same with a `forg` header and no relations section; a
read FORG gets all-false antagonisms and existences and reflexive
occurrences.  Bins and string attribute components must not contain commas,
whitespace or `#`, and a bin must not collide with the section keywords.

Labelling file: one line per AG of whitespace-separated `i->l` pairs
(vertex i to slot l, `#` for no slot).

A match result is rendered as a four-line record: distance, valid,
labelling, explored.
"""

import math

import numpy as np

from .core import (PHI, AttributedGraph, Fdg, Pdf, attr, checked_bin_width,
                   slot_pairs, vertex_list)

_KEYWORDS = ("vertex", "arc", "u", "total", "relations")


class ParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path = path
        self.lineno = lineno


class _Cursor:
    """Line reader that skips blanks and reports positions."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.path = path
        self.pos = 0

    def error(self, message):
        raise ParseError(self.path, self.pos, message)

    def next_line(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        self.error("unexpected end of file")

    def peek(self):
        saved = self.pos
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if line:
                self.pos = saved
                return line
            self.pos += 1
        self.pos = saved
        return None

    def expect_done(self):
        if self.peek() is not None:
            self.error("trailing content %r" % self.peek())


def _scalar(token):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_tuple(token, cur):
    parts = token.split(",")
    if any(p == "" for p in parts):
        cur.error("bad attribute tuple %r" % token)
    values = tuple(_scalar(p) for p in parts)
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        cur.error("non-finite attribute component in %r" % token)
    return values


def _tuple_token(values):
    return ",".join(str(c) for c in values)


def read_ag(path):
    cur = _Cursor(path)
    head = cur.next_line().split()
    if len(head) != 1:
        cur.error("expected the order alone on the first line")
    try:
        n = int(head[0])
    except ValueError:
        cur.error("bad order %r" % head[0])
    if n < 0:
        cur.error("negative order")

    vtok = cur.next_line().split() if n else []
    if len(vtok) != n:
        cur.error("expected %d vertex entries, found %d" % (n, len(vtok)))
    vertices = [PHI if t == "#" else attr(*_parse_tuple(t, cur))
                for t in vtok]
    extended = any(v.is_null for v in vertices)

    arcs = {}
    for i in range(n):
        row = cur.next_line().split()
        if len(row) != n:
            cur.error("expected %d arc entries, found %d" % (n, len(row)))
        for j, t in enumerate(row):
            if i == j:
                if t != "#":
                    cur.error("diagonal entry must be '#', found %r" % t)
            elif t == "#":
                if extended:
                    arcs[(i, j)] = PHI
            else:
                arcs[(i, j)] = attr(*_parse_tuple(t, cur))
    cur.expect_done()
    try:
        return AttributedGraph(vertices, arcs, extended=extended)
    except ValueError as exc:
        raise ParseError(cur.path, cur.pos, str(exc))


def write_ag(g, path):
    """The cyclic arc order, if any, is not persisted."""
    n = g.order
    lines = [str(n)]
    if n:
        lines.append(" ".join(
            "#" if v.is_null else _tuple_token(v.values) for v in g.vertices))
    for i in range(n):
        row = []
        for j in range(n):
            b = g.arcs.get((i, j))
            if i == j or b is None or b.is_null:
                row.append("#")
            else:
                row.append(_tuple_token(b.values))
        lines.append(" ".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bin_token(key):
    if key is None:
        return "#"
    return _tuple_token(key)


def _pdf_lines(pdf):
    out = []
    keys = sorted(pdf.counts,
                  key=lambda k: (0, "") if k is None else (1, _bin_token(k)))
    for k in keys:
        out.append("%s %r" % (_bin_token(k), pdf.counts[k] / pdf.total))
    return out


def _read_pdf_entries(cur, total, bin_width):
    counts = {}
    lineno = cur.pos
    while True:
        line = cur.peek()
        if line is None or line.split()[0] in _KEYWORDS:
            break
        line = cur.next_line()
        fields = line.rsplit(None, 1)
        if len(fields) != 2:
            cur.error("expected 'bin probability', found %r" % line)
        tok, ptok = fields
        key = None if tok == "#" else _parse_tuple(tok, cur)
        if key in counts:
            cur.error("duplicate bin %r" % tok)
        try:
            prob = float(ptok)
        except ValueError:
            cur.error("bad probability %r" % ptok)
        counts[key] = int(round(prob * total))
    try:
        return Pdf(counts, total, bin_width)
    except ValueError as exc:
        raise ParseError(cur.path, lineno, str(exc))


def _expect_kv(cur, keyword):
    fields = cur.next_line().split()
    if len(fields) != 2 or fields[0] != keyword:
        cur.error("expected '%s <value>'" % keyword)
    return fields[1]


def _int_kv(cur, keyword):
    raw = _expect_kv(cur, keyword)
    try:
        return int(raw)
    except ValueError:
        cur.error("bad %s %r" % (keyword, raw))


def _read_matrix(cur, name, rows, cols):
    head = cur.next_line()
    if head != name:
        cur.error("expected relation %r, found %r" % (name, head))
    mat = np.zeros((rows, cols), bool)
    for r in range(rows):
        line = cur.next_line()
        if len(line) != cols or set(line) - {"0", "1"}:
            cur.error("bad 0/1 row %r" % line)
        mat[r] = [c == "1" for c in line]
    return mat


def _read_fdg_body(cur, with_relations):
    m = _int_kv(cur, "order")
    if m < 0:
        cur.error("negative order")
    z = _int_kv(cur, "z")
    raw = _expect_kv(cur, "bin_width")
    try:
        bin_width = checked_bin_width(raw)
    except ValueError:
        cur.error("bad bin_width %r (want a positive finite number)" % raw)

    vertex_pdfs = [None] * m
    for _ in range(m):
        i = _int_kv(cur, "vertex")
        if not 1 <= i <= m:
            cur.error("vertex index %d out of range" % i)
        if vertex_pdfs[i - 1] is not None:
            cur.error("duplicate vertex %d" % i)
        total = _int_kv(cur, "total")
        vertex_pdfs[i - 1] = _read_pdf_entries(cur, total, bin_width)

    arc_pdfs = {}
    u = {}
    for _ in range(m * (m - 1)):
        fields = cur.next_line().split()
        if len(fields) != 3 or fields[0] != "arc":
            cur.error("expected 'arc <i> <j>'")
        try:
            i, j = int(fields[1]), int(fields[2])
        except ValueError:
            cur.error("bad arc indices %r" % (fields[1:],))
        if not (1 <= i <= m and 1 <= j <= m) or i == j:
            cur.error("arc slot (%d, %d) out of range" % (i, j))
        if (i - 1, j - 1) in arc_pdfs:
            cur.error("duplicate arc slot (%d, %d)" % (i, j))
        uij = _int_kv(cur, "u")
        arc_pdfs[(i - 1, j - 1)] = _read_pdf_entries(cur, uij, bin_width)
        u[(i - 1, j - 1)] = uij

    big = m * (m - 1)
    if with_relations:
        head = cur.next_line()
        if head != "relations":
            cur.error("expected 'relations', found %r" % head)
        relations = {
            "Aw": _read_matrix(cur, "Aw", m, m),
            "Ow": _read_matrix(cur, "Ow", m, m),
            "Ew": _read_matrix(cur, "Ew", m, m),
            "Ae": _read_matrix(cur, "Ae", big, big),
            "Oe": _read_matrix(cur, "Oe", big, big),
            "Ee": _read_matrix(cur, "Ee", big, big),
        }
    else:
        relations = {
            "Aw": np.zeros((m, m), bool),
            "Ow": np.eye(m, dtype=bool),
            "Ew": np.zeros((m, m), bool),
            "Ae": np.zeros((big, big), bool),
            "Oe": np.eye(big, dtype=bool),
            "Ee": np.zeros((big, big), bool),
        }
    cur.expect_done()
    try:
        return Fdg(vertex_pdfs, arc_pdfs, relations, z, u, bin_width)
    except ValueError as exc:
        raise ParseError(cur.path, cur.pos, str(exc))


def _fdg_lines(f, header):
    m = f.order
    lines = [header, "order %d" % m, "z %d" % f.z, "bin_width %r" % f.bin_width]
    for i in range(m):
        lines.append("vertex %d" % (i + 1))
        lines.append("total %d" % f.vertex_pdfs[i].total)
        lines.extend(_pdf_lines(f.vertex_pdfs[i]))
    for (i, j) in slot_pairs(m):
        lines.append("arc %d %d" % (i + 1, j + 1))
        lines.append("u %d" % f.u.get((i, j), 0))
        lines.extend(_pdf_lines(f.arc_pdfs[(i, j)]))
    if header == "fdg":
        lines.append("relations")
        for name in ("Aw", "Ow", "Ew", "Ae", "Oe", "Ee"):
            lines.append(name)
            mat = getattr(f, name)
            for row in mat.astype(int):
                lines.append("".join(str(b) for b in row))
    return lines


def read_fdg(path):
    cur = _Cursor(path)
    head = cur.next_line()
    if head != "fdg":
        cur.error("expected 'fdg' header, found %r" % head)
    return _read_fdg_body(cur, with_relations=True)


def write_fdg(f, path):
    with open(path, "w") as fh:
        fh.write("\n".join(_fdg_lines(f, "fdg")) + "\n")


def read_forg(path):
    """A FORG file carries no relations; the result gets the neutral ones."""
    cur = _Cursor(path)
    head = cur.next_line()
    if head != "forg":
        cur.error("expected 'forg' header, found %r" % head)
    return _read_fdg_body(cur, with_relations=False)


def write_forg(f, path):
    with open(path, "w") as fh:
        fh.write("\n".join(_fdg_lines(f, "forg")) + "\n")


def _pairs_token(vmap):
    return " ".join("%d->%s" % (i + 1, "#" if q is None else str(q + 1))
                    for i, q in enumerate(vmap))


def write_labelling(maps, path):
    """One line per AG; every vertex is listed."""
    lines = []
    for vmap in maps:
        lines.append(_pairs_token(vertex_list(vmap, len(vmap))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_pair(token, path, lineno):
    """The 0-based (vertex, slot) of an `i->l` token, slot None for `#`."""
    halves = token.split("->")
    if len(halves) != 2:
        raise ParseError(path, lineno, "bad pair %r" % token)
    try:
        i = int(halves[0])
    except ValueError:
        raise ParseError(path, lineno, "bad vertex index %r" % token)
    if i < 1:
        raise ParseError(path, lineno, "vertex index %d < 1" % i)
    if halves[1] == "#":
        return i - 1, None
    try:
        q = int(halves[1])
    except ValueError:
        raise ParseError(path, lineno, "bad slot %r" % token)
    if q < 1:
        raise ParseError(path, lineno, "slot index %d < 1" % q)
    return i - 1, q - 1


def read_labelling(path):
    """List of {vertex: slot} dicts, 0-based, None for `#`.

    Vertices missing from a line are simply absent from its dict.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [_parse_pairs(line, path, lineno)
            for lineno, line in enumerate(lines, 1) if line.strip()]


def _parse_pairs(line, path, lineno):
    """{vertex: slot} of a line of `i->l` tokens; a vertex listed twice is
    a ParseError."""
    entry = {}
    for token in line.split():
        i, q = _parse_pair(token, path, lineno)
        if i in entry:
            raise ParseError(path, lineno, "duplicate vertex %d" % (i + 1))
        entry[i] = q
    return entry


def format_dist_record(res):
    """Four-line record of a MatchResult-like object."""
    if res.labelling is None:
        lab = "none"
    else:
        lab = _pairs_token(res.labelling.vertex_map)
    return "\n".join(["distance %r" % float(res.distance),
                      "valid %d" % int(res.valid),
                      "labelling %s" % lab,
                      "explored %d" % res.explored_nodes]) + "\n"


def parse_dist_record(text):
    """Inverse of format_dist_record; returns a plain dict.

    The labelling's `i->l` pairs may come in any order; they must name each
    vertex 1..n once, n being the number of pairs.
    """
    fields = {}
    for lineno, line in enumerate(text.strip().splitlines(), 1):
        key, _, rest = line.partition(" ")
        fields[key] = rest
        if key == "labelling" and rest == "none":
            vmap = None
        elif key == "labelling":
            # n distinct vertices all within 1..n: each is listed once
            entry = _parse_pairs(rest, "<record>", lineno)
            vmap = [None] * len(entry)
            for i, q in entry.items():
                if i >= len(vmap):
                    raise ParseError("<record>", lineno,
                                     "vertex %d out of range for %d pairs"
                                     % (i + 1, len(vmap)))
                vmap[i] = q
    for key in ("distance", "valid", "labelling", "explored"):
        if key not in fields:
            raise ParseError("<record>", 0, "missing field %r" % key)
    return {"distance": float(fields["distance"]),
            "valid": bool(int(fields["valid"])),
            "vertex_map": vmap,
            "explored": int(fields["explored"])}
