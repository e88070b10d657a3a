"""Text formats for AGs, FDGs, FORGs, labellings and match results.

All indices on disk are 1-based and `#` stands for a null element; in memory
everything is 0-based.

AG file: the first line is the order n, the second line the n vertex
attribute tuples (components comma-separated, `#` for a null vertex), then n
lines of n arc entries each in the same encoding.  Diagonal entries must be
`#`; an off-diagonal `#` is an absent arc (a null one when the graph has
null vertices, which marks it as extended).

FDG file: a `fdg` header, then order / z / bin_width lines, one `vertex i`
section per slot and one `arc i j` section per ordered slot pair, in slot
order (vertices 1..m, then the arc slots in arc_index order) and under
exactly the head lines the writer writes; a section out of place is a
ParseError at its head line.  Each section lists `bin probability` lines
of two fields (bins are comma-separated components, `#` for the null bin,
sorted by that text with `#` first; the probability is the %r of
count/total); vertex sections carry their sample total, arc sections their
denominator u.  Both directions work on the FDG's count stores and build no
Pdf: the writer encodes each store's arrays, and the reader decodes the
sections of a kind in one pass over their lines, a fault being a ParseError
at its line.  A count is probability times total, rounded; a probability
that is not finite is a ParseError, and so is a total the store's 64-bit
counts cannot hold.  The bin_width line holds the FDG's bin width at every
order, 0 included.  A final `relations` section gives the six matrices, in
core._RELATIONS order, as 0/1 row strings.  The FORG format is the same
with a `forg` header and no relations section; a read FORG gets all-false
antagonisms and existences and reflexive occurrences.  Bins and string
attribute components must not contain commas, whitespace or `#`, and a bin
must not collide with the section keywords.

Labelling file: one line per AG of whitespace-separated `i->l` pairs
(vertex i to slot l, `#` for no slot).

A match result is rendered as a four-line record: distance, valid,
labelling, explored.
"""

import functools
import math

import numpy as np

from .core import (_RELATIONS, COUNT_LIMIT, PHI, AttributedGraph, BinStore,
                   Fdg, _slot_list, attr, checked_bin_width)

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
            self.lines = list(map(str.strip, fh.read().splitlines()))
        self.path = path
        self.pos = 0

    def error(self, message):
        raise ParseError(self.path, self.pos, message)

    def next_line(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line:
                return line
        self.error("unexpected end of file")

    def expect_done(self):
        rest = next(filter(None, self.lines[self.pos:]), None)
        if rest is not None:
            self.error("trailing content %r" % rest)


def _scalar(token):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


@functools.lru_cache(maxsize=4096)
def _components(token):
    """The values of a comma-separated attribute tuple; ValueError with the
    reason when it is bad."""
    parts = token.split(",")
    if any(p == "" for p in parts):
        raise ValueError("bad attribute tuple %r" % token)
    values = tuple(_scalar(p) for p in parts)
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ValueError("non-finite attribute component in %r" % token)
    return values


def _parse_tuple(token, cur):
    try:
        return _components(token)
    except ValueError as exc:
        cur.error(str(exc))


def _tuple_token(values):
    return ",".join(map(str, values))


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


def _head_lines(m):
    """The head lines of an order-m file's vertex and arc sections, in slot
    order, each made only when it is asked for: a reader stops at the first
    line that differs, whatever order the file declares."""
    return (("vertex %d" % i for i in range(1, m + 1)),
            ("arc %d %d" % (i, j) for i in range(1, m + 1)
             for j in range(1, m + 1) if i != j))


@functools.lru_cache(maxsize=64)
def _heads(m):
    """_head_lines(m) as tuples, kept for the writer."""
    return tuple(map(tuple, _head_lines(m)))


def _pdf_sections(bins, heads, word):
    """The lines of a store's pdf sections: each slot's head line, its
    `word <total>` line and a `bin probability` line per bin, bins sorted
    by token (the null bin first) and the probability %r of count/total,
    all encoded from the store's arrays."""
    # the null bin comes first, as keys[0]
    tokens = ["#"] + [_tuple_token(k) for k in bins.keys[1:]]
    rank = np.zeros(len(tokens), np.int64)
    rank[sorted(range(1, len(tokens)), key=tokens.__getitem__)] = \
        np.arange(1, len(tokens))
    order = np.lexsort((rank[bins.bin], bins.slot)).tolist()
    bin_, probs = bins.bin.tolist(), bins.probs()
    entries = [tokens[bin_[e]] + " " + repr(probs[e]) for e in order]
    bounds = bins.bounds()
    lines = []
    for head, total, a, e in zip(heads, bins.total.tolist(), bounds,
                                 bounds[1:]):
        lines.append(head)
        lines.append("%s %d" % (word, total))
        lines += entries[a:e]
    return lines


def _read_pdfs(cur, heads, word, width):
    """BinStore of the pdf sections under `heads`, one slot each in slot
    order, decoded in one pass over their lines: the head line, a `word
    <total>` line and the `bin probability` lines up to the next keyword
    line.  A count is probability times total, rounded.  The first fault is
    a ParseError at its line, another head line, a bin line without exactly
    two fields and a count below 0 or above the total included; a pdf whose
    counts do not sum to its total is one at its `word` line."""
    lines = cur.lines
    # the bins, interned by token and by value
    tokens, keys = {"#": 0}, {None: 0}
    slots, bins, counts = [], [], []
    size = 0
    for head in heads:
        line = cur.next_line()
        if line != head:
            cur.error("expected %r, found %r" % (head, line))
        total = _int_kv(cur, word)
        at = pos = cur.pos
        section = {}
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if not line:
                continue
            fields = line.split()
            if fields[0] in _KEYWORDS:
                pos -= 1
                break
            cur.pos = pos
            if len(fields) != 2:
                cur.error("expected 'bin probability', found %r" % line)
            tok, ptok = fields
            b = tokens.get(tok)
            if b is None:
                b = tokens[tok] = keys.setdefault(_parse_tuple(tok, cur),
                                                  len(keys))
            if b in section:
                cur.error("duplicate bin %r" % tok)
            try:
                c = float(ptok) * total
            except ValueError:
                cur.error("bad probability %r" % ptok)
            if not math.isfinite(c):
                cur.error("bad probability %r" % ptok)
            c = section[b] = round(c)
            if not 0 <= c <= total:
                cur.error("pdf count %d outside 0..%d" % (c, total))
        values = section.values()
        if sum(values) != total:
            raise ParseError(cur.path, at, "pdf counts sum to %d, expected "
                             "total %d" % (sum(values), total))
        if total >= COUNT_LIMIT:
            raise ParseError(cur.path, at, "total %d too large" % total)
        slots += [size] * len(section)
        bins += section
        counts += values
        size += 1
    return _store(keys, slots, bins, counts, size, width)


def _store(keys, slots, bins, counts, size, width):
    """BinStore of decoded entries; a bin written with probability 0 holds
    no samples and is left out."""
    if 0 in counts:
        keep = [k for k, c in enumerate(counts) if c]
        slots, bins, counts = ([a[k] for k in keep]
                               for a in (slots, bins, counts))
    return BinStore.sorted(list(keys), slots, bins, counts, size, width)


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


def _read_matrix(cur, name, k):
    """The named k-by-k block of 0/1 rows, decoded in one step (see
    _matrix_rows)."""
    head = cur.next_line()
    if head != name:
        cur.error("expected relation %r, found %r" % (name, head))
    lines = []
    for _ in range(k):
        line = cur.next_line()
        # strip leaves the first character that is not 0 or 1 in place
        if len(line) != k or line.strip("01"):
            cur.error("bad 0/1 row %r" % line)
        lines.append(line)
    return np.frombuffer("".join(lines).encode(), np.uint8).reshape(
        k, k) == ord("1")


def _read_fdg_file(path, header):
    """The FDG of a file with the given header, `fdg` (relations read) or
    `forg` (none on file; the neutral ones)."""
    cur = _Cursor(path)
    head = cur.next_line()
    if head != header:
        cur.error("expected %r header, found %r" % (header, head))
    m = _int_kv(cur, "order")
    if m < 0:
        cur.error("negative order")
    z = _int_kv(cur, "z")
    if z < 0:
        cur.error("negative z")
    if z >= COUNT_LIMIT:
        cur.error("z %d too large" % z)
    raw = _expect_kv(cur, "bin_width")
    try:
        bin_width = checked_bin_width(raw)
    except ValueError:
        cur.error("bad bin_width %r (want a positive finite number)" % raw)

    vheads, aheads = _head_lines(m)
    vbins = _read_pdfs(cur, vheads, "total", bin_width)
    abins = _read_pdfs(cur, aheads, "u", bin_width)

    if header == "fdg":
        head = cur.next_line()
        if head != "relations":
            cur.error("expected 'relations', found %r" % head)
    relations = {}
    for name in _RELATIONS:
        k = m if name[1] == "w" else m * (m - 1)
        if header == "fdg":
            relations[name] = _read_matrix(cur, name, k)
        else:
            # each slot occurs with itself and has no other relation
            relations[name] = np.eye(k, dtype=bool) if name[0] == "O" \
                else np.zeros((k, k), bool)
    cur.expect_done()
    try:
        return Fdg(vbins, abins, relations, z, None)
    except ValueError as exc:
        raise ParseError(cur.path, cur.pos, str(exc))


def _fdg_lines(f, header):
    m = f.order
    lines = [header, "order %d" % m, "z %d" % f.z, "bin_width %r" % f.bin_width]
    vheads, aheads = _heads(m)
    lines += _pdf_sections(f.vbins, vheads, "total")
    lines += _pdf_sections(f.abins, aheads, "u")
    if header == "fdg":
        lines.append("relations")
        for name in _RELATIONS:
            lines.append(name)
            lines.extend(_matrix_rows(getattr(f, name)))
    return lines


def _matrix_rows(mat):
    """The rows of a 0/1 matrix as strings of '0' and '1', the block
    encoded in one step (see _read_matrix)."""
    rows, cols = mat.shape
    text = (mat.astype(np.uint8) + 48).tobytes().decode()
    return [text[k * cols:(k + 1) * cols] for k in range(rows)]


def read_fdg(path):
    return _read_fdg_file(path, "fdg")


def write_fdg(f, path):
    with open(path, "w") as fh:
        fh.write("\n".join(_fdg_lines(f, "fdg")) + "\n")


def read_forg(path):
    """A FORG file carries no relations; the result gets the neutral ones."""
    return _read_fdg_file(path, "forg")


def write_forg(f, path):
    with open(path, "w") as fh:
        fh.write("\n".join(_fdg_lines(f, "forg")) + "\n")


def _pairs_token(vmap):
    return " ".join("%d->%s" % (i + 1, "#" if q is None else str(q + 1))
                    for i, q in enumerate(vmap))


def write_labelling(maps, path):
    """One line per AG, each map a vertex map; every vertex is listed."""
    lines = [_pairs_token(_slot_list(vmap, None, math.inf))
             for vmap in maps]
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
    return [entry for _, entry in _read_labelling(path)]


def _read_labelling(path):
    """read_labelling's entries with the file line each comes from, as
    (lineno, entry) pairs; blank lines are skipped."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [(lineno, _parse_pairs(line, path, lineno))
            for lineno, line in enumerate(lines, 1) if line.strip()]


def _parse_pairs(line, path, lineno):
    """{vertex: slot} of a line of `i->l` tokens; a vertex or a slot
    listed twice is a ParseError."""
    entry, used = {}, set()
    for token in line.split():
        i, q = _parse_pair(token, path, lineno)
        if i in entry:
            raise ParseError(path, lineno, "duplicate vertex %d" % (i + 1))
        if q in used:
            raise ParseError(path, lineno, "duplicate slot %d" % (q + 1))
        entry[i] = q
        if q is not None:
            used.add(q)
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
    vertex 1..n once, n being the number of pairs.  A bad number is a
    ParseError at its line, a missing field one at the record's last line.
    """
    lines = text.strip().splitlines()
    fields = {}
    for lineno, line in enumerate(lines, 1):
        key, _, rest = line.partition(" ")
        fields[key] = rest, lineno
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
            raise ParseError("<record>", len(lines), "missing field %r" % key)

    def number(key, kind):
        rest, lineno = fields[key]
        try:
            return kind(rest)
        except ValueError:
            raise ParseError("<record>", lineno, "bad %s %r" % (key, rest))

    return {"distance": number("distance", float),
            "valid": bool(number("valid", int)),
            "vertex_map": vmap,
            "explored": number("explored", int)}
