"""End-to-end command line checks on temporary files.

- synth rebuilds the same FDG as the library call, with and without a
  labelling file
- dist emits a parseable four-line record, honours --method and --out, and
  writes the same record as the library's method dispatcher
- config twins: values come from key=value files, flags win on conflict
- classify votes over CLASS:FILE references
- cluster writes one FDG per cluster plus a manifest
- bench sweeps comma lists into one CSV row per parameter point and takes
  its weights from the config file
- bad input exits with status 2 and an error line on stderr; a non-finite
  attribute names the file and line
- a bad bin width (flag or FDG file line), a NaN --dalpha and a NaN
  dist --tau or --tp exit with status 2 before any output is written
- a synth labelling entry for a vertex its AG lacks exits with status 2,
  naming both files and the vertex; a slot listed twice on a line or at
  or beyond --order exits 2 naming the labelling file and line
- a boolean config value is read from its spellings; any other exits 2
- every flag's config twin parses to the flag's value, and the flag wins
  over it; bench's config-only keys, sweeps included, parse to their
  types and keep their defaults; --help exits 0 for every subcommand
- a count flag (--iters, --reps, --order) below its least value or no
  integer is refused by argparse naming the flag; a bad config value (a
  count, a number, a value outside its setting's choices, a key given
  twice) exits 2 naming the file, the line and the key
"""

import argparse
import csv

import pytest

from graphproto.cli import _fill, _parser, main, read_config
from graphproto.core import AttributedGraph, CostWeights, attr
from graphproto.efficient import METHODS, match_by_method
from graphproto.fileio import (ParseError, format_dist_record,
                               parse_dist_record, read_ag, read_fdg, write_ag,
                               write_labelling)
from graphproto.harness import CSV_COLUMNS
from graphproto.synthesis import CommonLabelling, ag_to_fdg, \
    synth_from_labelled_ags
from graphproto.fileio import write_fdg


def _g1():
    return AttributedGraph([attr(1), attr(2), attr(3)],
                           {(0, 1): attr(10), (1, 2): attr(20)})


def _g2():
    return AttributedGraph([attr(1), attr(2), attr(3)],
                           {(0, 1): attr(10), (2, 0): attr(30)})


def _far():
    return AttributedGraph([attr(500), attr(600)], {(1, 0): attr(700)})


def _same_fdg(a, b):
    if a.order != b.order or a.z != b.z:
        return False
    if any(a.vertex_pdfs[i].counts != b.vertex_pdfs[i].counts
           for i in range(a.order)):
        return False
    return a.arc_pdfs == b.arc_pdfs or all(
        a.arc_pdfs[k].counts == b.arc_pdfs[k].counts for k in a.arc_pdfs)


def test_synth_with_labelling(tmp_path, capsys):
    a, b = _g1(), _g2()
    write_ag(a, tmp_path / "a.ag")
    write_ag(b, tmp_path / "b.ag")
    write_labelling([[0, 1, 2], [0, 2, 1]], tmp_path / "l.txt")
    out = tmp_path / "out.fdg"
    rc = main(["synth", "--ag", str(tmp_path / "a.ag"),
               "--ag", str(tmp_path / "b.ag"),
               "--labelling", str(tmp_path / "l.txt"),
               "--out", str(out)])
    assert rc == 0
    assert "out.fdg" in capsys.readouterr().out
    want = synth_from_labelled_ags([a, b],
                                   CommonLabelling([[0, 1, 2], [0, 2, 1]], 3))
    assert _same_fdg(read_fdg(out), want)


def test_synth_identity_default(tmp_path):
    a, b = _g1(), _g1()
    write_ag(a, tmp_path / "a.ag")
    write_ag(b, tmp_path / "b.ag")
    out = tmp_path / "out.fdg"
    assert main(["synth", "--ag", str(tmp_path / "a.ag"),
                 "--ag", str(tmp_path / "b.ag"), "--out", str(out)]) == 0
    got = read_fdg(out)
    assert got.z == 2
    assert _same_fdg(got, synth_from_labelled_ags(
        [a, b], CommonLabelling.identity([3, 3])))


def test_dist_record(tmp_path, capsys):
    g = _g1()
    write_ag(g, tmp_path / "g.ag")
    write_fdg(ag_to_fdg(g), tmp_path / "g.fdg")
    out = tmp_path / "rec.txt"
    rc = main(["dist", "--ag", str(tmp_path / "g.ag"),
               "--fdg", str(tmp_path / "g.fdg"), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    rec = parse_dist_record(text)
    assert rec["distance"] == pytest.approx(0.0)
    assert rec["valid"]
    assert rec["vertex_map"] == [0, 1, 2]
    assert out.read_text() == text


def test_dist_methods_agree_at_open_thresholds(tmp_path, capsys):
    write_ag(_g1(), tmp_path / "g.ag")
    write_fdg(ag_to_fdg(_g2()), tmp_path / "f.fdg")
    records = []
    for extra in ([], ["--method", "noniter", "--tau", "1.0"],
                  ["--method", "relax-v", "--tp", "0.0"]):
        assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                     "--fdg", str(tmp_path / "f.fdg")] + extra) == 0
        records.append(parse_dist_record(capsys.readouterr().out))
    assert records[1]["distance"] == pytest.approx(records[0]["distance"])
    assert records[2]["distance"] == pytest.approx(records[0]["distance"])


def test_dist_config_twin_and_flag_priority(tmp_path, capsys):
    write_ag(_g1(), tmp_path / "g.ag")
    write_fdg(ag_to_fdg(_g2()), tmp_path / "f.fdg")
    cfg = tmp_path / "dist.cfg"
    cfg.write_text("ag=%s\nfdg=%s\nk2=5.0\n# comment\n"
                   % (tmp_path / "g.ag", tmp_path / "f.fdg"))
    assert main(["dist", "--config", str(cfg)]) == 0
    heavy = parse_dist_record(capsys.readouterr().out)
    assert main(["dist", "--config", str(cfg), "--k2", "1.0"]) == 0
    light = parse_dist_record(capsys.readouterr().out)
    assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                 "--fdg", str(tmp_path / "f.fdg"), "--k2", "1.0"]) == 0
    plain = parse_dist_record(capsys.readouterr().out)
    assert light["distance"] == pytest.approx(plain["distance"])
    assert heavy["distance"] > light["distance"]


def test_read_config_rejects_bare_words(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ValueError):
        read_config(str(cfg))


def test_classify(tmp_path, capsys):
    write_ag(_g1(), tmp_path / "a.ag")
    write_ag(_g2(), tmp_path / "b.ag")
    write_ag(_far(), tmp_path / "c.ag")
    write_ag(_g1(), tmp_path / "t.ag")
    rc = main(["classify", "--test", str(tmp_path / "t.ag"),
               "--ref", "0:%s" % (tmp_path / "a.ag"),
               "--ref", "0:%s" % (tmp_path / "b.ag"),
               "--ref", "1:%s" % (tmp_path / "c.ag"),
               "--k", "1", "--costs", "squared"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_classify_bad_ref(tmp_path, capsys):
    write_ag(_g1(), tmp_path / "t.ag")
    rc = main(["classify", "--test", str(tmp_path / "t.ag"),
               "--ref", "nolabel.ag"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["incremental", "complete"])
def test_cluster_writes_prototypes_and_manifest(tmp_path, capsys, method):
    paths = []
    for name, g in [("x.ag", _g1()), ("y.ag", _far()), ("z.ag", _g1())]:
        write_ag(g, tmp_path / name)
        paths.append(str(tmp_path / name))
    out = tmp_path / "clusters"
    rc = main(["cluster", "--ag", paths[0], "--ag", paths[1],
               "--ag", paths[2], "--method", method,
               "--dalpha", "0.5", "--out", str(out)])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text()
    assert "method %s" % method in manifest
    assert "cluster_1.fdg" in manifest and "cluster_2.fdg" in manifest
    zs = sorted(read_fdg(out / ("cluster_%d.fdg" % c)).z for c in (1, 2))
    assert zs == [1, 2]
    line = [l for l in manifest.splitlines() if "x.ag" in l]
    assert line and "z.ag" in line[0]


def test_bench_sweep(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("nFDG=2\nNT=1\nnv=4\nne=5\nNR=1,2\n"
                   "method=optimal,noniter\n")
    out = tmp_path / "results.csv"
    rc = main(["bench", "--config", str(cfg), "--seed", "3",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("correctness=") == 4
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 5
    seen = {(r[0], r[1]) for r in rows[1:]}
    assert seen == {("optimal", "1"), ("optimal", "2"),
                    ("noniter", "1"), ("noniter", "2")}


def test_bench_defaults_without_config(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["bench", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "x.fdg"],
    ["dist", "--ag", "missing.ag"],
    ["cluster", "--dalpha", "1.0"],
])
def test_missing_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", METHODS)
def test_dist_method_writes_the_dispatcher_record(tmp_path, capsys, method):
    write_ag(_g1(), tmp_path / "g.ag")
    write_fdg(ag_to_fdg(_g2()), tmp_path / "f.fdg")
    out = tmp_path / "rec.txt"
    assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                 "--fdg", str(tmp_path / "f.fdg"), "--method", method,
                 "--tau", "0.5", "--tp", "0.05", "--iters", "7",
                 "--out", str(out)]) == 0
    want = match_by_method(read_ag(tmp_path / "g.ag"),
                           read_fdg(tmp_path / "f.fdg"), CostWeights(),
                           method, tau=0.5, t_p=0.05, iterations=7)
    assert out.read_text() == format_dist_record(want)
    assert capsys.readouterr().out == format_dist_record(want)


@pytest.mark.parametrize("row, lineno", [
    (["inf 2", "# 1", "# #"], 2),
    (["nan 2", "# 1", "# #"], 2),
    (["1 2", "# 1", "-inf #"], 4),
])
def test_non_finite_attribute_is_a_parse_error(tmp_path, capsys, row,
                                               lineno):
    path = tmp_path / "bad.ag"
    path.write_text("\n".join(["2"] + row) + "\n")
    assert main(["synth", "--ag", str(path),
                 "--out", str(tmp_path / "out.fdg")]) == 2
    err = capsys.readouterr().err
    assert "%s:%d:" % (path, lineno) in err
    assert "non-finite" in err


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["synth", "cluster"])
def test_bad_bin_width_flag_exits_2(tmp_path, capsys, command, width):
    write_ag(_g1(), tmp_path / "a.ag")
    out = tmp_path / "out"
    argv = [command, "--ag", str(tmp_path / "a.ag"), "--out", str(out),
            "--bin-width=" + width]
    if command == "cluster":
        argv += ["--dalpha", "1.0"]
    assert main(argv) == 2
    assert "bin width" in capsys.readouterr().err
    assert not out.exists()


def test_dist_names_a_zero_bin_width_line(tmp_path, capsys):
    write_ag(_g1(), tmp_path / "g.ag")
    fdg = tmp_path / "f.fdg"
    write_fdg(ag_to_fdg(_g2()), fdg)
    text = fdg.read_text()
    assert "\nbin_width 1.0\n" in text
    fdg.write_text(text.replace("\nbin_width 1.0\n", "\nbin_width 0.0\n"))
    assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                 "--fdg", str(fdg)]) == 2
    err = capsys.readouterr().err
    assert "%s:4:" % fdg in err
    assert "bin_width" in err


@pytest.mark.parametrize("method", ["incremental", "complete", "single"])
def test_cluster_nan_dalpha_exits_2(tmp_path, capsys, method):
    write_ag(_g1(), tmp_path / "a.ag")
    write_ag(_g2(), tmp_path / "b.ag")
    out = tmp_path / "out"
    assert main(["cluster", "--ag", str(tmp_path / "a.ag"),
                 "--ag", str(tmp_path / "b.ag"), "--method", method,
                 "--dalpha", "nan", "--out", str(out)]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method,flag", [("noniter", "--tau"),
                                         ("relax-ev", "--tp")])
def test_dist_nan_threshold_exits_2(tmp_path, capsys, method, flag):
    # a NaN tau used to forbid nothing and run the exact search
    write_ag(_g2(), tmp_path / "g.ag")
    write_fdg(ag_to_fdg(_g1()), tmp_path / "f.fdg")
    assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                 "--fdg", str(tmp_path / "f.fdg"), "--method", method,
                 flag, "nan"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "NaN" in captured.err
    assert captured.out == ""


def test_bench_reads_weights_from_config(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("nFDG=2\nNT=1\nnv=4\nne=5\nk2=5.0\nk4=0.5\n")
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    row = dict(zip(rows[0], rows[1]))
    assert (row["K1"], row["K2"], row["K3"], row["K4"]) == \
        ("1.0", "5.0", "1.0", "0.5")


@pytest.mark.parametrize("prob", ["nan", "inf", "1e400"])
def test_non_finite_probability_exits_2_at_its_line(tmp_path, capsys, prob):
    g = _g1()
    write_ag(g, tmp_path / "g.ag")
    path = tmp_path / "bad.fdg"
    write_fdg(ag_to_fdg(g), path)
    lines = path.read_text().splitlines()
    k = lines.index("total 1") + 1
    lines[k] = lines[k].split()[0] + " " + prob
    path.write_text("\n".join(lines) + "\n")
    assert main(["dist", "--ag", str(tmp_path / "g.ag"),
                 "--fdg", str(path)]) == 2
    assert "%s:%d: bad probability" % (path, k + 1) in capsys.readouterr().err


def test_synth_labelling_of_a_missing_vertex_exits_2(tmp_path, capsys):
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    ag, lab = tmp_path / "a.ag", tmp_path / "l.txt"
    write_ag(g, ag)
    lab.write_text("1->1 2->2 5->3\n")
    out = tmp_path / "out.fdg"
    assert main(["synth", "--ag", str(ag), "--labelling", str(lab),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s names vertex 5, which %s (order 2) does not " \
        "have\n" % (lab, ag)
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("1->1 2->1", "duplicate slot 1"),
    ("1->1 2->3", "slot 3 is beyond --order 2"),
])
def test_synth_labelling_refusal_names_file_and_line(tmp_path, capsys, line,
                                                     message):
    # the blank lines are skipped, but the error names the file's own line
    g = AttributedGraph([attr(1), attr(2)], {(0, 1): attr(10)})
    ag, lab = tmp_path / "a.ag", tmp_path / "l.txt"
    write_ag(g, ag)
    lab.write_text("\n1->1 2->2\n\n%s\n" % line)
    out = tmp_path / "out.fdg"
    assert main(["synth", "--ag", str(ag), "--ag", str(ag), "--labelling",
                 str(lab), "--order", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s:4: %s\n" % (lab, message)
    assert not out.exists()


@pytest.mark.parametrize("value, rc", [("yes", 0), ("maybe", 2)])
def test_dist_reads_planar_from_config(tmp_path, capsys, value, rc):
    write_ag(_g1(), tmp_path / "g.ag")
    write_fdg(ag_to_fdg(_g2()), tmp_path / "f.fdg")
    cfg = tmp_path / "dist.cfg"
    cfg.write_text("ag=%s\nfdg=%s\nplanar=%s\n"
                   % (tmp_path / "g.ag", tmp_path / "f.fdg", value))
    assert main(["dist", "--config", str(cfg)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.err == "error: %s:3: planar: not a boolean: " \
            "'maybe'\n" % cfg
        assert captured.out == ""
    else:
        want = match_by_method(_g1(), read_fdg(tmp_path / "f.fdg"),
                               CostWeights(planar=True))
        assert captured.out == format_dist_record(want)


# Per subcommand, each setting that has a flag: the flag's arguments, its
# config value, the value both parse to, and another config value that
# the flag must win over.
_WEIGHT_TWINS = [("k%d" % i, ["--k%d" % i, "0.5"], "0.5", 0.5, "2")
                 for i in range(1, 9)] + \
    [("kpr", ["--kpr", "0.01"], "0.01", 0.01, "0.02")]
_TWINS = {
    "synth": [
        ("ag", ["--ag", "a.ag", "--ag", "b.ag"], "a.ag, b.ag",
         ["a.ag", "b.ag"], "c.ag"),
        ("labelling", ["--labelling", "l.txt"], "l.txt", "l.txt", "m.txt"),
        ("order", ["--order", "4"], "4", 4, "5"),
        ("bin_width", ["--bin-width", "2.5"], "2.5", 2.5, "3"),
        ("out", ["--out", "o.fdg"], "o.fdg", "o.fdg", "p.fdg"),
    ],
    "dist": [
        ("ag", ["--ag", "g.ag"], "g.ag", "g.ag", "h.ag"),
        ("fdg", ["--fdg", "f.fdg"], "f.fdg", "f.fdg", "e.fdg"),
        ("mode", ["--mode", "restricted"], "restricted", "restricted",
         "relaxed"),
        *_WEIGHT_TWINS,
        ("planar", ["--planar"], "yes", True, "no"),
        ("method", ["--method", "relax-ev"], "relax-ev", "relax-ev",
         "noniter"),
        ("tau", ["--tau", "0.25"], "0.25", 0.25, "0.75"),
        ("tp", ["--tp", "0.05"], "0.05", 0.05, "0.1"),
        ("iters", ["--iters", "7"], "7", 7, "8"),
        ("out", ["--out", "r.txt"], "r.txt", "r.txt", "s.txt"),
    ],
    "classify": [
        ("test", ["--test", "t.ag"], "t.ag", "t.ag", "u.ag"),
        ("ref", ["--ref", "0:a.ag", "--ref", "1:b.ag"], "0:a.ag,1:b.ag",
         ["0:a.ag", "1:b.ag"], "2:c.ag"),
        ("method", ["--method", "knn"], "knn", "knn", "knn"),
        ("k", ["--k", "3"], "3", 3, "4"),
        ("costs", ["--costs", "abs"], "abs", "abs", "squared"),
        ("planar", ["--planar"], "on", True, "off"),
    ],
    "cluster": [
        ("ag", ["--ag", "x.ag"], "x.ag", ["x.ag"], "y.ag,z.ag"),
        ("method", ["--method", "single"], "single", "single", "complete"),
        ("dalpha", ["--dalpha", "1.5"], "1.5", 1.5, "2"),
        ("out", ["--out", "dir"], "dir", "dir", "other"),
        ("bin_width", ["--bin-width", "0.5"], "0.5", 0.5, "2"),
    ],
    "bench": [
        ("seed", ["--seed", "9"], "9", 9, "10"),
        ("reps", ["--reps", "2"], "2", 2, "3"),
        ("out", ["--out", "b.csv"], "b.csv", "b.csv", "c.csv"),
    ],
}


def _settings(tmp_path, command, argv, config):
    path = tmp_path / "twin.cfg"
    path.write_text(config)
    args = _parser().parse_args([command, "--config", str(path)] + argv)
    _fill(args)
    return args


def _flag_dests(command):
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help",
                                                              "config"}


@pytest.mark.parametrize("command", sorted(_TWINS))
def test_every_flag_has_a_twin_entry(command):
    assert _flag_dests(command) == {name for name, *_ in _TWINS[command]}


@pytest.mark.parametrize("command, name, argv, raw, want, other", [
    (command,) + entry for command in _TWINS for entry in _TWINS[command]])
def test_config_twin_parses_to_the_flag_value_and_the_flag_wins(
        tmp_path, command, name, argv, raw, want, other):
    line = "%s=%s\n" % (name, raw)
    for got in (_settings(tmp_path, command, argv, ""),
                _settings(tmp_path, command, [], "# twin\n" + line),
                _settings(tmp_path, command, argv, "%s=%s\n" % (name, other))):
        value = getattr(got, name)
        assert value == want and type(value) is type(want)


# bench's config-only keys: their defaults, and a value with what it parses
# to; the sweeps are comma lists
_BENCH_KEYS = [
    *[("k%d" % i, float(i <= 3), "0.5", 0.5) for i in range(1, 9)],
    ("kpr", 1e-4, "0.01", 0.01),
    ("nFDG", 2, "3", 3), ("NT", 2, "1", 1), ("nv", 5, "6", 6),
    ("ne", 8, "9", 9), ("noise", "delete_distort", "gaussian", "gaussian"),
    ("bin_width", 1.0, "2.5", 2.5),
    ("NR", [2], "1, 3", [1, 3]), ("nd", [0], "0,1", [0, 1]),
    ("nl", [0], "1", [1]), ("sigma", [0.0], "0.5,2", [0.5, 2.0]),
    ("structural", [0], "0,2,", [0, 2]), ("tau", [1.0], "0.5", [0.5]),
    ("tp", [0.0], "0.05,0.1", [0.05, 0.1]),
    ("method", ["optimal"], "optimal,relax-v", ["optimal", "relax-v"]),
]


def _same_typed(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_typed, a, b))
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("name, default, raw, want", _BENCH_KEYS)
def test_bench_config_only_keys_parse_to_their_types(tmp_path, name,
                                                     default, raw, want):
    assert name not in _flag_dests("bench")
    assert _same_typed(getattr(_settings(tmp_path, "bench", [], ""), name),
                       default)
    got = _settings(tmp_path, "bench", [], "%s=%s\n" % (name, raw))
    assert _same_typed(getattr(got, name), want)


@pytest.mark.parametrize("command", sorted(_TWINS))
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphproto " + command)


@pytest.mark.parametrize("argv, least", [
    (["dist", "--iters", "-1"], 0),
    (["dist", "--method", "relax-v", "--iters", "-1"], 0),
    (["dist", "--iters", "2.5"], 0),
    (["bench", "--reps", "0"], 1),
    (["synth", "--order", "-1"], 0),
])
def test_a_bad_count_flag_names_the_flag(capsys, argv, least):
    # --iters -1 was refused by relax methods only, naming the library's
    # argument; --reps 0 and --order -1 failed in the library too
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(a for a in argv if a in ("--iters", "--reps", "--order"))
    value = argv[argv.index(flag) + 1]
    assert "error: argument %s: expected an integer >= %d, got %r\n" \
        % (flag, least, value) in capsys.readouterr().err


@pytest.mark.parametrize("command, line, message", [
    ("dist", "iters=-1", "iters: expected an integer >= 0, got '-1'"),
    ("bench", "reps=0", "reps: expected an integer >= 1, got '0'"),
    ("synth", "order=x", "order: expected an integer >= 0, got 'x'"),
    ("bench", "nv=2.5", "nv: invalid literal for int() with base 10: '2.5'"),
    ("bench", "NR=1,x", "NR: invalid literal for int() with base 10: 'x'"),
    ("dist", "tau=abc", "tau: could not convert string to float: 'abc'"),
    ("dist", "method=fast",
     "method: 'fast' is not one of %s" % ", ".join(METHODS)),
    ("dist", "mode=loose",
     "mode: 'loose' is not one of restricted, relaxed"),
    ("classify", "method=svm", "method: 'svm' is not one of knn"),
    ("classify", "costs=cheap",
     "costs: 'cheap' is not one of unit, squared, abs"),
    ("cluster", "method=average",
     "method: 'average' is not one of incremental, complete, single"),
    ("bench", "nv=4\nnv=5", "nv given again (first on line 2)"),
])
def test_a_bad_config_value_names_file_line_and_key(tmp_path, capsys,
                                                    command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# settings\n%s\n" % line)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(out)] * (command != "classify")) == 2
    lineno = 1 + line.count("\n") + 1
    assert capsys.readouterr() == ("", "error: %s:%d: %s\n"
                                   % (cfg, lineno, message))
    assert not out.exists()


def test_read_config_refuses_a_key_given_twice(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("a = 1\nb=2 # two\n\na=3\n")
    with pytest.raises(ParseError, match=r":4: a given again \(first on "
                       r"line 1\)$"):
        read_config(str(cfg))
    cfg.write_text("a = 1\nb=2 # two\n\nc=x=y\n")
    assert read_config(str(cfg)) == {"a": "1", "b": "2", "c": "x=y"}
