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
- a bad bin width (flag or FDG file line) and a NaN --dalpha exit with
  status 2 before any output is written
"""

import csv

import pytest

from graphproto.cli import main, read_config
from graphproto.core import AttributedGraph, CostWeights, attr
from graphproto.efficient import METHODS, match_by_method
from graphproto.fileio import (format_dist_record, parse_dist_record,
                               read_ag, read_fdg, write_ag, write_labelling)
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
