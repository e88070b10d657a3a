"""Command line front end.

Subcommands: synth (AGs + labelling file -> FDG), dist (AG vs FDG distance
record), classify (nearest-neighbour vote over labelled reference AGs),
cluster (unsupervised prototypes, one FDG file per cluster plus a manifest),
bench (synthetic experiment sweep -> CSV).

_COMMANDS declares each subcommand's settings once: name, converter of the
config value, default and flag keywords.  The parser is built from it, and
_fill takes each setting from its flag, else its config twin, else its
default.  `--config FILE` names a flat key=value text file whose keys are
the settings' names (the long flag names, dashes become underscores), each
given once.  List-valued twins (input files, bench sweeps) separate items
with commas.  A bad config value is a ParseError naming file, line and key.
"""

import argparse
import csv
import itertools
import os
import sys

from .baseline import EditCosts, abs_threshold, knn_classify, squared_threshold
from .clustering import hierarchical_clustering, incremental_clustering
from .core import CostWeights
from .efficient import METHODS, match_by_method
from .fileio import (ParseError, _read_labelling, format_dist_record,
                     read_ag, read_fdg, write_fdg)
from .harness import (CSV_COLUMNS, GeneratorConfig, csv_row, run_experiment)
from .synthesis import CommonLabelling, synth_from_labelled_ags


def _read_config(path):
    """{key: (line number, value)} of a config file."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, lineno, "expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in out:
                raise ParseError(path, lineno, "%s given again (first on "
                                 "line %d)" % (key, out[key][0]))
            out[key] = (lineno, val)
    return out


def read_config(path):
    """Flat key=value pairs; `#` starts a comment, blank lines are skipped,
    and a line without `=` or a key given twice is a ParseError."""
    return {key: val for key, (_, val) in _read_config(path).items()}


def _bool(raw):
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % (raw,))


def _list(conv):
    """Converter of a comma-separated list; empty items are skipped."""
    return lambda raw: [conv(t) for t in (s.strip() for s in raw.split(","))
                        if t]


def _count(least):
    """Converter of an integer setting >= least, for flag and config."""
    def count(raw):
        try:
            if int(raw) >= least:
                return int(raw)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected an integer >= %d, got %r"
                                         % (least, raw))
    return count


def _fill(args):
    """Resolve each setting of the subcommand from its flag, its config twin
    or its default, in that order."""
    cfg = _read_config(args.config) if args.config else {}
    for name, conv, default, flag in _COMMANDS[args.command][2]:
        if getattr(args, name, None) is not None:
            continue
        if name not in cfg:
            setattr(args, name, default)
            continue
        lineno, raw = cfg[name]
        choices = (flag or {}).get("choices")
        try:
            value = conv(raw)
            if choices and value not in choices:
                raise ValueError("%r is not one of %s"
                                 % (value, ", ".join(choices)))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(args.config, lineno, "%s: %s" % (name, exc))
        setattr(args, name, value)


def _weights(args, mode="relaxed", planar=False):
    ks = {name.upper(): getattr(args, name) for name, *_ in _WEIGHTS[:-1]}
    return CostWeights(K_pr=args.kpr, planar=planar, mode=mode, **ks)


def cmd_synth(args):
    if not args.ag:
        raise ValueError("synth needs at least one --ag file")
    if not args.out:
        raise ValueError("synth needs --out")
    ags = [read_ag(path) for path in args.ag]
    if args.labelling:
        entries = _read_labelling(args.labelling)
        if len(entries) != len(ags):
            raise ValueError("%d labelling lines for %d graphs"
                             % (len(entries), len(ags)))
        maps = []
        for path, g, (_, entry) in zip(args.ag, ags, entries):
            if entry and max(entry) >= g.order:
                raise ValueError("%s names vertex %d, which %s (order %d) "
                                 "does not have" % (args.labelling,
                                                    max(entry) + 1, path,
                                                    g.order))
            maps.append([entry.get(v) for v in range(g.order)])
        tops = [max((t for t in m if t is not None), default=-1)
                for m in maps]
        n = args.order or max(tops, default=-1) + 1
        for (lineno, _), top in zip(entries, tops):
            if top >= n:
                raise ParseError(args.labelling, lineno,
                                 "slot %d is beyond --order %d"
                                 % (top + 1, n))
        labelling = CommonLabelling(maps, n)
    else:
        orders = [g.order for g in ags]
        labelling = CommonLabelling.identity(orders, args.order or None)
    fdg = synth_from_labelled_ags(ags, labelling, args.bin_width)
    write_fdg(fdg, args.out)
    print("wrote %s (order %d, z=%d)" % (args.out, fdg.order, fdg.z))
    return 0


def cmd_dist(args):
    if not args.ag or not args.fdg:
        raise ValueError("dist needs --ag and --fdg")
    g = read_ag(args.ag)
    f = read_fdg(args.fdg)
    w = _weights(args, mode=args.mode, planar=args.planar)
    res = match_by_method(g, f, w, args.method, args.tau, args.tp, args.iters)
    record = format_dist_record(res)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(record)
    sys.stdout.write(record)
    return 0


_PRESETS = {"unit": EditCosts, "squared": squared_threshold,
            "abs": abs_threshold}


def cmd_classify(args):
    if not args.test:
        raise ValueError("classify needs --test")
    if not args.ref:
        raise ValueError("classify needs at least one --ref CLASS:FILE")
    refs = []
    for item in args.ref:
        label, sep, path = item.partition(":")
        if not sep or not label.lstrip("-").isdigit():
            raise ValueError("--ref wants CLASS:FILE, got %r" % (item,))
        refs.append((read_ag(path), int(label)))
    test = read_ag(args.test)
    label = knn_classify(test, refs, k=args.k, costs=_PRESETS[args.costs](),
                         planar=args.planar)
    print(label)
    return 0


def cmd_cluster(args):
    if not args.ag:
        raise ValueError("cluster needs at least one --ag file")
    if args.dalpha is None:
        raise ValueError("cluster needs --dalpha")
    if not args.out:
        raise ValueError("cluster needs --out DIR")
    ags = [read_ag(path) for path in args.ag]
    if args.method == "incremental":
        fdgs, members = incremental_clustering(
            ags, args.dalpha, bin_width=args.bin_width,
            return_assignments=True)
    else:
        fdgs, members = hierarchical_clustering(
            ags, args.dalpha, linkage=args.method,
            bin_width=args.bin_width, return_assignments=True)
    os.makedirs(args.out, exist_ok=True)
    manifest = ["method %s" % args.method, "dalpha %r" % args.dalpha,
                "inputs %d clusters %d" % (len(ags), len(fdgs))]
    for c, fdg in enumerate(fdgs):
        name = "cluster_%d.fdg" % (c + 1)
        write_fdg(fdg, os.path.join(args.out, name))
        files = " ".join(args.ag[i] for i in sorted(members[c]))
        manifest.append("%s: %s" % (name, files))
    with open(os.path.join(args.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    print("wrote %d clusters to %s" % (len(fdgs), args.out))
    return 0


def cmd_bench(args):
    weights = _weights(args)
    rows = []
    for NR, nd, nl, sigma, structural, tau, tp, method in itertools.product(
            args.NR, args.nd, args.nl, args.sigma, args.structural, args.tau,
            args.tp, args.method):
        gen = GeneratorConfig(nFDG=args.nFDG, NT=args.NT, NR=NR, nv=args.nv,
                              ne=args.ne, nd=nd, nl=nl, seed=args.seed)
        rep = run_experiment(gen, weights, method=method,
                             repetitions=args.reps, noise=args.noise,
                             sigma=sigma, structural=structural,
                             tau=tau, t_p=tp, bin_width=args.bin_width)
        rows.append(rep)
        print("method=%s NR=%d sigma=%g structural=%d correctness=%.3f "
              "nodes=%.1f ms=%.2f"
              % (method, NR, sigma, structural, rep.correctness,
                 rep.mean_nodes, rep.mean_ms))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in rows:
            writer.writerow(csv_row(rep))
    print("%d parameter points, %d repetitions each -> %s"
          % (len(rows), args.reps, args.out))
    return 0


# A setting: (name, converter of its config value, default, keywords of its
# flag --name, dashes for underscores, or None for a config-only setting).
# The flag's type is the converter, unless that is str or there is an action.
_FILE, _N, _W = {"metavar": "FILE"}, {"metavar": "N"}, {"metavar": "W"}
_FILES = {"action": "append", "metavar": "FILE"}
_SWITCH = {"action": "store_const", "const": True}
_WEIGHTS = [("k%d" % i, float, 1.0 if i <= 3 else 0.0, _W)
            for i in range(1, 9)] + [("kpr", float, 1e-4, {"metavar": "P"})]

_COMMANDS = {
    "synth": ("build an FDG from AG files", cmd_synth, [
        ("ag", _list(str), [], _FILES), ("labelling", str, "", _FILE),
        ("order", _count(0), 0, _N), ("bin_width", float, 1.0, _W),
        ("out", str, "", _FILE)]),
    "dist": ("distance from an AG to an FDG", cmd_dist, [
        ("ag", str, "", _FILE), ("fdg", str, "", _FILE),
        ("mode", str, "relaxed", {"choices": ["restricted", "relaxed"]}),
        *_WEIGHTS, ("planar", _bool, False, _SWITCH),
        ("method", str, "optimal", {"choices": METHODS}),
        ("tau", float, 1.0, {}), ("tp", float, 0.0, {}),
        ("iters", _count(0), 20, {}), ("out", str, "", _FILE)]),
    "classify": ("nearest-neighbour vote over labelled AGs", cmd_classify, [
        ("test", str, "", _FILE),
        ("ref", _list(str), [], {"action": "append", "metavar": "CLASS:FILE"}),
        ("method", str, "knn", {"choices": ["knn"]}), ("k", int, 5, _N),
        ("costs", str, "unit", {"choices": list(_PRESETS)}),
        ("planar", _bool, False, _SWITCH)]),
    "cluster": ("group AGs into FDG prototypes", cmd_cluster, [
        ("ag", _list(str), [], _FILES),
        ("method", str, "incremental",
         {"choices": ["incremental", "complete", "single"]}),
        ("dalpha", float, None, {"metavar": "X"}),
        ("out", str, "", {"metavar": "DIR"}), ("bin_width", float, 1.0, _W)]),
    "bench": ("synthetic recognition experiment", cmd_bench, [
        ("seed", int, 0, _N), ("reps", _count(1), 1, {"metavar": "R"}),
        ("out", str, "results.csv", _FILE),
        *[(name, conv, default, None) for name, conv, default, _ in _WEIGHTS],
        ("nFDG", int, 2, None), ("NT", int, 2, None), ("nv", int, 5, None),
        ("ne", int, 8, None), ("noise", str, "delete_distort", None),
        ("bin_width", float, 1.0, None),
        # the sweeps: one CSV row per point of their product
        ("NR", _list(int), [2], None), ("nd", _list(int), [0], None),
        ("nl", _list(int), [0], None), ("sigma", _list(float), [0.0], None),
        ("structural", _list(int), [0], None),
        ("tau", _list(float), [1.0], None), ("tp", _list(float), [0.0], None),
        ("method", _list(str), ["optimal"], None)]),
}


def _parser():
    top = argparse.ArgumentParser(
        prog="graphproto",
        description="Learn probabilistic graph prototypes and match "
                    "attributed graphs against them.")
    subs = top.add_subparsers(dest="command", required=True)
    for command, (text, func, settings) in _COMMANDS.items():
        p = subs.add_parser(command, help=text)
        for name, conv, _, flag in settings:
            if flag is None:
                continue
            kw = dict(flag)
            if conv is not str and "action" not in kw:
                kw["type"] = conv
            p.add_argument("--" + name.replace("_", "-"), dest=name, **kw)
        p.add_argument("--config", metavar="FILE")
        p.set_defaults(func=func)
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _fill(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
