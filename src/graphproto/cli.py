"""Command line front end.

Subcommands: synth (AGs + labelling file -> FDG), dist (AG vs FDG distance
record), classify (nearest-neighbour vote over labelled reference AGs),
cluster (unsupervised prototypes, one FDG file per cluster plus a manifest),
bench (synthetic experiment sweep -> CSV).

Every flag has a config twin: `--config FILE` names a flat key=value text
file whose keys are the long flag names (dashes become underscores); a flag
given on the command line wins over its config value.  List-valued twins
(input files, bench sweeps) separate items with commas.
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
from .fileio import (ParseError, format_dist_record, read_ag, read_fdg,
                     read_labelling, write_fdg)
from .harness import (CSV_COLUMNS, GeneratorConfig, csv_row, run_experiment)
from .synthesis import CommonLabelling, synth_from_labelled_ags

_WEIGHT_FLAGS = [("k1", 1.0), ("k2", 1.0), ("k3", 1.0), ("k4", 0.0),
                 ("k5", 0.0), ("k6", 0.0), ("k7", 0.0), ("k8", 0.0)]


def read_config(path):
    """Flat key=value pairs; `#` starts a comment, blank lines are skipped."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, lineno, "expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _bool(raw):
    if isinstance(raw, bool):
        return raw
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % (raw,))


def _strings(raw):
    if isinstance(raw, str):
        return [t for t in (s.strip() for s in raw.split(",")) if t]
    return list(raw)


def _fill(args, spec):
    """Resolve each field: command line first, config twin second, default
    last.  spec rows are (name, converter, default)."""
    cfg = read_config(args.config) if args.config else {}
    for name, conv, default in spec:
        if getattr(args, name, None) is not None:
            continue
        raw = cfg.get(name)
        setattr(args, name, default if raw is None else conv(raw))


def _weights(args, mode="relaxed", planar=False):
    ks = {name.upper(): getattr(args, name) for name, _ in _WEIGHT_FLAGS}
    return CostWeights(K_pr=args.kpr, planar=planar, mode=mode, **ks)


def _add_weight_flags(sub):
    for name, _ in _WEIGHT_FLAGS:
        sub.add_argument("--" + name, type=float, metavar="W")
    sub.add_argument("--kpr", type=float, metavar="P")


_WEIGHT_SPEC = [(name, float, default) for name, default in _WEIGHT_FLAGS] \
    + [("kpr", float, 1e-4)]


def cmd_synth(args):
    _fill(args, [("ag", _strings, []), ("labelling", str, ""),
                 ("order", int, 0), ("bin_width", float, 1.0),
                 ("out", str, "")])
    if not args.ag:
        raise ValueError("synth needs at least one --ag file")
    if not args.out:
        raise ValueError("synth needs --out")
    ags = [read_ag(path) for path in args.ag]
    if args.labelling:
        entries = read_labelling(args.labelling)
        if len(entries) != len(ags):
            raise ValueError("%d labelling lines for %d graphs"
                             % (len(entries), len(ags)))
        maps = [[entry.get(v) for v in range(g.order)]
                for g, entry in zip(ags, entries)]
        slots = [t for m in maps for t in m if t is not None]
        n = args.order or (max(slots) + 1 if slots else 0)
        labelling = CommonLabelling(maps, n)
    else:
        orders = [g.order for g in ags]
        labelling = CommonLabelling.identity(orders, args.order or None)
    fdg = synth_from_labelled_ags(ags, labelling, args.bin_width)
    write_fdg(fdg, args.out)
    print("wrote %s (order %d, z=%d)" % (args.out, fdg.order, fdg.z))
    return 0


def cmd_dist(args):
    _fill(args, [("ag", str, ""), ("fdg", str, ""),
                 ("mode", str, "relaxed"), ("planar", _bool, False),
                 ("method", str, "optimal"), ("tau", float, 1.0),
                 ("tp", float, 0.0), ("iters", int, 20),
                 ("out", str, "")] + _WEIGHT_SPEC)
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


def _preset(name):
    if name == "unit":
        return EditCosts()
    if name == "squared":
        return squared_threshold()
    if name == "abs":
        return abs_threshold()
    raise ValueError("unknown preset %r (unit, squared, abs)" % (name,))


def cmd_classify(args):
    _fill(args, [("test", str, ""), ("ref", _strings, []),
                 ("method", str, "knn"), ("k", int, 5),
                 ("costs", str, "unit"), ("planar", _bool, False)])
    if args.method != "knn":
        raise ValueError("unknown method %r" % (args.method,))
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
    label = knn_classify(test, refs, k=args.k, costs=_preset(args.costs),
                         planar=args.planar)
    print(label)
    return 0


def cmd_cluster(args):
    _fill(args, [("ag", _strings, []), ("method", str, "incremental"),
                 ("dalpha", float, None), ("out", str, ""),
                 ("bin_width", float, 1.0)])
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
    elif args.method in ("complete", "single"):
        fdgs, members = hierarchical_clustering(
            ags, args.dalpha, linkage=args.method,
            bin_width=args.bin_width, return_assignments=True)
    else:
        raise ValueError("unknown method %r" % (args.method,))
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


_SWEEPABLE = ["NR", "nd", "nl", "sigma", "structural", "tau", "tp", "method"]


def _sweep_values(cfg, key, conv, default):
    raw = cfg.get(key)
    if raw is None:
        return [default]
    return [conv(tok) for tok in _strings(raw)]


def cmd_bench(args):
    _fill(args, [("seed", int, 0), ("reps", int, 1),
                 ("out", str, "results.csv")] + _WEIGHT_SPEC)
    cfg = read_config(args.config) if args.config else {}
    base = {"nFDG": int(cfg.get("nFDG", 2)), "NT": int(cfg.get("NT", 2)),
            "nv": int(cfg.get("nv", 5)), "ne": int(cfg.get("ne", 8))}
    noise = cfg.get("noise", "delete_distort")
    weights = _weights(args)
    grid = [
        _sweep_values(cfg, "NR", int, 2),
        _sweep_values(cfg, "nd", int, 0),
        _sweep_values(cfg, "nl", int, 0),
        _sweep_values(cfg, "sigma", float, 0.0),
        _sweep_values(cfg, "structural", int, 0),
        _sweep_values(cfg, "tau", float, 1.0),
        _sweep_values(cfg, "tp", float, 0.0),
        _sweep_values(cfg, "method", str, "optimal"),
    ]
    rows = []
    for NR, nd, nl, sigma, structural, tau, tp, method in \
            itertools.product(*grid):
        gen = GeneratorConfig(nFDG=base["nFDG"], NT=base["NT"], NR=NR,
                              nv=base["nv"], ne=base["ne"], nd=nd, nl=nl,
                              seed=args.seed)
        rep = run_experiment(gen, weights, method=method,
                             repetitions=args.reps, noise=noise,
                             sigma=sigma, structural=structural,
                             tau=tau, t_p=tp,
                             bin_width=float(cfg.get("bin_width", 1.0)))
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


def _parser():
    top = argparse.ArgumentParser(
        prog="graphproto",
        description="Learn probabilistic graph prototypes and match "
                    "attributed graphs against them.")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="build an FDG from AG files")
    p.add_argument("--ag", action="append", metavar="FILE")
    p.add_argument("--labelling", metavar="FILE")
    p.add_argument("--order", type=int, metavar="N")
    p.add_argument("--bin-width", dest="bin_width", type=float, metavar="W")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--config", metavar="FILE")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("dist", help="distance from an AG to an FDG")
    p.add_argument("--ag", metavar="FILE")
    p.add_argument("--fdg", metavar="FILE")
    p.add_argument("--mode", choices=["restricted", "relaxed"])
    _add_weight_flags(p)
    p.add_argument("--planar", action="store_const", const=True)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--tau", type=float)
    p.add_argument("--tp", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--config", metavar="FILE")
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("classify",
                        help="nearest-neighbour vote over labelled AGs")
    p.add_argument("--test", metavar="FILE")
    p.add_argument("--ref", action="append", metavar="CLASS:FILE")
    p.add_argument("--method", choices=["knn"])
    p.add_argument("--k", type=int, metavar="N")
    p.add_argument("--costs", choices=["unit", "squared", "abs"])
    p.add_argument("--planar", action="store_const", const=True)
    p.add_argument("--config", metavar="FILE")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("cluster", help="group AGs into FDG prototypes")
    p.add_argument("--ag", action="append", metavar="FILE")
    p.add_argument("--method",
                   choices=["incremental", "complete", "single"])
    p.add_argument("--dalpha", type=float, metavar="X")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--bin-width", dest="bin_width", type=float, metavar="W")
    p.add_argument("--config", metavar="FILE")
    p.set_defaults(func=cmd_cluster)

    p = subs.add_parser("bench", help="synthetic recognition experiment")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--reps", type=int, metavar="R")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
