"""Benchmark of graphproto through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload exact-classify --seed 0 --seconds 25 --trace 0

Workloads: exact-classify, filtered-classify and cluster (see README.md in
this directory).  One process drives the library with one closed-loop
caller: each operation starts when the previous one has returned.  Inputs are
generated from --seed and written as AG files before timing starts.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run, whose spans are recorded here, around the calls
into each module, and written to .perfbench-out/ when the run ends.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the provenance and
the details of the run.
"""

import os

# one thread per numeric library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

try:
    import graphproto as gp  # noqa: E402
except ImportError as exc:
    sys.exit("perfbench: cannot import graphproto from %s: %s" % (SRC, exc))
if not Path(gp.__file__).resolve().is_relative_to(SRC):
    sys.exit("perfbench: graphproto comes from %s, not from %s"
             % (gp.__file__, SRC))

CLASSES = 3
TOLERANCE = 1e-9
IMPORTS_PER_ROUND = 4
# one set-up round before timing and the others spread over the measured
# window, so the median is not taken from one short stretch of time
SETUP_ROUNDS = 4
# end-to-end times are scaled to a host on which reference_seconds() reads
# this; see reference_seconds
REFERENCE_S = 0.002
# per mille; op_ms_tail is the highest of these with ten samples beyond it
TAIL_PER_MILLE = (999, 990, 900, 500)
REFERENCE_FILE = HERE / "exact_classify_reference.json"

# counts per run; every test AG and every batch is distinct, so one run
# averages over many generated problems and its figures vary little by seed
WORKLOADS = {
    "exact-classify": {
        "method": "optimal", "tau": 1.0, "problems": 70, "refs": 6,
        "tests": 1, "nv": 7, "ne": 17, "nd": 2, "nl": 1},
    "filtered-classify": {
        "method": "noniter", "tau": 0.5, "problems": 12, "refs": 10,
        "tests": 14, "nv": 14, "ne": 42, "nd": 2, "nl": 1},
    "cluster": {
        "batches": 80, "per_class": 2, "nv": 6, "ne": 14, "nd": 1, "nl": 1,
        "d_alpha": 12.0},
}

END_TO_END = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
    "accuracy": "fraction", "success_rate": "fraction", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "matching.compare_ms": "ms", "matching.tables_ms": "ms",
    "matching.search_self_ms": "ms", "matching.nodes_per_compare": "count",
    "matching.leaves_per_compare": "count", "matching.us_per_node": "us",
    "matching.loser_share": "fraction",
    "efficient.forbid_ms": "ms", "efficient.allowed_frac": "fraction",
    "baseline.edit_distance_ms": "ms", "baseline.pairs": "count",
    "clustering.match_ms": "ms", "clustering.update_ms": "ms",
    "clustering.incremental_ms": "ms", "clustering.hierarchical_ms": "ms",
    "synthesis.synth_ms": "ms",
    "fileio.read_ag_ms": "ms", "fileio.write_fdg_ms": "ms",
    "fileio.read_fdg_ms": "ms", "fileio.fdg_bytes": "bytes",
    "fileio.fdg_mb_per_s": "MB/s",
    "share.search": "fraction", "share.tables": "fraction",
    "share.filter": "fraction", "share.edit_distance": "fraction",
    "trace.untraced_op_ms": "ms", "trace.traced_op_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and the id of
    the operation they belong to.  Disabled, it records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        """Yield the span's record; callers may add counts to it."""
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def reference_seconds():
    """Time of a fixed job that does not touch graphproto: dict and float
    work in pure Python plus small numpy reductions, the mix the library
    spends its time in.

    On a shared host the speed of the CPU drifts, by up to a factor of two
    from one minute to the next.  The job is timed next to every op and
    every set-up sample, and their times are scaled by REFERENCE_S over the
    job's time, so runs of the same code agree and a change to the program
    still shows in full.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0.0) + math.log(i + 1.0)
    a = np.arange(64.0).reshape(8, 8)
    keep = a > 20
    for _ in range(150):
        np.min(a, axis=1, where=keep, initial=math.inf).sum()
    return time.perf_counter() - start


def _duration(rec):
    return rec["end"] - rec["start"]


def _distance(res):
    return res.distance if res.valid else math.inf


# ---------------------------------------------------------------- inputs

def _draw(rng):
    return int(rng.integers(2 ** 31))


def _models(rng, sizes):
    return gp.generate_models(gp.GeneratorConfig(
        nFDG=CLASSES, nv=sizes["nv"], ne=sizes["ne"], seed=_draw(rng)))


def _noisy(model, rng, sizes):
    return gp.perturb(model, "delete_distort", _draw(rng),
                      nd=sizes["nd"], nl=sizes["nl"])


def generate(workload, seed, sizes, directory):
    """Write the workload's input AG files under `directory` and return
    their index; a pure function of (workload, seed, sizes)."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "cluster":
        return _generate_cluster(rng, sizes, directory)
    return _generate_classify(rng, sizes, directory)


def _generate_classify(rng, sizes, directory):
    problems = []
    tests = []
    for p in range(sizes["problems"]):
        models = _models(rng, sizes)
        refs = []
        for c, model in enumerate(models):
            paths = []
            for r in range(sizes["refs"]):
                path = directory / ("p%02d-c%d-ref%02d.ag" % (p, c, r))
                gp.write_ag(_noisy(model, rng, sizes), path)
                paths.append(path)
            refs.append(paths)
        problems.append(refs)
        for c, model in enumerate(models):
            for t in range(sizes["tests"]):
                path = directory / ("p%02d-c%d-test%02d.ag" % (p, c, t))
                gp.write_ag(gp.compact_ag(_noisy(model, rng, sizes)), path)
                tests.append({"index": len(tests), "problem": p,
                              "label": c, "path": path})
    order = [int(k) for k in rng.permutation(len(tests))]
    return {"problems": problems, "items": [tests[k] for k in order]}


def _generate_cluster(rng, sizes, directory):
    batches = []
    for b in range(sizes["batches"]):
        models = _models(rng, sizes)
        ags = [(c, gp.compact_ag(_noisy(model, rng, sizes)))
               for c, model in enumerate(models)
               for _ in range(sizes["per_class"])]
        paths = []
        labels = []
        for k, idx in enumerate(rng.permutation(len(ags))):
            c, g = ags[int(idx)]
            path = directory / ("b%02d-ag%02d.ag" % (b, k))
            gp.write_ag(g, path)
            paths.append(path)
            labels.append(c)
        batches.append({"index": b, "paths": paths, "labels": labels})
    return {"items": batches}


# ------------------------------------------------------------- workloads

_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
import graphproto
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import run
ref = sorted(run.reference_seconds() for _ in range(3))[1]
print(elapsed * run.REFERENCE_S / ref)
"""

class Classify:
    """One op reads a test AG file and calls fdg_classify against the
    prototypes of its problem, which set-up synthesised and round-tripped
    through FDG files."""

    def __init__(self, name, seed, sizes, inputs, workdir, tracer):
        self.sizes = sizes
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.reference = _load_reference(name, seed, sizes)
        self.seen = {}

    def setup(self):
        """Build every problem's prototypes; returns the set-up seconds of
        each problem, scaled to the reference host."""
        times = []
        self.prototypes = []
        ref = reference_seconds()
        for p, refs in enumerate(self.inputs["problems"]):
            start = time.perf_counter()
            self.prototypes.append(self._prototypes(p, refs))
            elapsed = time.perf_counter() - start
            after = reference_seconds()
            times.append(elapsed * REFERENCE_S / (0.5 * (ref + after)))
            ref = after
        return times

    def _prototypes(self, p, refs):
        tr = self.tracer
        out = []
        for c, paths in enumerate(refs):
            ags = []
            for path in paths:
                with tr.span("fileio.read_ag"):
                    ags.append(gp.read_ag(path))
            with tr.span("synthesis.synth_from_labelled_ags"):
                f = gp.synth_from_labelled_ags(
                    ags, gp.CommonLabelling.identity([g.order for g in ags]))
            path = self.workdir / ("p%02d-c%d.fdg" % (p, c))
            with tr.span("fileio.write_fdg") as rec:
                gp.write_fdg(f, path)
            rec["bytes"] = path.stat().st_size
            with tr.span("fileio.read_fdg"):
                out.append(gp.read_fdg(path))
        return out

    def op(self, item):
        with self.tracer.span("fileio.read_ag"):
            g = gp.read_ag(item["path"])
        with self.tracer.span("harness.fdg_classify"):
            winner, d = gp.fdg_classify(
                g, self.prototypes[item["problem"]],
                method=self.sizes["method"], tau=self.sizes["tau"])
        return {"g": g, "winner": winner, "distance": d}

    def failed(self, item, out):
        return not (math.isfinite(out["distance"])
                    and 0 <= out["winner"] < CLASSES)

    def check(self, item, out):
        """Problems with the op's output: a result that differs from an
        earlier op on the same input, or from the committed reference."""
        got = (out["winner"], out["distance"])
        errors = []
        earlier = self.seen.setdefault(item["index"], got)
        if earlier != got:
            errors.append("test %d gave %r, earlier %r"
                          % (item["index"], got, earlier))
        if self.reference is not None:
            want = self.reference[item["index"]]
            if got[0] != want[0] or abs(got[1] - want[1]) > TOLERANCE:
                errors.append("test %d gave %r, reference %r"
                              % (item["index"], got, tuple(want)))
        return errors

    def replay(self, item, out):
        """Classify the same AG again through the layers fdg_classify
        calls, one span per call; it must pick the same winner."""
        tr = self.tracer
        g = out["g"]
        best, best_d = 0, math.inf
        for i, f in enumerate(self.prototypes[item["problem"]]):
            with tr.span("matching.labelling_cost") as tables:
                gp.labelling_cost(g, f, [None] * g.order)
            allowed = None
            if self.sizes["method"] == "noniter":
                with tr.span("efficient.forbid_matrix") as rec:
                    allowed = ~gp.forbid_matrix(g, f, self.sizes["tau"])
                rec["kept"] = float(allowed.mean())
            with tr.span("matching.bnb_distance") as rec:
                res = gp.bnb_distance(g, f, allowed=allowed)
            rec.update(tables=_duration(tables), query=0,
                       nodes=res.explored_nodes, leaves=res.leaves,
                       distance=_distance(res))
            if _distance(res) < best_d:
                best, best_d = i, _distance(res)
        if best != out["winner"] or abs(best_d - out["distance"]) > TOLERANCE:
            return ["replay of test %d gave %r, fdg_classify %r"
                    % (item["index"], (best, best_d),
                       (out["winner"], out["distance"]))]
        return []

    def score(self, item, out):
        """(test AGs assigned to their generating class, test AGs)"""
        return int(out["winner"] == item["label"]), 1


class Cluster:
    """One op reads a batch of AG files, learns it without labels by
    incremental and by hierarchical clustering, and writes every prototype
    with write_fdg and reads it back."""

    def __init__(self, name, seed, sizes, inputs, workdir, tracer):
        self.sizes = sizes
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.calls = []

    def setup(self):
        """The only one-off cost of this workload is loading the package:
        seconds to import graphproto, each time in a fresh interpreter and
        scaled by the reference job timed in that interpreter."""
        if self.tracer.enabled:
            return []
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(IMPORTS_PER_ROUND):
            res = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(HERE)], env=env,
                cwd=ROOT, capture_output=True, text=True, timeout=60,
                check=True)
            times.append(float(res.stdout))
        return times

    def op(self, item):
        tr = self.tracer
        d_alpha = self.sizes["d_alpha"]
        matcher = ag_distance = None
        if tr.enabled:
            matcher, ag_distance = self._matcher(), self._ag_distance()
        ags = []
        for path in item["paths"]:
            with tr.span("fileio.read_ag"):
                ags.append(gp.read_ag(path))
        with tr.span("clustering.incremental_clustering"):
            inc, inc_members = gp.incremental_clustering(
                ags, d_alpha, matcher=matcher, return_assignments=True)
        with tr.span("clustering.hierarchical_clustering"):
            hier, hier_members = gp.hierarchical_clustering(
                ags, d_alpha, linkage="complete", ag_distance=ag_distance,
                return_assignments=True)
        written = []
        for k, f in enumerate(inc + hier):
            path = self.workdir / ("proto%02d.fdg" % k)
            with tr.span("fileio.write_fdg") as rec:
                gp.write_fdg(f, path)
            rec["bytes"] = path.stat().st_size
            with tr.span("fileio.read_fdg"):
                written.append((path, gp.read_fdg(path)))
        return {"members": (inc_members, hier_members), "written": written}

    def _matcher(self):
        tr = self.tracer
        queries = {}

        def matcher(g, f, w):
            with tr.span("matching.bnb_distance") as rec:
                res = gp.bnb_distance(g, f, w)
            rec.update(query=queries.setdefault(id(g), len(queries)),
                       nodes=res.explored_nodes, leaves=res.leaves,
                       distance=_distance(res))
            self.calls.append((rec, g, f, w))
            return res

        return matcher

    def _ag_distance(self):
        tr = self.tracer

        def ag_distance(g1, g2):
            with tr.span("baseline.edit_distance"):
                return gp.edit_distance(g1, g2)

        return ag_distance

    def failed(self, item, out):
        return False

    def check(self, item, out):
        """Each learner's clusters partition the batch, and every prototype
        written again after read_fdg gives the same bytes."""
        errors = []
        everyone = set(range(len(item["paths"])))
        for learner, members in zip(("incremental", "hierarchical"),
                                    out["members"]):
            if (sum(len(m) for m in members) != len(everyone)
                    or set().union(*members) != everyone):
                errors.append("batch %d: %s clusters %r are no partition"
                              % (item["index"], learner, members))
        again = self.workdir / "again.fdg"
        for path, back in out["written"]:
            gp.write_fdg(back, again)
            if again.read_bytes() != path.read_bytes():
                errors.append("batch %d: %s changed in a write/read round "
                              "trip" % (item["index"], path.name))
        return errors

    def replay(self, item, out):
        """Build the cost tables of every pair the matcher saw, cold, so
        search time can be told from table time."""
        for rec, g, f, w in self.calls:
            with self.tracer.span("matching.labelling_cost") as tables:
                gp.labelling_cost(g, f, [None] * g.order, w)
            rec["tables"] = _duration(tables)
        self.calls = []
        return []

    def score(self, item, out):
        """(AGs whose cluster is exactly their generating class, AGs),
        summed over both learners."""
        labels = item["labels"]
        hit = 0
        for members in out["members"]:
            for m in members:
                if m == {k for k, c in enumerate(labels)
                         if c == labels[min(m)]}:
                    hit += len(m)
        return hit, 2 * len(labels)


def _load_reference(name, seed, sizes):
    """(winner, distance) per test index, when the committed reference
    covers this workload, seed and sizes; None otherwise."""
    if name != "exact-classify" or not REFERENCE_FILE.is_file():
        return None
    ref = json.loads(REFERENCE_FILE.read_text())
    if ref["sizes"] != sizes:
        return None
    return ref["seeds"].get(str(seed))


# --------------------------------------------------------------- metrics

def tail(samples):
    """The highest of p99.9, p99, p90 and p50 with at least ten samples
    beyond it (nearest rank), as (value, percentile); the maximum, as
    percentile 100, when even p50 has fewer than ten beyond it."""
    s = sorted(samples)
    n = len(s)
    for pm in TAIL_PER_MILLE:
        rank = -(-pm * n // 1000)
        if n - rank >= 10:
            return s[rank - 1], pm / 10
    return s[-1], 100


def layer_metrics(spans, pairs):
    """Per-layer metrics from the spans of a traced run; pairs holds the
    untraced time and the traced op span of each input run both ways."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    traced_ops = [rec for _, rec in pairs]
    ops = len(traced_ops)

    def mean_ms(name):
        recs = by[name]
        return 1e3 * statistics.fmean(map(_duration, recs)) if recs else 0.0

    def total(name):
        return sum(map(_duration, by[name]))

    bnb = by["matching.bnb_distance"]
    compare = [_duration(s) for s in bnb]
    tables = [s.get("tables", 0.0) for s in bnb]
    search = [c - t for c, t in zip(compare, tables)]
    nodes = sum(s["nodes"] for s in bnb)
    # calls for one query AG, in call order; the nearest prototype wins and
    # a tie goes to the earlier call, as in fdg_classify
    groups = defaultdict(list)
    for s, t in zip(bnb, search):
        groups[(s["op"], s["query"])].append((s["distance"], t))
    loser = 0.0
    for calls in groups.values():
        win = min(range(len(calls)), key=lambda k: (calls[k][0], k))
        loser += sum(t for k, (_, t) in enumerate(calls) if k != win)
    op_total = sum(map(_duration, traced_ops))
    edit = total("baseline.edit_distance")
    forbid = by["efficient.forbid_matrix"]
    fdg_bytes = [s["bytes"] for s in by["fileio.write_fdg"]]
    fdg_io = total("fileio.write_fdg") + total("fileio.read_fdg")
    traced_ms = [1e3 * _duration(rec) for rec in traced_ops]
    untraced_ms = [u for u, _ in pairs]
    m = {
        "matching.compare_ms": 1e3 * statistics.fmean(compare) if bnb else 0.0,
        "matching.tables_ms": 1e3 * statistics.fmean(tables) if bnb else 0.0,
        "matching.search_self_ms":
            1e3 * statistics.fmean(search) if bnb else 0.0,
        "matching.nodes_per_compare": nodes / len(bnb) if bnb else 0.0,
        "matching.leaves_per_compare":
            statistics.fmean(s["leaves"] for s in bnb) if bnb else 0.0,
        "matching.us_per_node": 1e6 * sum(search) / nodes if nodes else 0.0,
        "matching.loser_share": loser / sum(search) if bnb else 0.0,
        "efficient.forbid_ms": mean_ms("efficient.forbid_matrix"),
        "efficient.allowed_frac":
            statistics.fmean(s["kept"] for s in forbid) if forbid else 1.0,
        "baseline.edit_distance_ms": mean_ms("baseline.edit_distance"),
        "baseline.pairs": len(by["baseline.edit_distance"]) / ops,
        "clustering.match_ms": 0.0,
        "clustering.update_ms": 0.0,
        "clustering.incremental_ms":
            1e3 * total("clustering.incremental_clustering") / ops,
        "clustering.hierarchical_ms":
            1e3 * total("clustering.hierarchical_clustering") / ops,
        "synthesis.synth_ms": mean_ms("synthesis.synth_from_labelled_ags"),
        "fileio.read_ag_ms": mean_ms("fileio.read_ag"),
        "fileio.write_fdg_ms": mean_ms("fileio.write_fdg"),
        "fileio.read_fdg_ms": mean_ms("fileio.read_fdg"),
        "fileio.fdg_bytes": statistics.fmean(fdg_bytes) if fdg_bytes else 0.0,
        "fileio.fdg_mb_per_s": 2 * sum(fdg_bytes) / fdg_io / 1e6
        if fdg_io else 0.0,
        "share.search": sum(search) / op_total,
        "share.tables": sum(tables) / op_total,
        "share.filter": total("efficient.forbid_matrix") / op_total,
        "share.edit_distance": edit / op_total,
        "trace.untraced_op_ms": statistics.median(untraced_ms),
        "trace.traced_op_ms": statistics.median(traced_ms),
        "trace.overhead_ms": statistics.median(
            t - u for t, u in zip(traced_ms, untraced_ms)),
    }
    if by["clustering.incremental_clustering"]:
        m["clustering.match_ms"] = 1e3 * sum(compare) / ops
        m["clustering.update_ms"] = (m["clustering.incremental_ms"]
                                     - m["clustering.match_ms"])
    return m


# ------------------------------------------------------------------- run

def run(workload, seed, seconds, trace, workdir, sizes=None):
    """Generate the inputs, set up, drive ops for `seconds` and check them.

    Returns (result, details, spans): result is the final JSON object,
    details the provenance and run facts, spans the traced spans."""
    sizes = dict(WORKLOADS[workload], **(sizes or {}))
    inputs = generate(workload, seed, sizes, workdir / "inputs")
    tracer = Tracer(bool(trace))
    kind = Cluster if workload == "cluster" else Classify
    wl = kind(workload, seed, sizes, inputs, workdir, tracer)
    setup_s = []            # scaled to the reference host

    def setup_round():
        """Run one set-up round; returns the reference time after it."""
        setup_s.extend(wl.setup())
        return reference_seconds()

    setup_round()
    rounds_at = [] if trace else [seconds * r / SETUP_ROUNDS
                                  for r in range(1, SETUP_ROUNDS)]
    items = inputs["items"]

    errors = []
    hits = scored = 0       # accuracy, summed as ops finish
    untraced_ms = []
    scaled_ms = []          # untraced op times scaled to the reference host
    pairs = []              # (untraced ms, traced op span) per input
    attempted = failed = 0

    def attempt(item):
        """Run one op; returns (output, seconds), or (None, None) when it
        raised or returned an invalid result."""
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        try:
            out = wl.op(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - start
        if out is None or wl.failed(item, out):
            failed += 1
            return None, None
        return out, elapsed

    tracer.enabled = False
    out, _ = attempt(items[0])              # warm-up, not counted
    if out is None:
        errors.append("the warm-up op failed")
    attempted = failed = 0
    last_ref = reference_seconds()
    begin = time.perf_counter()
    k = 0
    while True:
        item = items[k % len(items)]
        # in a traced run every input also runs untraced, alternating which
        # goes first, so the difference of the two is the tracing overhead
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)) \
                if trace else (False,):
            tracer.enabled = traced
            tracer.op = k
            with tracer.span("op") as rec:
                out, elapsed = attempt(item)
            tracer.enabled = False
            if not trace:
                ref = reference_seconds()
                if out is not None:
                    scaled_ms.append(1e3 * elapsed * REFERENCE_S
                                     / (0.5 * (last_ref + ref)))
                last_ref = ref
            if out is None:
                continue
            errors.extend(wl.check(item, out))
            if traced:
                pair[True] = rec
                tracer.enabled = True
                errors.extend(wl.replay(item, out))
                tracer.enabled = False
            else:
                untraced_ms.append(1e3 * elapsed)
                pair[False] = 1e3 * elapsed
                h, n = wl.score(item, out)
                hits += h
                scored += n
        if len(pair) == 2:
            pairs.append((pair[False], pair[True]))
        k += 1
        now = time.perf_counter() - begin
        if now >= seconds:
            break
        if rounds_at and now >= rounds_at[0]:
            rounds_at.pop(0)
            last_ref = setup_round()

    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(bool(trace)), "sizes": sizes,
               "provenance": provenance(), "ops": attempted,
               "distinct_inputs": len(items),
               "reference_checked":
                   getattr(wl, "reference", None) is not None,
               "errors": errors[:20]}
    if trace:
        metrics = layer_metrics(tracer.spans, pairs)
        units = PER_LAYER
    else:
        value, pct = tail(scaled_ms)
        details.update(
            tail_percentile=pct, tail_samples=len(scaled_ms),
            setup_samples=len(setup_s),
            unscaled={"op_ms_p50": statistics.median(untraced_ms),
                      "op_ms_tail": tail(untraced_ms)[0],
                      "ops_per_s": 1e3 * len(untraced_ms)
                      / sum(untraced_ms)})
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": statistics.median(scaled_ms),
            "op_ms_tail": value,
            "ops_per_s": 1e3 * len(scaled_ms) / sum(scaled_ms),
            "accuracy": hits / scored,
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, details, tracer.spans


def provenance():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


def _git_commit():
    """HEAD of the git repository rooted where this benchmark sits, or None;
    git is kept from searching the directories above."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "graphproto").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / ("work-%s-%d-%d" % (args.workload, args.seed,
                                           os.getpid()))
    try:
        result, details, spans = run(args.workload, args.seed, args.seconds,
                                     args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans:
        path = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(spans))
        details["spans_file"] = str(path.relative_to(ROOT))
    for name, m in result["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
