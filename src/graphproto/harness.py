"""Synthetic experiments: model generation, noise, classification, reports.

A run builds nFDG random graph models, derives NR noisy reference AGs per
model, synthesises one FDG per model over the generator's identity
correspondence, then classifies NT fresh noisy test AGs per model and counts
how often the right prototype wins.  Two noise modes exist: delete_distort
nulls nd vertices (arcs included) and redraws the attributes of nl others,
gaussian adds zero-mean noise to every attribute component and applies s
random vertex insertions or deletions.  Everything randomized is a pure
function of its seed.

Reports carry the correctness ratio, the confusion matrix, the mean explored
search nodes and the mean wall time per comparison, plus a parameter echo
from which a CSV row (one per parameter point) is assembled.
"""

import math
import time

import numpy as np

from .core import PHI, AttributedGraph, CostWeights, Pdf, _check_count, attr
from .efficient import _check_method, match_by_method
from .fileio import read_ag, read_fdg, write_ag, write_fdg
from .matching import _binned, _cheap_root
from .synthesis import CommonLabelling, synth_from_labelled_ags

__all__ = [
    "CSV_COLUMNS", "ExperimentReport", "GeneratorConfig", "compact_ag",
    "csv_row", "fdg_classify", "generate_models", "perturb", "read_ag",
    "read_fdg", "run_experiment", "smooth_pdf", "write_ag", "write_fdg",
]

_ATTR_RANGE = 1000

CSV_COLUMNS = ["method", "NR", "sigma", "structural_noise",
               "K1", "K2", "K3", "K4", "K5", "K6", "K7", "K8",
               "tau_or_tp", "correctness", "mean_nodes", "mean_ms",
               "nv", "ne", "nd", "nl", "seed", "repetitions"]


class GeneratorConfig:
    """Parameters of the synthetic pipeline.

    nFDG models of nv vertices and ne arcs each; NR reference and NT test
    AGs per model; delete_distort nulls nd vertices and redraws nl.
    """

    __slots__ = ("nFDG", "NT", "NR", "nv", "ne", "nd", "nl", "seed")

    def __init__(self, nFDG=1, NT=1, NR=1, nv=5, ne=10, nd=0, nl=0, seed=0):
        for name, value, least in (
                ("nFDG", nFDG, 1), ("NT", NT, 1), ("NR", NR, 1), ("nv", nv, 1),
                ("ne", ne, 0), ("nd", nd, 0), ("nl", nl, 0)):
            _check_count(value, name, least)
        if ne > nv * (nv - 1):
            raise ValueError("ne %d exceeds the %d ordered pairs of %d "
                             "vertices" % (ne, nv * (nv - 1), nv))
        if nd + nl > nv:
            raise ValueError("nd + nl = %d exceeds nv = %d" % (nd + nl, nv))
        self.nFDG = nFDG
        self.NT = NT
        self.NR = NR
        self.nv = nv
        self.ne = ne
        self.nd = nd
        self.nl = nl
        self.seed = seed


class ExperimentReport:
    """Outcome of run_experiment.

    mean_nodes is the mean of explored search nodes (the map search's
    partial labellings, MatchResult.explored_nodes) per (test AG,
    prototype) comparison in the bounded classify search, where a prototype
    that cannot beat the incumbent is abandoned early.  It is not comparable
    with node counts of a full search against every prototype.
    """

    __slots__ = ("correctness", "confusion", "mean_nodes", "mean_ms",
                 "params")

    def __init__(self, correctness, confusion, mean_nodes, mean_ms, params):
        if not 0.0 <= correctness <= 1.0:
            raise ValueError("correctness must lie in [0, 1]")
        self.correctness = correctness
        self.confusion = np.asarray(confusion, dtype=int)
        self.mean_nodes = mean_nodes
        self.mean_ms = mean_ms
        self.params = dict(params)

    def __repr__(self):
        return "ExperimentReport(correctness=%.4f, mean_nodes=%.1f)" % (
            self.correctness, self.mean_nodes)


def _random_model(rng, nv, ne):
    vertices = [attr(int(v)) for v in rng.integers(0, _ATTR_RANGE, nv)]
    pairs = [(i, j) for i in range(nv) for j in range(nv) if i != j]
    chosen = rng.choice(len(pairs), size=ne, replace=False)
    arcs = {pairs[int(k)]: attr(int(b))
            for k, b in zip(chosen, rng.integers(0, _ATTR_RANGE, ne))}
    return AttributedGraph(vertices, arcs)


def generate_models(cfg):
    """cfg.nFDG random graphs: nv vertices, ne distinct ordered arcs,
    attributes uniform integers below 1000; deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    return [_random_model(rng, cfg.nv, cfg.ne) for _ in range(cfg.nFDG)]


def perturb(model, mode, seed, nd=0, nl=0, sigma=0.0, structural=0):
    """Noisy copy of a model.

    mode "delete_distort" nulls nd random vertices together with their arcs
    (the result is an extended AG on the same frame when nd > 0) and redraws
    the attributes of nl surviving vertices.  mode "gaussian" adds zero-mean
    noise with deviation sigma to every attribute component, then applies
    `structural` random operations, each inserting a fresh vertex (attached
    through one arc in a random direction to a random vertex) or deleting
    one.
    """
    for name, value in (("nd", nd), ("nl", nl), ("structural", structural)):
        _check_count(value, name)
    rng = np.random.default_rng(seed)
    n = model.order
    if mode == "delete_distort":
        if nd + nl > n:
            raise ValueError("nd + nl = %d exceeds order %d" % (nd + nl, n))
        order = list(rng.permutation(n))
        dead = set(order[:nd])
        redraw = set(order[nd:nd + nl])
        vertices = []
        for i, v in enumerate(model.vertices):
            if i in dead:
                vertices.append(PHI)
            elif i in redraw:
                vertices.append(attr(int(rng.integers(0, _ATTR_RANGE))))
            else:
                vertices.append(v)
        if not dead:
            return AttributedGraph(vertices, dict(model.arcs),
                                   arc_order=model.arc_order)
        arcs = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                b = model.arcs.get((i, j))
                if i in dead or j in dead or b is None or b.is_null:
                    arcs[(i, j)] = PHI
                else:
                    arcs[(i, j)] = b
        return AttributedGraph(vertices, arcs, extended=True)
    if mode == "gaussian":
        def noisy(t):
            if not sigma:
                return t
            return attr(*[c + float(rng.normal(0.0, sigma))
                          for c in t.values])

        vertices = [noisy(v) for v in model.vertices]
        arcs = {ij: noisy(b) for ij, b in model.present_arcs()}
        for _ in range(structural):
            if len(vertices) > 1 and rng.random() < 0.5:
                gone = int(rng.integers(0, len(vertices)))
                keep = [i for i in range(len(vertices)) if i != gone]
                renum = {old: new for new, old in enumerate(keep)}
                vertices = [vertices[i] for i in keep]
                arcs = {(renum[i], renum[j]): b for (i, j), b in arcs.items()
                        if i != gone and j != gone}
            else:
                fresh = len(vertices)
                vertices.append(attr(int(rng.integers(0, _ATTR_RANGE))))
                other = int(rng.integers(0, fresh)) if fresh else None
                if other is not None:
                    b = attr(int(rng.integers(0, _ATTR_RANGE)))
                    if rng.random() < 0.5:
                        arcs[(fresh, other)] = b
                    else:
                        arcs[(other, fresh)] = b
        return AttributedGraph(vertices, arcs)
    raise ValueError("unknown mode %r" % (mode,))


def compact_ag(g):
    """Non-extended copy with the null vertices (and their arcs) dropped."""
    keep = [i for i, v in enumerate(g.vertices) if not v.is_null]
    renum = {old: new for new, old in enumerate(keep)}
    vertices = [g.vertices[i] for i in keep]
    arcs = {(renum[i], renum[j]): b for (i, j), b in g.present_arcs()
            if i in renum and j in renum}
    return AttributedGraph(vertices, arcs)


def smooth_pdf(p, period=None):
    """Smooth a pdf of single-component integer bins with the kernel
    (1/2 own, 1/4 previous, 1/4 next).

    Counts quadruple, so the result stays an exact frequency pdf.  period
    wraps the bins circularly over 0..period-1; without it the support
    widens by one bin at each end.  The null share is untouched.
    """
    for key in p.counts:
        if key is None:
            continue
        if len(key) != 1 or not isinstance(key[0], (int, np.integer)):
            raise ValueError("smoothing needs single integer bins, got %r"
                             % (key,))
        if period is not None and not 0 <= key[0] < period:
            raise ValueError("bin %r outside the period %d" % (key, period))
    counts = {}

    def add(b, c):
        if period is not None:
            b = b % period
        counts[(b,)] = counts.get((b,), 0) + c

    for key, c in p.counts.items():
        if key is None:
            counts[None] = 4 * c
            continue
        b = key[0]
        add(b, 2 * c)
        add(b - 1, c)
        add(b + 1, c)
    return Pdf(counts, 4 * p.total, p.bin_width)


def _classify(test, models, weights, method="optimal", tau=1.0, t_p=0.0,
              upper_bound=math.inf, matcher=None):
    """fdg_classify plus the MatchResult of every prototype, in model order.

    Arguments are checked first.  Prototypes are visited in order of their
    root bound (_cheap_root, the test AG binned once per bin width), each
    searched below the incumbent (at first upper_bound), with its bins and
    root passed down to bnb_distance's root cut: one with a lower index
    than the incumbent's may also tie it.  A prototype that cannot win
    comes back with valid=False, unless matcher(test, f, weights) replaces
    match_by_method: all go to it, in index order, and its results are
    taken as returned.  With no prototype below upper_bound the result is
    (0, upper_bound, results).
    """
    _check_method(method, tau, t_p)
    w = weights or CostWeights()
    results = [None] * len(models)
    order = range(len(models))
    if matcher is None:
        bins = {x: _binned(test, x) for x in {f.bin_width for f in models}}
        roots = [_cheap_root(bins[f.bin_width], f, w) for f in models]
        order = sorted(order, key=lambda i: (roots[i], i))
    best, best_d = -1, upper_bound
    for i in order:
        f = models[i]
        bound = best_d if i > best else math.nextafter(best_d, math.inf)
        if matcher is not None:
            res = matcher(test, f, w)
        else:
            res = match_by_method(test, f, w, method, tau, t_p,
                                  upper_bound=bound,
                                  _root=(bins[f.bin_width], roots[i]))
        results[i] = res
        d = res.distance if res.valid else math.inf
        if (d, i) < (best_d, best):
            best_d = d
            best = i
    return max(best, 0), best_d, results


def fdg_classify(test, models, weights=None, method="optimal", tau=1.0,
                 t_p=0.0):
    """Index of the nearest prototype and the distance to it; a tie goes to
    the lowest index.  (None, inf) when no prototype admits a valid
    labelling.

    One bounded search: a prototype is abandoned as soon as it cannot beat
    the nearest one found so far (at its root bound, before any cost
    table), so only the winner's distance is solved to the end.  Winner
    and distance equal those of a full search against every prototype.
    """
    if not models:
        raise ValueError("models must be non-empty")
    best, best_d, _ = _classify(test, models, weights, method, tau, t_p)
    return (best, best_d) if best_d < math.inf else (None, best_d)


def run_experiment(cfg, weights=None, method="optimal", repetitions=1,
                   noise="delete_distort", sigma=0.0, structural=0,
                   tau=1.0, t_p=0.0, bin_width=1.0):
    """Reference/test pipeline, averaged over `repetitions` rounds.

    Each round generates fresh models, perturbs NR references per model
    (test-only structural noise is withheld from references so the identity
    correspondence keeps holding), synthesises one FDG per model and
    classifies NT perturbed test AGs per model.  Node counts and times are
    those of fdg_classify's bounded search, in which losing prototypes are
    abandoned at the incumbent, not of a full search against each prototype.
    A test AG that no prototype admits is a miss and enters no confusion
    cell.
    """
    _check_count(repetitions, "repetitions", 1)
    if noise not in ("delete_distort", "gaussian"):
        raise ValueError("unknown noise %r" % (noise,))
    w = weights or CostWeights()
    master = np.random.default_rng(cfg.seed)
    confusion = np.zeros((cfg.nFDG, cfg.nFDG), dtype=int)
    hits = 0.0
    nodes = 0
    elapsed = 0.0
    comparisons = 0
    identity = list(range(cfg.nv))

    def noisy(rng, g, structural):
        """g under the configured noise, on a seed drawn from rng;
        structural only applies to gaussian noise."""
        seed = int(rng.integers(2 ** 31))
        if noise == "delete_distort":
            return perturb(g, "delete_distort", seed, nd=cfg.nd, nl=cfg.nl)
        return perturb(g, "gaussian", seed, sigma=sigma, structural=structural)

    for _ in range(repetitions):
        round_seed = int(master.integers(2 ** 31))
        rng = np.random.default_rng(round_seed)
        models = [_random_model(rng, cfg.nv, cfg.ne)
                  for _ in range(cfg.nFDG)]
        prototypes = []
        for g in models:
            refs = [noisy(rng, g, 0) for _ in range(cfg.NR)]
            prototypes.append(synth_from_labelled_ags(
                refs, CommonLabelling([identity] * cfg.NR, cfg.nv),
                bin_width))
        correct = 0
        for true in range(cfg.nFDG):
            for _ in range(cfg.NT):
                t = noisy(rng, models[true], structural)
                if noise == "delete_distort":
                    t = compact_ag(t)
                start = time.perf_counter()
                best, best_d, results = _classify(t, prototypes, w, method,
                                                  tau, t_p)
                elapsed += time.perf_counter() - start
                nodes += sum(res.explored_nodes for res in results)
                comparisons += len(results)
                if best_d < math.inf:
                    confusion[true, best] += 1
                    if best == true:
                        correct += 1
        hits += correct / (cfg.nFDG * cfg.NT)

    params = {"method": method, "NR": cfg.NR, "sigma": sigma,
              "structural_noise": structural,
              "K1": w.K1, "K2": w.K2, "K3": w.K3, "K4": w.K4,
              "K5": w.K5, "K6": w.K6, "K7": w.K7, "K8": w.K8,
              "tau_or_tp": tau if method == "noniter"
              else (0.0 if method == "optimal" else t_p),
              "noise": noise, "bin_width": bin_width,
              "nFDG": cfg.nFDG, "NT": cfg.NT,
              "nv": cfg.nv, "ne": cfg.ne, "nd": cfg.nd, "nl": cfg.nl,
              "seed": cfg.seed, "repetitions": repetitions}
    return ExperimentReport(hits / repetitions, confusion,
                            nodes / comparisons,
                            1000.0 * elapsed / comparisons, params)


def csv_row(report):
    """The report's values in CSV_COLUMNS order, as strings."""
    out = []
    for col in CSV_COLUMNS:
        if col == "correctness":
            out.append("%.6f" % report.correctness)
        elif col == "mean_nodes":
            out.append("%.3f" % report.mean_nodes)
        elif col == "mean_ms":
            out.append("%.3f" % report.mean_ms)
        else:
            out.append(str(report.params[col]))
    return out
