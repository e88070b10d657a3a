"""Write exact_classify_reference.json for the exact-classify workload.

For every test AG of each given seed it records the nearest prototype and
the distance to it, found by a full bnb_distance search against each
prototype (a tie goes to the lowest index).  run.py fails the correctness
gate when fdg_classify disagrees with this file beyond 1e-9.  Run from the
repository root; seeds already in the file are kept unless recomputed:

    python3 perfbench/make_reference.py 0 1 2
"""

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WORKLOAD = "exact-classify"


def reference(seed, workdir):
    sizes = run.WORKLOADS[WORKLOAD]
    inputs = run.generate(WORKLOAD, seed, sizes, workdir / "inputs")
    wl = run.Classify(WORKLOAD, seed, sizes, inputs, workdir,
                      run.Tracer(False))
    wl.setup()
    out = [None] * len(inputs["items"])
    for item in inputs["items"]:
        g = run.gp.read_ag(item["path"])
        best, best_d = 0, math.inf
        for i, f in enumerate(wl.prototypes[item["problem"]]):
            d = run._distance(run.gp.bnb_distance(g, f))
            if d < best_d:
                best, best_d = i, d
        out[item["index"]] = [best, best_d]
    return out


def main(argv):
    seeds = [int(a) for a in argv]
    if not seeds:
        sys.exit("usage: make_reference.py SEED...")
    data = {"sizes": run.WORKLOADS[WORKLOAD], "seeds": {}}
    if run.REFERENCE_FILE.is_file():
        old = json.loads(run.REFERENCE_FILE.read_text())
        if old["sizes"] == data["sizes"]:
            data["seeds"] = old["seeds"]
    for seed in seeds:
        scratch = run.ROOT / ".perfbench-out"
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            data["seeds"][str(seed)] = reference(seed, workdir)
        finally:
            shutil.rmtree(workdir)
        print("seed %d done" % seed, flush=True)
        data["seeds"] = dict(sorted(data["seeds"].items(),
                                    key=lambda kv: int(kv[0])))
        run.REFERENCE_FILE.write_text(json.dumps(data, separators=(",", ":"))
                                 + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
