"""Tests of the benchmark itself: seeded inputs, the correctness gate and a
smoke run of every workload at tiny sizes.

    python -m pytest -q perfbench
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY = {
    "exact-classify": {"problems": 2, "refs": 2, "tests": 1, "nv": 4, "ne": 6,
                       "nd": 1, "nl": 1},
    "filtered-classify": {"problems": 1, "refs": 2, "tests": 2, "nv": 5,
                          "ne": 8, "nd": 1, "nl": 1},
    "cluster": {"batches": 2, "per_class": 2, "nv": 4, "ne": 6, "nd": 1,
                "nl": 0},
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    sizes = dict(run.WORKLOADS[workload], **TINY[workload])
    run.generate(workload, 5, sizes, tmp_path / "a")
    run.generate(workload, 5, sizes, tmp_path / "b")
    run.generate(workload, 6, sizes, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a and a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


def test_benchmark_json_names_the_metrics_run_py_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    result, details, spans = run.run(workload, 3, 0.05, trace, tmp_path,
                                     TINY[workload])
    assert result["correct"], details["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(named)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == named[name]
        assert isinstance(metric["value"], (int, float))
    assert bool(spans) == bool(trace)
    json.dumps(result)


def test_reference_mismatch_fails_the_gate(tmp_path):
    sizes = dict(run.WORKLOADS["exact-classify"], **TINY["exact-classify"])
    inputs = run.generate("exact-classify", 1, sizes, tmp_path / "in")
    wl = run.Classify("exact-classify", 1, sizes, inputs, tmp_path,
                      run.Tracer(False))
    wl.setup()
    item = inputs["items"][0]
    out = wl.op(item)
    wl.reference = [None] * len(inputs["items"])
    wl.reference[item["index"]] = [out["winner"], out["distance"]]
    assert wl.check(item, out) == []
    wl.reference[item["index"]] = [out["winner"], out["distance"] + 1e-6]
    assert wl.check(item, out)


def test_cluster_gate_rejects_overlapping_clusters(tmp_path):
    sizes = dict(run.WORKLOADS["cluster"], **TINY["cluster"])
    inputs = run.generate("cluster", 1, sizes, tmp_path / "in")
    wl = run.Cluster("cluster", 1, sizes, inputs, tmp_path, run.Tracer(False))
    item = inputs["items"][0]
    out = wl.op(item)
    assert wl.check(item, out) == []
    inc, hier = out["members"]
    out["members"] = (inc + [{0}], hier)
    assert wl.check(item, out)


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail(range(1, 1001)) == (990, 99)
    assert run.tail(range(1, 36)) == (18, 50)
    assert run.tail([3.0, 1.0]) == (3.0, 100)
