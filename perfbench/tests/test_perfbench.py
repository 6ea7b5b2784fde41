"""Tests for the benchmark's own code: spans, percentile rule, gate, probes."""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import probes  # noqa: E402
from perfbench.gate import FitGate, bitwise_equal, labels_ok  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402
from perfbench.stats import reportable  # noqa: E402
from perfbench.workloads import WORKLOADS, derive_seeds  # noqa: E402


def _span(i, start, end, parent, layer="l", name="s"):
    return Span(i, layer, name, start, end, parent, 0, 0)


# -- self-time arithmetic --------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0, 100, -1),   # root
        _span(1, 10, 40, 0),    # child
        _span(2, 20, 30, 1),    # grandchild
        _span(3, 50, 90, 0),    # second child
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    summary = probes.summarize([spans])
    assert summary.unbalanced == 0
    assert summary.root_ns == 100


def test_self_time_merges_overlapping_children_and_flags_them():
    spans = [_span(0, 0, 100, -1), _span(1, 10, 40, 0), _span(2, 30, 60, 0)]
    # the children cover 10..60 once: 50 ns, not 60
    assert self_times(spans)[0] == 50
    # ...but then the subtree no longer adds up to the root's wall
    assert probes.summarize([spans]).unbalanced == 1


def test_self_time_clips_child_outside_parent():
    spans = [_span(0, 0, 100, -1), _span(1, 90, 130, 0)]
    assert self_times(spans)[0] == 90
    assert probes.summarize([spans]).unbalanced == 1


def test_tracer_nesting_adds_up_to_root_wall():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "linalg", "leaf")

    def middle(x):
        return traced_leaf(traced_leaf(x))

    traced_middle = tracer.wrap(middle, "core", "middle")
    with tracer.span("other", "op"):
        assert traced_middle(1) == 3
        assert traced_leaf(0) == 1
    (spans,) = tracer.spans()
    assert [s.name for s in spans] == ["op", "middle", "leaf", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1, 0]
    summary = probes.summarize([spans])
    assert summary.unbalanced == 0 and summary.ops == 1
    layers = sum(summary.self_ns.values())
    assert layers == spans[0].duration


def test_patch_restores_functions_methods_and_staticmethods():
    module = types.ModuleType("fake")
    module.fn = lambda: "fn"

    class Base:
        def run(self):
            return "base"

    class Child(Base):
        @staticmethod
        def build():
            return "built"

    originals = (module.fn, Child.__dict__["build"])
    tracer = Tracer()
    tracer.patch(module, "fn", "a", "fn")
    tracer.patch(Child, "run", "a", "run")
    tracer.patch(Child, "build", "a", "build")
    assert module.fn() == "fn" and Child().run() == "base" and Child.build() == "built"
    assert len(tracer.spans()[0]) == 3
    tracer.unpatch_all()
    assert module.fn is originals[0]
    assert "run" not in Child.__dict__
    assert Child.__dict__["build"] is originals[1]


# -- percentile rule --------------------------------------------------------

@pytest.mark.parametrize("n,q,ok", [
    (19, 0.5, False), (20, 0.5, True),
    (99, 0.9, False), (100, 0.9, True),
    (999, 0.99, False), (1000, 0.99, True),
])
def test_ten_beyond_rule(n, q, ok):
    assert reportable(n, q) is ok


# -- correctness gate --------------------------------------------------------

def test_fit_gate_reports_perturbed_center():
    centers = np.random.default_rng(1).normal(size=(5, 3))
    gate = FitGate()
    assert gate.check(centers)
    assert gate.check(centers.copy())
    bumped = centers.copy()
    bumped[2, 1] = np.nextafter(bumped[2, 1], np.inf)  # one ulp
    assert not gate.check(bumped)
    assert gate.check(centers)  # the baseline is unchanged by a miss


def test_fit_gate_tells_signed_zeros_and_dtypes_apart():
    zeros = np.zeros((2, 2))
    gate = FitGate()
    assert gate.check(zeros)
    assert not gate.check(-zeros)  # -0.0 is not bitwise 0.0
    assert not bitwise_equal(zeros, zeros.astype(np.float32))


def test_serve_gate_reports_perturbed_label():
    rng = np.random.default_rng(2)
    centers = rng.normal(size=(8, 4))
    points = rng.normal(size=(64, 4))
    from repro.linalg.distances import assign_labels

    labels = assign_labels(points, centers)
    assert labels_ok(points, labels, centers)
    bad = labels.copy()
    bad[17] = (bad[17] + 1) % 8
    assert not labels_ok(points, bad, centers)


# -- probes on a real (tiny) fit ---------------------------------------------

def test_probes_trace_a_fit_and_restore_the_program():
    from repro.exec import SerialBackend
    from repro.mapreduce import jobs, kmeans_mr

    before = (jobs.lloyd_job.assign_labels, kmeans_mr.sequential_lloyd)
    X = np.random.default_rng(3).normal(size=(600, 4))
    tracer = Tracer()
    probes.install(tracer)
    try:
        with tracer.span("other", "op"):
            report = kmeans_mr.mr_scalable_kmeans(
                X, 5, l=10.0, r=2, n_splits=4, seed=0, lloyd_max_iter=2,
                backend=SerialBackend(),
            )
    finally:
        tracer.unpatch_all()
    assert (jobs.lloyd_job.assign_labels, kmeans_mr.sequential_lloyd) == before
    summary = probes.summarize(tracer.spans())
    assert summary.ops == 1 and summary.unbalanced == 0
    metrics = probes.layer_metrics(summary, tracer.counters(), reports=[report],
                                   gen_s=0.0, overhead_frac=0.0)
    assert {name for name, _ in probes.PER_LAYER} == set(metrics)
    # the job log also holds the driver's sequential recluster charge
    assert metrics["mapreduce.jobs"] == report.n_jobs - 1
    assert metrics["linalg.dist_evals"] > 0
    parts = sum(metrics[f"{layer}.self_ms"] for layer in
                ("core", "mapreduce", "exec", "plane", "serve"))
    parts += metrics["linalg.busy_ms"] + metrics["shuffle.nbytes_ms"]
    assert math.isclose(parts + metrics["trace.other_ms"], metrics["trace.op_ms"],
                        rel_tol=1e-9)


# -- the benchmark definition -------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == probes.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_seeds_are_derived_per_workload():
    assert derive_seeds("fit-gauss", 1) == derive_seeds("fit-gauss", 1)
    assert derive_seeds("fit-gauss", 1) != derive_seeds("fit-gauss", 2)
    assert derive_seeds("fit-gauss", 1) != derive_seeds("serve-kdd", 1)


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-gauss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
