"""Tiny-size self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> run.Workload:
    """The named workload shrunk to a second or so, without AUC references."""
    w = run.WORKLOADS[name]
    if w.subcommand == "simulate":
        config = dict(w.config, p=60, n=120, trials=2, tests_per_trial_h0=20, tests_per_trial_h1=20)
        if config["gamma"] != "auto":
            config["gamma"] = 3.0
        return dataclasses.replace(w, config=config, auc_ref={}, proposed_best=False)
    config = dict(w.config, n=100, resamples=2, window=21)
    series = {"instants": 400, "channels": 24, "block": 5, "blocks": 10}
    return dataclasses.replace(w, config=config, series=series, auc_ref={})


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_emitted_with_unit(name, trace):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=bool(trace))
    assert result["correct"], result["problems"]
    assert result["attempted"] == run.MIN_REPEATS + trace * run.TRACED_REPEATS
    assert set(result["host"]) >= {"cpu_count", "python", "numpy", "blas", "blas_threads"}
    line = run.report(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_traced_counts_are_exact():
    result = run.run_workload(tiny("sim-accept"), seed=3, seconds=0, trace=True)
    metrics = result["metrics"]
    # 5 spectral scorers, plus proposed_shrinker and lappw_select_b
    assert metrics["mpkernel.kernel_matrix.calls_per_fit"]["value"] == 7
    # 2 trials x 7 methods x (20 + 20) test vectors
    assert metrics["scoring.score.vectors"]["value"] == 2 * 7 * 40
    assert metrics["shrinkers.tyler_estimator.iters"]["value"] >= 1


def test_tyler_iterations_is_smallest_converging_max_iter():
    from hdshrink.errors import ConvergenceError
    from hdshrink.shrinkers import tyler_estimator

    X = np.random.default_rng(0).standard_normal((10, 30))
    k = run.tyler_iterations(tyler_estimator, (X,), {"rho": 0.1})
    tyler_estimator(X, rho=0.1, max_iter=k)
    with pytest.raises(ConvergenceError):
        tyler_estimator(X, rho=0.1, max_iter=k - 1)


def test_broken_output_fails_gate(tmp_path):
    w = tiny("sim-large")
    inputs = run.make_inputs(w, seed=3, work=tmp_path / "inputs")
    rec = run.repeat_once(w, inputs, tmp_path / "out")
    scores = tmp_path / "out" / "scores.csv"
    assert rec["problems"] == []

    lines = scores.read_text().splitlines()
    scores.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in run.gate(w, rec, scores))

    head, *rows = lines
    rows[0] = ",".join(rows[0].split(",")[:3] + ["nan", "nan"])
    scores.write_text("\n".join([head, *rows]) + "\n")
    assert any("non-finite" in p for p in run.gate(w, rec, scores))

    skewed = dataclasses.replace(w, auc_ref={"proposed": 0.0}, auc_tol=0.01)
    assert any("AUC(proposed)" in p for p in run.gate(skewed, rec, scores))


def test_gate_failure_counts_as_failed_operation():
    w = dataclasses.replace(tiny("rss-synth"), auc_ref={"proposed": 0.0}, auc_tol=0.01)
    result = run.run_workload(w, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_REPEATS
