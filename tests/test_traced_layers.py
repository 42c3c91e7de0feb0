"""The benchmark in bench/ calls hdshrink by name: bench/spans.py wraps the
functions of its LAYERS table, and bench/run.py makes the calls of the CLI
subcommands.  A traced or untraced benchmark run breaks if one is gone."""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import hdshrink.scoring
from hdshrink.errors import DegenerateStatisticError
from hdshrink.evaluate import auc, roc
from hdshrink.shrinkers import tyler_estimator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_function_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for modname, names in spans.LAYERS.items():
        module = importlib.import_module(f"hdshrink.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hdshrink.{modname}.{name}"


def test_every_name_the_benchmark_uses_exists():
    # `from hdshrink import cli` binds a module whose attributes run.py then
    # reads; `from hdshrink.errors import X` names X directly.
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hdshrink":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "hdshrink."
        ):
            used.update((node.module, a.name) for a in node.names)
    assert set(modules) >= {"simulate", "rss", "rss_config", "evaluate", "cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.add((f"hdshrink.{modules[node.value.id]}", node.attr))
    missing = [
        f"{mod}.{name}"
        for mod, name in sorted(used)
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert len(used) > 10 and missing == []


def test_tyler_iterations_can_be_counted():
    # bench/run.py counts Tyler iterations by bisecting on max_iter.
    assert "max_iter" in inspect.signature(tyler_estimator).parameters


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module; it imports spans.py from its own folder."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look it up
    spec.loader.exec_module(run)
    return run


# Each workload cut to a few seconds of work, with its methods kept.
TINY = {
    "sim-accept": dict(
        threads=1,
        config={"p": 50, "n": 90, "gamma": 3.0, "trials": 2,
                "tests_per_trial_h0": 20, "tests_per_trial_h1": 20},
    ),
    "rss-synth": dict(
        config={"n": 60, "resamples": 2},
        series={"instants": 300, "channels": 8, "block": 10, "blocks": 5},
    ),
}


def _quality_from_scores_csv(path, z_alpha):
    """(null_fa_rate, aucs) recomputed from a scores.csv: the H0 rate of
    proposed score_z > z_alpha, and one AUC per method."""
    by_method = {}
    with open(path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pair = by_method.setdefault(row["method"], ([], []))
            pair[int(row["label_h1"])].append(float(row["score_z"]))
    null = float(np.mean(np.array(by_method["proposed"][0]) > z_alpha))
    return null, {m: auc(roc(h0, h1)) for m, (h0, h1) in by_method.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_bench_pipelines_read_fit_failures_and_scores(
    bench_run, name, tmp_path, monkeypatch
):
    # run_simulate reads TrialOutput.scores and .errors, and run_rss iterates
    # RssScores; with cq failing in every fit, what they report must match
    # errors and scores.csv.
    base = bench_run.WORKLOADS[name]
    tiny = dict(TINY[name], config={**base.config, **TINY[name]["config"]})
    w = dataclasses.replace(base, **tiny)
    real = hdshrink.scoring.build_scorer

    def build_scorer(method, *args, **kwargs):
        if method == "cq":
            raise DegenerateStatisticError("forced cq failure")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(hdshrink.scoring, "build_scorer", build_scorer)
    inputs = bench_run.make_inputs(w, 1, tmp_path / "inputs")
    out = tmp_path / "outputs"
    out.mkdir()
    rec = bench_run.PIPELINES[w.subcommand](w, inputs, out)
    null, aucs = _quality_from_scores_csv(out / "scores.csv", bench_run.Z_ALPHA)
    methods = {m.strip() for m in w.config["methods"].split(",")}
    assert rec["fit_failures"] == rec["units"] == 2
    assert rec["null_fa_rate"] == null
    assert rec["aucs"] == aucs and set(aucs) == methods - {"cq"}
