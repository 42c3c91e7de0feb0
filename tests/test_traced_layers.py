"""The benchmark in bench/ calls hdshrink by name: bench/spans.py wraps the
functions of its LAYERS table, and bench/run.py makes the calls of the CLI
subcommands.  A traced or untraced benchmark run breaks if one is gone."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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
