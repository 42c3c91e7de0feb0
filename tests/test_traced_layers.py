"""The benchmark tracer in bench/spans.py wraps hdshrink functions by name
(its LAYERS table); a traced benchmark run breaks if one of them is gone."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
