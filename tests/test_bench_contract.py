"""The layer functions the benchmark traces exist where it looks for them."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(f"helmres.{module}"),
                                       name, None))]
    assert spans.TRACED and missing == []
