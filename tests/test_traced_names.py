"""The traced benchmark run wraps qgraph functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"qgraph.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qgraph.{module_name}.{name}"
