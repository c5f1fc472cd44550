"""The traced benchmark run (perfbench/run.py --trace 1) wraps library
functions by module and attribute path, and fails if one is missing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [pytest.param(module, path, id=f"{module}.{path}")
            for _, module, path, _ in spans.WRAPPED]


@pytest.mark.parametrize("module, path", _wrapped())
def test_wrapped_name_resolves(module, path):
    obj = importlib.import_module(f"biq.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
