"""The traced benchmark (perfbench/tracing.py) patches library functions by
name, so every name it lists must still resolve in the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANNED + tracing.COUNTED


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" is looked up on its class
        target = getattr(target, part)
    assert callable(target)
