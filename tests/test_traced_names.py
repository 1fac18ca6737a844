"""The traced benchmark (perfbench/tracing.py) patches library functions by
name, so every name it lists must still resolve in the library, and the CLI
must load every module it names."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_cli_import_loads_every_traced_module():
    # the tracer looks each module up in sys.modules once the CLI is imported,
    # so a module the CLI imported only inside a runner would stop it
    modules = sorted({module for module, _ in traced_names()})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, horoflow.cli; print([m for m in {modules!r} if m not in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
