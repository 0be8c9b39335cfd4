"""The benchmark tracer looks up cplab functions by name; keep those names.

``bench/tracer.py`` calls a bare ``getattr`` on every ``(module, function)``
pair in its ``TRACED`` table, so a renamed or deleted function crashes every
traced benchmark run.  The tracer is loaded by path so that this test needs
nothing from the benchmark beyond that table.
"""

import importlib
import importlib.util
from pathlib import Path

import cplab

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cplab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    missing = [
        f"cplab.{mod}.{func}"
        for mod, func, _, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"cplab.{mod}"), func, None))
    ]
    assert not missing


def test_every_public_name_resolves():
    missing = [name for name in cplab.__all__ if not hasattr(cplab, name)]
    assert not missing
