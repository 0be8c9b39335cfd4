"""The benchmark tracer looks up cplab functions by name; keep those names.

``bench/tracer.py`` calls a bare ``getattr`` on every ``(module, function)``
pair in its ``TRACED`` table, so a renamed or deleted function crashes every
traced benchmark run.  The tracer is loaded by path so that this test needs
nothing from the benchmark beyond that table.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cplab
import cplab.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DATA = Path(__file__).resolve().parent / "data"
NEGATIVE = ["--config", str(DATA / "config_negative.json")]


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


def test_tracer_wraps_every_binding_of_the_shared_basis():
    """``standard_basis`` hands out one memoized basis per d; a tracer still
    replaces every binding that holds it and counts every call."""
    tracer = _load_tracer()
    holders = (cplab, cplab.basis, cplab.cli)
    original = cplab.basis.standard_basis
    assert all(h.standard_basis is original for h in holders)
    with tracer.Tracer() as t:
        wrapper = cplab.standard_basis
        assert wrapper is not original
        assert all(h.standard_basis is wrapper for h in holders)
        shared = cplab.standard_basis(3)
        assert cplab.basis.standard_basis(3) is shared
        assert cplab.cli.standard_basis(np.int64(3)) is shared
    assert t.stats["basis.standard_basis"]["calls"] == 3
    assert all(h.standard_basis is original for h in holders)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-cp", *NEGATIVE],
        ["witness", *NEGATIVE],
        ["scan", *NEGATIVE],
        ["convert", "--config", str(DATA / "config_lowering.json")],
        ["evolve", *NEGATIVE, "--time", "0.3", "--state", str(DATA / "state_d2.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_one_span_per_cli_layer_per_call(argv, capsys):
    """One CLI call is one ``load_config``, one command and one ``_emit`` span: a
    command bound to, or calling, another traced command would count twice."""
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        assert cplab.cli.main(argv) in (0, 2)
    capsys.readouterr()
    calls = {key: t.stats[key]["calls"] for key in ("cli.load_config", "cli.command", "cli.emit")}
    assert calls == {"cli.load_config": 1, "cli.command": 1, "cli.emit": 1}
