"""Per-layer tracing of cplab from outside the package.

:class:`Tracer` replaces, in every loaded ``cplab`` module, each binding of
a traced function with a timing wrapper.  Because the bindings that the
importing modules hold (``cplab.witness.matrix_exp``,
``cplab.cli.tensor_extension`` and so on) are swapped too, calls nested
inside the library become child spans, and a layer's self time is its span
minus the spans of its children.  Spans are aggregated per layer in memory.
"""

from __future__ import annotations

import sys
import time


def _input_dim(args, _result):
    return len(args[0])


def _output_dim(_args, result):
    return result.matrix.shape[0]


#: (module, function, layer key, size probe) for every traced binding.
TRACED = (
    ("basis", "standard_basis", "basis.standard_basis", None),
    ("generator", "superoperator_of", "generator.superoperator_of", None),
    ("generator", "lindblad_to_gks", "generator.lindblad_to_gks", None),
    ("generator", "gks_to_lindblad", "generator.gks_to_lindblad", None),
    ("dynamics", "is_completely_positive", "dynamics.is_completely_positive", None),
    ("dynamics", "choi_matrix", "dynamics.choi_matrix", None),
    ("dynamics", "evolution_map", "dynamics.evolution_map", None),
    ("dynamics", "tensor_extension", "dynamics.tensor_extension", _output_dim),
    ("linalg", "matrix_exp", "linalg.matrix_exp", _input_dim),
    ("linalg", "similarity_to_transpose", "linalg.similarity_to_transpose", None),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig", None),
    ("linalg", "min_eigenvalue", "linalg.min_eigenvalue", None),
    ("witness", "construct_witness", "witness.construct_witness", None),
    ("witness", "overlap_rate", "witness.overlap_rate", None),
    ("witness", "negativity_scan", "witness.negativity_scan", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "cmd_check_cp", "cli.command", None),
    ("cli", "cmd_witness", "cli.command", None),
    ("cli", "cmd_convert", "cli.command", None),
    ("cli", "cmd_evolve", "cli.command", None),
    ("cli", "cmd_scan", "cli.command", None),
    ("cli", "_emit", "cli.emit", None),
)

LAYERS = tuple(dict.fromkeys(key for _, _, key, _ in TRACED))
#: Layers whose size probe records ``max_dim`` and ``dim3_sum``.
SIZED = tuple(key for _, _, key, probe in TRACED if probe is not None)


def empty_stats() -> dict:
    return {"calls": 0, "self_ms": 0.0, "max_dim": 0, "dim3_sum": 0}


def merge(total: dict, part: dict) -> None:
    """Add the per-layer stats ``part`` into ``total``."""
    for key, stats in part.items():
        acc = total.setdefault(key, empty_stats())
        for field in ("calls", "self_ms", "dim3_sum"):
            acc[field] += stats[field]
        acc["max_dim"] = max(acc["max_dim"], stats["max_dim"])


class Tracer:
    """Installs timing wrappers on cplab's bindings; use as a context manager."""

    def __init__(self):
        self.stats = {key: empty_stats() for key in LAYERS}
        self._child_s = []
        self._patched = []

    def _wrap(self, key, fn, probe):
        stats = self.stats[key]
        child_s = self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stats["calls"] += 1
                stats["self_ms"] += (elapsed - child_s.pop()) * 1e3
                if child_s:
                    child_s[-1] += elapsed
            if probe is not None:
                n = probe(args, result)
                stats["max_dim"] = max(stats["max_dim"], n)
                stats["dim3_sum"] += n**3
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "cplab" or name.startswith("cplab.")]
        for mod_name, func_name, key, probe in TRACED:
            home = sys.modules.get(f"cplab.{mod_name}")
            if home is None:
                continue
            original = getattr(home, func_name)
            wrapper = self._wrap(key, original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False
