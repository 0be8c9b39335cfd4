"""Command-line interface and report serialization.

Subcommands: ``check-cp``, ``witness``, ``convert``, ``evolve``, ``scan``.
Configuration and reports are JSON; complex entries are two-element
``[re, im]`` arrays and matrices are lists of rows, so reports are
diff-able and round-trip binary64 exactly.

Exit codes: 0 = CP / success, 2 = non-CP (or positivity violation)
certified, 1 = usage or configuration error.  Identical config and seed
produce byte-identical reports.

The result sections ``verdict``, ``witness``, ``scan``, ``no_negative_direction``
and the converted ``generator`` are exactly their result types' fields, written by
:func:`_to_json`.  Goldens pin these sections, so a new diagnostic belongs in
an opt-in section of its own, not in these types' fields.

One precedence rule holds for every setting: the flag, then the config field,
then the default; the value is checked under the name of the source it came
from.  The positivity tolerance is ``--tol``, ``tolerances.positivity``, the
``CPLAB_TOL`` environment variable, then ``POSITIVITY_TOL``; the library's
:func:`~cplab.linalg.require_tolerance` refuses it outside ``[0, 1)``.  The
seed is ``--seed``, ``seed``, then 0; the time grid ``--grid``, ``grid``, then
the library's default scan grid.  A JSON ``null`` in an optional field
(``seed``, ``grid``, ``tolerances``, ``generator.form`` and the rest) means the
field is absent; a required one (``dim``, ``generator``, ``coeff``, ``jump_ops``)
is refused.
``evolve`` refuses, with exit 1, an evolved state whose trace drifted from the
input's by more than ``TRACE_TOL``: its propagator lost accuracy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .basis import OperatorBasis, standard_basis
from .dynamics import TRACE_TOL, DensityMatrix, evolve, is_completely_positive
from .errors import ConfigError, CplabError, InvalidState, NotCompletelyPositive
from .generator import (
    GKSGenerator,
    LindbladGenerator,
    gks_to_lindblad,
    lindblad_to_gks,
)
from .linalg import POSITIVITY_TOL, _hermitian_margin, hermiticity_deviation, require_tolerance
from .witness import (
    NoNegativeDirection,
    _require_grid,
    bell_phi_matrix,
    construct_witness,
    negativity_scan,
)

_ENV_TOL = "CPLAB_TOL"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CP = 2


# --------------------------------------------------------------------------
# JSON <-> numpy
# --------------------------------------------------------------------------


def _to_json(value):
    """The one writer of report values: a result dataclass as a dict of its fields, a complex
    array, scalar or tuple of arrays as ``[re, im]`` pairs, a real array as a list."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if np.iscomplexobj(value):
        return np.stack((np.real(value), np.imag(value)), axis=-1).tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real_from_json(value, field: str) -> float:
    """A finite float; JSON's ``NaN``, ``Infinity`` and out-of-range numbers are refused."""
    if not _is_real(value):
        raise ConfigError(f"{field}: entry {value!r} is not a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{field}: entry {value!r} is not a finite number")
    return x


def _array_from_json(obj, field: str, shape: tuple) -> np.ndarray:
    """A complex array of ``shape`` from nested JSON lists of numbers or ``[re, im]`` pairs.

    ``None`` in ``shape`` takes the first list's length on that axis, so rows must
    agree; only a stack may be empty.  Errors name the path, e.g. ``generator.coeff[1]``.
    """
    shape = list(shape)

    def walk(node, path: str, axis: int):
        if axis == len(shape):
            parts = node if isinstance(node, list) and len(node) == 2 else [node, 0]
            if not all(_is_real(x) for x in parts):
                raise ConfigError(f"{path}: entry {node!r} is not a number or [re, im] pair")
            return complex(*(_real_from_json(x, path) for x in parts))
        kind = ("entries", "rows", "matrices")[len(shape) - axis - 1]
        if not isinstance(node, list):
            raise ConfigError(f"{path}: expected a list of {kind}")
        if not node and kind != "matrices":
            raise ConfigError(f"{path}: expected a nonempty list of {kind}")
        if shape[axis] is None:
            shape[axis] = len(node)
        if len(node) != shape[axis]:
            raise ConfigError(f"{path}: expected {shape[axis]} {kind}, got {len(node)}")
        return [walk(x, f"{path}[{i}]", axis + 1) for i, x in enumerate(node)]

    return np.array(walk(obj, field, 0), dtype=complex).reshape(shape)


def _read_json(path: str, what: str) -> dict:
    """Parse a JSON file holding one object; anything else raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # 4300-digit limit on integer literals; RecursionError, deep nesting.
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: top level must be a JSON object")
    return raw


@contextmanager
def _naming(field: str):
    """Re-raise a library error from building ``field`` as a :class:`ConfigError` naming it."""
    try:
        yield
    except ConfigError:
        raise
    except CplabError as exc:
        raise ConfigError(f"{field}: {exc}") from None


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    """Parsed problem statement: generator, tolerances, seed, grid."""

    form: str
    gks: GKSGenerator
    tolerance: float
    seed: int
    grid: tuple | None
    echo: dict


def _parse_grid_spec(spec: str) -> tuple:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects 'start:stop:points:log|lin', got {spec!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None
    if points < 1 or not 0 <= start < stop < np.inf:
        raise ConfigError(f"--grid: need 0 <= start < stop < inf and points >= 1, got {spec!r}")
    if parts[3] == "log":
        if start <= 0:
            raise ConfigError("--grid: log spacing needs start > 0")
        return tuple(np.geomspace(start, stop, points))
    if parts[3] == "lin":
        return tuple(np.linspace(start, stop, points))
    raise ConfigError(f"--grid: spacing must be 'log' or 'lin', got {parts[3]!r}")


def _first_set(*candidates: tuple[str, object]) -> tuple[str, object]:
    """The first ``(source, value)`` pair whose value is not ``None``, else the last pair."""
    return next((pair for pair in candidates if pair[1] is not None), candidates[-1])


def load_config(args) -> ProblemConfig:
    """Read, validate and normalize the problem configuration."""
    if args.config is None:
        raise ConfigError("--config is required")
    raw = _read_json(args.config, "config")
    gen = raw.get("generator")
    if not isinstance(gen, dict):
        raise ConfigError("config: missing object field 'generator'")
    if args.preset is not None:
        # meson-d2 fills in dim = 2 and a zero Hamiltonian; evolve starts from the Bell singlet.
        if raw.setdefault("dim", 2) != 2:
            raise ConfigError("preset meson-d2 requires dim = 2")
        if "coeff" not in gen:
            raise ConfigError("preset meson-d2 needs the user-supplied generator.coeff matrix")
        gen.setdefault("hamiltonian", [[0.0, 0.0], [0.0, 0.0]])

    if "dim" not in raw:
        raise ConfigError("config: missing field 'dim'")
    dim = raw["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise ConfigError(f"dim: expected an integer >= 2, got {dim!r}")

    has_coeff = "coeff" in gen
    has_jumps = "jump_ops" in gen
    if has_coeff == has_jumps:
        raise ConfigError("generator: exactly one of 'coeff' (GKS) or 'jump_ops' (Lindblad) required")
    form = "gks" if has_coeff else "lindblad"
    if gen.get("form") not in (None, form):
        raise ConfigError(f"generator.form {gen['form']!r} does not match the supplied fields")

    # Every array is shape-checked before the d^2 - 1 basis matrices are built;
    # a null hamiltonian or basis means the default, a null coeff or jump_ops is refused.
    n, stack = dim * dim - 1, (None, dim, dim)
    shapes = {"hamiltonian": (dim, dim), "coeff": (n, n), "jump_ops": stack, "basis": stack}
    arrays = {
        field: _array_from_json(gen[field], f"generator.{field}", shape)
        for field, shape in shapes.items()
        if gen.get(field) is not None or field == ("coeff" if has_coeff else "jump_ops")
    }
    hamiltonian = arrays.get("hamiltonian", np.zeros((dim, dim), dtype=complex))
    with _naming("generator.basis"):
        basis = OperatorBasis(dim, arrays["basis"]) if "basis" in arrays else standard_basis(dim)

    with _naming("generator"):
        if form == "gks":
            gks = GKSGenerator(dim=dim, hamiltonian=hamiltonian, coeff=arrays["coeff"], basis=basis)
        else:
            jumps = tuple(arrays["jump_ops"])
            lindblad = LindbladGenerator(dim=dim, hamiltonian=hamiltonian, jump_ops=jumps)
            gks = lindblad_to_gks(lindblad, basis)

    tolerances = _first_set(("tolerances", raw.get("tolerances")), ("default", {}))[1]
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances: expected a JSON object")
    source, tolerance = _first_set(
        ("--tol", args.tol),
        ("tolerances.positivity", tolerances.get("positivity")),
        (_ENV_TOL, os.environ.get(_ENV_TOL)),
        ("POSITIVITY_TOL", POSITIVITY_TOL),
    )
    if source == _ENV_TOL:
        try:
            tolerance = float(tolerance)
        except ValueError:
            raise ConfigError(f"{_ENV_TOL}={tolerance!r} is not a number") from None
    with _naming(source):
        tolerance = require_tolerance(_real_from_json(tolerance, source))

    source, seed = _first_set(("--seed", args.seed), ("seed", raw.get("seed")), ("seed", 0))
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{source}: expected an integer >= 0, got {seed!r}")

    source, grid = _first_set(("--grid", getattr(args, "grid", None)), ("grid", raw.get("grid")))
    if source == "--grid":
        grid = _parse_grid_spec(grid)
    elif grid is not None:
        if not isinstance(grid, list):
            raise ConfigError("grid: expected a list of times")
        grid = tuple(_real_from_json(t, f"grid[{i}]") for i, t in enumerate(grid))
    if grid is not None:
        # A spec can pass _parse_grid_spec and still collapse in floating point.
        with _naming(source):
            _require_grid(grid)

    return ProblemConfig(
        form=form,
        gks=gks,
        tolerance=tolerance,
        seed=seed,
        grid=grid,
        echo=raw,
    )


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------


def _report(config: ProblemConfig, command: str, **sections) -> dict:
    """The report of ``command``: its ``sections`` plus the run's provenance."""
    provenance = {
        "tool": "cplab",
        "version": __version__,
        "seed": config.seed,
        "tolerance": config.tolerance,
        "config": config.echo,
    }
    return {"command": command, "provenance": provenance, **sections}


def _scan_section(config: ProblemConfig, psi, phi) -> dict:
    """The ``scan`` section: the pair ``psi``, ``phi`` scanned over the config's grid."""
    scan = negativity_scan(config.gks, psi, phi, t_grid=config.grid, tol=config.tolerance)
    return {"scan": _to_json(scan)}


def _witness_sections(config: ProblemConfig, args, scan: bool) -> dict:
    """The ``witness`` section and, if ``scan``, the scan of its pair; or ``no_negative_direction``."""
    rng = np.random.default_rng(config.seed)
    phi_matrix = None
    if getattr(args, "bell_fixture", False):
        if config.gks.dim != 2:
            raise ConfigError("--bell-fixture is only defined for dim = 2")
        phi_matrix = bell_phi_matrix()
    result = construct_witness(config.gks, rng=rng, tol=config.tolerance, phi_matrix=phi_matrix)
    if isinstance(result, NoNegativeDirection):
        return {"no_negative_direction": _to_json(result)}
    scanned = _scan_section(config, result.psi, result.phi) if scan else {}
    return {"witness": _to_json(result), **scanned}


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _verdict_report(config: ProblemConfig, args) -> tuple[dict, int]:
    """Report of ``check-cp`` and ``witness``; ``witness`` builds the witness even when CP.

    A witness entry is present exactly when the verdict is non-CP.
    """
    scan = args.subcommand == "witness"
    verdict = is_completely_positive(config.gks, tol=config.tolerance)
    sections = _witness_sections(config, args, scan) if scan or not verdict.is_cp else {}
    if verdict.is_cp == ("witness" in sections):
        raise CplabError("report invariant violated: witness presence must match verdict")
    report = _report(config, args.subcommand, verdict=_to_json(verdict), **sections)
    return report, EXIT_OK if verdict.is_cp else EXIT_NOT_CP


def cmd_check_cp(config: ProblemConfig, args) -> tuple[dict, int]:
    return _verdict_report(config, args)


def cmd_witness(config: ProblemConfig, args) -> tuple[dict, int]:
    return _verdict_report(config, args)


def cmd_convert(config: ProblemConfig, args) -> tuple[dict, int]:
    if config.form == "gks":
        converted = gks_to_lindblad(config.gks, tol=config.tolerance)
        generator = {"form": "lindblad", **_to_json(converted)}
    else:
        # Spelled out: serializing the unreported basis' d^2 - 1 matrices would be waste.
        generator = {
            "form": "gks",
            "dim": config.gks.dim,
            "hamiltonian": _to_json(config.gks.hamiltonian),
            "coeff": _to_json(config.gks.coeff),
        }
    return _report(config, "convert", generator=generator), EXIT_OK


def _load_state(path: str | None, preset: str | None, tol: float) -> DensityMatrix:
    """The ``evolve`` input state, checked at ``tol``, the tolerance its evolution is judged at."""
    if path is None:
        if preset is not None:
            return DensityMatrix.from_pure(bell_phi_matrix().reshape(-1), tol)
        raise ConfigError("state: no state supplied and the preset provides none")
    raw = _read_json(path, "state")
    with _naming("state"):
        if "matrix" in raw:
            mat = _array_from_json(raw["matrix"], "state.matrix", (None, None))
            return DensityMatrix(dim=mat.shape[0], matrix=mat, tol=tol)
        if "vector" in raw:
            vector = _array_from_json(raw["vector"], "state.vector", (None,))
            return DensityMatrix.from_pure(vector, tol)
    raise ConfigError("state: needs a 'matrix' or 'vector' field")


def cmd_evolve(config: ProblemConfig, args) -> tuple[dict, int]:
    state = _load_state(args.state, args.preset, config.tolerance)
    evolved = evolve(config.gks, state.matrix, (args.time,))[0]
    drift = abs(np.trace(evolved) - np.trace(state.matrix))
    if drift > TRACE_TOL:
        raise InvalidState(
            f"evolved state at t = {args.time:g} lost its trace (|Tr rho(t) - Tr rho(0)| = "
            f"{drift:.3e}): the propagator has lost accuracy"
        )
    low, cutoff, _ = _hermitian_margin(evolved, config.tolerance)
    violated = low < -cutoff
    report = _report(
        config,
        "evolve",
        time=args.time,
        mode="single" if state.dim == config.gks.dim else "extended",
        state=_to_json(evolved),
        trace=_to_json(np.trace(evolved)),
        hermiticity_deviation=hermiticity_deviation(evolved),
        min_eigenvalue=low,
        positivity_violated=violated,
    )
    return report, EXIT_NOT_CP if violated else EXIT_OK


def cmd_scan(config: ProblemConfig, args) -> tuple[dict, int]:
    if args.state is None:
        sections = _witness_sections(config, args, scan=True)
    else:
        raw = _read_json(args.state, "state")
        if "psi" not in raw or "phi" not in raw:
            raise ConfigError("scan state: expected a JSON object with 'psi' and 'phi' vectors")
        pair = (_array_from_json(raw[v], f"state.{v}", (config.gks.dim**2,)) for v in ("psi", "phi"))
        sections = _scan_section(config, *pair)
    negative = "scan" in sections and sections["scan"]["first_negative_time"] is not None
    return _report(config, "scan", **sections), EXIT_NOT_CP if negative else EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for certified non-CP verdicts, so
    # usage errors must not use argparse's default exit code.
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser, grid: bool = False):
    sub.add_argument("--config", help="path to the JSON problem configuration")
    sub.add_argument("--tol", type=float, help="positivity tolerance override")
    sub.add_argument("--seed", type=int, help="RNG seed override")
    sub.add_argument("--output", help="report destination (default stdout)")
    sub.add_argument("--preset", choices=["meson-d2"], help="fill in the d=2 demo frame of --config")
    if grid:
        sub.add_argument("--grid", help="time grid as 'start:stop:points:log|lin'")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cplab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cplab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(subs.add_parser("check-cp", help="decide complete positivity"))
    wit = subs.add_parser("witness", help="construct a witness and scan for negativity")
    _add_common(wit, grid=True)
    wit.add_argument(
        "--bell-fixture",
        action="store_true",
        help="use the fixed d=2 singlet coefficient matrix instead of the similarity solver",
    )
    _add_common(subs.add_parser("convert", help="convert between generator forms"))
    evo = subs.add_parser("evolve", help="evolve a state (single or doubled system)")
    _add_common(evo)
    evo.add_argument("--time", type=float, required=True, help="evolution time (nonnegative)")
    evo.add_argument("--state", help="JSON state file with a 'matrix' or 'vector' field")
    sca = subs.add_parser("scan", help="negativity scan over a time grid")
    _add_common(sca, grid=True)
    sca.add_argument("--state", help="JSON file with explicit 'psi' and 'phi' vectors")

    return parser


def _emit(report: dict, output: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    try:
        with nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CplabError(f"cannot write report: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    # Built per call: bench/tracer.py swaps the module's cmd_* bindings for timing wrappers.
    commands = {
        "check-cp": cmd_check_cp,
        "witness": cmd_witness,
        "convert": cmd_convert,
        "evolve": cmd_evolve,
        "scan": cmd_scan,
    }
    try:
        # One stderr line per refusal: numpy's floating-point warnings on an input that
        # overflows are silenced here, once, not in the per-matrix helpers of a verdict.
        with np.errstate(all="ignore"):
            args = parser.parse_args(argv)
            config = load_config(args)
            report, code = commands[args.subcommand](config, args)
            _emit(report, args.output)
    except NotCompletelyPositive as exc:
        sys.stderr.write(f"cplab: conversion refused: {exc}\n")
        return EXIT_NOT_CP
    except ConfigError as exc:
        sys.stderr.write(f"cplab: config error: {exc}\n")
        return EXIT_ERROR
    except CplabError as exc:
        sys.stderr.write(f"cplab: error: {exc}\n")
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
