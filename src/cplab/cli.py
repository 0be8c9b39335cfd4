"""Command-line interface and report serialization.

Subcommands: ``check-cp``, ``witness``, ``convert``, ``evolve``, ``scan``.
Configuration and reports are JSON; complex entries are two-element
``[re, im]`` arrays and matrices are lists of rows, so reports are
diff-able and round-trip binary64 exactly.

Exit codes: 0 = CP / success, 2 = non-CP (or positivity violation)
certified, 1 = usage or configuration error.  Identical config and seed
produce byte-identical reports.

The positivity tolerance resolves as: ``--tol`` flag, then the config
``tolerances.positivity`` field, then the ``CPLAB_TOL`` environment
variable, then the built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .basis import OperatorBasis, standard_basis
from .dynamics import (
    DensityMatrix,
    doubled_evolution,
    evolution_map,
    is_completely_positive,
)
from .errors import (
    ConfigError,
    CplabError,
    DimensionMismatch,
    NotCompletelyPositive,
)
from .generator import (
    GKSGenerator,
    LindbladGenerator,
    gks_to_lindblad,
    lindblad_to_gks,
)
from .linalg import POSITIVITY_TOL, eps_pos, hermiticity_deviation
from .witness import (
    NoNegativeDirection,
    WitnessCandidate,
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


def _to_json(a) -> list:
    """A complex scalar, vector or matrix with every entry as an ``[re, im]`` pair."""
    return np.stack((np.real(a), np.imag(a)), axis=-1).tolist()


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
    except json.JSONDecodeError as exc:
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


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed problem statement: generator, tolerances, seed, grid."""

    form: str
    gks: GKSGenerator
    tolerance: float
    seed: int
    grid: tuple | None
    initial_state: DensityMatrix | None
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
    if parts[3] in ("lin", "linear"):
        return tuple(np.linspace(start, stop, points))
    raise ConfigError(f"--grid: spacing must be 'log' or 'lin', got {parts[3]!r}")


def _resolve_tolerance(cli_tol, config_tol) -> float:
    """The first of ``--tol``, config and ``CPLAB_TOL`` that is set; in ``[0, 1)``.

    The cutoff is ``tol * max(1, ||C||_F)``, so a tolerance of 1 or more
    would certify every generator as CP.
    """
    env = os.environ.get(_ENV_TOL)
    if cli_tol is not None:
        source, value = "--tol", cli_tol
    elif config_tol is not None:
        source, value = "tolerances.positivity", config_tol
    elif env is not None:
        source = _ENV_TOL
        try:
            value = float(env)
        except ValueError:
            raise ConfigError(f"{_ENV_TOL}={env!r} is not a number") from None
    else:
        return POSITIVITY_TOL
    tol = _real_from_json(value, source)
    if not 0 <= tol < 1:
        raise ConfigError(f"{source}: tolerance must be in [0, 1), got {tol!r}")
    return tol


def load_config(args) -> ProblemConfig:
    """Read, validate and normalize the problem configuration."""
    raw = {} if args.config is None else _read_json(args.config, "config")

    preset_state = None
    if args.preset is not None:
        if args.preset != "meson-d2":
            raise ConfigError(f"unknown preset {args.preset!r}")
        raw.setdefault("dim", 2)
        if raw["dim"] != 2:
            raise ConfigError("preset meson-d2 requires dim = 2")
        gen = raw.setdefault("generator", {})
        if not isinstance(gen, dict):
            raise ConfigError("generator: expected a JSON object")
        gen.setdefault("hamiltonian", [[0.0, 0.0], [0.0, 0.0]])
        if "coeff" not in gen:
            raise ConfigError("preset meson-d2 needs the user-supplied generator.coeff matrix")
        preset_state = DensityMatrix.from_pure(bell_phi_matrix().reshape(-1))
    elif args.config is None:
        raise ConfigError("--config is required (or use --preset)")

    if "dim" not in raw:
        raise ConfigError("config: missing field 'dim'")
    dim = raw["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise ConfigError(f"dim: expected an integer >= 2, got {dim!r}")

    gen = raw.get("generator")
    if not isinstance(gen, dict):
        raise ConfigError("config: missing object field 'generator'")
    has_coeff = "coeff" in gen
    has_jumps = "jump_ops" in gen
    if has_coeff == has_jumps:
        raise ConfigError("generator: exactly one of 'coeff' (GKS) or 'jump_ops' (Lindblad) required")
    form = gen.get("form", "gks" if has_coeff else "lindblad")
    if form not in ("gks", "lindblad") or (form == "gks") != has_coeff:
        raise ConfigError(f"generator.form {form!r} does not match the supplied fields")

    if gen.get("hamiltonian") is None:
        hamiltonian = np.zeros((dim, dim), dtype=complex)
    else:
        hamiltonian = _array_from_json(gen["hamiltonian"], "generator.hamiltonian", (dim, dim))

    if gen.get("basis") is None:
        basis = standard_basis(dim)
    else:
        elems = _array_from_json(gen["basis"], "generator.basis", (None, dim, dim))
        with _naming("generator.basis"):
            basis = OperatorBasis(dim=dim, elements=elems)

    with _naming("generator"):
        if form == "gks":
            n = dim * dim - 1
            coeff = _array_from_json(gen["coeff"], "generator.coeff", (n, n))
            gks = GKSGenerator(dim=dim, hamiltonian=hamiltonian, coeff=coeff, basis=basis)
        else:
            jumps = _array_from_json(gen["jump_ops"], "generator.jump_ops", (None, dim, dim))
            lindblad = LindbladGenerator(dim=dim, hamiltonian=hamiltonian, jump_ops=tuple(jumps))
            gks = lindblad_to_gks(lindblad, basis)

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances: expected a JSON object")
    tolerance = _resolve_tolerance(args.tol, tolerances.get("positivity"))

    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: expected an integer >= 0, got {seed!r}")

    grid = None
    if getattr(args, "grid", None) is not None:
        grid = _parse_grid_spec(args.grid)
    elif raw.get("grid") is not None:
        if not isinstance(raw["grid"], list):
            raise ConfigError("grid: expected a list of times")
        grid = tuple(_real_from_json(t, f"grid[{i}]") for i, t in enumerate(raw["grid"]))

    return ProblemConfig(
        form=form,
        gks=gks,
        tolerance=tolerance,
        seed=seed,
        grid=grid,
        initial_state=preset_state,
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


def _witness_dict(candidate: WitnessCandidate) -> dict:
    return {
        "direction": _to_json(candidate.direction),
        "direction_operator": _to_json(candidate.direction_operator),
        "phi_matrix": _to_json(candidate.phi_matrix),
        "psi_matrix_dagger": _to_json(candidate.psi_matrix.conj().T),
        "phi": _to_json(candidate.phi),
        "psi": _to_json(candidate.psi),
        "value": candidate.value,
        "quadratic_form": candidate.quadratic_form,
        "transpose_sign": candidate.transpose_sign,
    }


def _scan_section(config: ProblemConfig, psi, phi) -> dict:
    scan = negativity_scan(config.gks, psi, phi, t_grid=config.grid, tol=config.tolerance)
    return {
        "times": [float(t) for t in scan.times],
        "min_eigenvalues": [float(x) for x in scan.min_eigenvalues],
        "overlap_values": [float(x) for x in scan.overlap_values],
        "first_negative_time": scan.first_negative_time,
    }


def _witness_sections(
    config: ProblemConfig, bell_fixture: bool = False, with_scan: bool = True
) -> dict:
    """``witness`` (and ``scan``) sections, or ``no_negative_direction`` for a PSD ``C``."""
    rng = np.random.default_rng(config.seed)
    phi_matrix = None
    if bell_fixture:
        if config.gks.dim != 2:
            raise ConfigError("--bell-fixture is only defined for dim = 2")
        phi_matrix = bell_phi_matrix()
    result = construct_witness(config.gks, rng=rng, tol=config.tolerance, phi_matrix=phi_matrix)
    if isinstance(result, NoNegativeDirection):
        return {"no_negative_direction": {"min_coeff_eigenvalue": result.min_coeff_eigenvalue}}
    sections = {"witness": _witness_dict(result)}
    if with_scan:
        sections["scan"] = _scan_section(config, result.psi, result.phi)
    return sections


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _verdict_report(
    config: ProblemConfig, command: str, with_scan: bool, bell_fixture: bool = False
) -> tuple[dict, int]:
    """Report of ``check-cp`` and ``witness``; ``with_scan`` builds the witness even when CP.

    A witness entry is present exactly when the verdict is non-CP.
    """
    verdict = is_completely_positive(config.gks, tol=config.tolerance)
    sections = {}
    if with_scan or not verdict.is_cp:
        sections = _witness_sections(config, bell_fixture, with_scan)
    if verdict.is_cp == ("witness" in sections):
        raise CplabError("report invariant violated: witness presence must match verdict")
    verdict_dict = {
        "is_cp": verdict.is_cp,
        "min_coeff_eigenvalue": verdict.min_coeff_eigenvalue,
        "min_choi_eigenvalue": verdict.min_choi_eigenvalue,
        "tolerance": verdict.tolerance,
    }
    report = _report(config, command, verdict=verdict_dict, **sections)
    return report, EXIT_OK if verdict.is_cp else EXIT_NOT_CP


def cmd_check_cp(config: ProblemConfig) -> tuple[dict, int]:
    return _verdict_report(config, "check-cp", with_scan=False)


def cmd_witness(config: ProblemConfig, bell_fixture: bool = False) -> tuple[dict, int]:
    return _verdict_report(config, "witness", with_scan=True, bell_fixture=bell_fixture)


def cmd_convert(config: ProblemConfig) -> tuple[dict, int]:
    if config.form == "gks":
        converted = gks_to_lindblad(config.gks, tol=config.tolerance)
        payload = {
            "form": "lindblad",
            "hamiltonian": _to_json(converted.hamiltonian),
            "jump_ops": [_to_json(v) for v in converted.jump_ops],
        }
    else:
        payload = {
            "form": "gks",
            "hamiltonian": _to_json(config.gks.hamiltonian),
            "coeff": _to_json(config.gks.coeff),
        }
    return _report(config, "convert", generator={"dim": config.gks.dim, **payload}), EXIT_OK


def _load_state(path: str | None, config: ProblemConfig) -> DensityMatrix:
    if path is None:
        if config.initial_state is not None:
            return config.initial_state
        raise ConfigError("state: no state supplied and the preset provides none")
    raw = _read_json(path, "state")
    with _naming("state"):
        if "matrix" in raw:
            mat = _array_from_json(raw["matrix"], "state.matrix", (None, None))
            return DensityMatrix(dim=mat.shape[0], matrix=mat)
        if "vector" in raw:
            return DensityMatrix.from_pure(_array_from_json(raw["vector"], "state.vector", (None,)))
    raise ConfigError("state: needs a 'matrix' or 'vector' field")


def cmd_evolve(config: ProblemConfig, state: DensityMatrix, t: float) -> tuple[dict, int]:
    d = config.gks.dim
    if state.dim == d:
        evolved = evolution_map(config.gks, t).apply(state.matrix)
        mode = "single"
    elif state.dim == d * d:
        evolved = doubled_evolution(config.gks, state.matrix, (t,))[0]
        mode = "extended"
    else:
        raise DimensionMismatch(
            f"state dimension {state.dim} is neither d={d} nor d^2={d * d}"
        )
    herm = (evolved + evolved.conj().T) / 2.0
    low = float(np.linalg.eigvalsh(herm)[0])
    violated = low < -eps_pos(herm, config.tolerance)
    report = _report(
        config,
        "evolve",
        time=t,
        mode=mode,
        state=_to_json(evolved),
        trace=_to_json(np.trace(evolved)),
        hermiticity_deviation=hermiticity_deviation(evolved),
        min_eigenvalue=low,
        positivity_violated=bool(violated),
    )
    return report, EXIT_NOT_CP if violated else EXIT_OK


def _load_pair(path: str, dim_sq: int) -> tuple[np.ndarray, np.ndarray]:
    raw = _read_json(path, "state")
    if "psi" not in raw or "phi" not in raw:
        raise ConfigError("scan state: expected a JSON object with 'psi' and 'phi' vectors")
    psi = _array_from_json(raw["psi"], "state.psi", (dim_sq,))
    phi = _array_from_json(raw["phi"], "state.phi", (dim_sq,))
    return psi, phi


def cmd_scan(config: ProblemConfig, state_path: str | None) -> tuple[dict, int]:
    if state_path is None:
        sections = _witness_sections(config)
    else:
        psi, phi = _load_pair(state_path, config.gks.dim**2)
        sections = {"scan": _scan_section(config, psi, phi)}
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
    sub.add_argument("--preset", choices=["meson-d2"], help="built-in demo configuration")
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
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args)
        if args.subcommand == "check-cp":
            report, code = cmd_check_cp(config)
        elif args.subcommand == "witness":
            report, code = cmd_witness(config, bell_fixture=args.bell_fixture)
        elif args.subcommand == "convert":
            report, code = cmd_convert(config)
        elif args.subcommand == "evolve":
            state = _load_state(args.state, config)
            report, code = cmd_evolve(config, state, args.time)
        else:
            report, code = cmd_scan(config, args.state)
    except NotCompletelyPositive as exc:
        sys.stderr.write(f"cplab: conversion refused: {exc}\n")
        return EXIT_NOT_CP
    except ConfigError as exc:
        sys.stderr.write(f"cplab: config error: {exc}\n")
        return EXIT_ERROR
    except CplabError as exc:
        sys.stderr.write(f"cplab: error: {exc}\n")
        return EXIT_ERROR
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
