"""Seeded benchmark inputs and the independent oracles that check cplab's outputs.

Nothing in this module imports cplab.  The random distributions mirror
``tests/helpers.py``; the non-PSD coefficient matrices follow the
reproducer of the d >= 4 verdict defect: a ``random_hermitian`` C shifted so
that its smallest eigenvalue is exactly -0.5.  Every drawn input is kept.
The workloads' ops are chosen so that none fails on the current code: the CP
verdict of a non-PSD generator at d >= 4, which raises ``InconsistentVerdict``
(ROADMAP item 1), is measured instead by a fixed census of that reproducer.

The oracles rebuild the generator superoperator from the generalized
Gell-Mann basis (same ordering as ``cplab.standard_basis``) and evolve the
doubled system in factorized form, ``e^{tL} kron e^{tL}``, so they share no
code with the calls they check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

#: cplab's default positivity tolerance; cutoffs are ``tol * max(1, ||M||_F)``.
POSITIVITY_TOL = 1e-9
#: cplab's default negativity-scan grid.
SCAN_GRID = np.geomspace(1e-4, 1.0, 30)
#: Grid indices at which scan eigenvalues are checked against the oracle.
SCAN_CHECK_POINTS = (0, 15, 29)
#: Smallest eigenvalue of every non-PSD coefficient matrix.
NEG_MIN_EIG = -0.5
#: Evolution time of the ``evolve`` CLI ops.
EVOLVE_TIME = 0.2

#: verdict-sweep ops per cycle of 40, by (d, kind).  Sorted by cost: PSD
#: d=2..4 and non-PSD d=2 (0.7-1.4 ms, 35%), non-PSD d=3 (~1.9 ms, holds
#: p50), PSD d=5, non-PSD d=4 and PSD d=6 (2-3.3 ms), non-PSD d=5 (~10 ms,
#: holds p90 a quarter of the way up) and non-PSD d=6 (~56 ms).
VERDICT_MIX = {
    (2, "psd"): 3, (3, "psd"): 3, (4, "psd"): 3, (5, "psd"): 3, (6, "psd"): 1,
    (2, "neg"): 5, (3, "neg"): 15, (4, "neg"): 2, (5, "neg"): 4, (6, "neg"): 1,
}
#: Non-PSD verdict-sweep draws at this d and above build the witness only; the
#: verdict on them raises ``InconsistentVerdict`` on the current code.
WITNESS_ONLY_FROM_D = 4
#: The census: the ROADMAP item 1 reproducer, non-PSD generators drawn with
#: ``default_rng(7)``, as (d, count).  Fixed, so every run checks the same
#: verdicts.
CENSUS = ((2, 40), (3, 40), (4, 40), (5, 10))
CENSUS_SEED = 7
#: doubled-scan ops per cycle, by d: p50 falls low in the d = 3 group, p90
#: in the middle of the d = 4 group.
SCAN_MIX = {2: 4, 3: 4, 4: 2}
#: Default number of freshly drawn cycles in one workload's input list.
DEFAULT_CYCLES = {"verdict-sweep": 8, "doubled-scan": 5, "cli": 8}
#: Cycles drawn for a traced run, whose passes cover the whole list; two
#: keep a traced ``cli`` round (untraced plus traced pass) near 25 s.
TRACE_CYCLES = 2


# --------------------------------------------------------------------------
# Distributions (mirroring tests/helpers.py)
# --------------------------------------------------------------------------


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def random_traceless_hermitian(d, rng):
    h = random_hermitian(d, rng)
    return h - np.trace(h) / d * np.eye(d)


def random_psd(n, rng):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b.conj().T @ b


def random_density(d, rng):
    m = random_psd(d, rng)
    return m / np.trace(m)


def random_pure_vector(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_coeff(n, kind, rng):
    """A PSD coefficient matrix, or one shifted to smallest eigenvalue -0.5."""
    if kind == "psd":
        return random_psd(n, rng)
    c = random_hermitian(n, rng)
    return c - (np.linalg.eigvalsh(c)[0] - NEG_MIN_EIG) * np.eye(n)


def spread_order(weights: dict) -> list:
    """Keys repeated by weight and interleaved evenly, so any stretch of the
    list holds each key close to its share."""
    slots = [((k + 0.5) / w, i, key) for i, (key, w) in enumerate(weights.items()) for k in range(w)]
    return [key for _, _, key in sorted(slots)]


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def cutoff(m) -> float:
    return POSITIVITY_TOL * max(1.0, float(np.linalg.norm(m)))


def gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis: symmetric pairs, antisymmetric pairs,
    diagonal levels, each of unit Hilbert-Schmidt norm."""
    out = []
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1.0
        out.append(m / np.sqrt(2.0))
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k], m[k, j] = -1.0j, 1.0j
        out.append(m / np.sqrt(2.0))
    for level in range(1, d):
        m = np.diag([1.0] * level + [-float(level)] + [0.0] * (d - level - 1)).astype(complex)
        out.append(m / np.sqrt(level * (level + 1)))
    return np.stack(out)


def superop(h, c) -> np.ndarray:
    """Column-stacking matrix of the GKS generator with Hamiltonian ``h`` and
    coefficient matrix ``c`` over the Gell-Mann basis."""
    d = h.shape[0]
    f = gell_mann(d)
    eye = np.eye(d)
    sandwich = np.einsum("ab,bij,akl->ikjl", c, f.conj(), f).reshape(d * d, d * d)
    g = np.einsum("ab,bki,akj->ij", c, f.conj(), f)
    return (
        -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        + sandwich
        - 0.5 * (np.kron(eye, g) + np.kron(g.T, eye))
    )


def _hermitian_min(m) -> tuple[float, float]:
    herm = (m + m.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0]), cutoff(herm)


def evolve_single(l, rho, t) -> np.ndarray:
    d = rho.shape[0]
    return (scipy.linalg.expm(t * l) @ rho.reshape(-1, order="F")).reshape(d, d, order="F")


def evolve_doubled(l, psi, t) -> np.ndarray:
    """``(e^{tL} kron e^{tL})[|psi><psi| / <psi|psi>]`` on C^d kron C^d."""
    d = int(round(np.sqrt(l.shape[0])))
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj()).reshape(d, d, d, d)
    # m[i, j, k, l]: coefficient of E_ij in e^{tL}[E_kl].
    m = scipy.linalg.expm(t * l).reshape(d, d, d, d).transpose(1, 0, 3, 2)
    return np.einsum("ackl,bdmn,kmln->abcd", m, m, rho).reshape(d * d, d * d)


def scan_oracle(h, c, psi) -> dict:
    """Minimum eigenvalues at the check points and the first negative grid time."""
    l = superop(h, c)
    mins, first = {}, None
    for idx, t in enumerate(SCAN_GRID):
        low, cut = _hermitian_min(evolve_doubled(l, psi, t))
        if idx in SCAN_CHECK_POINTS:
            mins[idx] = low
        if first is None and low < -cut:
            first = float(t)
    return {"min_eigenvalues": mins, "first_negative_time": first}


def scan_matches(scan_times, scan_mins, first_negative, oracle) -> bool:
    if not np.allclose(scan_times, SCAN_GRID, rtol=1e-12, atol=0.0):
        return False
    for idx, expected in oracle["min_eigenvalues"].items():
        if abs(scan_mins[idx] - expected) > 1e-8 * max(1.0, abs(expected)):
            return False
    return first_negative == oracle["first_negative_time"]


def witness_value_ok(value, lam_min, c_norm) -> bool:
    return abs(value - 0.5 * lam_min) <= 1e-8 * max(1.0, c_norm)


def coeff_facts(c) -> dict:
    return {"lam_min": float(np.linalg.eigvalsh(c)[0]), "cutoff": cutoff(c), "c_norm": float(np.linalg.norm(c))}


# --------------------------------------------------------------------------
# JSON helpers for the CLI's config format
# --------------------------------------------------------------------------


def matrix_to_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def vector_to_json(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def _entry(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def vector_from_json(obj) -> np.ndarray:
    """Inverse of :func:`vector_to_json`; plain numbers are accepted too."""
    return np.array([_entry(x) for x in obj], dtype=complex)


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; plain numbers are accepted too."""
    return np.array([[_entry(x) for x in row] for row in obj], dtype=complex)


def read_gks_config(path) -> tuple[np.ndarray, np.ndarray]:
    gen = json.loads(Path(path).read_text())["generator"]
    return matrix_from_json(gen["hamiltonian"]), matrix_from_json(gen["coeff"])


# --------------------------------------------------------------------------
# Workload inputs
# --------------------------------------------------------------------------


def _draw_generator(d, kind, rng):
    h = random_traceless_hermitian(d, rng)
    c = random_coeff(d * d - 1, kind, rng)
    return h, c


def _library_inputs(strata, cycles, rng, workdir: Path):
    """Draw one generator per stratum entry and save them as npz + manifest."""
    manifest, arrays = [], {}
    for _ in range(cycles):
        for d, kind in strata:
            h, c = _draw_generator(d, kind, rng)
            arrays[f"h{len(manifest)}"], arrays[f"c{len(manifest)}"] = h, c
            verdict = kind == "psd" or d < WITNESS_ONLY_FROM_D
            manifest.append({"d": d, "kind": kind, "verdict": verdict, **coeff_facts(c)})
    np.savez(workdir / "arrays.npz", **arrays)
    (workdir / "manifest.json").write_text(json.dumps(manifest))


def _cli_inputs(cycles, rng, workdir: Path, data_dir: Path):
    ops = []

    def config(d, kind):
        h, c = _draw_generator(d, kind, rng)
        path = workdir / f"config{len(ops)}.json"
        raw = {
            "dim": d,
            "generator": {"form": "gks", "hamiltonian": matrix_to_json(h), "coeff": matrix_to_json(c)},
            "seed": int(rng.integers(2**31)),
        }
        path.write_text(json.dumps(raw))
        return str(path), h, c

    def verdict_op(command, path, facts, **extra):
        code = 0 if facts["lam_min"] >= -facts["cutoff"] else 2
        ops.append({"argv": [command, "--config", path], "expect_code": code, "check": command, **facts, **extra})

    def generated(command, d, kind):
        path, _, c = config(d, kind)
        verdict_op(command, path, coeff_facts(c))

    def data_op(command, name, golden=None):
        path = str(data_dir / name)
        h, c = read_gks_config(path)
        verdict_op(command, path, coeff_facts(c), golden=None if golden is None else str(data_dir / golden))

    def evolve(d, kind, doubled):
        path, h, c = config(d, kind)
        l = superop(h, c)
        if doubled:
            v = random_pure_vector(d * d, rng)
            state, out = {"vector": vector_to_json(v)}, evolve_doubled(l, v, EVOLVE_TIME)
        else:
            rho = random_density(d, rng)
            state, out = {"matrix": matrix_to_json(rho)}, evolve_single(l, rho, EVOLVE_TIME)
        low, cut = _hermitian_min(out)
        state_path = workdir / f"state{len(ops)}.json"
        state_path.write_text(json.dumps(state))
        ops.append({
            "argv": ["evolve", "--config", path, "--state", str(state_path), "--time", str(EVOLVE_TIME)],
            "expect_code": 2 if low < -cut else 0,
            "check": "evolve",
            "mode": "extended" if doubled else "single",
            "min_eigenvalue": low,
        })

    def convert(d):
        path, _, c = config(d, "psd")
        ops.append({"argv": ["convert", "--config", path], "expect_code": 0, "check": "convert", "form": "lindblad"})

    # Per cycle of 20: 17 calls of ~200 ms (interpreter start, import and
    # small-d work) and 3 d = 4 scans of ~700 ms, so p50 falls in the first
    # group and p90 low in the second.  No non-PSD check-cp or witness at
    # d = 4: its verdict raises on the current code (see the census).
    lowering = str(data_dir / "config_lowering.json")
    for _ in range(cycles):
        data_op("check-cp", "config_depolarizing.json", "golden_checkcp_depolarizing.json")
        data_op("check-cp", "config_negative.json", "golden_checkcp_negative.json")
        ops.append({"argv": ["check-cp", "--config", lowering], "expect_code": 0, "check": "check-cp"})
        data_op("witness", "config_negative.json")
        ops.append({"argv": ["convert", "--config", lowering], "expect_code": 0, "check": "convert", "form": "gks"})
        data_op("scan", "config_negative.json")
        generated("scan", 4, "neg")
        convert(3)
        evolve(3, "psd", doubled=False)
        generated("check-cp", 3, "psd")
        generated("check-cp", 3, "neg")
        generated("check-cp", 4, "psd")
        generated("scan", 4, "neg")
        generated("check-cp", 3, "neg")
        generated("witness", 3, "neg")
        generated("witness", 3, "neg")
        generated("scan", 3, "neg")
        evolve(3, "neg", doubled=True)
        evolve(4, "psd", doubled=True)
        generated("scan", 4, "neg")
    (workdir / "manifest.json").write_text(json.dumps(ops))


def census_inputs():
    """The census generators with their oracle facts, as (d, h, c, facts)."""
    rng = np.random.default_rng(CENSUS_SEED)
    for d, count in CENSUS:
        for _ in range(count):
            h, c = _draw_generator(d, "neg", rng)
            yield d, h, c, coeff_facts(c)


def write_inputs(workload: str, seed: int, cycles: int, workdir: Path, root: Path) -> None:
    """Draw the workload's inputs from ``seed`` into ``workdir``."""
    rng = np.random.default_rng(seed)
    if workload == "verdict-sweep":
        _library_inputs(spread_order(VERDICT_MIX), cycles, rng, workdir)
    elif workload == "doubled-scan":
        _library_inputs([(d, "neg") for d in spread_order(SCAN_MIX)], cycles, rng, workdir)
    else:
        _cli_inputs(cycles, rng, workdir, root / "tests" / "data")
