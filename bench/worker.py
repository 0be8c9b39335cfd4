"""Child process of the benchmark: one set-up sample, measured stream, traced run or census.

Usage: ``python bench/worker.py WORKLOAD WORKDIR MODE SECONDS RESULT_PATH``
with MODE one of ``setup``, ``stream``, ``trace`` or ``census``.  ``run.py`` starts it
with BLAS pinned to one thread through the environment, draws the inputs
into WORKDIR beforehand, and reads the JSON written to RESULT_PATH.

Set-up time is ``import cplab`` plus warm-up; loading the inputs and
preparing oracles are excluded.  Only the standard library is imported
before ``import cplab`` is timed.
"""

from __future__ import annotations

import collections
import ctypes
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CLI_TIMEOUT_S = 60


def _time_import():
    start = time.perf_counter()
    cplab = importlib.import_module("cplab")
    return cplab, time.perf_counter() - start


class _LibraryWorkload:
    """Shared parts of the in-process workloads: inputs and peak memory."""

    def _load(self, workdir: Path):
        import numpy as np

        self.meta = json.loads((workdir / "manifest.json").read_text())
        with np.load(workdir / "arrays.npz") as arrays:
            self.h = [arrays[f"h{i}"] for i in range(len(self.meta))]
            self.c = [arrays[f"c{i}"] for i in range(len(self.meta))]

    def _first_of_each(self, key):
        firsts = {}
        for i, m in enumerate(self.meta):
            firsts.setdefault(key(m), i)
        return list(firsts.values())

    def traced_pass(self):
        from tracer import Tracer

        with Tracer() as tracer:
            outcome = run_pass(self)
        return outcome, tracer.stats

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class VerdictSweep(_LibraryWorkload):
    """One op: basis, CP verdict and witness for one generator; the witness
    only for non-PSD generators at d >= ``inputs.WITNESS_ONLY_FROM_D``."""

    def setup(self, workdir: Path) -> float:
        self.cplab, import_s = _time_import()
        self._load(workdir)
        self.ops = range(len(self.meta))
        start = time.perf_counter()
        for i in self._first_of_each(lambda m: (m["d"], m["kind"])):
            self.call(i)
        return import_s + time.perf_counter() - start

    def call(self, i):
        cplab, m = self.cplab, self.meta[i]
        basis = cplab.standard_basis(m["d"])
        g = cplab.GKSGenerator(dim=m["d"], hamiltonian=self.h[i], coeff=self.c[i], basis=basis)
        verdict = cplab.is_completely_positive(g) if m["verdict"] else None
        return verdict, cplab.construct_witness(g)

    def check(self, i, out) -> str:
        from inputs import witness_value_ok

        verdict, witness = out
        m = self.meta[i]
        expect_cp = m["lam_min"] >= -m["cutoff"]
        if verdict is not None and verdict.is_cp != expect_cp:
            return "mismatch"
        if isinstance(witness, self.cplab.NoNegativeDirection):
            if not expect_cp or abs(witness.min_coeff_eigenvalue - m["lam_min"]) > m["cutoff"]:
                return "mismatch"
        elif expect_cp or not witness_value_ok(witness.value, m["lam_min"], m["c_norm"]):
            return "mismatch"
        return "ok"


class DoubledScan(_LibraryWorkload):
    """One op: ``negativity_scan`` of a witness pair over the default grid."""

    def setup(self, workdir: Path) -> float:
        self.cplab, import_s = _time_import()
        self._load(workdir)
        self.ops = range(len(self.meta))
        start = time.perf_counter()
        cplab = self.cplab
        self.gens, self.pairs = [], []
        for i, m in enumerate(self.meta):
            g = cplab.GKSGenerator(
                dim=m["d"], hamiltonian=self.h[i], coeff=self.c[i], basis=cplab.standard_basis(m["d"])
            )
            w = cplab.construct_witness(g)
            self.gens.append(g)
            self.pairs.append((w.psi, w.phi))
        pair_s = time.perf_counter() - start

        from inputs import scan_oracle

        self.oracles = [scan_oracle(self.h[i], self.c[i], psi) for i, (psi, _) in enumerate(self.pairs)]
        start = time.perf_counter()
        for i in self._first_of_each(lambda m: m["d"]):
            self.call(i)
        return import_s + pair_s + time.perf_counter() - start

    def call(self, i):
        psi, phi = self.pairs[i]
        return self.cplab.negativity_scan(self.gens[i], psi, phi)

    def check(self, i, scan) -> str:
        from inputs import scan_matches

        ok = scan_matches(scan.times, scan.min_eigenvalues, scan.first_negative_time, self.oracles[i])
        return "ok" if ok else "mismatch"


class Cli:
    """One op: one ``python -m cplab.cli`` process; the caller waits for it."""

    def __init__(self):
        self.tracing = False
        self.trace_stats = {}
        self.import_ms = []
        self.report_bytes = 0

    def setup(self, workdir: Path) -> float:
        self.workdir = workdir
        self.ops = json.loads((workdir / "manifest.json").read_text())
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "cplab.cli", "--version"],
            cwd=ROOT, capture_output=True, check=True, timeout=CLI_TIMEOUT_S,
        )
        return time.perf_counter() - start

    def call(self, i):
        argv = self.ops[i]["argv"]
        if not self.tracing:
            proc = subprocess.run(
                [sys.executable, "-m", "cplab.cli", *argv], cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S
            )
            return proc.returncode, proc.stdout
        stats_path = self.workdir / "trace_stats.json"
        stats_path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_trace.py"), str(stats_path), *argv],
            cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        from tracer import merge

        traced = json.loads(stats_path.read_text())
        merge(self.trace_stats, traced["layers"])
        self.import_ms.append(traced["import_ms"])
        self.report_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout

    def check(self, i, out) -> str:
        code, stdout = out
        op = self.ops[i]
        if code not in (0, 2):
            return f"exit{code}"
        if code != op["expect_code"]:
            return "mismatch"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "mismatch"
        return "ok" if _report_ok(op, report) else "mismatch"

    def traced_pass(self):
        self.tracing, self.trace_stats = True, {}
        try:
            outcome = run_pass(self)
        finally:
            self.tracing = False
        return outcome, self.trace_stats

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _canonical(node, digits=9):
    """Floats rounded as the golden comparison in tests/test_cli.py does."""
    if isinstance(node, dict):
        return {k: _canonical(v, digits) for k, v in node.items()}
    if isinstance(node, list):
        return [_canonical(v, digits) for v in node]
    if isinstance(node, float):
        return 0.0 if node == 0.0 else float(f"{node:.{digits}e}")
    return node


def _report_ok(op, report) -> bool:
    import numpy as np

    import inputs

    kind = op["check"]
    if kind == "convert":
        return report["generator"]["form"] == op["form"] and _convert_ok(op, report["generator"])
    if kind == "evolve":
        expected = op["min_eigenvalue"]
        return (
            report["mode"] == op["mode"]
            and abs(report["min_eigenvalue"] - expected) <= 1e-8 * max(1.0, abs(expected))
            and abs(complex(*report["trace"]) - 1.0) <= 1e-8
        )
    expect_cp = op["expect_code"] == 0
    if kind in ("check-cp", "witness"):
        if report["verdict"]["is_cp"] != expect_cp:
            return False
        if op.get("golden") and _canonical(report) != _canonical(json.loads(Path(op["golden"]).read_text())):
            return False
    if expect_cp:
        return "witness" not in report and "scan" not in report
    witness = report["witness"]
    if not inputs.witness_value_ok(witness["value"], op["lam_min"], op["c_norm"]):
        return False
    if kind == "check-cp":
        return True
    h, c = inputs.read_gks_config(op["argv"][2])
    oracle = inputs.scan_oracle(h, c, inputs.vector_from_json(witness["psi"]))
    scan = report["scan"]
    return inputs.scan_matches(
        np.asarray(scan["times"]), scan["min_eigenvalues"], scan["first_negative_time"], oracle
    )


def _convert_ok(op, generator) -> bool:
    """The converted generator reproduces the input's coefficient matrix."""
    import numpy as np

    import inputs

    config = json.loads(Path(op["argv"][2]).read_text())["generator"]
    d = len(config.get("hamiltonian") or generator["hamiltonian"])
    basis = inputs.gell_mann(d)
    if op["form"] == "lindblad":
        c = inputs.matrix_from_json(config["coeff"])
        jumps = [inputs.matrix_from_json(v) for v in generator["jump_ops"]]
    else:
        c = inputs.matrix_from_json(generator["coeff"])
        jumps = [inputs.matrix_from_json(v) for v in config["jump_ops"]]
    vs = [np.einsum("aij,ij->a", basis.conj(), v) for v in jumps]
    rebuilt = sum((np.outer(v, v.conj()) for v in vs), np.zeros_like(c))
    return float(np.linalg.norm(rebuilt - c)) <= 1e-8 * max(1.0, float(np.linalg.norm(c)))


WORKLOADS = {"verdict-sweep": VerdictSweep, "doubled-scan": DoubledScan, "cli": Cli}


def run_op(wl, i):
    """Time one op and classify it: ``ok``, ``mismatch`` or the failure's name."""
    start = time.perf_counter()
    try:
        out = wl.call(i)
    except Exception as exc:  # one failed op must not end the stream
        return (time.perf_counter() - start) * 1e3, type(exc).__name__
    ms = (time.perf_counter() - start) * 1e3
    try:
        return ms, wl.check(i, out)
    except (KeyError, IndexError, TypeError, ValueError):  # malformed output
        return ms, "mismatch"


def run_pass(wl):
    """Every input once, in order."""
    statuses = collections.Counter()
    start = time.perf_counter()
    for i in range(len(wl.ops)):
        statuses[run_op(wl, i)[1]] += 1
    return {"statuses": dict(statuses), "wall_s": time.perf_counter() - start}


def stream(wl, seconds: float) -> dict:
    """Closed loop with one caller, cycling through the inputs until time is up."""
    latencies, statuses = [], collections.Counter()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while not latencies or time.perf_counter() < deadline:
        ms, status = run_op(wl, i % len(wl.ops))
        latencies.append(ms)
        statuses[status] += 1
        i += 1
    return {"latencies_ms": latencies, "statuses": dict(statuses), "wall_s": time.perf_counter() - start}


def trace_run(wl, seconds: float) -> dict:
    """Alternate untraced and traced passes over the inputs until time is up."""
    from tracer import merge

    plain, traced, layers = [], [], {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(wl))
        outcome, stats = wl.traced_pass()
        traced.append(outcome)
        merge(layers, stats)
    out = {"plain_passes": plain, "traced_passes": traced, "layers": layers}
    if isinstance(wl, Cli):
        out["import_ms"] = wl.import_ms
        out["report_bytes"] = wl.report_bytes
    return out


def census() -> dict:
    """Outcomes of the CP verdict on every census generator (``inputs.CENSUS``):
    ``ok``, ``mismatch`` or the name of the error raised."""
    import inputs

    cplab = importlib.import_module("cplab")
    outcomes = collections.Counter()
    for d, h, c, facts in inputs.census_inputs():
        g = cplab.GKSGenerator(dim=d, hamiltonian=h, coeff=c, basis=cplab.standard_basis(d))
        try:
            verdict = cplab.is_completely_positive(g)
        except Exception as exc:  # counted by name, like a failed op
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["ok" if verdict.is_cp == (facts["lam_min"] >= -facts["cutoff"]) else "mismatch"] += 1
    return dict(outcomes)


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (read from this process's maps)."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def runtime_env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError as exc:
        threads = {"error": str(exc)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv) -> int:
    workload, workdir, mode, seconds, result_path = argv
    if mode == "census":
        Path(result_path).write_text(json.dumps({"census": census()}))
        return 0
    wl = WORKLOADS[workload]()
    result = {"setup_s": wl.setup(Path(workdir))}
    if mode == "stream":
        result.update(stream(wl, float(seconds)))
    elif mode == "trace":
        result.update(trace_run(wl, float(seconds)))
    result["peak_rss_mb"] = wl.peak_rss_mb()
    result["env"] = runtime_env()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
