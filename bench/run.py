"""cplab benchmark: one workload, one seed, one measured run.

Usage::

    python3 bench/run.py --workload {verdict-sweep,doubled-scan,cli} --seed N \\
        --seconds S --trace {0,1} [--cycles K] [--out PATH]

Run from the repository root.  The inputs are drawn from ``--seed``; every
op's output is checked against an independent oracle.  ``--trace 0``
reports the end-to-end metrics of a closed-loop stream of ``--seconds``;
``--trace 1`` reports per-layer metrics from alternating untraced and traced
passes over the inputs.  Both modes also run the census, a fixed set of CP
verdicts that shows the d >= 4 verdict defect (see README.md).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary and the
environment record.  ``--out`` also writes the full record as JSON.

All work runs in child processes with BLAS pinned to one thread before
numpy is imported; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import THREAD_VARS

# Pinned for this process and every child before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verdict-sweep", "doubled-scan", "cli")
#: Set-up samples per run; the stream's own set-up is one of them.
SETUP_SAMPLES = 5
#: Every child must be done this many seconds after the run starts.
DEADLINE_S = 170
REQUIRED = ("src/cplab/__init__.py", "src/cplab/cli.py", "tests/data/golden_checkcp_negative.json")


def _stats(latencies):
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), cuts[8]


def _census_ok_ratio(census) -> float:
    return census.get("ok", 0) / sum(census.values())


def end_to_end(result, setups, census) -> dict:
    """The end-to-end metrics of one stream."""
    lat = result["latencies_ms"]
    ok = result["statuses"].get("ok", 0)
    p50, p90 = _stats(lat)
    return {
        "ops_per_s": (ok / result["wall_s"], "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "verdict_ok_ratio": (_census_ok_ratio(census), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, census) -> dict:
    """The per-layer metrics of one traced run, per pass over the inputs."""
    from tracer import LAYERS, SIZED, empty_stats

    passes = len(result["traced_passes"])
    layers = {key: result["layers"].get(key, empty_stats()) for key in LAYERS}
    out = {}
    for key in LAYERS:
        out[f"{key}.calls"] = (layers[key]["calls"] / passes, "count")
        out[f"{key}.self_ms"] = (layers[key]["self_ms"] / passes, "ms")
    for key in SIZED:
        out[f"{key}.max_dim"] = (layers[key]["max_dim"], "dim")
    out["linalg.matrix_exp.dim3_sum"] = (layers["linalg.matrix_exp"]["dim3_sum"] / passes, "n3")
    out["dynamics.is_completely_positive.failed"] = (sum(census.values()) - census.get("ok", 0), "count")
    out["dynamics.is_completely_positive.ok_ratio"] = (_census_ok_ratio(census), "ratio")
    import_ms = result.get("import_ms") or [0.0]
    out["cli.import_ms"] = (statistics.median(import_ms), "ms")
    out["cli.report_bytes"] = (result.get("report_bytes", 0) / passes, "bytes")

    def ops_per_s(runs):
        return sum(r["statuses"].get("ok", 0) for r in runs) / sum(r["wall_s"] for r in runs)

    plain, traced = ops_per_s(result["plain_passes"]), ops_per_s(result["traced_passes"])
    out["trace.untraced_ops_per_s"] = (plain, "1/s")
    out["trace.traced_ops_per_s"] = (traced, "1/s")
    out["trace.ops_per_s_ratio"] = (traced / plain if plain else 0.0, "ratio")
    return out


def _statuses(result) -> dict:
    if "statuses" in result:
        return result["statuses"]
    total = {}
    for run in result["plain_passes"] + result["traced_passes"]:
        for status, n in run["statuses"].items():
            total[status] = total.get(status, 0) + n
    return total


def _git_sha():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _run_worker(workload, workdir, mode, seconds, started, env, index):
    result_path = workdir / f"result{index}.json"
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise TimeoutError("no time left for the benchmark worker")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(workdir), mode, str(seconds), str(result_path)],
        cwd=ROOT, env=env, check=True, timeout=remaining,
    )
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, help="input cycles to draw (default per workload)")
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"bench: cannot run, missing {', '.join(missing)} under {ROOT}\n")
        return 2

    started = time.monotonic()
    import inputs

    cycles = args.cycles or (inputs.TRACE_CYCLES if args.trace else inputs.DEFAULT_CYCLES[args.workload])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        inputs.write_inputs(args.workload, args.seed, cycles, workdir, ROOT)
        run = (args.workload, workdir)
        setups = [
            _run_worker(*run, "setup", 0, started, env, i)["setup_s"] for i in range(SETUP_SAMPLES - 1)
        ]
        census = _run_worker(*run, "census", 0, started, env, "census")["census"]
        result = _run_worker(*run, "trace" if args.trace else "stream", args.seconds, started, env, SETUP_SAMPLES)
    except (subprocess.SubprocessError, OSError, TimeoutError) as exc:
        sys.stderr.write(f"bench: worker failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    metrics = per_layer(result, census) if args.trace else end_to_end(result, setups, census)
    statuses = _statuses(result)
    attempted = sum(statuses.values())
    failed = attempted - statuses.get("ok", 0)
    env_record = {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **result["env"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "statuses": statuses,
        "fail_ratio": failed / attempted,
        "census": census,
        "setup_samples_s": setups,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "env": env_record,
    }
    if not args.trace:
        lat = result["latencies_ms"]
        record["latency_samples"] = len(lat)
        record["samples_above_p90"] = sum(x > metrics["op_ms.p90"][0] for x in lat)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {cycles}")
    print(f"# ops {attempted}  {json.dumps(statuses, sort_keys=True)}  fail_ratio {failed / attempted:.4f}")
    print(f"# census verdicts {json.dumps(census, sort_keys=True)}")
    if not args.trace:
        print(f"# latency samples {record['latency_samples']}, {record['samples_above_p90']} above p90")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": statuses.get("mismatch", 0) == 0 and census.get("mismatch", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
