"""Run one ``cplab`` CLI call with per-layer tracing.

Usage: ``python bench/cli_trace.py STATS_PATH <cplab arguments...>``

Behaves like ``python -m cplab.cli <cplab arguments...>`` (same output and
exit code) and writes the call's import time and per-layer stats to
STATS_PATH as JSON.
"""

import json
import sys
import time

if __name__ == "__main__":
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import cplab.cli

    import_ms = (time.perf_counter() - start) * 1e3
    from tracer import Tracer

    with Tracer() as tracer:
        code = cplab.cli.main(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": import_ms, "layers": tracer.stats}, fh)
    sys.exit(code)
