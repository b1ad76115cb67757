"""Run one ``ellsuper`` command with the span tracer installed (traced cli-mix runs).

    python3 perfbench/traced_cli.py SPANS_PATH SPAWN_NS ARGS...

Stdout and the exit code are the command's own.  The spans go to
``SPANS_PATH``; process start-up, import time and the raw counters go to
``SPANS_PATH.counters.json``.
"""

import json
import sys
import time

started_ns = time.monotonic_ns()
spans_path, spawn_ns, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
start = time.perf_counter()
import ellsuper.cli  # noqa: E402

import_s = time.perf_counter() - start
import tracer as tracing  # noqa: E402

trace = tracing.Tracer(f"cli:{spans_path}")
tracing.install(trace)
before = tracing.cache_sizes()
try:
    code = ellsuper.cli.main(args)
finally:
    trace.dump(spans_path)
    with open(f"{spans_path}.counters.json", "w", encoding="utf-8") as out:
        json.dump({"startup_s": (started_ns - spawn_ns) / 1e9, "import_s": import_s,
                   "counters": tracing.counters(trace, before)}, out)
sys.exit(code)
