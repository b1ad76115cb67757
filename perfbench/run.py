"""ellsuper benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each repetition of a workload runs in a fresh Python process
(``workloads.py``); repetitions continue until ``--seconds`` have passed.

On a shared machine the speed changes, in phases of seconds to minutes, with
the load of other tenants.  So every repetition also times a fixed reference
computation between its requests (``workloads.reference_kernel``), and the
timing metrics are in units of it, ``ref``: ``wall_ref`` is the repetition's
wall time divided by the median reference time in that repetition, and
``ops_per_ref``, ``req_p50_ref`` and ``req_p90_ref`` follow from it.  A run
reports the median over its repetitions (for the request percentiles: each
request's median over the repetitions, then percentiles over the requests).
``setup_s`` is in seconds, the median of the repetitions' set-up times.  The
raw times in seconds are printed on the report lines.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it give every metric with
its unit and sample count, a run stamp and, when traced, each layer's share
of traced self time.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, absent, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_ref": "ref",
    "ops_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ref": "ref",
    "req_p90_ref": "ref",
}
RAW_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "req_p50_ms": "ms", "req_p90_ms": "ms", "ref_ms": "ms"}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _child(workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
            str(time.monotonic_ns()), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quantiles(values: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(values, n=10)
    return cuts[4], cuts[8]


def _request_quantiles(reps: list[dict], unit_s) -> tuple[float, float]:
    """p50 and p90 over requests of each request's median over the repetitions.

    ``unit_s(rep)`` is the length of the unit of the result, in seconds, in that repetition.
    """
    # every repetition makes the same requests in the same order
    per_rep = [[t / unit_s(rep) for t in rep["latencies_s"]] for rep in reps]
    return _quantiles([statistics.median(times) for times in zip(*per_rep)])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat the workload for ``seconds``; summarize as the module docstring says."""
    _child(workload, seed, "--setup-only")  # warm-up: bytecode caches, file cache
    trace_dir = OUT / workload
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    plain, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(plain) < MIN_REPS
           or (trace and len(traced) < MIN_REPS)):
        if trace and len(traced) < len(plain):
            path = trace_dir / f"rep{len(traced)}.spans.jsonl"
            traced.append(_child(workload, seed, "--trace", str(path)))
        else:
            plain.append(_child(workload, seed))

    def median(key) -> float:
        return statistics.median(key(rep) for rep in plain)

    p50, p90 = _request_quantiles(plain, lambda rep: rep["ref_s"])
    p50_ms, p90_ms = _request_quantiles(plain, lambda rep: 1e-3)
    reps = plain + traced
    result = {
        "workload": workload,
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "failures": [msg for rep in reps for msg in rep["failures"]][:10],
        "rep_wall_s": [rep["wall_s"] for rep in plain],
        "rep_ref_ms": [rep["ref_s"] * 1e3 for rep in plain],
        "samples": {"reps": len(plain), "traced_reps": len(traced),
                    "ref_samples": sum(rep["ref_samples"] for rep in plain),
                    "requests": len(plain[0]["latencies_s"])},
        "e2e": {
            "wall_ref": median(lambda rep: rep["wall_s"] / rep["ref_s"]),
            "ops_per_ref": median(lambda rep: rep["ops"] * rep["ref_s"] / rep["wall_s"]),
            "setup_s": median(lambda rep: rep["setup_s"]),
            "peak_rss_mb": median(lambda rep: rep["rss_mb"]),
            "req_p50_ref": p50,
            "req_p90_ref": p90,
        },
        "raw": {
            "wall_s": median(lambda rep: rep["wall_s"]),
            "ops_per_s": median(lambda rep: rep["ops"] / rep["wall_s"]),
            "req_p50_ms": p50_ms,
            "req_p90_ms": p90_ms,
            "ref_ms": median(lambda rep: rep["ref_s"]) * 1e3,
        },
    }
    if trace:
        per_rep = []
        for rep in traced:
            metrics = layer_metrics(rep["counters"], rep["wall_s"])
            metrics["cli.startup_s"] = rep["startup_s"]
            metrics["cli.import_s"] = rep["import_s"]
            if workload == "cli-mix":
                metrics["cli.startup_frac"] = (rep["startup_s"] + rep["import_s"]) / (p50_ms / 1e3)
            per_rep.append(metrics)
        layers = {name: statistics.median(m[name] for m in per_rep) for name in PER_LAYER}
        layers["trace.overhead_frac"] = (statistics.median(rep["wall_s"] / rep["ref_s"] for rep in traced)
                                         / result["e2e"]["wall_ref"] - 1)
        result["layers"] = layers
        result["absent"] = sorted({name for rep in traced for name in absent(rep["counters"])})
    return result


def _stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {"stamp": {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                      "python": platform.python_version(), "platform": platform.platform(),
                      "nproc": os.cpu_count()}}


def _report(result: dict, trace: bool) -> None:
    s = result["samples"]
    print(f"== {result['workload']}: {s['reps']} untraced reps (each a set-up), {s['traced_reps']} traced reps, "
          f"{s['requests']} requests and {s['ref_samples'] / s['reps']:.0f} reference samples per rep")
    print("  rep wall_s: " + " ".join(f"{x:.4f}" for x in result["rep_wall_s"]))
    print("  rep ref_ms: " + " ".join(f"{x:.4f}" for x in result["rep_ref_ms"]))
    for name, value in result["e2e"].items():
        print(f"  {name:<14} {value:>14.6g} {END_TO_END[name]}")
    for name, value in result["raw"].items():
        print(f"  {name:<14} {value:>14.6g} {RAW_UNITS[name]}   (raw, not gated)")
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_frac':<14} {fail_frac:>14.6g} 1   ({result['failed']} of {result['attempted']} ops)")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}")
    if trace:
        layers = result["layers"]
        shares = "  ".join(f"{name.split('.')[1]} {layers[name]:.1%}"
                           for name in PER_LAYER if name.endswith(".share"))
        print(f"  layer share of traced self time: {shares}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<42} {layers[name]:>14.6g} {unit}")
        if result["absent"]:
            print(f"  absent caches (read as 0): {', '.join(result['absent'])}")


def _line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ellsuper" / "__init__.py").is_file():
        print(f"perfbench: no ellsuper sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            print(json.dumps(_stamp(name, args.seed, args.seconds, trace)))
            result = run_workload(name, args.seed, args.seconds, trace)
            _report(result, trace)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    def metrics(result: dict) -> dict:
        values, units = (result["layers"], PER_LAYER) if trace else (result["e2e"], END_TO_END)
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    if len(results) == 1:
        combined = metrics(results[0])
    else:
        for result in results:
            print(_line(result["failed"] == 0, result["attempted"], result["failed"], metrics(result)))
        combined = {f"{r['workload']}.{name}": value for r in results for name, value in metrics(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(_line(failed == 0, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
