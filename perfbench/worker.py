"""One workload process: set up, run the timed loop, check every output.

Started by ``run.py``, one process at a time:

    python3 perfbench/worker.py --workload NAME --seed N --seconds T
        [--first-input I] [--trace] [--probe] [--smoke]

It prints ``ready`` once ``gpssvs`` is imported and the workload's fixed
states are built, then (unless ``--probe``) one JSON line with the raw
results: per-operation latencies, failed check units, peak RSS and
provenance, plus the per-layer metrics when ``--trace`` is given.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gpssvs  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = {"pt-grid": {"nodes": 41}}


def run_loop(wl, seconds, tracer=None, first=0):
    """Run operations on inputs first, first + 1, ... until ``seconds`` have
    passed and the last cycle of inputs is complete; returns (results, elapsed)."""
    results = []
    begin = time.perf_counter()
    end = begin
    while not results or end - begin < seconds or len(results) % wl.cycle:
        inp = wl.make_input(first + len(results))
        if tracer is not None:
            tracer.op = len(results)
        start = time.perf_counter()
        try:
            out, error = wl.op(inp), None
        except Exception as exc:  # MemoryError included: a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        results.append({"input": inp, "output": out, "error": error,
                        "latency": end - start})
    return results, end - begin


def check_all(wl, results):
    """Apply the workload's check to every operation; returns failed units."""
    failed = 0
    for res in results:
        if res["error"] is None:
            try:
                bad = wl.check(res["input"], res["output"])
            except Exception as exc:
                bad = wl.units
                res["error"] = f"check raised {type(exc).__name__}: {exc}"
            if bad and res["error"] is None:
                res["error"] = f"{bad} of {wl.units} check unit(s) failed"
        else:
            bad = wl.units
        failed += bad
    return failed


def provenance(wl):
    resolve = getattr(gpssvs, "resolve_threads", None)
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "gpssvs": gpssvs.__version__,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "GPSSVS_THREADS")},
        "resolve_threads": resolve() if resolve is not None else None,
        "rlimit_as": resource.getrlimit(resource.RLIMIT_AS)[0],
        "states": wl.describe_states(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--first-input", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kwargs = SMOKE.get(args.workload, {}) if args.smoke else {}
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), **kwargs)
        print("ready", flush=True)
        if args.probe:
            return 0
        wl.warmup()
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(gpssvs)
        try:
            results, elapsed = run_loop(wl, args.seconds, tracer, args.first_input)
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None and hasattr(wl, "bytes_written"):
            tracer.counts["cli.bytes_written"] += sum(
                wl.bytes_written(r["input"]) for r in results if r["error"] is None)
        failed = check_all(wl, results)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": len(results),
            "units": wl.units * len(results),
            "failed_units": failed,
            "errors": [r["error"] for r in results if r["error"]][:5],
            "latencies": [r["latency"] for r in results],
            "elapsed_s": elapsed,
            "peak_rss_kb": peak_rss_kb,
            "provenance": provenance(wl),
        }
        if tracer is not None:
            report["layers"] = tracer.layer_metrics(len(results))
            spans = out_dir / f"spans-{args.workload}.tsv"
            tracer.write(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
