"""gpssvs benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pt-grid --seed 1 --seconds 20 --trace 0

Workloads: pt-grid, harmonic-points, verify (the three in BENCHMARK.json)
and harmonic-sweep (run by hand only; see perfbench/README.md).  Each workload process is started from here, one at
a time, under an RLIMIT_AS ceiling.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the full report (provenance, tail
percentile, sample counts).

Exit codes: 0 when every output passed its check, 1 when any failed, 2
when the checkout has no gpssvs sources or a workload process broke.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pt-grid", "harmonic-points", "harmonic-sweep", "verify")

SETUP_PROBES = 2  # set-up-only processes per run, after one discarded warm probe
# Workload processes per end-to-end run, each timed for seconds / WORKERS
# or what is left of --seconds.  The median latency moves by up to 30% from
# one process to the next, even between processes started back to back, so
# a run pools many short ones.
WORKERS = 8
# Worker j takes inputs from index j * INPUT_BLOCK on.  The block is
# coprime with the pt-grid (5) and harmonic-points (10) cycles, so the
# workers start on different members of each cycle.
INPUT_BLOCK = 1001
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples required above the reported tail percentile
# Virtual-memory ceiling of every workload process.  The seed code peaks
# near 0.6 GB (verify, with BLAS threads).  A regression past the ceiling
# ends in MemoryError, a failed operation, instead of an OOM kill.
AS_LIMIT_BYTES = 2 << 30
BUDGET_S = 170  # the whole run must end within 180 s
# BLAS runs single-threaded in every workload process.  On 2 shared CPUs a
# one-point sweep at r = 2.125 took 24 ms with OpenBLAS's default threads
# and 12 ms with one, and verify's median fell from 0.72-1.10 s to
# 0.58-0.74 s.  The package's own setting, GPSSVS_THREADS, is inherited.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A workload process did not run to completion."""


# Every workload process runs on this one CPU.  The package's default grid
# pool (one thread per CPU, bound by the GIL) spread over 2 shared CPUs made
# an 81^2 PT grid take 1.8-3.2 s from one process to the next; on one CPU it
# took 1.6-2.1 s.  The pool still starts at its default size.
BENCH_CPU = max(os.sched_getaffinity(0))


def _confine():
    """Run in each workload process before it starts: one CPU, capped memory."""
    os.sched_setaffinity(0, {BENCH_CPU})
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def _env():
    env = dict(os.environ, **BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _start(args, deadline):
    """Start a workload process; returns it and the seconds until it was ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=_confine)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError("workload process did not report ready")
    return proc, ready


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"run exceeded its {BUDGET_S} s budget")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return out


def time_setup(workload, seed, deadline):
    """Seconds from process start to a ready workload (import and fixed states)."""
    proc, ready = _start(["--workload", workload, "--seed", str(seed), "--probe"], deadline)
    _finish(proc, deadline)
    return ready


def run_worker(workload, seed, seconds, deadline, first=0, trace=False, smoke=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--first-input", str(first)] + ["--trace"] * trace + ["--smoke"] * smoke
    proc, ready = _start(args, deadline)
    report = json.loads(_finish(proc, deadline).splitlines()[-1])
    report["ready_s"] = ready
    return report


def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile that has
    TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND + 1 samples no
    percentile above the median has that many, and the median is reported."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


def import_times(deadline):
    """Import costs in seconds from ``python -X importtime -c 'import gpssvs'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gpssvs"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          preexec_fn=_confine)
    if proc.returncode != 0:
        raise BenchError("importing gpssvs failed")
    cumulative, own = {}, 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative.setdefault(name, int(cum_us) * 1e-6)
        if name == "gpssvs" or name.startswith("gpssvs."):
            own += int(self_us) * 1e-6
    return {"import.total_s": cumulative.get("gpssvs", 0.0),
            "import.numpy_s": cumulative.get("numpy", 0.0),
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
            "import.scipy_linalg_s": cumulative.get("scipy.linalg", 0.0),
            "import.gpssvs_own_s": own}


def _median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def end_to_end(args):
    time_setup(args.workload, args.seed, args.deadline)  # compiles bytecode, warms caches
    setups = [time_setup(args.workload, args.seed, args.deadline)
              for _ in range(SETUP_PROBES)]
    runs, timed = [], 0.0
    for j in range(WORKERS):
        if timed >= args.seconds:  # long operations overran the earlier workers
            break
        share = min(args.seconds / WORKERS, args.seconds - timed)
        runs.append(run_worker(args.workload, args.seed, share, args.deadline,
                               first=j * INPUT_BLOCK, smoke=args.smoke))
        timed += runs[-1]["elapsed_s"]
    setups += [r["ready_s"] for r in runs]
    lat = [x for r in runs for x in r["latencies"]]
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        # The median over processes: one process slowed by the host moves it
        # less than it moves the pooled rate.
        "ops_per_s": statistics.median(r["ops"] / r["elapsed_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024.0,
    }
    details = {"setup_samples_s": setups, "op_samples": len(lat),
               "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond}
    return metrics, runs, details


def per_layer(args):
    """Traced half-run beside an untraced half-run, plus import costs."""
    half = args.seconds / 2.0
    imports = _median_dict([import_times(args.deadline) for _ in range(IMPORT_REPEATS)])
    plain = run_worker(args.workload, args.seed, half, args.deadline, smoke=args.smoke)
    traced = run_worker(args.workload, args.seed, half, args.deadline, trace=True,
                        smoke=args.smoke)
    traced_p50 = statistics.median(traced["latencies"])
    metrics = dict(traced["layers"], **imports)
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(plain["latencies"])
    details = {"op_samples": len(traced["latencies"]),
               "untraced_op_samples": len(plain["latencies"]),
               "spans_file": traced["spans_file"]}
    return metrics, [plain, traced], details


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small grids, for the tests")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "gpssvs" / "__init__.py").is_file():
        print("error: no gpssvs sources under src/gpssvs", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, runs, details = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["units"] for r in runs)
    failed = sum(r["failed_units"] for r in runs)
    metrics["error_rate"] = failed / attempted
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workload_cpu": BENCH_CPU,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "rlimit_as_bytes": AS_LIMIT_BYTES, "provenance": runs[0]["provenance"],
        "inherited_env": {k: os.environ.get(k) for k in (*BLAS_THREADS, "GPSSVS_THREADS")},
        "error_rate": metrics["error_rate"],
        "errors": [e for r in runs for e in r["errors"]][:5], **details,
    }
    print(json.dumps({"report": report}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
