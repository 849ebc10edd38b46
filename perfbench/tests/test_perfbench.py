"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m unittest perfbench/tests/test_perfbench.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gpssvs  # noqa: E402
from gpssvs import verify  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def package_bindings():
    """Every attribute of every loaded gpssvs module, by identity."""
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name == "gpssvs" or name.startswith("gpssvs.")
            for attr, value in vars(module).items()}


class SmokeTest(unittest.TestCase):
    """All four workloads at smoke size, untraced and traced."""

    def test_every_workload_reports_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--seed", "7",
                                        "--seconds", "0.5", "--trace", trace, "--smoke")
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[key]])
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_checkout_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                                   "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class CorruptedOutputTest(unittest.TestCase):
    """A corrupted output counts as a failure of its operation."""

    def failures(self, wl, inp, out):
        return worker.check_all(wl, [{"input": inp, "output": out, "error": None}])

    def test_perturbed_grid_value(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.PtGrid(1, tmp, nodes=41)
            inp = wl.make_input(0)
            code = wl.op(inp)
            self.assertEqual(self.failures(wl, inp, code), 0)
            path = Path(inp["path"])
            lines = path.read_text().splitlines()
            x, p, w = lines[100].split(",")  # off-centre node
            lines[100] = f"{x},{p},{float(w) + 1e-6!r}"
            path.write_text("\n".join(lines) + "\n")
            self.assertEqual(self.failures(wl, inp, code), 1)

    def test_perturbed_point_value(self):
        wl = workloads.HarmonicPoints(1)
        inp = wl.make_input(2)
        w = wl.op(inp)
        self.assertEqual(self.failures(wl, inp, w), 0)
        self.assertEqual(self.failures(wl, inp, w + 1e-6), 1)

    def test_error_sweep_row(self):
        wl = workloads.HarmonicSweep(1)
        inp = wl.make_input(0)
        rows = wl.op(inp)
        self.assertEqual(self.failures(wl, inp, rows), 0)
        broken = list(rows)
        broken[1] = dataclasses.replace(rows[1], value=None, status="error:ValueError")
        self.assertEqual(self.failures(wl, inp, broken), 1)
        skewed = list(rows)
        skewed[0] = dataclasses.replace(rows[0], value=rows[0].value * (1 + 1e-6))
        self.assertEqual(self.failures(wl, inp, skewed), 1)

    def test_failed_verify_check(self):
        wl = workloads.Verify(1)
        checks = [verify.CheckResult(f"c{i}", "d", 0.0, 1.0, True) for i in range(32)]
        report = verify.VerifyReport(checks=checks, all_passed=True, config={})
        self.assertEqual(self.failures(wl, None, report), 0)
        checks[5] = dataclasses.replace(checks[5], residual=2.0, passed=False)
        report = verify.VerifyReport(checks=checks, all_passed=False, config={})
        self.assertEqual(self.failures(wl, None, report), 1)

    def test_oracle_window_widens_far_from_origin(self):
        state = workloads.PtGrid(1, None).states[1]
        z = complex(-5.475, 5.25)
        with self.assertRaises(gpssvs.DimTooSmallError):
            gpssvs.wigner_point_oracle(state, z)
        self.assertLessEqual(abs(workloads.oracle_point(state, z)
                                 - gpssvs.wigner_point(state, z)), workloads.WIGNER_TOL)

    def test_raised_operation_fails_every_unit(self):
        wl = workloads.Verify(1)
        res = {"input": None, "output": None, "error": "MemoryError: "}
        self.assertEqual(worker.check_all(wl, [res]), wl.units)


class CycleTest(unittest.TestCase):
    """A timed loop ends on whole cycles, so every run times the same mix."""

    def test_loop_completes_the_last_cycle(self):
        wl = workloads.HarmonicSweep(1)
        results, _ = worker.run_loop(wl, 0.0, first=5)
        self.assertEqual(len(results), wl.cycle)
        self.assertEqual(sorted(res["input"][0] for res in results),
                         sorted(r for r, _, _ in wl.design))

    def test_seed_draws_only_theta(self):
        one, two = workloads.HarmonicSweep(1), workloads.HarmonicSweep(2)
        self.assertNotEqual(one.make_input(3)[1], two.make_input(3)[1])
        self.assertEqual(one.make_input(3)[::2], two.make_input(3)[::2])
        self.assertEqual(one.make_input(3), workloads.HarmonicSweep(1).make_input(3))


class TracerTest(unittest.TestCase):
    def test_wrappers_cover_every_binding_and_are_restored(self):
        before = package_bindings()
        original = gpssvs.states.pssvs
        tracer = tracing.Tracer()
        tracer.install(gpssvs)
        try:
            for module in (gpssvs, gpssvs.states, gpssvs.observables):
                self.assertIsNot(module.pssvs, original)
            tracer.op = 0
            gpssvs.observables.sweep(gpssvs.Nonlinearity.poschl_teller(), [1.0], [0.0],
                                     [1], "even")
            tracer.op = None
        finally:
            tracer.restore()
        self.assertEqual(package_bindings(), before)
        layers = tracer.layer_metrics(1)
        self.assertEqual(layers["observables.sweep.calls"], 1)
        self.assertEqual(layers["states.pssvs.calls"], 1)
        self.assertGreater(layers["deform.calls"], 0)
        self.assertGreaterEqual(layers["logseries.terms_evaluated"],
                                layers["logseries.terms_retained"])
        self.assertLessEqual(layers["observables.sweep.self_s"],
                             layers["observables.sweep.busy_s"])

    def test_traced_worker_run_restores_bindings(self):
        before = package_bindings()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            worker.main(["--workload", "harmonic-sweep", "--seed", "3",
                         "--seconds", "0.2", "--trace"])
        self.assertEqual(package_bindings(), before)
        report = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(report["failed_units"], 0)
        self.assertGreater(report["layers"]["states.pssvs.busy_s"], 0)
        (ROOT / report["spans_file"]).unlink()


if __name__ == "__main__":
    unittest.main()
