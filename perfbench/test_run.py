#!/usr/bin/env python3
"""Tests of run.py's pass checks and metric arithmetic.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The pass checks run against fake children: small Python programs that
print a header line and write a report, so no ANTSim build is needed.
The report validator and schema are the repository's own.
"""

import contextlib
import io
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAKE_CHILD = r'''
import json, sys
mode, report_path, state_path = sys.argv[1:4]
try:
    with open(state_path) as handle:
        calls = int(handle.read())
except OSError:
    calls = 0
with open(state_path, "w") as handle:
    handle.write(str(calls + 1))
print("=== fake bench ===", flush=True)
report = {
    "schema_version": 1, "generator": "antsim",
    "metadata": {"binary": "fake", "seed": 1, "threads": 1, "pes": 64,
                 "samples": 16, "chunk": 4096, "audit": False,
                 "energy_table_version": "v", "mode": "simulated"},
    "metrics": {"speedup_geomean": 5.0 + (calls if mode == "drift" else 0)},
    "networks": [], "stall_attribution": [],
}
if mode == "invalid":
    del report["generator"]
if mode == "estimated":
    report["metadata"]["mode"] = "estimated"
with open(report_path, "w") as handle:
    json.dump(report, handle)
print("[report] wrote " + report_path)
sys.exit(3 if mode == "exit" else 0)
'''


def fake_pass(wall_s, cpu_s=1.0, maxrss_mb=10.0, header_s=0.01,
              failures=()):
    result = run.Pass()
    result.wall_s, result.cpu_s, result.maxrss_mb = wall_s, cpu_s, maxrss_mb
    result.header_s = header_s
    result.failures = list(failures)
    return result


class FakeChildTest(unittest.TestCase):
    def setUp(self):
        run.BUILD.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.BUILD)
        self.workdir = Path(self._tmp.name)
        self.child = self.workdir / "fake_child.py"
        self.child.write_text(FAKE_CHILD)

    def tearDown(self):
        self._tmp.cleanup()

    def failed_ratio(self, mode, passes=2):
        state = self.workdir / "calls"

        def make_argv(report_path):
            return [sys.executable, str(self.child), mode, report_path,
                    str(state)]

        with contextlib.redirect_stderr(io.StringIO()):
            results = run.run_passes(make_argv, run.hermetic_env(),
                                     self.workdir, seconds=0,
                                     min_passes=passes)
        self.assertEqual(len(results), passes)
        metrics = run.end_to_end_metrics(results, [], {})
        return metrics["failed_ratio"][0]

    def test_good_child_passes(self):
        self.assertEqual(self.failed_ratio("ok"), 0.0)

    def test_nonzero_exit_fails(self):
        self.assertEqual(self.failed_ratio("exit"), 1.0)

    def test_invalid_report_fails(self):
        self.assertEqual(self.failed_ratio("invalid"), 1.0)

    def test_estimated_mode_fails(self):
        self.assertEqual(self.failed_ratio("estimated"), 1.0)

    def test_modelled_drift_fails_later_passes(self):
        self.assertAlmostEqual(self.failed_ratio("drift", passes=4), 0.75)

    def test_header_and_rusage_are_recorded(self):
        result = run.run_child(
            [sys.executable, str(self.child), "ok",
             str(self.workdir / "r.json"), str(self.workdir / "calls")],
            run.hermetic_env(), self.workdir / "err")
        self.assertEqual(result.exit_code, 0)
        self.assertLessEqual(result.header_s, result.work_s)
        self.assertLessEqual(result.work_s, result.wall_s)
        self.assertGreater(result.cpu_s, 0.0)
        self.assertGreater(result.maxrss_mb, 0.0)

    def test_hermetic_env_drops_antsim_settings(self):
        with unittest.mock.patch.dict(
                "os.environ", {"ANTSIM_TRACE_CACHE": "0", "KEEP": "1"}):
            env = run.hermetic_env()
        self.assertNotIn("ANTSIM_TRACE_CACHE", env)
        self.assertEqual(env["KEEP"], "1")


class ArithmeticTest(unittest.TestCase):
    def test_err_pct(self):
        self.assertAlmostEqual(run.err_pct(5.97, 3.71), 60.916, places=3)
        self.assertAlmostEqual(run.err_pct(4.40, 4.40), 0.0)
        self.assertAlmostEqual(run.err_pct(20.0, 40.0), 50.0)

    def test_fig9_fidelity(self):
        report = {
            "metrics": {"speedup_geomean": 3.71 * 1.5,
                        "energy_reduction_geomean": 4.4},
            "networks": [
                {"name": "ant/A", "stats": {"rcp_avoided_fraction": 0.90}},
                {"name": "ant/B", "stats": {"rcp_avoided_fraction": 0.92}},
                {"name": "scnn/A", "stats": {"rcp_avoided_fraction": 0.0}},
            ],
        }
        got = run.fig9_fidelity(report)
        self.assertAlmostEqual(got["speedup_err_pct"], 50.0)
        self.assertAlmostEqual(got["energy_err_pct"], 0.0)
        self.assertAlmostEqual(got["rcp_gap_pts"], 0.7)

    def test_fig10_fidelity(self):
        got = run.fig10_fidelity({"metrics": {
            "speedup.42%/85%": 42.15, "energy_reduction.42%/85%": 20.0}})
        self.assertAlmostEqual(got["speedup_err_pct"], 50.0)
        self.assertAlmostEqual(got["energy_err_pct"], 50.0)

    def test_sec78_gap_is_one_sided(self):
        def report(fractions):
            return {"networks": [
                {"name": "ant/x@{}".format(i),
                 "stats": {"rcp_avoided_fraction": f}}
                for i, f in enumerate(fractions)]}
        self.assertAlmostEqual(
            run.sec78_fidelity(report([0.9999, 0.9825]))["rcp_gap_pts"],
            0.75)
        self.assertEqual(
            run.sec78_fidelity(report([0.9999, 0.995]))["rcp_gap_pts"], 0.0)

    def test_medians_skip_failed_passes(self):
        passes = [fake_pass(3.0, cpu_s=9.0), fake_pass(1.0, cpu_s=3.0),
                  fake_pass(2.0, cpu_s=6.0),
                  fake_pass(100.0, cpu_s=100.0, failures=["exit code 1"])]
        metrics = run.end_to_end_metrics(passes, [0.5, 0.7], {})
        self.assertEqual(metrics["pass_s"], (2.0, 3))
        self.assertEqual(metrics["cpu_s"], (6.0, 3))
        self.assertEqual(metrics["failed_ratio"], (0.25, 4))
        # Probes and every pass' header line are setup samples.
        self.assertEqual(metrics["setup_s"], (0.01, 6))
        self.assertEqual(metrics["speedup_err_pct"], (None, 0))

    def test_layer_metrics(self):
        replay = {
            "tracegen_s": 2.0, "planes": 1000, "chunking_s": 0.1,
            "chunks": 10, "scnn_s": 1.0, "scnn_mults": 500,
            "ant_s": 4.0, "ant_mults": 0, "scnn_cycles": 7,
            "scnn_mults_valid": 25, "scnn_mults_executed": 100,
            "ant_cycles": 3, "ant_rcps_avoided": 99, "ant_mults_rcp": 1,
            "runner_wall_s": 2.0, "runner_cpu_s": 6.0, "threads": 4,
            "runner_retained_mib": 12.5,
        }
        untraced = fake_pass(5.0)
        untraced.work_s = 4.0
        got = run.layer_metrics(replay, untraced)
        self.assertEqual(set(got), set(run.PER_LAYER))
        self.assertAlmostEqual(got["tracegen.ns_per_plane"], 2e6)
        self.assertAlmostEqual(got["scnn.ns_per_mult"], 2e6)
        self.assertEqual(got["ant.ns_per_mult"], 0.0)
        self.assertAlmostEqual(got["scnn.valid_mult_ratio"], 0.25)
        self.assertAlmostEqual(got["ant.rcp_avoided_ratio"], 0.99)
        self.assertAlmostEqual(got["runner.util"], 0.75)
        self.assertAlmostEqual(got["trace.overhead_pct"], -50.0)
        self.assertAlmostEqual(got["process.teardown_s"], 1.0)


if __name__ == "__main__":
    unittest.main()
