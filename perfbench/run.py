#!/usr/bin/env python3
"""Host-time benchmark of ANTSim's figure binaries.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9_cnn90 --seed 1 --seconds 30 \
        --trace 0

Builds the repository (Release) into .bench_build, then runs one workload:

  --trace 0  closed loop of one bench-binary process at a time: at least
             MIN_PASSES passes, then more while another median-length
             pass still ends within --seconds. Before them,
             SETUP_PROBES launches that stop at the header line. Every
             pass is checked (exit code, report schema, simulated mode,
             modelled sections equal to the first pass'). Prints each
             end-to-end metric with its unit and sample count, then one
             JSON line with the gated metrics.
  --trace 1  one checked untraced pass, then layer_replay (this
             directory), which times each layer's public calls. Prints
             the per-layer metrics.

--workload all runs every workload in turn. The last stdout line is
always {"correct", "attempted", "failed", "metrics"}; under "all" its
metric names carry a "<workload>." prefix. See README.md for why each
workload and metric exists.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "Release"
SCHEMA = ROOT / "docs" / "report_schema.json"
VALIDATOR = ROOT / "scripts" / "validate_report.py"

# The bench binaries' own defaults, passed explicitly so a workload's
# input cannot drift with a default.
WORKLOAD_FLAGS = ["--samples", "16", "--pes", "64", "--chunk", "4096"]
MIN_PASSES = 3
SETUP_PROBES = 15
MODELLED_SECTIONS = ("networks", "metrics", "stall_attribution")
HEADER_PREFIX = b"=== "


def err_pct(modelled, paper):
    """|modelled / paper - 1| in percent."""
    return abs(modelled / paper - 1.0) * 100.0


def ant_rcp_avoided(report):
    """RCP-avoided fractions of every ANT network run in a report."""
    return [n["stats"]["rcp_avoided_fraction"]
            for n in report.get("networks", [])
            if n["name"].startswith("ant/")]


def fig9_fidelity(report):
    metrics = report["metrics"]
    return {
        "speedup_err_pct": err_pct(metrics["speedup_geomean"], 3.71),
        "energy_err_pct": err_pct(metrics["energy_reduction_geomean"], 4.40),
        "rcp_gap_pts": abs(100.0 * statistics.fmean(ant_rcp_avoided(report))
                           - 90.3),
    }


def fig10_fidelity(report):
    metrics = report["metrics"]
    return {
        "speedup_err_pct": err_pct(metrics["speedup.42%/85%"], 28.1),
        "energy_err_pct": err_pct(metrics["energy_reduction.42%/85%"], 40.0),
    }


def sec78_fidelity(report):
    lowest = 100.0 * min(ant_rcp_avoided(report))
    return {"rcp_gap_pts": max(0.0, 99.0 - lowest)}


WORKLOADS = {
    "fig9_cnn90": ("fig09_speedup_energy", fig9_fidelity),
    "fig10_resprop": ("fig10_vs_dense_baseline", fig10_fidelity),
    "sec78_matmul": ("sec78_transformer_rnn", sec78_fidelity),
}

# name -> unit, in print order. GATED are the metrics in BENCHMARK.json;
# the rest are printed only (see README.md, "Printed, not gated").
END_TO_END = {
    "setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "failed_ratio": "ratio", "speedup_err_pct": "%",
    "energy_err_pct": "%", "rcp_gap_pts": "pts",
}
GATED = ("setup_s", "pass_s", "cpu_s", "peak_rss_mb")

PER_LAYER = {
    "tracegen.busy_s": "s", "tracegen.planes": "count",
    "tracegen.ns_per_plane": "ns",
    "chunking.busy_s": "s", "chunking.chunks": "count",
    "scnn.busy_s": "s", "scnn.ns_per_mult": "ns",
    "ant.busy_s": "s", "ant.ns_per_mult": "ns",
    "scnn.cycles": "count", "scnn.valid_mult_ratio": "ratio",
    "ant.cycles": "count", "ant.rcp_avoided_ratio": "ratio",
    "runner.wall_s": "s", "runner.cpu_s": "s", "runner.util": "ratio",
    "runner.retained_mb": "MiB", "trace.overhead_pct": "%",
    "process.teardown_s": "s",
}


class Pass:
    """One child process: timings, rusage and the reasons it failed."""

    def __init__(self):
        self.exit_code = None
        self.header_s = None
        self.work_s = None
        self.wall_s = None
        self.cpu_s = None
        self.maxrss_mb = None
        self.stdout = []
        self.report = None
        self.failures = []


def hermetic_env():
    """The caller's environment without any ANTSIM_* setting."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ANTSIM_")}


def run_child(argv, env, stderr_path, stop_at_header=False):
    """Spawn argv and time it: header_s to the first stdout line, work_s
    to the last, wall_s to exit. With stop_at_header the child is killed
    once the first line arrives. Always reaps the child."""
    result = Pass()
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                env=env, cwd=ROOT)
        try:
            for line in proc.stdout:
                now = time.perf_counter() - start
                if result.header_s is None:
                    result.header_s = now
                    if stop_at_header:
                        proc.kill()
                result.work_s = now
                result.stdout.append(line)
            # wait4 rather than Popen.wait: it returns this child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            result.wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    result.exit_code = proc.returncode
    result.cpu_s = usage.ru_utime + usage.ru_stime
    result.maxrss_mb = usage.ru_maxrss / 1024.0
    return result


def stderr_tail(path, lines=5):
    try:
        text = Path(path).read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return "\n".join(text[-lines:])


def validate_report(path):
    """Run the repository's report validator; returns (ok, message)."""
    proc = subprocess.run(
        [sys.executable, str(VALIDATOR), str(SCHEMA), str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=ROOT)
    return proc.returncode == 0, proc.stdout.strip()


def check_pass(result, report_path, reference):
    """Fill result.failures; returns the pass' modelled sections."""
    if result.exit_code != 0:
        result.failures.append("exit code {}".format(result.exit_code))
    if not result.stdout or not result.stdout[0].startswith(HEADER_PREFIX):
        result.failures.append("no header line on stdout")
    ok, message = validate_report(report_path)
    if not ok:
        result.failures.append("report rejected: " + message)
        return None
    with open(report_path, encoding="utf-8") as handle:
        result.report = json.load(handle)
    metadata = result.report["metadata"]
    if metadata.get("mode") != "simulated":
        result.failures.append("metadata.mode is {!r}".format(
            metadata.get("mode")))
    if metadata.get("audit"):
        result.failures.append("metadata.audit is true")
    sections = {k: result.report.get(k) for k in MODELLED_SECTIONS}
    if reference is not None and sections != reference:
        changed = [k for k in MODELLED_SECTIONS if sections[k] != reference[k]]
        result.failures.append("modelled sections differ from the first "
                               "pass: " + ", ".join(changed))
    return sections


def run_passes(make_argv, env, workdir, seconds, min_passes=MIN_PASSES):
    """Closed loop: one checked pass at a time, at least @min_passes,
    then more while another median-length pass still ends within
    @seconds. make_argv(report_path) -> argv."""
    passes = []
    reference = None
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start + \
            statistics.median(p.wall_s for p in passes) <= seconds:
        index = len(passes)
        report_path = Path(workdir) / "pass{}.json".format(index)
        stderr_path = Path(workdir) / "pass{}.err".format(index)
        result = run_child(make_argv(str(report_path)), env, stderr_path)
        sections = check_pass(result, report_path, reference)
        if reference is None:
            reference = sections
        if result.failures:
            print("perfbench: pass {} failed: {}\n{}".format(
                index, "; ".join(result.failures), stderr_tail(stderr_path)),
                file=sys.stderr)
        passes.append(result)
    return passes


def setup_probes(argv, env, workdir, count=SETUP_PROBES):
    """Header-line times of launches killed right after the header."""
    times = []
    for index in range(count):
        probe = run_child(argv, env, Path(workdir) / "probe.err",
                          stop_at_header=True)
        if probe.header_s is not None:
            times.append(probe.header_s)
    return times


def median_of(values):
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(passes, probe_times, fidelity):
    """Every end-to-end metric as name -> (value, samples)."""
    good = [p for p in passes if not p.failures] or passes
    setup = probe_times + [p.header_s for p in passes
                           if p.header_s is not None]
    failed = sum(1 for p in passes if p.failures)
    metrics = {
        "setup_s": (median_of(setup), len(setup)),
        "pass_s": (median_of([p.wall_s for p in good]), len(good)),
        "cpu_s": (median_of([p.cpu_s for p in good]), len(good)),
        "peak_rss_mb": (median_of([p.maxrss_mb for p in good]), len(good)),
        "failed_ratio": (failed / len(passes), len(passes)),
    }
    for name in ("speedup_err_pct", "energy_err_pct", "rcp_gap_pts"):
        metrics[name] = (fidelity.get(name), 1 if name in fidelity else 0)
    return metrics


def layer_metrics(replay, untraced):
    """Per-layer metrics from layer_replay's JSON and one untraced pass."""
    def per(busy_s, count):
        return 1e9 * busy_s / count if count else 0.0

    avoided, suffered = replay["ant_rcps_avoided"], replay["ant_mults_rcp"]
    executed = replay["scnn_mults_executed"]
    return {
        "tracegen.busy_s": replay["tracegen_s"],
        "tracegen.planes": replay["planes"],
        "tracegen.ns_per_plane": per(replay["tracegen_s"], replay["planes"]),
        "chunking.busy_s": replay["chunking_s"],
        "chunking.chunks": replay["chunks"],
        "scnn.busy_s": replay["scnn_s"],
        "scnn.ns_per_mult": per(replay["scnn_s"], replay["scnn_mults"]),
        "ant.busy_s": replay["ant_s"],
        "ant.ns_per_mult": per(replay["ant_s"], replay["ant_mults"]),
        "scnn.cycles": replay["scnn_cycles"],
        "scnn.valid_mult_ratio":
            replay["scnn_mults_valid"] / executed if executed else 1.0,
        "ant.cycles": replay["ant_cycles"],
        "ant.rcp_avoided_ratio": avoided / (avoided + suffered)
            if avoided + suffered else 1.0,
        "runner.wall_s": replay["runner_wall_s"],
        "runner.cpu_s": replay["runner_cpu_s"],
        "runner.util": replay["runner_cpu_s"] /
            (replay["runner_wall_s"] * replay["threads"]),
        "runner.retained_mb": replay["runner_retained_mib"],
        "trace.overhead_pct":
            100.0 * (replay["runner_wall_s"] / untraced.work_s - 1.0),
        "process.teardown_s": untraced.wall_s - untraced.work_s,
    }


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


def build(threads):
    """Configure once, then bring the needed targets up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no ANTSim sources at {}".format(ROOT))
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    commands = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    targets = [binary for binary, _ in WORKLOADS.values()] + ["layer_replay"]
    commands.append(["cmake", "--build", str(BUILD), "-j", str(threads),
                     "--target"] + targets)
    with open(log_path, "ab") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=log,
                              cwd=ROOT).returncode != 0:
                sys.exit("perfbench: build failed:\n" +
                         stderr_tail(log_path, 20))


def bench_argv(binary, seed, threads, report_path):
    # stdbuf -oL: a piped stdout is block-buffered, which would delay the
    # header line (setup_s) until exit.
    return ["stdbuf", "-oL", str(BUILD / "bench" / binary),
            "--threads", str(threads), "--seed", str(seed),
            "--json", report_path, "--log-level", "warn"] + WORKLOAD_FLAGS


def print_table(rows):
    print("{:<24} {:>16} {:<6} {:>7}".format("metric", "value", "unit",
                                            "samples"))
    for name, value, unit, samples in rows:
        shown = "n/a" if value is None else "{:.6g}".format(value)
        print("{:<24} {:>16} {:<6} {:>7}".format(name, shown, unit, samples))


def measure_untraced(name, seed, seconds, threads, env, workdir):
    """Closed-loop passes; returns (correct, attempted, failed, values,
    units) with the gated end-to-end metrics."""
    binary, fidelity_of = WORKLOADS[name]

    def make_argv(report_path):
        return bench_argv(binary, seed, threads, report_path)

    probes = setup_probes(make_argv(str(Path(workdir) / "probe.json")), env,
                          workdir)
    passes = run_passes(make_argv, env, workdir, seconds)
    fidelity = {}
    try:
        fidelity = fidelity_of(passes[0].report)
    except (KeyError, TypeError, ValueError) as err:
        print("perfbench: no modelled results: {!r}".format(err),
              file=sys.stderr)
    metrics = end_to_end_metrics(passes, probes, fidelity)
    print_table([(n, metrics[n][0], END_TO_END[n], metrics[n][1])
                 for n in END_TO_END])
    failed = sum(1 for p in passes if p.failures)
    return (failed == 0 and bool(fidelity), len(passes), failed,
            {n: metrics[n][0] for n in GATED},
            {n: END_TO_END[n] for n in GATED})


def measure_traced(name, seed, threads, env, workdir):
    """One untraced pass plus layer_replay; same tuple as
    measure_untraced, with the per-layer metrics. None when the replay
    printed no result."""
    binary, _ = WORKLOADS[name]
    untraced = run_passes(
        lambda report: bench_argv(binary, seed, threads, report),
        env, workdir, 0, min_passes=1)[0]
    replay_argv = [str(BUILD / "layer_replay"), "--workload", name,
                   "--seed", str(seed), "--threads", str(threads)]
    stderr_path = Path(workdir) / "replay.err"
    traced = run_child(replay_argv + WORKLOAD_FLAGS, env, stderr_path)
    failed = 1 if untraced.failures else 0
    replay = None
    try:
        replay = json.loads(traced.stdout[-1])
    except (IndexError, ValueError):
        pass
    if traced.exit_code != 0 or not replay or \
            not replay.get("replay_matches"):
        failed += 1
        print("perfbench: layer_replay failed (exit {}):\n{}".format(
            traced.exit_code, stderr_tail(stderr_path)), file=sys.stderr)
    if replay is None:
        return None
    values = layer_metrics(replay, untraced)
    print_table([(n, values[n], PER_LAYER[n], 1) for n in PER_LAYER])
    return failed == 0, 2, failed, values, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # SIGTERM unwinds like an exception, so run_child still kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = len(os.sched_getaffinity(0))
    build(threads)
    env = hermetic_env()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        print("# perfbench workload={} binary={} seed={} nproc={} "
              "threads={} build_type={} trace={}".format(
                  name, WORKLOADS[name][0], args.seed, os.cpu_count(),
                  threads, BUILD_TYPE, args.trace))
        with tempfile.TemporaryDirectory(dir=BUILD) as workdir:
            result = (measure_traced(name, args.seed, threads, env, workdir)
                      if args.trace else
                      measure_untraced(name, args.seed, args.seconds,
                                       threads, env, workdir))
        if result is None:
            return 1
        results.append(result)
    if len(results) == 1:
        print(result_line(*results[0]))
        return 0
    # --workload all: one summary line, metric names prefixed by workload.
    values, units = {}, {}
    for name, (_, _, _, vals, unit_map) in zip(names, results):
        for metric, value in vals.items():
            values[name + "." + metric] = value
            units[name + "." + metric] = unit_map[metric]
    print(result_line(all(r[0] for r in results),
                      sum(r[1] for r in results),
                      sum(r[2] for r in results), values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
