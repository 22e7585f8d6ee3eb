#!/usr/bin/env python3
"""Fail when the bench suite's stage timings regress against a baseline.

Usage: check_perf.py BASELINE.json REPORT.json [--factor F]
       [--min-seconds S] [--micro MICRO.json ...]
       check_perf.py --trend [BENCH_history.jsonl]
       check_perf.py --overhead BASE.json METERED.json
       [BASE.json METERED.json ...] [--max-overhead-pct P]

BASELINE.json is the checked-in scripts/perf_baseline.json: a document
with a "stage_seconds" object of per-stage seconds recorded from a
known-good smoke run. REPORT.json is a merged BENCH_antsim.json (see
scripts/bench_all.sh); its summary.stage_seconds is compared stage by
stage and the check fails if any stage exceeds factor * baseline
(default 2x -- wide enough for machine-to-machine variance, narrow
enough to catch an accidental revert of the census engine or the fused
plane generator).

When one or more --micro reports are given (google-benchmark
--benchmark_format=json output from bench/micro_census and
bench/micro_csr), the baseline's "micro_speedups" pairs are also
checked: each pair names a scalar and an AVX2 benchmark and the
minimum scalar/AVX2 CPU-time ratio the vectorized kernel must keep
(docs/MODEL.md Sec. 11). A pair whose AVX2 benchmark is absent from
every report is skipped -- the benches register AVX2 variants only on
AVX2 hardware -- so the gate passes (vacuously) on scalar-only
machines while still catching kernel regressions where it can measure
them.

The comparison is printed as a per-stage delta table (baseline vs
current, % change, limit, verdict); when the GITHUB_STEP_SUMMARY
environment variable points at a writable file (GitHub Actions job
summary), the same table is appended there as markdown.

Stages whose baseline is below --min-seconds (default 0.05) are skipped:
sub-50ms stages are timer noise, not signal.

Every gate is evaluated and every verdict printed before the exit
status is decided -- stages, then the micro-kernel pairs -- so one
failing gate never hides another's verdict.

--trend is informational, never a gate: it reads the BENCH_history.jsonl
appended by scripts/bench_all.sh (one JSON object per suite run:
timestamp, geomeans, stage seconds, each bench's wall seconds, planes
generated) and prints the delta of the newest entry against the one
before it. Machine-to-machine variance makes an automatic gate on
history meaningless; the value is a human-readable trajectory in the CI
log.

--overhead gates the cost of observability itself: each BASE.json is a
report from a metrics-off run, the METERED.json after it the same
configuration with --metrics-out/--host-trace-out enabled. Each pair
yields the metered run's summed profile.stages[].seconds over the base
run's, and the median of those overheads must stay within
--max-overhead-pct (default 3). Several alternating pairs give the gate
statistical power: a single pair on a shared machine is dominated by
noise. This is the CI teeth behind the "one thread-local branch when
off, cheap when on" design contract of src/obs/metrics.hh.

Only the Python standard library is used: the bench containers and the
CI runner deliberately have no third-party packages installed.
"""

import json
import os
import statistics
import sys


def fatal(message):
    print("check_perf: error: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fatal("cannot read {}: {}".format(path, err))


def parse_micro_paths(args):
    """Extract every `--micro PATH` occurrence from args."""
    paths = []
    while "--micro" in args:
        index = args.index("--micro")
        if index + 1 >= len(args):
            fatal("--micro expects a path")
        paths.append(args[index + 1])
        del args[index:index + 2]
    return paths


def load_micro_times(paths):
    """Benchmark name -> CPU time from google-benchmark JSON reports.

    Prefers the `_median` aggregate when --benchmark_repetitions was
    used; otherwise takes the plain iteration entry. Times are kept in
    each benchmark's own time_unit -- only ratios are computed, and a
    scalar/AVX2 pair always comes from the same binary."""
    times = {}
    for path in paths:
        doc = load_json(path)
        entries = doc.get("benchmarks")
        if not isinstance(entries, list):
            fatal("{} has no benchmarks array".format(path))
        for entry in entries:
            name = entry.get("run_name", entry.get("name"))
            cpu = entry.get("cpu_time")
            if not isinstance(name, str) or cpu is None:
                continue
            aggregate = entry.get("aggregate_name", "")
            if aggregate == "median" or (aggregate == "" and
                                         name not in times):
                times[name] = float(cpu)
    return times


def check_micro_speedups(pairs, times):
    """Check each scalar/AVX2 pair; returns the list of failures."""
    failures = []
    print("check_perf: micro-kernel speedups (scalar CPU time / AVX2):")
    for pair_name, spec in sorted(pairs.items()):
        scalar_name = spec.get("scalar")
        avx2_name = spec.get("avx2")
        minimum = spec.get("min_speedup")
        if not scalar_name or not avx2_name or minimum is None:
            fatal("micro_speedups '{}' needs scalar, avx2, and "
                  "min_speedup".format(pair_name))
        if scalar_name not in times:
            fatal("micro reports are missing benchmark '{}'".format(
                scalar_name))
        if avx2_name not in times:
            print("check_perf:   {:<20} skipped (no AVX2 benchmark; "
                  "scalar-only hardware)".format(pair_name))
            continue
        speedup = times[scalar_name] / times[avx2_name]
        verdict = "ok" if speedup >= float(minimum) else "REGRESSED"
        print("check_perf:   {:<20} {:6.2f}x  (min {:.2f}x)  {}".format(
            pair_name, speedup, float(minimum), verdict))
        if verdict == "REGRESSED":
            failures.append(pair_name)
    return failures


def parse_flag(args, name, default):
    if name in args:
        index = args.index(name)
        if index + 1 >= len(args):
            fatal("{} expects a value".format(name))
        try:
            value = float(args[index + 1])
        except ValueError:
            fatal("{} expects a number, got '{}'".format(
                name, args[index + 1]))
        del args[index:index + 2]
        return value
    return default


def build_rows(baseline, current, factor, min_seconds):
    """One row per baseline stage:
    (stage, baseline_s, current_s, delta_pct, limit_s, verdict)."""
    rows = []
    for stage, budget in sorted(baseline.items()):
        if stage not in current:
            fatal("report is missing stage '{}'".format(stage))
        seconds = current[stage]
        delta = ((seconds - budget) / budget * 100.0) if budget > 0 else 0.0
        if budget < min_seconds:
            verdict = "skipped (noise floor)"
        elif seconds <= budget * factor:
            verdict = "ok"
        else:
            verdict = "REGRESSED"
        rows.append((stage, budget, seconds, delta, budget * factor,
                     verdict))
    return rows


def print_table(rows, factor):
    header = ("stage", "baseline (s)", "current (s)", "delta",
              "limit {:.1f}x (s)".format(factor), "verdict")
    widths = [max(len(header[i]), 18 if i == 0 else 14)
              for i in range(len(header))]
    line = "  ".join("{:<{}}".format(header[i], widths[i])
                     for i in range(len(header)))
    print("check_perf: " + line)
    print("check_perf: " + "-" * len(line))
    for stage, budget, seconds, delta, limit, verdict in rows:
        cells = (stage, "{:.4f}".format(budget), "{:.4f}".format(seconds),
                 "{:+.1f}%".format(delta), "{:.4f}".format(limit), verdict)
        print("check_perf: " + "  ".join(
            "{:<{}}".format(cells[i], widths[i])
            for i in range(len(cells))))


def write_job_summary(rows, factor, report_path):
    """Append the delta table as markdown to the GitHub job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Perf check: stage timings vs baseline",
        "",
        "Report: `{}` -- limit = {:.1f}x baseline".format(
            report_path, factor),
        "",
        "| Stage | Baseline (s) | Current (s) | Delta | Verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for stage, budget, seconds, delta, _limit, verdict in rows:
        mark = ":x: " if verdict == "REGRESSED" else ""
        lines.append("| {} | {:.4f} | {:.4f} | {:+.1f}% | {}{} |".format(
            stage, budget, seconds, delta, mark, verdict))
    lines.append("")
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as err:
        # The summary is a convenience; never fail the check over it.
        print("check_perf: warning: cannot write job summary: {}".format(
            err), file=sys.stderr)


def run_trend(args):
    """Print the newest history entry's delta vs the previous one."""
    path = args[0] if args else "BENCH_history.jsonl"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as err:
        fatal("cannot read {}: {}".format(path, err))
    entries = []
    for line_no, line in enumerate(lines, start=1):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as err:
            fatal("{} line {}: {}".format(path, line_no, err))
    if not entries:
        fatal("{} has no entries".format(path))
    current = entries[-1]
    print("check_perf: trend from {} ({} entries)".format(
        path, len(entries)))
    print("check_perf: latest entry: {}".format(
        current.get("timestamp", "<no timestamp>")))
    if len(entries) == 1:
        print("check_perf: no previous entry to compare against")
        return 0
    previous = entries[-2]

    def delta_line(label, cur, prev, unit=""):
        if not isinstance(cur, (int, float)):
            return
        if isinstance(prev, (int, float)) and prev != 0:
            pct = (cur - prev) / prev * 100.0
            print("check_perf:   {:<28} {:10.4f}{}  ({:+.1f}% vs "
                  "{:.4f})".format(label, cur, unit, pct, prev))
        else:
            print("check_perf:   {:<28} {:10.4f}{}  (no previous "
                  "value)".format(label, cur, unit))

    for key in ("speedup_geomean", "energy_reduction_geomean",
                "rcp_avoided_mean"):
        delta_line(key, current.get(key), previous.get(key), "x")
    def delta_group(key, label, unit=""):
        cur = current.get(key, {})
        prev = previous.get(key, {})
        if not isinstance(cur, dict):
            return
        if not isinstance(prev, dict):
            prev = {}
        for name in sorted(cur):
            delta_line(label + " " + name, cur.get(name), prev.get(name),
                       unit)

    delta_group("stage_seconds", "stage", "s")
    delta_group("wall_seconds", "wall", "s")
    delta_group("census", "census")
    # Informational only: history entries come from different machines
    # and commits, so there is no threshold worth failing on.
    return 0


def profile_seconds(report, path):
    """Sum of profile.stages[].seconds in a single-run report."""
    stages = report.get("profile", {}).get("stages")
    if not isinstance(stages, list) or not stages:
        fatal("{} has no profile.stages (report written without the "
              "profile section?)".format(path))
    total = 0.0
    for stage in stages:
        seconds = stage.get("seconds")
        if not isinstance(seconds, (int, float)):
            fatal("{}: stage entry without numeric seconds".format(path))
        total += seconds
    return total


def run_overhead(args):
    """Gate the median metered-run overhead over BASE/METERED pairs."""
    max_pct = parse_flag(args, "--max-overhead-pct", 3.0)
    if not args or len(args) % 2 != 0:
        fatal("--overhead expects BASE.json METERED.json pairs")
    pcts = []
    for base_path, metered_path in zip(args[0::2], args[1::2]):
        base = profile_seconds(load_json(base_path), base_path)
        metered = profile_seconds(load_json(metered_path), metered_path)
        if base <= 0:
            fatal("{}: non-positive profiled seconds".format(base_path))
        pct = (metered - base) / base * 100.0
        pcts.append(pct)
        print("check_perf: overhead pair {}: base {:.4f}s, metered "
              "{:.4f}s, delta {:+.1f}%".format(len(pcts), base, metered,
                                               pct))
    median = statistics.median(pcts)
    verdict = "ok" if median <= max_pct else "REGRESSED"
    print("check_perf: observability overhead: median {:+.1f}% over {} "
          "pair(s) (max {:+.1f}%)  {}".format(median, len(pcts), max_pct,
                                              verdict))
    if verdict == "REGRESSED":
        fatal("metered runs exceeded the {:.1f}% observability overhead "
              "budget".format(max_pct))
    return 0


def main(argv):
    args = list(argv[1:])
    if args and args[0] == "--trend":
        return run_trend(args[1:])
    if args and args[0] == "--overhead":
        return run_overhead(args[1:])
    factor = parse_flag(args, "--factor", 2.0)
    min_seconds = parse_flag(args, "--min-seconds", 0.05)
    micro_paths = parse_micro_paths(args)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, report_path = args

    baseline_doc = load_json(baseline_path)
    baseline = baseline_doc.get("stage_seconds")
    if not isinstance(baseline, dict) or not baseline:
        fatal("{} has no stage_seconds object".format(baseline_path))
    report = load_json(report_path)
    current = report.get("summary", {}).get("stage_seconds")
    if not isinstance(current, dict) or not current:
        fatal("{} has no summary.stage_seconds".format(report_path))

    rows = build_rows(baseline, current, factor, min_seconds)
    print_table(rows, factor)
    write_job_summary(rows, factor, report_path)

    failures = []
    regressed = [row[0] for row in rows if row[5] == "REGRESSED"]
    if regressed:
        failures.append("stage(s) regressed beyond {:.1f}x baseline: "
                        "{}".format(factor, ", ".join(regressed)))

    if micro_paths:
        pairs = baseline_doc.get("micro_speedups")
        if not isinstance(pairs, dict) or not pairs:
            fatal("{} has no micro_speedups object but --micro was "
                  "given".format(baseline_path))
        micro_failures = check_micro_speedups(
            pairs, load_micro_times(micro_paths))
        if micro_failures:
            failures.append("micro-kernel pair(s) below minimum "
                            "speedup: {}".format(", ".join(micro_failures)))

    for message in failures:
        print("check_perf: error: " + message, file=sys.stderr)
    if failures:
        return 1
    print("check_perf: all stages within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
