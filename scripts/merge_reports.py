#!/usr/bin/env python3
"""Merge per-binary ANTSim JSON reports into one BENCH_antsim.json.

Usage: merge_reports.py OUT.json [--smoke] REPORT.json...

Each input is the --json output of one bench binary (schema_version 1).
The merged document keys every run by its binary name and lifts the
headline numbers -- fig09 geomeans, table5 mean RCP avoidance, and the
abl_threads per-stage wall-clock breakdown -- into a "summary" block so
downstream tooling does not need to know each binary's metric names.

Only the Python standard library is used: the bench containers (and the
CI runner) deliberately have no third-party packages installed.
"""

import json
import sys


def fatal(message):
    print("merge_reports: error: " + message, file=sys.stderr)
    sys.exit(1)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fatal("cannot read {}: {}".format(path, err))
    for key in ("schema_version", "generator", "metadata", "metrics"):
        if key not in report:
            fatal("{} is missing required key '{}'".format(path, key))
    if report["schema_version"] != 1:
        fatal("{} has unsupported schema_version {}".format(
            path, report["schema_version"]))
    return report


def stage_seconds(report):
    """Per-stage wall-clock seconds from a report's profile section."""
    stages = report.get("profile", {}).get("stages", [])
    return {stage["name"]: stage["seconds"] for stage in stages}


def require_run(runs, binary):
    """The run of `binary`, which the headline summary needs."""
    if binary not in runs:
        fatal("required run '{}' missing from inputs".format(binary))
    return runs[binary]


def require_metric(runs, binary, metric):
    metrics = require_run(runs, binary)["metrics"]
    if metric not in metrics:
        fatal("run '{}' has no metric '{}'".format(binary, metric))
    return metrics[metric]


def main(argv):
    args = [a for a in argv[1:] if a != "--smoke"]
    smoke = "--smoke" in argv[1:]
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path, inputs = args[0], args[1:]

    runs = {}
    for path in inputs:
        report = load_report(path)
        binary = report["metadata"]["binary"]
        if binary in runs:
            fatal("duplicate run for binary '{}'".format(binary))
        runs[binary] = report

    summary = {
        "speedup_geomean": require_metric(
            runs, "fig09_speedup_energy", "speedup_geomean"),
        "energy_reduction_geomean": require_metric(
            runs, "fig09_speedup_energy", "energy_reduction_geomean"),
        "rcp_avoided_mean": require_metric(
            runs, "table5_rcp_avoided", "rcp_avoided_mean"),
        "stage_seconds": stage_seconds(require_run(runs, "abl_threads")),
    }
    if not summary["stage_seconds"]:
        fatal("abl_threads report carries no profile section")
    merged = {
        "schema_version": 1,
        "generator": "antsim",
        "suite": "bench_all",
        "smoke": smoke,
        "summary": summary,
        "runs": runs,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print("merge_reports: wrote {} ({} runs)".format(out_path, len(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
