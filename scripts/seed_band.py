#!/usr/bin/env python3
"""Seed bands: the spread of a bench's headline metrics over seeds.

Usage: seed_band.py BINARY [BENCH FLAGS ...] --seeds N [--out F]
       seed_band.py --compare OLD.json NEW.json

The first form runs BINARY once at each seed 1..N with the flags
perfbench/run.py gives its children (--samples 16 --pes 64 --chunk
4096, and --threads T for the T CPUs this process may use) and --json,
and collects every number in the report's "metrics" section. BENCH
FLAGS go to the bench and replace a default of the same name (for
example --samples 2). The script prints each metric's min, median and
max. With --out it also writes them, with every seed's value, under
the bench's name in F; the other benches already in F are kept, so one
file holds the bands of several benches. Metrics are modelled results,
which depend neither on the thread count nor on the machine, so the
file leaves --threads out, sorts its keys and writes every number
exactly: the same build and flags regenerate it byte for byte.

The second form prints, for every (bench, metric) in both files, the
old and the new band, whether they overlap, and Welch's t of the new
mean against the old one:

    t = (mean_new - mean_old) / sqrt(var_old / n_old + var_new / n_new)

with sample variances. A |t| above about 3 says the metric moved more
than its seed spread explains; rerun it at more seeds before reading
it as a shift. The comparison is a report, not a gate: it exits 0
unless a file is malformed or the two files share no metric.

Only the Python standard library is used.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# perfbench/run.py's WORKLOAD_FLAGS; --threads is added per machine.
DEFAULT_FLAGS = [("--samples", "16"), ("--pes", "64"), ("--chunk", "4096")]
# Flags the script sets itself for every run.
OWN_FLAGS = {"--seed", "--json", "--csv", "--log-level"}


def fatal(message):
    sys.exit("seed_band: " + message)


def bench_flags(extra):
    """The defaults not overridden by @p extra, then @p extra."""
    given = {token for token in extra if token.startswith("--")}
    clash = sorted(given & OWN_FLAGS)
    if clash:
        fatal("the script sets {} itself".format(", ".join(clash)))
    flags = []
    for name, value in DEFAULT_FLAGS:
        if name not in given:
            flags += [name, value]
    flags += list(extra)
    if "--threads" not in given:
        flags += ["--threads", str(len(os.sched_getaffinity(0)))]
    return flags


def recorded_flags(flags):
    """@p flags without --threads and its value."""
    out = []
    skip = False
    for token in flags:
        if skip:
            skip = False
        elif token == "--threads":
            skip = True
        else:
            out.append(token)
    return out


def run_seed(binary, flags, seed, workdir):
    """The report of one run at @p seed."""
    report_path = Path(workdir) / "seed_{}.json".format(seed)
    argv = [str(binary)] + flags + ["--seed", str(seed), "--json",
                                    str(report_path), "--log-level", "warn"]
    result = subprocess.run(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        fatal("{} exited {} at seed {}:\n{}".format(
            binary, result.returncode, seed, result.stderr[-2000:]))
    with open(report_path) as handle:
        return json.load(handle)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def band(values):
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values), "values": values}


def measure(binary, extra, seeds):
    """The bench's entry: its flags, seeds, stream version and bands."""
    flags = bench_flags(extra)
    per_metric = {}
    version = None
    with tempfile.TemporaryDirectory() as workdir:
        for seed in range(1, seeds + 1):
            report = run_seed(binary, flags, seed, workdir)
            version = report["metadata"].get("trace_generator_version")
            for name, value in report["metrics"].items():
                if is_number(value):
                    per_metric.setdefault(name, []).append(value)
    incomplete = sorted(name for name, values in per_metric.items()
                        if len(values) != seeds)
    if incomplete:
        fatal("metrics missing at some seeds: " + ", ".join(incomplete))
    return {"flags": recorded_flags(flags),
            "seeds": list(range(1, seeds + 1)),
            "trace_generator_version": version,
            "metrics": {name: band(values)
                        for name, values in per_metric.items()}}


def fmt(value):
    return "{:.6g}".format(value)


def print_bands(name, entry):
    print("{} ({} seeds, {})".format(name, len(entry["seeds"]),
                                     " ".join(entry["flags"])))
    print("  {:<36} {:>12} {:>12} {:>12}".format("metric", "min", "median",
                                                 "max"))
    for metric, b in sorted(entry["metrics"].items()):
        print("  {:<36} {:>12} {:>12} {:>12}".format(
            metric, fmt(b["min"]), fmt(b["median"]), fmt(b["max"])))


def welch_t(old, new):
    """Welch's t of @p new's mean against @p old's; None below 2 seeds."""
    if len(old) < 2 or len(new) < 2:
        return None
    diff = statistics.fmean(new) - statistics.fmean(old)
    scale = math.sqrt(statistics.variance(old) / len(old) +
                      statistics.variance(new) / len(new))
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / scale


def load(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        fatal("cannot read {}: {}".format(path, error))
    if not isinstance(doc, dict) or not all(
            isinstance(entry, dict) and "metrics" in entry
            for entry in doc.values()):
        fatal("{} is not a seed-band file".format(path))
    return doc


def compare(old_path, new_path):
    old_doc, new_doc = load(old_path), load(new_path)
    shared = 0
    for bench in sorted(set(old_doc) & set(new_doc)):
        old, new = old_doc[bench], new_doc[bench]
        print("{}: old {} ({} seeds), new {} ({} seeds)".format(
            bench, old.get("trace_generator_version"), len(old["seeds"]),
            new.get("trace_generator_version"), len(new["seeds"])))
        print("  {:<36} {:>32} {:>32} {:>8} {:>7}".format(
            "metric", "old [min median max]", "new [min median max]",
            "overlap", "welch_t"))
        for metric in sorted(set(old["metrics"]) & set(new["metrics"])):
            a, b = old["metrics"][metric], new["metrics"][metric]
            overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
            t = welch_t(a["values"], b["values"])
            print("  {:<36} {:>32} {:>32} {:>8} {:>7}".format(
                metric,
                " ".join(fmt(a[k]) for k in ("min", "median", "max")),
                " ".join(fmt(b[k]) for k in ("min", "median", "max")),
                "yes" if overlap else "NO",
                "n/a" if t is None else "{:+.2f}".format(t)))
            shared += 1
    if shared == 0:
        fatal("{} and {} share no (bench, metric)".format(old_path,
                                                         new_path))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s BINARY [BENCH FLAGS ...] --seeds N [--out F]\n"
              "       %(prog)s --compare OLD.json NEW.json")
    parser.add_argument("--seeds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args, rest = parser.parse_known_args()
    if args.compare:
        if rest or args.seeds or args.out:
            fatal("--compare takes only its two files")
        compare(*args.compare)
        return
    if not rest or rest[0].startswith("--"):
        fatal("name the bench binary first")
    if not args.seeds or args.seeds < 1:
        fatal("--seeds N needs N >= 1")
    binary = Path(rest[0])
    entry = measure(binary, rest[1:], args.seeds)
    print_bands(binary.name, entry)
    if args.out:
        out = Path(args.out)
        doc = load(out) if out.exists() else {}
        doc[binary.name] = entry
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
