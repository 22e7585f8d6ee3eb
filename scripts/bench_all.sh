#!/usr/bin/env bash
# Run the headline benchmark suite (fig09 speedup/energy, table5 RCP
# avoidance, abl_threads scaling, sweep_dse design-space sweep),
# collecting each binary's structured --json report, then merge them
# into a single BENCH_antsim.json at the repo root and validate it
# against docs/report_schema.json.
#
# Each successful suite run also appends one JSON line to
# BENCH_history.jsonl at the repo root (timestamp, headline geomeans,
# stage wall clocks, each bench's wall clock, planes generated),
# building a perf trajectory across commits; `scripts/check_perf.py
# --trend` prints the delta of the newest entry against the previous.
#
# Usage: scripts/bench_all.sh [--smoke] [build-dir]
#   --smoke    tiny configuration (2 samples, 2 threads) for CI: same
#              code paths and schema, seconds instead of minutes.
#   build-dir  defaults to ./build; must already contain the bench
#              binaries (cmake -B build -S . && cmake --build build).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
smoke=0
build_dir="${repo_root}/build"
for arg in "$@"; do
    case "${arg}" in
    --smoke) smoke=1 ;;
    --help | -h)
        sed -n '2,12p' "$0"
        exit 0
        ;;
    *) build_dir="${arg}" ;;
    esac
done

bench_dir="${build_dir}/bench"
if [ ! -x "${bench_dir}/fig09_speedup_energy" ]; then
    echo "bench_all: no bench binaries in ${bench_dir};" \
        "build first (cmake -B build -S . && cmake --build build)" >&2
    exit 1
fi

report_dir="${build_dir}/report"
mkdir -p "${report_dir}"

# --smoke trades statistical weight (fewer image samples) for speed;
# the counters stay exact and deterministic either way.
flags=()
merge_flags=()
if [ "${smoke}" -eq 1 ]; then
    flags+=(--samples 2 --threads 2)
    merge_flags+=(--smoke)
    echo "bench_all: smoke configuration (2 samples, 2 threads)"
fi

suite=(fig09_speedup_energy table5_rcp_avoided abl_threads sweep_dse)
# Wall clock of each bench process, as name=nanoseconds pairs.
walls=()
for bench in "${suite[@]}"; do
    echo "bench_all: running ${bench}"
    start_ns="$(date +%s%N)"
    "${bench_dir}/${bench}" "${flags[@]}" \
        --json "${report_dir}/${bench}.json" \
        --csv "${report_dir}/${bench}.csv" \
        >"${report_dir}/${bench}.log"
    walls+=("${bench}=$(($(date +%s%N) - start_ns))")
done

merged="${repo_root}/BENCH_antsim.json"
python3 "${repo_root}/scripts/merge_reports.py" "${merged}" \
    "${merge_flags[@]}" \
    "${report_dir}/fig09_speedup_energy.json" \
    "${report_dir}/table5_rcp_avoided.json" \
    "${report_dir}/abl_threads.json" \
    "${report_dir}/sweep_dse.json"
python3 "${repo_root}/scripts/validate_report.py" \
    "${repo_root}/docs/report_schema.json" "${merged}"

# Append this run's headline numbers to the perf trajectory. The entry
# is one JSON object per line (jsonl): summary geomeans and stage wall
# clocks verbatim, each bench's wall clock, plus the planes-generated
# count summed over every run's profile.census section.
history="${repo_root}/BENCH_history.jsonl"
python3 - "${merged}" "${history}" "${smoke}" "${walls[@]}" <<'PY'
import json
import sys
import time

merged_path, history_path, smoke = sys.argv[1], sys.argv[2], sys.argv[3]
wall_seconds = {}
for pair in sys.argv[4:]:
    bench, nanos = pair.split("=")
    wall_seconds[bench] = round(int(nanos) * 1e-9, 4)
with open(merged_path, "r", encoding="utf-8") as handle:
    merged = json.load(handle)
summary = merged.get("summary", {})

census = {}
for run in merged.get("runs", {}).values():
    value = run.get("profile", {}).get("census", {}).get(
        "trace_planes_generated")
    if isinstance(value, int):
        census["trace_planes_generated"] = (
            census.get("trace_planes_generated", 0) + value)

entry = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "smoke": smoke == "1",
}
for key in ("speedup_geomean", "energy_reduction_geomean",
            "rcp_avoided_mean"):
    if key in summary:
        entry[key] = summary[key]
entry["stage_seconds"] = summary.get("stage_seconds", {})
entry["wall_seconds"] = wall_seconds
entry["census"] = census
with open(history_path, "a", encoding="utf-8") as handle:
    handle.write(json.dumps(entry, sort_keys=True) + "\n")
print("bench_all: appended history entry to " + history_path)
PY
python3 "${repo_root}/scripts/check_perf.py" --trend "${history}"

echo "bench_all: done. merged report: ${merged}"
