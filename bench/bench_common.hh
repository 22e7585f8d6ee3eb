/**
 * @file
 * Shared harness for the per-table/per-figure benchmark binaries.
 *
 * Every bench binary reproduces one table or figure from the paper's
 * evaluation (see DESIGN.md experiment index): it prints the paper's
 * expectation, runs the simulation, and prints the measured rows in
 * the same form. Common flags:
 *   --samples N   plane pairs sampled per (layer, phase)  [default 16]
 *   --seed S      trace-generation seed                   [default 42]
 *   --pes N       number of PEs                           [default 64]
 *   --threads N   simulation worker threads; 0 = all hardware threads
 *                 [default 0]. Results are bit-identical for every
 *                 value (deterministic parallel engine, DESIGN.md)
 *   --csv [path]  dump rows as CSV: bare --csv prints to stdout,
 *                 --csv out.csv writes the file
 *   --json path   write the structured run report (src/report,
 *                 docs/report_schema.json) to @p path
 *   --networks A,B  restrict network-suite benches to the named
 *                 networks; an empty selection is a fatal error
 *   --audit       run the invariant audits (src/verify) on every
 *                 model execution; violations abort the bench
 *   --trace-out path  write the simulated-time Chrome trace (src/obs,
 *                 docs/OBSERVABILITY.md) to @p path; defaults to the
 *                 ANTSIM_TRACE environment variable when set
 *   --metrics-out path  write the host-side metrics registry
 *                 (src/obs/metrics.hh) as Prometheus text exposition
 *                 to @p path and embed a host_metrics section in the
 *                 --json report; defaults to the ANTSIM_METRICS
 *                 environment variable when set. Never changes
 *                 results, only host-side accounting
 *   --host-trace-out path  write the host-execution Chrome trace
 *                 (src/obs/host_trace.hh: per-stage / per-unit /
 *                 per-worker wall-clock spans) to @p path; defaults to
 *                 the ANTSIM_HOST_TRACE environment variable when set
 *   --log-level L verbosity: error, warn (default), info (adds the
 *                 progress heartbeat), or debug; defaults to the
 *                 ANTSIM_LOG_LEVEL environment variable when set
 *   --simd M      vector-kernel dispatch: auto (default), scalar, or
 *                 avx2; defaults to the ANTSIM_SIMD environment
 *                 variable. Never changes results (the kernels are
 *                 bit-identical across modes), only wall time
 *
 * Besides printing, every table, key metric, and network run is
 * recorded in a process-wide RunReport; main() ends with
 * `return bench::finish(options);` which writes the --json/--csv
 * outputs (including the profile section, built from the host metrics
 * registry in obs/metrics.hh).
 */

#ifndef ANTSIM_BENCH_BENCH_COMMON_HH
#define ANTSIM_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "report/report.hh"
#include "util/table.hh"
#include "workload/runner.hh"

namespace antsim {
namespace bench {

/** Parsed common options. */
struct BenchOptions
{
    RunConfig run;
    /** Print each table's CSV to stdout (bare --csv). */
    bool csv = false;
    /** Write the merged CSV here when non-empty (--csv path). */
    std::string csvPath;
    /** Write the JSON run report here when non-empty (--json path). */
    std::string jsonPath;
    /** Comma-separated network-name filter (--networks). */
    std::string networksFilter;
    /**
     * Write the simulated-time Chrome trace here when non-empty
     * (--trace-out path, or the ANTSIM_TRACE environment variable).
     * A non-empty path enables tracing for the whole run.
     */
    std::string traceOutPath;
    /**
     * Write the Prometheus text exposition of the host metrics
     * registry here when non-empty (--metrics-out path, or the
     * ANTSIM_METRICS environment variable). A non-empty path enables
     * metrics collection for the whole run and adds a host_metrics
     * section to the JSON report.
     */
    std::string metricsOutPath;
    /**
     * Write the host-execution Chrome trace here when non-empty
     * (--host-trace-out path, or the ANTSIM_HOST_TRACE environment
     * variable). A non-empty path enables host span collection.
     */
    std::string hostTraceOutPath;
};

/**
 * Parse argv with the standard flags. Exits with a usage error on
 * unknown flags.
 */
BenchOptions parseOptions(int argc, const char *const *argv);

/** Print the bench header: experiment id and the paper's claim. */
void printHeader(const std::string &experiment,
                 const std::string &paper_claim);

/**
 * Print a table, optionally followed by its CSV form, and record it
 * in the run report under the current experiment header.
 */
void emitTable(const Table &table, const BenchOptions &options);

/*
 * Run helpers. Every model of @p pes runs in one multi-model runner
 * call, so each trace plane is generated once and simulated on all of
 * them (workload/runner.hh). The multi-model forms return one
 * NetworkStats per model, in order.
 */

/**
 * Run models over a named network at its default profile for
 * @p target_sparsity (top-K on the synthetic ResNet50 path, SWAT
 * otherwise). Trace runs are labelled "<model>/<network>".
 */
std::vector<NetworkStats> runNetwork(const std::vector<PeModel *> &pes,
                                     const NamedNetwork &network,
                                     double target_sparsity,
                                     const BenchOptions &options);
NetworkStats runNetwork(PeModel &pe, const NamedNetwork &network,
                        double target_sparsity,
                        const BenchOptions &options);

/**
 * Run models over conv layers with a caller-built SparsityProfile
 * (e.g. fig10/fig11 resprop points). Trace runs are labelled by model.
 */
std::vector<NetworkStats> runConv(const std::vector<PeModel *> &pes,
                                  const std::vector<ConvLayer> &layers,
                                  const SparsityProfile &profile,
                                  const BenchOptions &options);
NetworkStats runConv(PeModel &pe, const std::vector<ConvLayer> &layers,
                     const SparsityProfile &profile,
                     const BenchOptions &options);

/** Run models over a matmul suite (transformer/RNN). */
std::vector<NetworkStats> runMatmul(const std::vector<PeModel *> &pes,
                                    const std::vector<MatmulLayer> &layers,
                                    double sparsity, SparsifyMethod method,
                                    const BenchOptions &options);

/** The process-wide run report the binary accumulates into. */
RunReport &report();

/** Record a named scalar result in the run report. */
void reportMetric(const std::string &name, double value);
void reportMetric(const std::string &name, std::uint64_t value);

/** Record a full network run in the run report. */
void reportNetwork(const std::string &name, const NetworkStats &stats,
                   const BenchOptions &options);

/**
 * Record a full network run plus its per-layer stall-attribution table
 * (active / startup / idle-scan / imbalance + multiplier utilization,
 * derived from @p pe's name and multiplier count). Prefer this
 * overload whenever the PE model is at hand.
 */
void reportNetwork(const std::string &name, const NetworkStats &stats,
                   const PeModel &pe, const BenchOptions &options);

/**
 * Apply the --networks filter to a network suite. Unknown names and
 * an empty selection are fatal (they would otherwise surface much
 * later as an assertion inside geomean/mean over zero measurements).
 */
std::vector<NamedNetwork> selectNetworks(std::vector<NamedNetwork> all,
                                         const BenchOptions &options);

/**
 * Finalize the run: write --json / --csv outputs. Every bench main()
 * returns this. Always 0 (failures are fatal).
 */
int finish(const BenchOptions &options);

} // namespace bench
} // namespace antsim

#endif // ANTSIM_BENCH_BENCH_COMMON_HH
