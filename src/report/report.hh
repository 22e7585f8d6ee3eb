/**
 * @file
 * Structured run reporting: machine-readable JSON/CSV export of
 * everything a bench binary measures.
 *
 * Every paper claim the simulator reproduces used to exist only as a
 * pretty-printed terminal table; this subsystem gives each run a
 * structured document that CI, the BENCH_* perf trajectory, and
 * regression tooling can consume (see docs/report_schema.json for the
 * schema and scripts/bench_all.sh for the merger that builds the
 * repo-level BENCH_antsim.json).
 *
 * A RunReport collects four kinds of content:
 *  - metadata: binary name, seed, thread/PE/sample configuration,
 *    audit state, and the per-op energy table version;
 *  - metrics: named scalars (geomean speedup, RCP-avoided mean, ...);
 *  - networks: full NetworkStats serializations, counter-exact;
 *  - tables: the same rows the binary printed, verbatim.
 *
 * Everything above is deterministic: for a fixed configuration the
 * serialized document is byte-identical at every thread count (the
 * deterministic parallel engine, DESIGN.md). Wall-clock stage timings
 * from the host metrics registry (obs/metrics.hh) are the one
 * exception, so they are confined to a "profile" section that toJson
 * can exclude -- the golden-JSON regression tests serialize without it.
 */

#ifndef ANTSIM_REPORT_REPORT_HH
#define ANTSIM_REPORT_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "report/json.hh"
#include "util/table.hh"
#include "workload/runner.hh"

namespace antsim {

/** Run configuration recorded in every report. */
struct RunMetadata
{
    /** Bench binary name (argv[0] basename). */
    std::string binary;
    std::uint64_t seed = 42;
    /** Requested worker threads (0 = hardware concurrency). */
    std::uint32_t threads = 0;
    /**
     * Worker threads the run actually used (requested resolved and
     * clamped to the hardware, runner.hh effectiveWorkerCount). Keeps
     * a --threads 64 run on an 8-way machine distinguishable from
     * --threads 8 in the archived report.
     */
    std::uint32_t threadsEffective = 0;
    std::uint32_t pes = 64;
    std::uint32_t samples = 16;
    std::uint32_t chunk = 4096;
    /** Whether the invariant audits ran. */
    bool audit = false;
    /** Version tag of the per-op energy table (kEnergyTableVersion). */
    std::string energyTableVersion;
    /** Version tag of the trace stream (kTraceGeneratorVersion). */
    std::string traceGeneratorVersion;
};

/** Serialize a counter set: every counter by name, exact uint64. */
Json counterSetToJson(const CounterSet &counters);

/**
 * Serialize a network run: totals, derived fractions, accelerator
 * cycles at @p num_pes, and the full per-layer/per-phase breakdown.
 */
Json networkStatsToJson(const NetworkStats &stats, std::uint32_t num_pes);

/**
 * The report's profile section from a host-metrics snapshot: per-stage
 * wall nanoseconds and calls, plus the profile.census host work counts
 * (census tables built, rectangle queries, planes generated).
 */
Json profileToJson(const obs::metrics::Snapshot &snap);

/**
 * Decomposition of Counter::Cycles into stall components. Built by
 * stallBreakdown as a *saturating* decomposition, so the components
 * sum to `cycles` exactly by construction (enforced per layer by
 * validate_report.py and stall_attribution_test).
 */
struct StallBreakdown
{
    std::uint64_t cycles = 0;
    /** Cycles the multiplier array issued at least one product. */
    std::uint64_t active = 0;
    /** Pipeline start-up cycles on new matrix pairs. */
    std::uint64_t startup = 0;
    /** Scan/controller cycles with the multipliers idle. */
    std::uint64_t idleScan = 0;
    /** Residual cycles none of the above explains; see stallBreakdown. */
    std::uint64_t imbalance = 0;
};

/**
 * Decompose @p counters.get(Cycles) into StallBreakdown components.
 *
 * Every PE model maintains Cycles == Startup + Active + IdleScan
 * exactly (the invariant auditor's cycle partition law), but rational
 * sample scaling (CounterSet::scale) rounds each counter
 * independently, leaving a residual of a few counts per scaled set.
 * The decomposition therefore saturates: active, then startup, then
 * idle-scan are capped to the cycles not yet attributed, and whatever
 * remains lands in `imbalance` -- the catch-all for cycles the PE-sum
 * view cannot attribute (scaling residue here; the real per-PE load
 * skew is visible in the trace lanes, see docs/OBSERVABILITY.md).
 */
StallBreakdown stallBreakdown(const CounterSet &counters);

/** Serialize a histogram registry (bins, count, sum, min, max). */
Json histogramsToJson(const obs::HistogramRegistry &hists);

/**
 * Serialize a host-metrics snapshot (obs/metrics.hh) as the report's
 * host_metrics section: the opt-in counters, gauges with peaks,
 * per-worker pool accounting, and log2 histograms (stage times appear
 * once, in the profile section). Everything here is host-side
 * accounting -- like the profile section it is never byte-stable
 * across runs, which is why RunReport only embeds it when metrics
 * collection was explicitly enabled.
 */
Json hostMetricsToJson(const obs::metrics::Snapshot &snap);

/** One run's structured report. */
class RunReport
{
  public:
    void setMetadata(RunMetadata metadata);
    const RunMetadata &metadata() const { return metadata_; }

    /** Record a named scalar result (insertion-ordered). */
    void addMetric(const std::string &name, double value);
    void addMetric(const std::string &name, std::uint64_t value);

    /** Record a full network run under @p name. */
    void addNetwork(const std::string &name, const NetworkStats &stats,
                    std::uint32_t num_pes);

    /**
     * Record the per-layer stall-attribution table of one network run
     * on one PE model: active / startup / idle-scan / imbalance
     * decomposition of every layer's cycles plus multiplier
     * utilization. Appears in the JSON `stall_attribution` section and
     * the CSV stream.
     */
    void addStallAttribution(const std::string &network_name,
                             const NetworkStats &stats,
                             const std::string &pe_model,
                             std::uint32_t multipliers);

    /**
     * Attach the merged simulated-time histograms (tracing runs only;
     * the section is omitted when never set, keeping reports identical
     * whether tracing is off or simply unused).
     */
    void setHistograms(const obs::HistogramRegistry &hists);

    /**
     * Attach the host-metrics snapshot (metered runs only -- benches
     * call this from finish() when --metrics-out enabled collection).
     * Omitted when never set, so metrics-off reports are byte-identical
     * to reports from builds that never heard of metrics.
     */
    void setHostMetrics(const obs::metrics::Snapshot &snap);

    /** Record a printed table under @p name. */
    void addTable(const std::string &name, const Table &table);

    /**
     * Full document. @p include_profile controls the non-deterministic
     * wall-clock section; everything else is byte-stable across thread
     * counts for a fixed configuration.
     */
    Json toJson(bool include_profile = true) const;

    /** All recorded tables as one CSV stream ("# name" separators). */
    std::string toCsv() const;

    /** Write toJson(...).dump() to @p path (fatal on I/O failure). */
    void writeJson(const std::string &path, bool include_profile = true) const;

    /** Write toCsv() to @p path (fatal on I/O failure). */
    void writeCsv(const std::string &path) const;

  private:
    RunMetadata metadata_;
    Json metrics_ = Json::object();
    struct NamedStats
    {
        std::string name;
        Json stats;
    };
    std::vector<NamedStats> networks_;
    struct NamedTable
    {
        std::string name;
        Table table;
    };
    std::vector<NamedTable> tables_;
    struct StallEntry
    {
        std::string name;
        Json json;
    };
    std::vector<StallEntry> stalls_;
    Json histograms_ = Json::object();
    bool hasHistograms_ = false;
    Json hostMetrics_ = Json::object();
    bool hasHostMetrics_ = false;
};

} // namespace antsim

#endif // ANTSIM_REPORT_REPORT_HH
