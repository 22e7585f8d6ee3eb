#include "bench_common.hh"

#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "estimate/estimate.hh"
#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/energy.hh"
#include "sim/pe_model.hh"
#include "util/audit.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace antsim {
namespace bench {

namespace {

std::unique_ptr<Cli> g_cli;
RunReport g_report;
/** Experiment id of the last printHeader, names recorded tables. */
std::string g_experiment = "run";
std::size_t g_tables_emitted = 0;

std::string
basenameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Read a flag that must be a non-negative integer fitting uint32. */
std::uint32_t
getCount(const Cli &cli, const std::string &name, std::uint32_t fallback)
{
    const std::int64_t v = cli.getInt(name, fallback);
    if (v < 0)
        ANT_FATAL("flag --", name, " must be non-negative, got ", v);
    if (v > std::numeric_limits<std::uint32_t>::max())
        ANT_FATAL("flag --", name, " value ", v, " is too large");
    return static_cast<std::uint32_t>(v);
}

} // namespace

BenchOptions
parseOptions(int argc, const char *const *argv,
             const std::vector<std::string> &extra_flags, Cli **cli_out)
{
    std::vector<std::string> known = {
        "samples",   "seed",        "pes",         "csv",
        "chunk",     "audit",       "threads",     "json",
        "networks",  "trace-out",   "log-level",   "simd",
        "estimate",  "metrics-out", "host-trace-out"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());
    // Environment first, flags after: --log-level wins over
    // ANTSIM_LOG_LEVEL, --trace-out wins over ANTSIM_TRACE.
    initLogLevelFromEnv();
    g_cli = std::make_unique<Cli>(argc, argv, known);
    if (g_cli->has("log-level")) {
        const std::string level = g_cli->get("log-level");
        if (level == "true")
            ANT_FATAL("flag --log-level expects error, warn, info, or debug");
        setLogLevel(parseLogLevel(level));
    }

    BenchOptions options;
    options.run.sampleCap = getCount(*g_cli, "samples", 16);
    const std::int64_t seed = g_cli->getInt("seed", 42);
    if (seed < 0)
        ANT_FATAL("flag --seed must be non-negative, got ", seed);
    options.run.seed = static_cast<std::uint64_t>(seed);
    options.run.numPes = getCount(*g_cli, "pes", 64);
    options.run.chunkCapacity = getCount(*g_cli, "chunk", 4096);
    // Benches default to every hardware thread: the parallel engine is
    // deterministic, so the tables cannot depend on the thread count.
    options.run.numThreads = getCount(*g_cli, "threads", 0);
    options.run.validate();

    // Bare --csv keeps the historical print-to-stdout behaviour; a
    // value is the output path. ("true" cannot be a path: flag values
    // never get that spelling from a real file name.)
    if (g_cli->has("csv")) {
        const std::string value = g_cli->get("csv");
        if (value == "true")
            options.csv = true;
        else
            options.csvPath = value;
    }
    if (g_cli->has("json")) {
        options.jsonPath = g_cli->get("json");
        if (options.jsonPath == "true")
            ANT_FATAL("flag --json expects an output path");
    }
    options.networksFilter = g_cli->get("networks");
    if (g_cli->has("trace-out")) {
        options.traceOutPath = g_cli->get("trace-out");
        if (options.traceOutPath == "true")
            ANT_FATAL("flag --trace-out expects an output path");
    } else if (const char *env = std::getenv("ANTSIM_TRACE");
               env != nullptr && env[0] != '\0') {
        options.traceOutPath = env;
    }
    if (!options.traceOutPath.empty())
        obs::setEnabled(true);
    // --metrics-out wins over ANTSIM_METRICS, --host-trace-out over
    // ANTSIM_HOST_TRACE (same precedence as --trace-out/ANTSIM_TRACE).
    // A non-empty path switches the collector on for the whole run and
    // attaches the main thread; pool workers attach themselves.
    if (g_cli->has("metrics-out")) {
        options.metricsOutPath = g_cli->get("metrics-out");
        if (options.metricsOutPath == "true")
            ANT_FATAL("flag --metrics-out expects an output path");
    } else if (const char *env = std::getenv("ANTSIM_METRICS");
               env != nullptr && env[0] != '\0') {
        options.metricsOutPath = env;
    }
    if (g_cli->has("host-trace-out")) {
        options.hostTraceOutPath = g_cli->get("host-trace-out");
        if (options.hostTraceOutPath == "true")
            ANT_FATAL("flag --host-trace-out expects an output path");
    } else if (const char *env = std::getenv("ANTSIM_HOST_TRACE");
               env != nullptr && env[0] != '\0') {
        options.hostTraceOutPath = env;
    }
    if (!options.metricsOutPath.empty()) {
        obs::metrics::setEnabled(true);
        obs::metrics::threadAttach();
    }
    if (!options.hostTraceOutPath.empty()) {
        obs::host::setEnabled(true);
        obs::host::threadAttach("main");
    }
    if (g_cli->getBool("audit"))
        audit::setEnabled(true);
    // --simd wins over the ANTSIM_SIMD environment setting (resolved
    // at startup). The mode never influences results -- AVX2 and
    // scalar kernels are bit-identical (simd_equivalence_test) -- only
    // wall time, so it is safe to flip per run.
    if (g_cli->has("simd")) {
        const std::string text = g_cli->get("simd");
        simd::Mode mode = simd::Mode::Auto;
        if (text == "true" || !simd::parseMode(text, mode))
            ANT_FATAL("flag --simd expects auto, scalar, or avx2; got '",
                      text, "'");
        simd::setMode(mode);
    }
    // --estimate wins over ANTSIM_ESTIMATE (same precedence as every
    // other env-backed flag). Any non-empty env value enables it.
    if (g_cli->has("estimate")) {
        options.estimate = g_cli->getBool("estimate");
    } else if (const char *env = std::getenv("ANTSIM_ESTIMATE");
               env != nullptr && env[0] != '\0') {
        options.estimate = true;
    }
    if (cli_out != nullptr)
        *cli_out = g_cli.get();

    RunMetadata metadata;
    metadata.binary = argc > 0 ? basenameOf(argv[0]) : "unknown";
    metadata.seed = options.run.seed;
    metadata.threads = options.run.numThreads;
    // The runner silently clamps to hardware concurrency; record what
    // a run will actually use so --threads 64 reports from an 8-way
    // machine are distinguishable from genuine 64-way runs.
    metadata.threadsEffective =
        effectiveWorkerCount(options.run.numThreads);
    metadata.pes = options.run.numPes;
    metadata.samples = options.run.sampleCap;
    metadata.chunk = options.run.chunkCapacity;
    metadata.audit = audit::enabled();
    metadata.energyTableVersion = kEnergyTableVersion;
    metadata.mode = options.estimate ? "estimated" : "simulated";
    g_report.setMetadata(std::move(metadata));
    return options;
}

void
printHeader(const std::string &experiment, const std::string &paper_claim)
{
    std::printf("=== %s ===\n", experiment.c_str());
    std::printf("paper: %s\n\n", paper_claim.c_str());
    g_experiment = experiment;
}

void
emitTable(const Table &table, const BenchOptions &options)
{
    table.print();
    if (options.csv) {
        std::printf("\n[csv]\n%s", table.toCsv().c_str());
    }
    std::printf("\n");
    std::fflush(stdout);

    ++g_tables_emitted;
    std::string name = g_experiment;
    if (g_tables_emitted > 1)
        name += " #" + std::to_string(g_tables_emitted);
    g_report.addTable(name, table);
}

NetworkStats
runNetwork(PeModel &pe, const NamedNetwork &network, double target_sparsity,
           const RunConfig &config)
{
    const SparsityProfile profile = network.syntheticTopK
        ? SparsityProfile::topK(target_sparsity)
        : SparsityProfile::swat(target_sparsity);
    // Label the trace run and heartbeat lines after the model and
    // network; the label never influences simulation results.
    RunConfig labeled = config;
    labeled.runLabel = pe.name() + "/" + network.name;
    return runConvNetwork(pe, network.layers, profile, labeled);
}

namespace {

/** Describe @p pe for estimation; fatal when no analytical model. */
estimate::PeDescriptor
describeOrDie(const PeModel &pe)
{
    const std::optional<estimate::PeDescriptor> desc =
        estimate::describePe(pe);
    if (!desc)
        ANT_FATAL("--estimate: no analytical model for PE '", pe.name(),
                  "'; run without --estimate");
    return *desc;
}

} // namespace

NetworkStats
runNetwork(PeModel &pe, const NamedNetwork &network, double target_sparsity,
           const BenchOptions &options)
{
    if (!options.estimate)
        return runNetwork(pe, network, target_sparsity, options.run);
    const SparsityProfile profile = network.syntheticTopK
        ? SparsityProfile::topK(target_sparsity)
        : SparsityProfile::swat(target_sparsity);
    return estimate::estimateConvNetwork(describeOrDie(pe), network.layers,
                                         profile, options.run);
}

NetworkStats
runConv(PeModel &pe, const std::vector<ConvLayer> &layers,
        const SparsityProfile &profile, const BenchOptions &options)
{
    if (!options.estimate) {
        RunConfig labeled = options.run;
        labeled.runLabel = pe.name();
        return runConvNetwork(pe, layers, profile, labeled);
    }
    return estimate::estimateConvNetwork(describeOrDie(pe), layers, profile,
                                         options.run);
}

NetworkStats
runMatmul(PeModel &pe, const std::vector<MatmulLayer> &layers,
          double sparsity, SparsifyMethod method, const BenchOptions &options)
{
    if (!options.estimate)
        return runMatmulNetwork(pe, layers, sparsity, method, options.run);
    return estimate::estimateMatmulNetwork(describeOrDie(pe), layers,
                                           sparsity, method, options.run);
}

RunReport &
report()
{
    return g_report;
}

void
markEstimated()
{
    RunMetadata metadata = g_report.metadata();
    metadata.mode = "estimated";
    g_report.setMetadata(std::move(metadata));
}

void
reportMetric(const std::string &name, double value)
{
    g_report.addMetric(name, value);
}

void
reportMetric(const std::string &name, std::uint64_t value)
{
    g_report.addMetric(name, value);
}

void
reportNetwork(const std::string &name, const NetworkStats &stats,
              const BenchOptions &options)
{
    g_report.addNetwork(name, stats, options.run.numPes);
}

void
reportNetwork(const std::string &name, const NetworkStats &stats,
              const PeModel &pe, const BenchOptions &options)
{
    g_report.addNetwork(name, stats, options.run.numPes);
    g_report.addStallAttribution(name, stats, pe.name(),
                                 pe.multiplierCount());
}

std::vector<NamedNetwork>
selectNetworks(std::vector<NamedNetwork> all, const BenchOptions &options)
{
    if (options.networksFilter.empty())
        return all;

    auto available = [&all] {
        std::string names;
        for (const NamedNetwork &network : all) {
            if (!names.empty())
                names += ", ";
            names += network.name;
        }
        return names;
    };

    std::vector<NamedNetwork> selected;
    std::istringstream filter(options.networksFilter);
    std::string wanted;
    while (std::getline(filter, wanted, ',')) {
        if (wanted.empty())
            continue;
        bool found = false;
        for (const NamedNetwork &network : all) {
            if (network.name == wanted) {
                selected.push_back(network);
                found = true;
                break;
            }
        }
        if (!found)
            ANT_FATAL("--networks names unknown network '", wanted,
                      "'; available: ", available());
    }
    // Zero selected networks would otherwise die much later as a
    // geomean/mean assertion over an empty measurement set.
    if (selected.empty())
        ANT_FATAL("--networks '", options.networksFilter,
                  "' selects no networks; available: ", available());
    return selected;
}

int
finish(const BenchOptions &options)
{
    // Audit state can change after parseOptions (ANTSIM_AUDIT builds,
    // test harnesses); re-snapshot it so the report tells the truth.
    RunMetadata metadata = g_report.metadata();
    metadata.audit = audit::enabled();
    g_report.setMetadata(std::move(metadata));

    if (obs::enabled())
        g_report.setHistograms(obs::globalSink().mergedHistograms());
    if (!options.traceOutPath.empty())
        obs::globalSink().writeChromeJson(options.traceOutPath,
                                          options.run.numPes);
    // Host metrics ride the report only when collection was on, so
    // metrics-off report bytes stay identical (obs_overhead_test).
    if (obs::metrics::enabled())
        g_report.setHostMetrics(obs::metrics::snapshot());
    if (!options.metricsOutPath.empty()) {
        obs::metrics::writePrometheus(options.metricsOutPath);
        std::printf("[metrics] wrote %s\n", options.metricsOutPath.c_str());
    }
    if (!options.hostTraceOutPath.empty()) {
        obs::host::writeChromeJson(options.hostTraceOutPath);
        std::printf("[host-trace] wrote %s\n",
                    options.hostTraceOutPath.c_str());
    }
    if (!options.jsonPath.empty()) {
        g_report.writeJson(options.jsonPath);
        std::printf("[report] wrote %s\n", options.jsonPath.c_str());
    }
    if (!options.csvPath.empty()) {
        g_report.writeCsv(options.csvPath);
        std::printf("[report] wrote %s\n", options.csvPath.c_str());
    }
    std::fflush(stdout);
    return 0;
}

} // namespace bench
} // namespace antsim
