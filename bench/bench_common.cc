#include "bench_common.hh"

#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/energy.hh"
#include "sim/pe_model.hh"
#include "util/audit.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace bench {

namespace {

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
parseOptions(int argc, const char *const *argv)
{
    const Cli cli(argc, argv,
                  {"samples", "seed", "pes", "csv", "chunk", "audit",
                   "threads", "json", "networks", "trace-out", "log-level",
                   "metrics-out", "host-trace-out"});
    if (cli.has("log-level")) {
        const std::string level = cli.get("log-level");
        if (level == "true")
            ANT_FATAL("flag --log-level expects error, warn, info, or debug");
        setLogLevel(parseLogLevel(level));
    }

    BenchOptions options;
    options.run.sampleCap = getCount(cli, "samples", 16);
    const std::int64_t seed = cli.getInt("seed", 42);
    if (seed < 0)
        ANT_FATAL("flag --seed must be non-negative, got ", seed);
    options.run.seed = static_cast<std::uint64_t>(seed);
    options.run.numPes = getCount(cli, "pes", 64);
    options.run.chunkCapacity = getCount(cli, "chunk", 4096);
    // Benches default to every hardware thread: the parallel engine is
    // deterministic, so the tables cannot depend on the thread count.
    options.run.numThreads = getCount(cli, "threads", 0);
    options.run.validate();

    // Bare --csv keeps the historical print-to-stdout behaviour; a
    // value is the output path. ("true" cannot be a path: flag values
    // never get that spelling from a real file name.)
    if (cli.has("csv")) {
        const std::string value = cli.get("csv");
        if (value == "true")
            options.csv = true;
        else
            options.csvPath = value;
    }
    if (cli.has("json")) {
        options.jsonPath = cli.get("json");
        if (options.jsonPath == "true")
            ANT_FATAL("flag --json expects an output path");
    }
    options.networksFilter = cli.get("networks");
    if (cli.has("trace-out")) {
        options.traceOutPath = cli.get("trace-out");
        if (options.traceOutPath == "true")
            ANT_FATAL("flag --trace-out expects an output path");
    }
    if (!options.traceOutPath.empty())
        obs::setEnabled(true);
    // A non-empty path switches the collector on for the whole run and
    // attaches the main thread; pool workers attach themselves.
    if (cli.has("metrics-out")) {
        options.metricsOutPath = cli.get("metrics-out");
        if (options.metricsOutPath == "true")
            ANT_FATAL("flag --metrics-out expects an output path");
    }
    if (cli.has("host-trace-out")) {
        options.hostTraceOutPath = cli.get("host-trace-out");
        if (options.hostTraceOutPath == "true")
            ANT_FATAL("flag --host-trace-out expects an output path");
    }
    if (!options.metricsOutPath.empty()) {
        obs::metrics::setEnabled(true);
        obs::metrics::threadAttach();
    }
    if (!options.hostTraceOutPath.empty()) {
        obs::host::setEnabled(true);
        obs::host::threadAttach("main");
    }
    if (cli.getBool("audit"))
        audit::setEnabled(true);

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
    metadata.traceGeneratorVersion = kTraceGeneratorVersion;
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

namespace {

/**
 * runConv with each trace run labelled "<model name><label_suffix>";
 * the label never influences simulation results.
 */
std::vector<NetworkStats>
runConvLabelled(const std::vector<PeModel *> &pes,
                const std::vector<ConvLayer> &layers,
                const SparsityProfile &profile, const BenchOptions &options,
                const std::string &label_suffix)
{
    std::vector<ModelRun> models;
    for (PeModel *pe : pes)
        models.emplace_back(*pe, pe->name() + label_suffix);
    return runConvNetwork(models, layers, profile, options.run);
}

} // namespace

std::vector<NetworkStats>
runNetwork(const std::vector<PeModel *> &pes, const NamedNetwork &network,
           double target_sparsity, const BenchOptions &options)
{
    const SparsityProfile profile = network.syntheticTopK
        ? SparsityProfile::topK(target_sparsity)
        : SparsityProfile::swat(target_sparsity);
    return runConvLabelled(pes, network.layers, profile, options,
                           "/" + network.name);
}

NetworkStats
runNetwork(PeModel &pe, const NamedNetwork &network, double target_sparsity,
           const BenchOptions &options)
{
    return std::move(
        runNetwork({&pe}, network, target_sparsity, options).front());
}

std::vector<NetworkStats>
runConv(const std::vector<PeModel *> &pes,
        const std::vector<ConvLayer> &layers, const SparsityProfile &profile,
        const BenchOptions &options)
{
    return runConvLabelled(pes, layers, profile, options, "");
}

NetworkStats
runConv(PeModel &pe, const std::vector<ConvLayer> &layers,
        const SparsityProfile &profile, const BenchOptions &options)
{
    return std::move(runConv({&pe}, layers, profile, options).front());
}

std::vector<NetworkStats>
runMatmul(const std::vector<PeModel *> &pes,
          const std::vector<MatmulLayer> &layers, double sparsity,
          SparsifyMethod method, const BenchOptions &options)
{
    // Matmul runs keep the runner's generic trace label.
    std::vector<ModelRun> models;
    for (PeModel *pe : pes)
        models.emplace_back(*pe);
    return runMatmulNetwork(models, layers, sparsity, method, options.run);
}

RunReport &
report()
{
    return g_report;
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
