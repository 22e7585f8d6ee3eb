#include "report.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"

namespace antsim {

namespace {

/** Phase keys in TrainingPhase order (layer.hh). */
constexpr const char *kPhaseNames[3] = {"forward", "backward", "update"};

constexpr std::uint64_t kSchemaVersion = 1;

Json
phaseStatsToJson(const PhaseStats &phase, const char *phase_name)
{
    Json json = Json::object();
    json.set("phase", phase_name);
    json.set("pairs_total", phase.pairsTotal);
    json.set("pairs_simulated", phase.pairsSimulated);
    json.set("counters", counterSetToJson(phase.counters));
    return json;
}

void
writeFileOrFatal(const std::string &path, const std::string &content)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        ANT_FATAL("cannot open report file '", path, "' for writing");
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), out);
    const bool flushed = std::fclose(out) == 0;
    if (written != content.size() || !flushed)
        ANT_FATAL("short write to report file '", path, "'");
}

} // namespace

Json
counterSetToJson(const CounterSet &counters)
{
    Json json = Json::object();
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const auto counter = static_cast<Counter>(i);
        json.set(counterName(counter), counters.get(counter));
    }
    return json;
}

Json
networkStatsToJson(const NetworkStats &stats, std::uint32_t num_pes)
{
    Json json = Json::object();
    json.set("total", counterSetToJson(stats.total));
    json.set("accelerator_cycles", stats.acceleratorCycles(num_pes));
    json.set("rcp_avoided_fraction", stats.rcpAvoidedFraction());
    json.set("valid_mult_fraction", stats.validMultFraction());
    Json layers = Json::array();
    for (const LayerStats &layer : stats.layers) {
        Json layer_json = Json::object();
        layer_json.set("name", layer.name);
        Json phases = Json::array();
        for (std::size_t pi = 0; pi < layer.phases.size(); ++pi) {
            // Phases that were not simulated keep pairsTotal == 0 and
            // are omitted, so a forward-only report stays compact.
            if (layer.phases[pi].pairsTotal == 0)
                continue;
            phases.push(
                phaseStatsToJson(layer.phases[pi], kPhaseNames[pi]));
        }
        layer_json.set("phases", std::move(phases));
        layers.push(std::move(layer_json));
    }
    json.set("layers", std::move(layers));
    return json;
}

StallBreakdown
stallBreakdown(const CounterSet &counters)
{
    StallBreakdown b;
    b.cycles = counters.get(Counter::Cycles);
    std::uint64_t left = b.cycles;
    b.active = std::min(counters.get(Counter::ActiveCycles), left);
    left -= b.active;
    b.startup = std::min(counters.get(Counter::StartupCycles), left);
    left -= b.startup;
    b.idleScan = std::min(counters.get(Counter::IdleScanCycles), left);
    left -= b.idleScan;
    b.imbalance = left;
    return b;
}

Json
histogramsToJson(const obs::HistogramRegistry &hists)
{
    Json json = Json::array();
    for (std::size_t i = 0; i < obs::kNumHists; ++i) {
        const auto id = static_cast<obs::HistId>(i);
        const obs::Histogram &hist = hists.get(id);
        Json entry = Json::object();
        entry.set("name", obs::histName(id));
        entry.set("kind",
                  hist.spec().kind == obs::HistogramSpec::Kind::Log2
                      ? "log2"
                      : "linear");
        entry.set("lo", hist.spec().lo);
        entry.set("bin_width", hist.spec().binWidth);
        Json bins = Json::array();
        for (std::uint64_t b : hist.bins())
            bins.push(b);
        entry.set("bins", std::move(bins));
        entry.set("count", hist.count());
        entry.set("sum", hist.sum());
        entry.set("min", hist.min());
        entry.set("max", hist.max());
        json.push(std::move(entry));
    }
    return json;
}

Json
hostMetricsToJson(const obs::metrics::Snapshot &snap)
{
    namespace m = obs::metrics;
    Json json = Json::object();

    Json counters = Json::object();
    for (std::size_t i = 0; i < m::kNumCounters; ++i)
        counters.set(m::counterName(static_cast<m::Counter>(i)),
                     snap.counters[i]);
    json.set("counters", std::move(counters));

    Json gauges = Json::object();
    for (std::size_t i = 0; i < m::kNumGauges; ++i) {
        const auto gauge = static_cast<m::Gauge>(i);
        Json entry = Json::object();
        // Gauges are signed but every catalogued gauge tracks a resource
        // quantity, so negatives only arise from an accounting bug;
        // clamp rather than emit a negative byte count.
        entry.set("value", static_cast<std::uint64_t>(
                               std::max<std::int64_t>(0, snap.gaugeValue[i])));
        entry.set("peak", static_cast<std::uint64_t>(
                              std::max<std::int64_t>(0, snap.gaugePeak[i])));
        gauges.set(m::gaugeName(gauge), std::move(entry));
    }
    json.set("gauges", std::move(gauges));

    Json workers = Json::array();
    for (std::size_t w = 0; w < snap.workersUsed; ++w) {
        Json entry = Json::object();
        entry.set("worker", static_cast<std::uint64_t>(w));
        entry.set("busy_ns",
                  snap.workers[w][static_cast<std::size_t>(
                      m::WorkerCounter::BusyNs)]);
        entry.set("idle_ns",
                  snap.workers[w][static_cast<std::size_t>(
                      m::WorkerCounter::IdleNs)]);
        entry.set("chunks",
                  snap.workers[w][static_cast<std::size_t>(
                      m::WorkerCounter::Chunks)]);
        entry.set("items",
                  snap.workers[w][static_cast<std::size_t>(
                      m::WorkerCounter::Items)]);
        workers.push(std::move(entry));
    }
    json.set("workers", std::move(workers));

    Json hists = Json::array();
    for (std::size_t i = 0; i < m::kNumHists; ++i) {
        const auto hist = static_cast<m::Hist>(i);
        const auto &data = snap.hists[i];
        Json entry = Json::object();
        entry.set("name", m::histName(hist));
        Json bins = Json::array();
        for (std::uint64_t b : data.bins)
            bins.push(b);
        entry.set("bins", std::move(bins));
        entry.set("count", data.count);
        entry.set("sum", data.sum);
        entry.set("min", data.min);
        entry.set("max", data.max);
        hists.push(std::move(entry));
    }
    json.set("histograms", std::move(hists));
    return json;
}

namespace {

/** Sum the simulated phases of one layer into a single counter set. */
CounterSet
layerTotals(const LayerStats &layer)
{
    CounterSet total;
    for (const PhaseStats &phase : layer.phases) {
        if (phase.pairsTotal > 0)
            total += phase.counters;
    }
    return total;
}

/** One stall-attribution row as JSON. */
Json
stallRowToJson(const std::string &name, const CounterSet &counters,
               std::uint32_t multipliers)
{
    const StallBreakdown b = stallBreakdown(counters);
    Json row = Json::object();
    row.set("layer", name);
    row.set("cycles", b.cycles);
    row.set("active", b.active);
    row.set("startup", b.startup);
    row.set("idle_scan", b.idleScan);
    row.set("imbalance", b.imbalance);
    const std::uint64_t slots =
        static_cast<std::uint64_t>(multipliers) * b.cycles;
    row.set("utilization_pct",
            slots == 0 ? 0.0
                       : 100.0 *
                    static_cast<double>(
                        counters.get(Counter::MultsExecuted)) /
                    static_cast<double>(slots));
    return row;
}

} // namespace

Json
profileToJson(const obs::metrics::Snapshot &snap)
{
    namespace m = obs::metrics;
    Json json = Json::object();
    Json stages = Json::array();
    for (std::size_t i = 0; i < m::kNumStages; ++i) {
        Json entry = Json::object();
        entry.set("name", m::kStageNames[i]);
        entry.set("nanos", snap.stageNs[i]);
        entry.set("seconds", static_cast<double>(snap.stageNs[i]) * 1e-9);
        entry.set("calls", snap.stageCalls[i]);
        stages.push(std::move(entry));
    }
    json.set("stages", std::move(stages));

    Json census = Json::object();
    for (std::size_t i = 0; i < m::kNumProfileCounts; ++i) {
        census.set(m::profileCountName(static_cast<m::ProfileCount>(i)),
                   snap.profileCounts[i]);
    }
    json.set("census", std::move(census));
    return json;
}

void
RunReport::setMetadata(RunMetadata metadata)
{
    metadata_ = std::move(metadata);
}

void
RunReport::addMetric(const std::string &name, double value)
{
    metrics_.set(name, value);
}

void
RunReport::addMetric(const std::string &name, std::uint64_t value)
{
    metrics_.set(name, value);
}

void
RunReport::addNetwork(const std::string &name, const NetworkStats &stats,
                      std::uint32_t num_pes)
{
    networks_.push_back({name, networkStatsToJson(stats, num_pes)});
}

void
RunReport::addTable(const std::string &name, const Table &table)
{
    tables_.push_back({name, table});
}

void
RunReport::addStallAttribution(const std::string &network_name,
                               const NetworkStats &stats,
                               const std::string &pe_model,
                               std::uint32_t multipliers)
{
    Json entry = Json::object();
    entry.set("network", network_name);
    entry.set("pe_model", pe_model);
    entry.set("multipliers", static_cast<std::uint64_t>(multipliers));
    Json layers = Json::array();
    for (const LayerStats &layer : stats.layers)
        layers.push(stallRowToJson(layer.name, layerTotals(layer),
                                   multipliers));
    entry.set("layers", std::move(layers));
    entry.set("total", stallRowToJson("total", stats.total, multipliers));
    stalls_.push_back({network_name, std::move(entry)});
}

void
RunReport::setHistograms(const obs::HistogramRegistry &hists)
{
    histograms_ = histogramsToJson(hists);
    hasHistograms_ = true;
}

void
RunReport::setEstimate(Json estimate)
{
    estimate_ = std::move(estimate);
    hasEstimate_ = true;
}

void
RunReport::setHostMetrics(const obs::metrics::Snapshot &snap)
{
    hostMetrics_ = hostMetricsToJson(snap);
    hasHostMetrics_ = true;
}

Json
RunReport::toJson(bool include_profile) const
{
    Json json = Json::object();
    json.set("schema_version", kSchemaVersion);
    json.set("generator", "antsim");

    Json metadata = Json::object();
    metadata.set("binary", metadata_.binary);
    metadata.set("seed", metadata_.seed);
    metadata.set("threads", static_cast<std::uint64_t>(metadata_.threads));
    metadata.set("threads_effective",
                 static_cast<std::uint64_t>(metadata_.threadsEffective));
    metadata.set("pes", static_cast<std::uint64_t>(metadata_.pes));
    metadata.set("samples", static_cast<std::uint64_t>(metadata_.samples));
    metadata.set("chunk", static_cast<std::uint64_t>(metadata_.chunk));
    metadata.set("audit", metadata_.audit);
    metadata.set("energy_table_version", metadata_.energyTableVersion);
    metadata.set("mode", metadata_.mode);
    json.set("metadata", std::move(metadata));

    json.set("metrics", metrics_);

    Json networks = Json::array();
    for (const NamedStats &network : networks_) {
        Json entry = Json::object();
        entry.set("name", network.name);
        entry.set("stats", network.stats);
        networks.push(std::move(entry));
    }
    json.set("networks", std::move(networks));

    Json stalls = Json::array();
    for (const StallEntry &stall : stalls_)
        stalls.push(stall.json);
    json.set("stall_attribution", std::move(stalls));

    Json tables = Json::array();
    for (const NamedTable &table : tables_) {
        Json entry = Json::object();
        entry.set("name", table.name);
        Json headers = Json::array();
        for (const std::string &header : table.table.headers())
            headers.push(header);
        entry.set("headers", std::move(headers));
        Json rows = Json::array();
        for (const auto &row : table.table.rows()) {
            Json cells = Json::array();
            for (const std::string &cell : row)
                cells.push(cell);
            rows.push(std::move(cells));
        }
        entry.set("rows", std::move(rows));
        tables.push(std::move(entry));
    }
    json.set("tables", std::move(tables));

    if (hasHistograms_)
        json.set("histograms", histograms_);

    if (hasEstimate_)
        json.set("estimate", estimate_);

    if (hasHostMetrics_)
        json.set("host_metrics", hostMetrics_);

    if (include_profile)
        json.set("profile", profileToJson(obs::metrics::snapshot()));
    return json;
}

std::string
RunReport::toCsv() const
{
    std::string out;
    for (const NamedTable &table : tables_) {
        out += "# ";
        out += table.name;
        out += '\n';
        out += table.table.toCsv();
        out += '\n';
    }
    for (const StallEntry &stall : stalls_) {
        Table table({"layer", "pe_model", "cycles", "active", "startup",
                     "idle_scan", "imbalance", "utilization_pct"});
        const std::string &pe_model =
            stall.json.at("pe_model").asString();
        const auto add_row = [&](const Json &row) {
            table.addRow(
                {row.at("layer").asString(), pe_model,
                 std::to_string(row.at("cycles").asUint()),
                 std::to_string(row.at("active").asUint()),
                 std::to_string(row.at("startup").asUint()),
                 std::to_string(row.at("idle_scan").asUint()),
                 std::to_string(row.at("imbalance").asUint()),
                 Table::num(row.at("utilization_pct").asDouble())});
        };
        const Json &layers = stall.json.at("layers");
        for (std::size_t i = 0; i < layers.size(); ++i)
            add_row(layers.at(i));
        add_row(stall.json.at("total"));
        out += "# stall_attribution/";
        out += stall.name;
        out += '\n';
        out += table.toCsv();
        out += '\n';
    }
    return out;
}

void
RunReport::writeJson(const std::string &path, bool include_profile) const
{
    writeFileOrFatal(path, toJson(include_profile).dump() + "\n");
}

void
RunReport::writeCsv(const std::string &path) const
{
    writeFileOrFatal(path, toCsv());
}

} // namespace antsim
