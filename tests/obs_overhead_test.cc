/**
 * @file
 * Tracing must observe, never perturb: with the sink attached, every
 * PE model produces bit-identical NetworkStats to the untraced run
 * (same counters, layers, phases). The instrumentation only mirrors
 * cycle accounting that already happened -- a divergence here means a
 * site advanced state instead of recording it. Also pins the
 * no-tracing fast path (recorder() stays null, so sites reduce to one
 * branch) and that reports omit the histograms section unless tracing
 * supplied one.
 *
 * The same observe-don't-perturb law covers the host-side metrics
 * registry and host tracer (src/obs/metrics.hh, host_trace.hh): with
 * both off no thread-local shard or buffer is ever installed, and
 * turning both on leaves NetworkStats, the deterministic report JSON,
 * and the simulated-time trace bytes identical -- host observability
 * reads wall-clock but never writes simulation state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "report/report.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

std::vector<ConvLayer>
tinyNetwork()
{
    return {
        {"l0", 2, 16, 24, 24, 3, 1, 1},
        {"l1", 16, 16, 24, 24, 3, 2, 1},
        {"l2", 16, 8, 12, 12, 1, 1, 0},
    };
}

std::vector<std::unique_ptr<PeModel>>
allPeModels()
{
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    pes.push_back(std::make_unique<DenseInnerProductPe>());
    pes.push_back(std::make_unique<TensorDashPe>());
    return pes;
}

void
expectIdenticalStats(const NetworkStats &expected, const NetworkStats &got,
                     const std::string &context)
{
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        const auto counter = static_cast<Counter>(c);
        EXPECT_EQ(expected.total.get(counter), got.total.get(counter))
            << context << ": total " << counterName(counter);
    }
    ASSERT_EQ(expected.layers.size(), got.layers.size()) << context;
    for (std::size_t li = 0; li < expected.layers.size(); ++li) {
        for (std::size_t pi = 0; pi < expected.layers[li].phases.size();
             ++pi) {
            const PhaseStats &ep = expected.layers[li].phases[pi];
            const PhaseStats &gp = got.layers[li].phases[pi];
            for (std::size_t c = 0; c < kNumCounters; ++c) {
                const auto counter = static_cast<Counter>(c);
                EXPECT_EQ(ep.counters.get(counter),
                          gp.counters.get(counter))
                    << context << ": layer "
                    << expected.layers[li].name << " phase " << pi
                    << " " << counterName(counter);
            }
        }
    }
}

TEST(ObsOverhead, TracingDoesNotPerturbNetworkStats)
{
    for (const auto &pe : allPeModels()) {
        RunConfig config;
        config.sampleCap = 2;
        config.numThreads = 2;

        obs::setEnabled(false);
        const auto untraced = runConvNetwork(
            *pe, tinyNetwork(), SparsityProfile::swat(0.9), config);

        obs::setEnabled(true);
        obs::globalSink().clear();
        const auto traced = runConvNetwork(
            *pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
        obs::globalSink().clear();
        obs::setEnabled(false);

        expectIdenticalStats(untraced, traced, pe->name());
    }
}

TEST(ObsOverhead, TracingDoesNotPerturbMatmulStats)
{
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    for (const auto &pe : pes) {
        RunConfig config;
        config.numThreads = 2;

        obs::setEnabled(false);
        const auto untraced = runMatmulNetwork(
            *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);

        obs::setEnabled(true);
        obs::globalSink().clear();
        const auto traced = runMatmulNetwork(
            *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
        obs::globalSink().clear();
        obs::setEnabled(false);

        expectIdenticalStats(untraced, traced,
                             pe->name() + "/matmul");
    }
}

TEST(ObsOverhead, DisabledTracingLeavesNoRecorder)
{
    obs::setEnabled(false);
    EXPECT_EQ(obs::traceSink(), nullptr);
    RunConfig config;
    config.sampleCap = 1;
    ScnnPe pe;
    runConvNetwork(pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    // The fast path never installs a thread-local recorder.
    EXPECT_EQ(obs::recorder(), nullptr);
}

TEST(ObsOverhead, ReportOmitsHistogramsUnlessProvided)
{
    RunReport plain;
    const std::string without = plain.toJson(false).dump();
    EXPECT_EQ(without.find("histograms"), std::string::npos);

    RunReport with;
    with.setHistograms(obs::HistogramRegistry{});
    EXPECT_NE(with.toJson(false).dump().find("histograms"),
              std::string::npos);
}

/** Deterministic report JSON of one conv run (no profile section). */
std::string
reportBytes(const NetworkStats &stats)
{
    RunReport report;
    RunMetadata metadata;
    metadata.binary = "obs_overhead_test";
    metadata.threadsEffective = effectiveWorkerCount(2);
    report.setMetadata(metadata);
    report.addNetwork("tiny", stats, 64);
    return report.toJson(false).dump();
}

// Declaration order matters: this test must run before anything in
// this binary enables metrics or host tracing, so it can observe that
// plain runs never install the thread-local shard or span buffer.
TEST(ObsOverhead, MetricsOffInstallsNothing)
{
    EXPECT_FALSE(obs::metrics::enabled());
    EXPECT_FALSE(obs::host::enabled());
    RunConfig config;
    config.sampleCap = 1;
    config.numThreads = 2;
    ScnnPe pe;
    runConvNetwork(pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    EXPECT_EQ(obs::metrics::shard(), nullptr);
    EXPECT_EQ(obs::host::buf(), nullptr);
}

TEST(ObsOverhead, MetricsDoNotPerturbStatsReportOrSimTrace)
{
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = 2;
    ScnnPe scnn;
    AntPe ant;
    // A multi-model call: the single-model runners forward to it.
    const std::vector<ModelRun> models = {{scnn, "tiny/scnn"},
                                          {ant, "tiny/ant"}};

    // Baseline: simulated-time tracing on (so there are sim-trace
    // bytes to compare), host metrics and host tracing off.
    obs::setEnabled(true);
    obs::globalSink().clear();
    const auto plain = runConvNetwork(models, tinyNetwork(),
                                      SparsityProfile::swat(0.9), config);
    const std::string plain_trace = obs::globalSink().toChromeJson(64);
    obs::globalSink().clear();

    // Metered: identical configuration with the host metrics registry
    // and the host span tracer both collecting.
    obs::metrics::setEnabled(true);
    obs::metrics::threadAttach();
    obs::metrics::reset();
    obs::host::setEnabled(true);
    obs::host::threadAttach("main");
    const auto metered = runConvNetwork(models, tinyNetwork(),
                                        SparsityProfile::swat(0.9), config);
    const std::string metered_trace = obs::globalSink().toChromeJson(64);
    obs::globalSink().clear();
    obs::setEnabled(false);
    obs::metrics::setEnabled(false);
    obs::host::setEnabled(false);

    // Host observability recorded one run per model, and each generated
    // unit once however many models simulated it...
    ASSERT_EQ(plain.size(), 2u);
    ASSERT_EQ(metered.size(), 2u);
    std::uint64_t units = 0;
    for (const LayerStats &layer : plain[0].layers)
        for (const PhaseStats &phase : layer.phases)
            units += phase.pairsSimulated;
    const obs::metrics::Snapshot snap = obs::metrics::snapshot();
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                  obs::metrics::Counter::RunnerRuns)],
              2u);
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                  obs::metrics::Counter::RunnerUnits)],
              units);
    // ...without perturbing stats, report bytes, or sim-trace bytes.
    for (std::size_t m = 0; m < plain.size(); ++m) {
        expectIdenticalStats(plain[m], metered[m], models[m].label);
        EXPECT_EQ(reportBytes(plain[m]), reportBytes(metered[m]));
    }
    EXPECT_EQ(plain_trace, metered_trace);
    obs::metrics::reset();
    obs::host::clear();
}

TEST(ObsOverhead, ReportOmitsHostMetricsUnlessProvided)
{
    RunReport plain;
    const std::string without = plain.toJson(false).dump();
    EXPECT_EQ(without.find("host_metrics"), std::string::npos);

    RunReport with;
    with.setHostMetrics(obs::metrics::Snapshot{});
    EXPECT_NE(with.toJson(false).dump().find("host_metrics"),
              std::string::npos);
}

} // namespace
} // namespace antsim
