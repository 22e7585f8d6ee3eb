/**
 * @file
 * Tests for the structured run-reporting subsystem (src/report): the
 * JSON document model, the CounterSet/NetworkStats serializers (full
 * round trips through the reader in oracles/json_reader.hh against
 * live runner output), the profile section built
 * from the host metrics registry, and the golden-JSON guarantee that
 * the deterministic part of a report is byte-identical at every thread
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ant/ant_pe.hh"
#include "obs/metrics.hh"
#include "oracles/json_reader.hh"
#include "report/json.hh"
#include "report/report.hh"
#include "report/rollup.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

RunConfig
fastConfig()
{
    RunConfig config;
    config.sampleCap = 2;
    config.seed = 42;
    config.numThreads = 1;
    return config;
}

TEST(Json, ScalarsDumpAndParse)
{
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("a \"b\"\n").dump(), "\"a \\\"b\\\"\\n\"");

    std::string error;
    const Json big = parseJson("18446744073709551615", &error);
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(big.asUint(), 18446744073709551615ull);
    EXPECT_EQ(parseJson("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseJson("2.5e3").asDouble(), 2500.0);
    EXPECT_EQ(parseJson("\"x\\u0041y\"").asString(), "xAy");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", std::uint64_t{1});
    obj.set("alpha", std::uint64_t{2});
    obj.set("zebra", std::uint64_t{3}); // overwrite keeps position
    const std::string text = obj.dump();
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
    EXPECT_EQ(obj.at("zebra").asUint(), 3u);
    EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, RoundTripEquality)
{
    Json doc = Json::object();
    doc.set("counters", Json::object()).set("cycles",
                                            std::uint64_t{123456789});
    doc.set("fraction", 0.9290713678140187);
    doc.set("name", "ResNet18");
    doc.set("flags", Json::array()).push(true);
    Json &nested = doc.set("nested", Json::array());
    nested.push(Json::object());

    std::string error;
    const Json parsed = parseJson(doc.dump(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed, doc);
    // And the dump of the parse is byte-identical: full fixpoint.
    EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(Json, ParseErrorsAreReported)
{
    std::string error;
    parseJson("{\"a\": }", &error);
    EXPECT_FALSE(error.empty());
    parseJson("[1, 2", &error);
    EXPECT_FALSE(error.empty());
    parseJson("12 34", &error);
    EXPECT_FALSE(error.empty());
    parseJson("", &error);
    EXPECT_FALSE(error.empty());
}

TEST(Report, CounterSetRoundTrip)
{
    CounterSet counters;
    counters.add(Counter::MultsExecuted, 1000000000000000003ull);
    counters.add(Counter::Cycles, 7);
    const Json json = counterSetToJson(counters);
    // Every counter is present by name, exactly.
    EXPECT_EQ(json.size(), kNumCounters);
    const CounterSet back = counterSetFromJson(parseJson(json.dump()));
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const auto counter = static_cast<Counter>(i);
        EXPECT_EQ(back.get(counter), counters.get(counter))
            << counterName(counter);
    }
}

TEST(Report, NetworkStatsRoundTripAgainstLiveRun)
{
    AntPe ant;
    const auto stats = runConvNetwork(ant, resnet18Cifar(),
                                      SparsityProfile::swat(0.9),
                                      fastConfig());
    const Json json = networkStatsToJson(stats, /*num_pes=*/64);
    const NetworkStats back =
        networkStatsFromJson(parseJson(json.dump()));

    for (std::size_t c = 0; c < kNumCounters; ++c) {
        const auto counter = static_cast<Counter>(c);
        EXPECT_EQ(back.total.get(counter), stats.total.get(counter))
            << counterName(counter);
    }
    ASSERT_EQ(back.layers.size(), stats.layers.size());
    for (std::size_t li = 0; li < stats.layers.size(); ++li) {
        EXPECT_EQ(back.layers[li].name, stats.layers[li].name);
        for (std::size_t pi = 0; pi < 3; ++pi) {
            const PhaseStats &expected = stats.layers[li].phases[pi];
            const PhaseStats &got = back.layers[li].phases[pi];
            EXPECT_EQ(got.pairsTotal, expected.pairsTotal);
            EXPECT_EQ(got.pairsSimulated, expected.pairsSimulated);
            for (std::size_t c = 0; c < kNumCounters; ++c) {
                const auto counter = static_cast<Counter>(c);
                EXPECT_EQ(got.counters.get(counter),
                          expected.counters.get(counter));
            }
        }
    }
    // Derived quantities serialize from the same stats object.
    EXPECT_DOUBLE_EQ(json.at("rcp_avoided_fraction").asDouble(),
                     stats.rcpAvoidedFraction());
    EXPECT_EQ(json.at("accelerator_cycles").asUint(),
              stats.acceleratorCycles(64));
}

TEST(Report, GoldenJsonByteIdenticalAcrossThreadCounts)
{
    // The deterministic-engine guarantee at the serialization layer:
    // the 1-thread ResNet18 report (counters, layers, fractions) must
    // be byte-identical when re-run at any thread count. Only the
    // profile section (wall-clock) and the thread count itself may
    // differ, and neither is part of this document.
    AntPe serial_pe;
    RunConfig config = fastConfig();
    const auto serial = runConvNetwork(serial_pe, resnet18Cifar(),
                                       SparsityProfile::swat(0.9), config);
    const std::string golden = networkStatsToJson(serial, 64).dump();
    for (const std::uint32_t threads : {2u, 8u}) {
        AntPe pe;
        config.numThreads = threads;
        const auto stats = runConvNetwork(
            pe, resnet18Cifar(), SparsityProfile::swat(0.9), config);
        EXPECT_EQ(networkStatsToJson(stats, 64).dump(), golden)
            << threads << " threads";
    }
}

TEST(Report, RunReportDocumentShape)
{
    RunReport report;
    RunMetadata metadata;
    metadata.binary = "report_test";
    metadata.seed = 7;
    metadata.threads = 2;
    metadata.energyTableVersion = "pj-test";
    metadata.traceGeneratorVersion = kTraceGeneratorVersion;
    report.setMetadata(metadata);
    report.addMetric("speedup_geomean", 3.71);
    report.addMetric("tasks", std::uint64_t{12});
    Table table({"Network", "Speedup"});
    table.addRow({"ResNet18", "3.71x"});
    report.addTable("fig09", table);

    ScnnPe pe;
    const auto stats = runConvNetwork(pe, resnet18Cifar(),
                                      SparsityProfile::swat(0.9),
                                      fastConfig());
    report.addNetwork("scnn/ResNet18", stats, 64);

    const Json doc = report.toJson();
    EXPECT_EQ(doc.at("schema_version").asUint(), 1u);
    EXPECT_EQ(doc.at("metadata").at("binary").asString(), "report_test");
    EXPECT_EQ(doc.at("metadata").at("energy_table_version").asString(),
              "pj-test");
    EXPECT_EQ(doc.at("metadata").at("trace_generator_version").asString(),
              "tracegen-v2");
    EXPECT_DOUBLE_EQ(doc.at("metrics").at("speedup_geomean").asDouble(),
                     3.71);
    EXPECT_EQ(doc.at("networks").size(), 1u);
    EXPECT_EQ(doc.at("networks").at(0u).at("name").asString(),
              "scnn/ResNet18");
    EXPECT_EQ(doc.at("tables").at(0u).at("rows").at(0u).at(0u).asString(),
              "ResNet18");
    // Profile present by default, absent when excluded (the golden
    // documents never carry wall-clock noise).
    EXPECT_NE(doc.find("profile"), nullptr);
    EXPECT_EQ(report.toJson(/*include_profile=*/false).find("profile"),
              nullptr);

    // The CSV mirror carries the table rows.
    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("# fig09"), std::string::npos);
    EXPECT_NE(csv.find("ResNet18,3.71x"), std::string::npos);
}

TEST(Report, MatmulStallAttributionReachesCsvAndJson)
{
    // Regression: sec78 never called reportNetwork, so matmul runs had
    // no stall_attribution section and --csv-path dropped their stall
    // columns entirely. Matmul stats must flow through the same
    // attribution path as conv stats.
    AntPe ant;
    const std::vector<MatmulLayer> layers = {{"mm", 16, 8, 8, 4}};
    const auto stats = runMatmulNetwork(ant, layers, 0.5,
                                        SparsifyMethod::TopK,
                                        fastConfig());

    RunReport report;
    report.addStallAttribution("ant/transformer@50%", stats, "ant",
                               ant.multiplierCount());

    const Json doc = report.toJson();
    const Json *section = doc.find("stall_attribution");
    ASSERT_NE(section, nullptr);
    ASSERT_EQ(section->size(), 1u);
    const Json &entry = section->at(0u);
    EXPECT_EQ(entry.at("network").asString(), "ant/transformer@50%");
    // Partition law holds on the total row (saturating decomposition).
    const Json &total = entry.at("total");
    EXPECT_EQ(total.at("active").asUint() + total.at("startup").asUint() +
                  total.at("idle_scan").asUint() +
                  total.at("imbalance").asUint(),
              total.at("cycles").asUint());

    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("# stall_attribution/ant/transformer@50%"),
              std::string::npos);
}

TEST(Report, ModeIsSimulated)
{
    // Every report comes from the cycle-level engine; the metadata key
    // stays for the consumers that check it.
    RunReport report;
    EXPECT_EQ(report.toJson().at("metadata").at("mode").asString(),
              "simulated");
}

TEST(Report, RollupStandardMetricNames)
{
    // The rollup must emit the exact metric names merge_reports.py
    // lifts into the suite summary and check_perf.py gates.
    Rollup rollup;
    rollup.add({"A", 2.0, 4.0, 0.9});
    rollup.add({"B", 8.0, 1.0, 0.7});
    EXPECT_DOUBLE_EQ(rollup.speedupGeomean(), 4.0);
    EXPECT_DOUBLE_EQ(rollup.energyReductionGeomean(), 2.0);
    EXPECT_DOUBLE_EQ(rollup.rcpAvoidedMean(), 0.8);

    RunReport report;
    rollup.recordMetrics(report, /*with_rcp=*/true);
    const Json metrics = report.toJson().at("metrics");
    EXPECT_DOUBLE_EQ(metrics.at("speedup.A").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(metrics.at("energy_reduction.B").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(metrics.at("speedup_geomean").asDouble(), 4.0);
    EXPECT_DOUBLE_EQ(metrics.at("energy_reduction_geomean").asDouble(),
                     2.0);
    EXPECT_DOUBLE_EQ(metrics.at("rcp_avoided_mean").asDouble(), 0.8);
}

TEST(Report, WriteJsonFileParsesBack)
{
    RunReport report;
    report.addMetric("alpha", 1.5);
    const std::string path = ::testing::TempDir() + "report_test_out.json";
    report.writeJson(path);
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const Json parsed = parseJson(buffer.str(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_DOUBLE_EQ(parsed.at("metrics").at("alpha").asDouble(), 1.5);
    std::remove(path.c_str());
}

namespace m = obs::metrics;

/** Registry-wide calls recorded for @p stage. */
std::uint64_t
stageCalls(m::Stage stage)
{
    return m::snapshot().stageCalls[static_cast<std::size_t>(stage)];
}

TEST(Profiler, ScopedTimerAccumulates)
{
    m::reset();
    EXPECT_EQ(stageCalls(m::Stage::PeSim), 0u);
    {
        const m::ScopedTimer timer(m::Stage::PeSim);
    }
    {
        const m::ScopedTimer timer(m::Stage::PeSim);
    }
    EXPECT_EQ(stageCalls(m::Stage::PeSim), 2u);
    EXPECT_EQ(stageCalls(m::Stage::TraceGen), 0u);
    m::reset();
    EXPECT_EQ(stageCalls(m::Stage::PeSim), 0u);
}

TEST(Profiler, RunnerPopulatesAllStages)
{
    m::reset();
    ScnnPe pe;
    runConvNetwork(pe, resnet18Cifar(), SparsityProfile::swat(0.9),
                   fastConfig());
    EXPECT_GT(stageCalls(m::Stage::TraceGen), 0u);
    EXPECT_GT(stageCalls(m::Stage::PlanBuild), 0u);
    EXPECT_GT(stageCalls(m::Stage::PeSim), 0u);
    EXPECT_GT(stageCalls(m::Stage::Reduce), 0u);
    const Json profile = profileToJson(m::snapshot());
    EXPECT_EQ(profile.at("stages").size(), m::kNumStages);
    EXPECT_EQ(profile.at("stages").at(0u).at("name").asString(),
              "trace_generation");
    m::reset();
}

TEST(Profiler, StageNamesAreStableSchemaKeys)
{
    EXPECT_STREQ(m::stageName(m::Stage::TraceGen), "trace_generation");
    EXPECT_STREQ(m::stageName(m::Stage::PlanBuild), "plan_construction");
    EXPECT_STREQ(m::stageName(m::Stage::PeSim), "pe_simulation");
    EXPECT_STREQ(m::stageName(m::Stage::Reduce), "reduction");
}

TEST(Profiler, CountsAreExactAtEveryThreadCount)
{
    // The profile cells record with metrics off: every report carries
    // a profile section whether or not --metrics-out is set.
    ASSERT_FALSE(m::enabled());
    const std::vector<ConvLayer> layers = {{"s1", 4, 6, 12, 12, 3, 1, 1},
                                           {"s2", 6, 8, 12, 12, 3, 2, 1}};
    RunConfig config = fastConfig();

    // Units and planes of one call, independent of the models run.
    std::uint64_t units = 0;
    std::uint64_t planes = 0;
    for (const ConvLayer &layer : layers) {
        for (const TrainingPhase phase :
             {TrainingPhase::Forward, TrainingPhase::Backward,
              TrainingPhase::Update}) {
            const std::uint64_t sampled = std::min<std::uint64_t>(
                stackTaskCount(layer, phase), config.sampleCap);
            const std::uint64_t stack = phase == TrainingPhase::Backward
                ? layer.inChannels
                : layer.outChannels;
            units += sampled;
            planes += sampled * (1 + stack);
        }
    }

    for (const SparsifyMethod method :
         {SparsifyMethod::TopK, SparsifyMethod::Bernoulli}) {
        const SparsityProfile profile{0.7, 0.5, 0.8, method};
        std::string census_at_one_thread;
        for (const std::uint32_t threads : {1u, 2u, 4u}) {
            config.numThreads = threads;
            ScnnPe scnn;
            AntPe ant;
            const std::vector<ModelRun> models = {{scnn, "scnn"},
                                                  {ant, "ant"}};
            m::reset();
            runConvNetwork(models, layers, profile, config);
            const Json json = profileToJson(m::snapshot());
            const std::string label = std::string(
                method == SparsifyMethod::TopK ? "top-K" : "Bernoulli") +
                " at " + std::to_string(threads) + " threads";

            const Json &census = json.at("census");
            ASSERT_EQ(census.size(), 3u) << label;
            EXPECT_GT(census.at("census_tables_built").asUint(), 0u)
                << label;
            EXPECT_GT(census.at("census_rect_queries").asUint(), 0u)
                << label;
            EXPECT_EQ(census.at("trace_planes_generated").asUint(), planes)
                << label;
            if (threads == 1)
                census_at_one_thread = census.dump();
            EXPECT_EQ(census.dump(), census_at_one_thread) << label;

            EXPECT_EQ(stageCalls(m::Stage::TraceGen), units) << label;
            EXPECT_EQ(stageCalls(m::Stage::PlanBuild), units * models.size())
                << label;
            EXPECT_EQ(stageCalls(m::Stage::PeSim), units * models.size())
                << label;
            EXPECT_EQ(stageCalls(m::Stage::Reduce), 1u) << label;
        }
    }
    m::reset();
}

} // namespace
} // namespace antsim
