/**
 * @file
 * The tracing layer's central guarantee: the exported Chrome trace
 * JSON is *byte-identical* at every thread count (src/obs/trace.hh
 * "Determinism"). Buffers are filled on whichever worker runs a unit,
 * but they land in preallocated task-index slots and the exporter
 * walks them in index order, so worker scheduling cannot leak into the
 * document. A multi-model call, which generates each unit once for all
 * its models, exports the same bytes as one call per model. Also pins
 * the UnitRecorder span algebra (coalescing, task spans, budget
 * truncation) and the merged-histogram determinism.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "obs/trace.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

using obs::HistId;
using obs::InstantKind;
using obs::SpanKind;
using obs::UnitRecorder;

/** Restore the global tracing state however a test exits. */
class TracingScope
{
  public:
    TracingScope()
    {
        obs::setEnabled(true);
        obs::globalSink().clear();
    }

    ~TracingScope()
    {
        obs::globalSink().clear();
        obs::setEnabled(false);
    }
};

/** First layers of ResNet18: enough units to exercise every worker. */
std::vector<ConvLayer>
resnet18Slice()
{
    std::vector<ConvLayer> layers = resnet18Cifar();
    layers.resize(4);
    return layers;
}

/** Run both evaluated PE models and export the combined trace. */
std::string
tracedRun(std::uint32_t threads)
{
    TracingScope tracing;
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = threads;

    ScnnPe scnn;
    runConvNetwork({{scnn, "scnn/resnet18-slice"}}, resnet18Slice(),
                   SparsityProfile::swat(0.9), config);
    AntPe ant;
    runConvNetwork({{ant, "ant/resnet18-slice"}}, resnet18Slice(),
                   SparsityProfile::swat(0.9), config);
    return obs::globalSink().toChromeJson(config.numPes);
}

TEST(TraceDeterminism, ChromeJsonByteIdenticalAcrossThreadCounts)
{
    const std::string serial = tracedRun(1);
    ASSERT_FALSE(serial.empty());
    for (const std::uint32_t threads : {2u, 4u}) {
        const std::string parallel = tracedRun(threads);
        // EXPECT_EQ on multi-MB strings produces unreadable failure
        // output; compare and report only the verdict + first diff.
        if (parallel == serial)
            continue;
        std::size_t at = 0;
        while (at < serial.size() && at < parallel.size() &&
               serial[at] == parallel[at])
            ++at;
        FAIL() << "trace at " << threads
               << " threads diverges from serial at byte " << at << ": "
               << serial.substr(at > 40 ? at - 40 : 0, 80) << " vs "
               << parallel.substr(at > 40 ? at - 40 : 0, 80);
    }
}

/** tracedRun's two models in one multi-model call (one trace each). */
std::string
multiModelTracedRun(std::uint32_t threads)
{
    TracingScope tracing;
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = threads;
    ScnnPe scnn;
    AntPe ant;
    runConvNetwork({{scnn, "scnn/resnet18-slice"},
                    {ant, "ant/resnet18-slice"}},
                   resnet18Slice(), SparsityProfile::swat(0.9), config);
    return obs::globalSink().toChromeJson(config.numPes);
}

TEST(TraceDeterminism, MultiModelCallTracesLikeSequentialCalls)
{
    // Trace runs are registered in model order before the workers
    // start, and every (model, unit) files its own buffer, so the
    // document matches one call per model made in that order.
    const std::string sequential = tracedRun(1);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        EXPECT_TRUE(multiModelTracedRun(threads) == sequential)
            << "multi-model trace differs at " << threads << " threads";
    }
}

TEST(TraceDeterminism, MergedHistogramsIdenticalAcrossThreadCounts)
{
    TracingScope tracing;
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = 1;
    ScnnPe pe;
    runConvNetwork(pe, resnet18Slice(), SparsityProfile::swat(0.9),
                   config);
    const obs::HistogramRegistry serial =
        obs::globalSink().mergedHistograms();
    EXPECT_GT(serial.get(HistId::TaskCycles).count(), 0u);

    obs::globalSink().clear();
    config.numThreads = 4;
    runConvNetwork(pe, resnet18Slice(), SparsityProfile::swat(0.9),
                   config);
    EXPECT_TRUE(obs::globalSink().mergedHistograms() == serial);
}

TEST(TraceDeterminism, TraceContainsExpectedEventShapes)
{
    const std::string json = tracedRun(1);
    // Cheap structural pins; scripts/trace_summary.py --check does the
    // full parse in CI.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"PE 0\""), std::string::npos);
    EXPECT_NE(json.find("\"active\""), std::string::npos);
    EXPECT_NE(json.find("\"chunk_task\""), std::string::npos);
    EXPECT_NE(json.find("scnn/resnet18-slice"), std::string::npos);
    EXPECT_NE(json.find("ant/resnet18-slice"), std::string::npos);
    // Integer timestamps only: a '.' inside a ts field would break
    // byte-determinism guarantees.
    EXPECT_EQ(json.find("\"ts\":-"), std::string::npos);
}

TEST(UnitRecorder, AdjacentSameKindSpansCoalesce)
{
    UnitRecorder rec;
    rec.advance(SpanKind::Startup, 5);
    rec.advance(SpanKind::Active, 3);
    rec.advance(SpanKind::Active, 2);
    rec.advance(SpanKind::Active, 0); // no-op
    rec.advance(SpanKind::IdleScan, 1);
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[1].begin, 5u);
    EXPECT_EQ(rec.spans()[1].end, 10u);
    EXPECT_EQ(rec.spans()[1].kind, SpanKind::Active);
    EXPECT_EQ(rec.cursor(), 11u);
}

TEST(UnitRecorder, TaskSpansFeedTaskCyclesHistogram)
{
    UnitRecorder rec;
    rec.beginTask();
    rec.advance(SpanKind::Active, 7);
    rec.endTask();
    rec.beginTask();
    rec.advance(SpanKind::IdleScan, 2);
    rec.endTask();
    ASSERT_EQ(rec.tasks().size(), 2u);
    EXPECT_EQ(rec.tasks()[0].end - rec.tasks()[0].begin, 7u);
    const obs::Histogram &h =
        rec.histograms().get(HistId::TaskCycles);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 9u);
}

TEST(UnitRecorder, SpanBudgetTruncatesButKeepsClock)
{
    UnitRecorder rec;
    // Alternate kinds so no coalescing happens; overflow the budget.
    for (std::size_t i = 0; i < UnitRecorder::kMaxSpans + 10; ++i)
        rec.advance(i % 2 ? SpanKind::Active : SpanKind::IdleScan, 1);
    EXPECT_EQ(rec.spans().size(), UnitRecorder::kMaxSpans);
    // The clock keeps counting past the truncation point, and exactly
    // one marker instant records the overflow.
    EXPECT_EQ(rec.cursor(), UnitRecorder::kMaxSpans + 10);
    std::size_t markers = 0;
    for (const obs::Instant &instant : rec.instants())
        if (instant.kind == InstantKind::SpanBudgetExceeded)
            ++markers;
    EXPECT_EQ(markers, 1u);
}

TEST(TraceSink, RecorderInactiveOutsideScopedUnit)
{
    // Off by default: no recorder on this thread.
    EXPECT_EQ(obs::recorder(), nullptr);
    EXPECT_EQ(obs::traceSink(), nullptr);
    {
        TracingScope tracing;
        ASSERT_NE(obs::traceSink(), nullptr);
        const std::size_t run = obs::globalSink().beginRun("t", 1);
        {
            obs::ScopedUnitTrace scope(obs::traceSink(), run, 0, "u");
            ASSERT_NE(obs::recorder(), nullptr);
            obs::recorder()->advance(SpanKind::Active, 3);
        }
        // Scope closed: buffer submitted, thread recorder detached.
        EXPECT_EQ(obs::recorder(), nullptr);
        EXPECT_EQ(obs::globalSink().runCount(), 1u);
    }
    EXPECT_EQ(obs::recorder(), nullptr);
}

} // namespace
} // namespace antsim
