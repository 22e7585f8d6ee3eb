/**
 * @file
 * Host-metrics registry contracts (src/obs/metrics.hh): attachment is
 * refused while collection is disabled (the metrics-off fast path is a
 * single thread-local branch), per-thread shards merge by summation so
 * workload-determined totals are identical at every worker count, the
 * Prometheus exposition is deterministic and internally consistent
 * (cumulative buckets, +Inf == count), log2 bucket boundaries follow
 * the documented layout, gauges track peaks, and reset() restores a
 * zero registry without detaching shards.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hh"
#include "util/thread_pool.hh"

namespace antsim {
namespace {

namespace m = obs::metrics;

/** Value of the single exposition sample line starting @p series. */
std::uint64_t
sampleValue(const std::string &text, const std::string &series)
{
    const std::string line_start = series + " ";
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = text.find('\n', pos);
        const std::string line = text.substr(pos, end - pos);
        if (line.rfind(line_start, 0) == 0)
            return std::stoull(line.substr(line_start.size()));
        if (end == std::string::npos)
            break;
        pos = end + 1;
    }
    ADD_FAILURE() << "exposition has no sample for " << series;
    return ~0ull;
}

// Declaration order matters: this test must observe the main thread
// before any other test in this binary attaches it.
TEST(MetricsTest, AttachRefusedWhileDisabled)
{
    m::setEnabled(false);
    EXPECT_EQ(m::shard(), nullptr);
    m::threadAttach();
    EXPECT_EQ(m::shard(), nullptr) << "threadAttach installed a shard "
                                      "while collection was disabled";
    // Recording without a shard must be a harmless no-op.
    m::count(m::Counter::RunnerUnits);
    m::histRecord(m::Hist::UnitWallNs, 7);
    m::gaugeMax(m::Gauge::PoolWorkers, 100);
}

TEST(MetricsTest, HistBucketBoundaries)
{
    // Bucket 0 = {0}, bucket i >= 1 = [2^(i-1), 2^i), last absorbs
    // overflow -- compile-time checks, the layout is constexpr.
    static_assert(m::histBucket(0) == 0);
    static_assert(m::histBucket(1) == 1);
    static_assert(m::histBucket(2) == 2);
    static_assert(m::histBucket(3) == 2);
    static_assert(m::histBucket(4) == 3);
    static_assert(m::histBucket(7) == 3);
    static_assert(m::histBucket(8) == 4);
    static_assert(m::histBucket(~0ull) == m::kHistBins - 1);
    // Every bucket's exposition upper bound 2^b - 1 is the largest
    // value the bucket holds.
    for (std::uint32_t b = 1; b + 1 < m::kHistBins; ++b) {
        const std::uint64_t le = (1ull << b) - 1;
        EXPECT_EQ(m::histBucket(le), b) << "le of bucket " << b;
        EXPECT_EQ(m::histBucket(le + 1), b + 1)
            << "first value past bucket " << b;
    }
}

TEST(MetricsTest, MergeIsDeterministicAcrossThreadCounts)
{
    m::setEnabled(true);
    m::threadAttach();

    m::Snapshot reference;
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        m::reset();
        {
            // Explicit thread counts (not effectiveWorkerCount): the
            // point is recording from genuinely concurrent shards even
            // on a single-core CI machine.
            ThreadPool pool(threads);
            pool.parallelFor(0, 1000, 16,
                             [](std::uint64_t i, std::uint32_t) {
                                 m::count(m::Counter::RunnerUnits);
                                 m::histRecord(m::Hist::UnitWallNs,
                                               i % 97);
                             });
        }
        const m::Snapshot snap = m::snapshot();
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::RunnerUnits)],
                  1000u)
            << threads << " threads";
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::PoolItems)],
                  1000u)
            << threads << " threads";
        const m::Snapshot::HistData &hist =
            snap.hists[static_cast<std::size_t>(m::Hist::UnitWallNs)];
        EXPECT_EQ(hist.count, 1000u) << threads << " threads";
        EXPECT_EQ(hist.min, 0u) << threads << " threads";
        EXPECT_EQ(hist.max, 96u) << threads << " threads";
        if (threads == 1) {
            reference = snap;
            continue;
        }
        // The shard merge is a sum, so the workload-determined totals
        // are independent of which worker recorded what.
        EXPECT_EQ(hist.sum, reference
                                .hists[static_cast<std::size_t>(
                                    m::Hist::UnitWallNs)]
                                .sum)
            << threads << " threads";
        for (std::size_t b = 0; b < m::kHistBins; ++b) {
            EXPECT_EQ(hist.bins[b],
                      reference
                          .hists[static_cast<std::size_t>(
                              m::Hist::UnitWallNs)]
                          .bins[b])
                << threads << " threads, bin " << b;
        }
    }
    m::reset();
    m::setEnabled(false);
}

TEST(MetricsTest, PrometheusExpositionIsConsistent)
{
    // Hand-built snapshot: toPrometheus is a pure function of it.
    m::Snapshot snap;
    snap.counters[static_cast<std::size_t>(m::Counter::RunnerUnits)] = 42;
    snap.workersUsed = 2;
    snap.workers[0][static_cast<std::size_t>(m::WorkerCounter::Items)] =
        30;
    snap.workers[1][static_cast<std::size_t>(m::WorkerCounter::Items)] =
        12;
    snap.gaugeValue[static_cast<std::size_t>(
        m::Gauge::ArenaHighWaterBytes)] = 100;
    snap.gaugePeak[static_cast<std::size_t>(
        m::Gauge::ArenaHighWaterBytes)] = 250;
    snap.stageNs[0] = 5000;
    snap.stageCalls[0] = 2;
    snap.profileCounts[static_cast<std::size_t>(
        m::ProfileCount::TracePlanesGenerated)] = 7;
    m::Snapshot::HistData &hist =
        snap.hists[static_cast<std::size_t>(m::Hist::UnitWallNs)];
    hist.bins[0] = 1; // value 0
    hist.bins[1] = 2; // value 1
    hist.bins[2] = 3; // values 2..3
    hist.count = 6;
    hist.sum = 10;
    hist.min = 0;
    hist.max = 3;

    const std::string text = m::toPrometheus(snap);
    // Dump fixpoint: serialization is deterministic byte for byte.
    EXPECT_EQ(text, m::toPrometheus(snap));

    EXPECT_EQ(sampleValue(text, "antsim_runner_units_total"), 42u);
    EXPECT_EQ(sampleValue(
                  text, "antsim_pool_worker_items_total{worker=\"0\"}"),
              30u);
    EXPECT_EQ(sampleValue(
                  text, "antsim_pool_worker_items_total{worker=\"1\"}"),
              12u);
    EXPECT_EQ(sampleValue(text, "antsim_arena_highwater_bytes"), 100u);
    EXPECT_EQ(sampleValue(text, "antsim_arena_highwater_bytes_peak"),
              250u);
    EXPECT_EQ(
        sampleValue(
            text, "antsim_stage_ns_total{stage=\"trace_generation\"}"),
        5000u);
    EXPECT_EQ(sampleValue(text, "antsim_trace_planes_generated_total"), 7u);

    // Cumulative histogram buckets with exact-integer upper bounds.
    EXPECT_EQ(sampleValue(text, "antsim_unit_wall_ns_bucket{le=\"0\"}"),
              1u);
    EXPECT_EQ(sampleValue(text, "antsim_unit_wall_ns_bucket{le=\"1\"}"),
              3u);
    EXPECT_EQ(sampleValue(text, "antsim_unit_wall_ns_bucket{le=\"3\"}"),
              6u);
    EXPECT_EQ(
        sampleValue(text, "antsim_unit_wall_ns_bucket{le=\"+Inf\"}"), 6u);
    EXPECT_EQ(sampleValue(text, "antsim_unit_wall_ns_sum"), 10u);
    EXPECT_EQ(sampleValue(text, "antsim_unit_wall_ns_count"), 6u);
}

TEST(MetricsTest, GaugesTrackPeaks)
{
    m::setEnabled(true);
    m::threadAttach();
    m::reset();

    m::gaugeMax(m::Gauge::PoolWorkers, 5);
    m::gaugeMax(m::Gauge::PoolWorkers, 3);

    const m::Snapshot snap = m::snapshot();
    const auto workers = static_cast<std::size_t>(m::Gauge::PoolWorkers);
    EXPECT_EQ(snap.gaugeValue[workers], 5);
    EXPECT_EQ(snap.gaugePeak[workers], 5);

    m::reset();
    m::setEnabled(false);
}

TEST(MetricsTest, ResetRestoresZeroRegistryWithoutDetaching)
{
    m::setEnabled(true);
    m::threadAttach();
    m::count(m::Counter::ArenaSlabs, 7);
    m::histRecord(m::Hist::PoolJobItems, 123);
    m::gaugeMax(m::Gauge::ArenaHighWaterBytes, 999);

    m::reset();
    EXPECT_NE(m::shard(), nullptr) << "reset must not detach shards";

    const m::Snapshot snap = m::snapshot();
    for (std::size_t c = 0; c < m::kNumCounters; ++c)
        EXPECT_EQ(snap.counters[c], 0u) << "counter " << c;
    for (std::size_t g = 0; g < m::kNumGauges; ++g) {
        EXPECT_EQ(snap.gaugeValue[g], 0) << "gauge " << g;
        EXPECT_EQ(snap.gaugePeak[g], 0) << "gauge peak " << g;
    }
    for (std::size_t h = 0; h < m::kNumHists; ++h) {
        EXPECT_EQ(snap.hists[h].count, 0u) << "hist " << h;
        EXPECT_EQ(snap.hists[h].sum, 0u) << "hist " << h;
        EXPECT_EQ(snap.hists[h].min, 0u) << "hist " << h;
        EXPECT_EQ(snap.hists[h].max, 0u) << "hist " << h;
    }
    m::setEnabled(false);
}

} // namespace
} // namespace antsim
