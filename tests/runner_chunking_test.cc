/**
 * @file
 * Tests for the runner's image-chunking path (8 KB buffer enforcement,
 * Sec. 6.1 / SCNN+) and the dense-baseline exemption.
 */

#include <gtest/gtest.h>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

/** A layer whose dense image plane exceeds the 4096-element buffer. */
std::vector<ConvLayer>
bigImageNetwork()
{
    return {{"big", 2, 4, 80, 80, 3, 1, 1}};
}

RunConfig
cfg()
{
    RunConfig config;
    config.sampleCap = 2;
    config.seed = 5;
    return config;
}

TEST(RunnerChunking, DenseImagePlaneIsChunked)
{
    // At zero sparsity the 82x82 padded image has 6400 non-zeros >
    // 4096, so each sampled task must split into multiple image
    // chunks, each with its own start-up.
    ScnnPe scnn;
    const auto stats = runConvNetwork(scnn, bigImageNetwork(),
                                      SparsityProfile::dense(), cfg());
    for (const auto &layer : stats.layers) {
        for (const auto &phase : layer.phases) {
            // TasksProcessed is scaled to the full layer; without
            // chunking it would equal pairsTotal.
            EXPECT_GT(phase.counters.get(Counter::TasksProcessed),
                      phase.pairsTotal)
                << "image chunking should create extra tasks";
        }
    }
    // Start-up cycles: 5 per chunk, more chunks than tasks.
    EXPECT_GT(stats.total.get(Counter::StartupCycles),
              5ull * 3 * 2 /* phases x samples */);
}

TEST(RunnerChunking, SparseImageFitsWithoutChunking)
{
    ScnnPe scnn;
    const auto stats = runConvNetwork(scnn, bigImageNetwork(),
                                      SparsityProfile::swat(0.9), cfg());
    for (const auto &layer : stats.layers) {
        for (const auto &phase : layer.phases) {
            EXPECT_EQ(phase.counters.get(Counter::TasksProcessed),
                      phase.pairsTotal);
        }
    }
}

TEST(RunnerChunking, ChunkingPreservesProductCounts)
{
    // Executed multiplies must be invariant to the chunk capacity
    // (every cartesian product happens exactly once either way).
    ScnnPe scnn;
    RunConfig small = cfg();
    small.chunkCapacity = 512;
    RunConfig big = cfg();
    big.chunkCapacity = 4096;
    const auto profile = SparsityProfile::resprop(0.5, 0.5);
    const auto a =
        runConvNetwork(scnn, bigImageNetwork(), profile, small);
    const auto b = runConvNetwork(scnn, bigImageNetwork(), profile, big);
    EXPECT_EQ(a.total.get(Counter::MultsExecuted),
              b.total.get(Counter::MultsExecuted));
    EXPECT_EQ(a.total.get(Counter::MultsValid),
              b.total.get(Counter::MultsValid));
    // But the split costs extra start-ups (and hence cycles).
    EXPECT_GT(a.total.get(Counter::StartupCycles),
              b.total.get(Counter::StartupCycles));
}

TEST(RunnerChunking, DenseBaselineExemptFromChunking)
{
    // The dense inner-product tile streams dense tiles; the sparse
    // buffer capacity must not split (and double-count) its MACs.
    DenseInnerProductPe dense;
    const auto stats = runConvNetwork(dense, bigImageNetwork(),
                                      SparsityProfile::dense(), cfg());
    for (const auto &layer : stats.layers) {
        for (const auto &phase : layer.phases) {
            EXPECT_EQ(phase.counters.get(Counter::TasksProcessed),
                      phase.pairsTotal);
        }
    }
}

TEST(RunnerChunking, AntHandlesChunkedImages)
{
    AntPe ant;
    const auto stats = runConvNetwork(ant, bigImageNetwork(),
                                      SparsityProfile::dense(), cfg());
    EXPECT_GT(stats.total.get(Counter::MultsExecuted), 0u);
    // Conservation holds across chunks.
    EXPECT_EQ(stats.total.get(Counter::MultsValid) +
                  stats.total.get(Counter::MultsRcp),
              stats.total.get(Counter::MultsExecuted));
}

} // namespace
} // namespace antsim
