/**
 * @file
 * The parallel engine's central guarantee: for every PE model,
 * runConvNetwork produces byte-identical NetworkStats -- every
 * counter, every layer, every phase -- at every thread count (the
 * clone-per-worker + ordered-reduction design, DESIGN.md "Parallel
 * execution model"). Checked across 3 seeds and 2 networks for thread
 * counts {1, 2, 8}, plus the matmul runner. A multi-model call must
 * give every model exactly what a call of its own gives it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/** The 1-thread (serial-path) run everything must reproduce. */
constexpr std::uint32_t kSerial = 1;
constexpr std::uint32_t kThreadCounts[] = {2, 8};
constexpr std::uint64_t kSeeds[] = {7, 42, 1234};

std::vector<ConvLayer>
tinyNetwork()
{
    return {
        {"l0", 2, 16, 24, 24, 3, 1, 1},
        {"l1", 16, 16, 24, 24, 3, 2, 1},
        {"l2", 16, 8, 12, 12, 1, 1, 0},
    };
}

/** The two evaluated networks: a paper network and a miniature one. */
std::vector<std::pair<const char *, std::vector<ConvLayer>>>
testNetworks()
{
    return {{"resnet18", resnet18Cifar()}, {"tiny", tinyNetwork()}};
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

/** Byte-identical NetworkStats: all counters, all layers, all phases. */
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
        const LayerStats &el = expected.layers[li];
        const LayerStats &gl = got.layers[li];
        EXPECT_EQ(el.name, gl.name) << context;
        for (std::size_t pi = 0; pi < el.phases.size(); ++pi) {
            const PhaseStats &ep = el.phases[pi];
            const PhaseStats &gp = gl.phases[pi];
            EXPECT_EQ(ep.pairsTotal, gp.pairsTotal)
                << context << ": layer " << el.name << " phase " << pi;
            EXPECT_EQ(ep.pairsSimulated, gp.pairsSimulated)
                << context << ": layer " << el.name << " phase " << pi;
            for (std::size_t c = 0; c < kNumCounters; ++c) {
                const auto counter = static_cast<Counter>(c);
                EXPECT_EQ(ep.counters.get(counter),
                          gp.counters.get(counter))
                    << context << ": layer " << el.name << " phase "
                    << pi << " " << counterName(counter);
            }
        }
    }
}

TEST(ParallelDeterminism, ConvNetworkBitIdenticalAcrossThreadCounts)
{
    for (const auto &pe : allPeModels()) {
        for (const auto &[net_name, layers] : testNetworks()) {
            for (const std::uint64_t seed : kSeeds) {
                RunConfig config;
                config.sampleCap = 2;
                config.seed = seed;
                config.numThreads = kSerial;
                const auto serial = runConvNetwork(
                    *pe, layers, SparsityProfile::swat(0.9), config);
                for (const std::uint32_t threads : kThreadCounts) {
                    config.numThreads = threads;
                    const auto parallel = runConvNetwork(
                        *pe, layers, SparsityProfile::swat(0.9), config);
                    expectIdenticalStats(
                        serial, parallel,
                        pe->name() + "/" + net_name + "/seed " +
                            std::to_string(seed) + "/" +
                            std::to_string(threads) + " threads");
                }
            }
        }
    }
}

TEST(ParallelDeterminism, HardwareConcurrencyMatchesSerial)
{
    // numThreads = 0 (all hardware threads) is the bench default; it
    // must reproduce the serial run too.
    ScnnPe pe;
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = kSerial;
    const auto serial = runConvNetwork(pe, tinyNetwork(),
                                       SparsityProfile::swat(0.9), config);
    config.numThreads = 0;
    const auto parallel = runConvNetwork(
        pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    expectIdenticalStats(serial, parallel, "hardware concurrency");
}

TEST(ParallelDeterminism, MatmulNetworkBitIdenticalAcrossThreadCounts)
{
    // Matmul specs are cartesian-machine territory: the inner-product
    // baselines model convolutions only (see Sec. 7.7), so only the
    // SCNN-like and ANT PEs run here.
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    for (const auto &pe : pes) {
        for (const std::uint64_t seed : kSeeds) {
            RunConfig config;
            config.seed = seed;
            config.numThreads = kSerial;
            const auto serial = runMatmulNetwork(
                *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
            for (const std::uint32_t threads : kThreadCounts) {
                config.numThreads = threads;
                const auto parallel = runMatmulNetwork(
                    *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
                expectIdenticalStats(serial, parallel,
                                     pe->name() + "/matmul/seed " +
                                         std::to_string(seed));
            }
        }
    }
}

/** The 1/2/4-thread counts the multi-model checks run at. */
constexpr std::uint32_t kMultiModelThreads[] = {1, 2, 4};

TEST(ParallelDeterminism, MultiModelConvCallEqualsSingleModelCalls)
{
    // The dense PE (uncapped chunks) mixed with compressed PEs, and two
    // ANT configurations that differ only in k. A small chunk capacity
    // makes the compressed models split images the dense one keeps
    // whole.
    ScnnPe scnn;
    AntPe ant;
    DenseInnerProductPe dense;
    TensorDashPe tensordash;
    AntPeConfig narrow;
    narrow.k = 8;
    AntPe ant_k8(narrow);
    const std::vector<PeModel *> pes = {&scnn, &ant, &dense, &tensordash,
                                        &ant_k8};
    std::vector<ModelRun> models;
    for (PeModel *pe : pes)
        models.emplace_back(*pe);
    for (const std::uint32_t threads : kMultiModelThreads) {
        RunConfig config;
        config.sampleCap = 2;
        config.chunkCapacity = 96;
        config.numThreads = threads;
        const auto multi = runConvNetwork(
            models, tinyNetwork(), SparsityProfile::swat(0.5), config);
        ASSERT_EQ(multi.size(), pes.size());
        for (std::size_t m = 0; m < pes.size(); ++m) {
            const auto single = runConvNetwork(
                *pes[m], tinyNetwork(), SparsityProfile::swat(0.5), config);
            expectIdenticalStats(single, multi[m],
                                 pes[m]->name() + " #" + std::to_string(m) +
                                     "/" + std::to_string(threads) +
                                     " threads");
        }
    }
}

TEST(ParallelDeterminism, MultiModelMatmulCallEqualsSingleModelCalls)
{
    // A chunk capacity below the RNN operands' nnz splits both the
    // kernel and the image, so the chunk-pair enumeration is exercised.
    AntPe ant;
    ScnnPe scnn;
    for (const std::uint32_t threads : kMultiModelThreads) {
        RunConfig config;
        config.chunkCapacity = 128;
        config.numThreads = threads;
        const auto multi = runMatmulNetwork(
            {{ant}, {scnn}}, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
        ASSERT_EQ(multi.size(), 2u);
        expectIdenticalStats(
            runMatmulNetwork(ant, rnnLayers(), 0.9, SparsifyMethod::TopK,
                             config),
            multi[0], "ANT/matmul/" + std::to_string(threads) + " threads");
        expectIdenticalStats(
            runMatmulNetwork(scnn, rnnLayers(), 0.9, SparsifyMethod::TopK,
                             config),
            multi[1], "SCNN/matmul/" + std::to_string(threads) + " threads");
    }
}

} // namespace
} // namespace antsim
