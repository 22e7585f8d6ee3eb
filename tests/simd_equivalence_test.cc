/**
 * @file
 * The SIMD dispatch layer's central guarantee (docs/MODEL.md Sec. 11):
 * the AVX2 kernels are bit-identical to their scalar ground truths.
 * Simulated counters are integers and the float kernels only reorder
 * exact operations (sign-mask fabs, ordered compares, u32/u64
 * wrap-around sums), so forcing --simd=scalar vs --simd=avx2 must
 * produce byte-identical NetworkStats -- every counter, every layer,
 * every phase -- and byte-identical Chrome trace JSON, at every thread
 * count. Skipped (not silently passed) on hardware without AVX2.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "obs/trace.hh"
#include "scnn/scnn_pe.hh"
#include "util/simd.hh"
#include "workload/runner.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/** Force a SIMD mode for one scope; restore on exit however it ends. */
class SimdScope
{
  public:
    explicit SimdScope(simd::Mode mode) : saved_(simd::mode())
    {
        simd::setMode(mode);
    }

    ~SimdScope() { simd::setMode(saved_); }

  private:
    simd::Mode saved_;
};

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

/** First layers of ResNet18: covers conv shapes, strides, padding. */
std::vector<ConvLayer>
resnet18Slice()
{
    std::vector<ConvLayer> layers = resnet18Cifar();
    layers.resize(4);
    return layers;
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
        for (std::size_t pi = 0; pi < el.phases.size(); ++pi) {
            const PhaseStats &ep = el.phases[pi];
            const PhaseStats &gp = gl.phases[pi];
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

/** One conv run of @p pe with the given SIMD mode forced. */
NetworkStats
convRun(PeModel &pe, simd::Mode mode, std::uint32_t threads)
{
    SimdScope simd(mode);
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = threads;
    return runConvNetwork(pe, resnet18Slice(), SparsityProfile::swat(0.9),
                          config);
}

/** Run both evaluated PE models and export the combined trace. */
std::string
tracedRun(simd::Mode mode, std::uint32_t threads)
{
    SimdScope simd(mode);
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

#define ANTSIM_REQUIRE_AVX2()                                             \
    do {                                                                  \
        if (!simd::cpuHasAvx2())                                          \
            GTEST_SKIP() << "CPU lacks AVX2; scalar path is the only "    \
                            "path and is covered by the rest of the "     \
                            "suite";                                      \
    } while (0)

TEST(SimdEquivalence, ConvStatsBitIdenticalScalarVsAvx2)
{
    ANTSIM_REQUIRE_AVX2();
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    pes.push_back(std::make_unique<DenseInnerProductPe>());
    pes.push_back(std::make_unique<TensorDashPe>());
    for (const auto &pe : pes) {
        const NetworkStats scalar = convRun(*pe, simd::Mode::Scalar, 1);
        const NetworkStats avx2 = convRun(*pe, simd::Mode::Avx2, 1);
        expectIdenticalStats(scalar, avx2, pe->name() + "/scalar-vs-avx2");
    }
}

TEST(SimdEquivalence, MatmulStatsBitIdenticalScalarVsAvx2)
{
    ANTSIM_REQUIRE_AVX2();
    // Matmul exercises the CSC image path and the AntPe matmul window
    // walk on top of the shared CSR/census/plane-generator kernels.
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    for (const auto &pe : pes) {
        RunConfig config;
        NetworkStats scalar, avx2;
        {
            SimdScope simd(simd::Mode::Scalar);
            scalar = runMatmulNetwork(*pe, rnnLayers(), 0.9,
                                      SparsifyMethod::TopK, config);
        }
        {
            SimdScope simd(simd::Mode::Avx2);
            avx2 = runMatmulNetwork(*pe, rnnLayers(), 0.9,
                                    SparsifyMethod::TopK, config);
        }
        expectIdenticalStats(scalar, avx2,
                             pe->name() + "/matmul/scalar-vs-avx2");
    }
}

TEST(SimdEquivalence, ChromeTraceByteIdenticalScalarVsAvx2)
{
    ANTSIM_REQUIRE_AVX2();
    // The trace is the most sensitive artifact: any cycle-count or
    // span drift between the two code paths shows up as a byte diff.
    // Cross thread counts too, so SIMD x parallelism compose.
    const std::string scalar = tracedRun(simd::Mode::Scalar, 1);
    ASSERT_FALSE(scalar.empty());
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        const std::string avx2 = tracedRun(simd::Mode::Avx2, threads);
        if (avx2 == scalar)
            continue;
        std::size_t at = 0;
        while (at < scalar.size() && at < avx2.size() &&
               scalar[at] == avx2[at])
            ++at;
        FAIL() << "avx2 trace at " << threads
               << " threads diverges from scalar at byte " << at << ": "
               << scalar.substr(at > 40 ? at - 40 : 0, 80) << " vs "
               << avx2.substr(at > 40 ? at - 40 : 0, 80);
    }
}

TEST(SimdEquivalence, ModeParsingAndNames)
{
    simd::Mode mode = simd::Mode::Auto;
    EXPECT_TRUE(simd::parseMode("scalar", mode));
    EXPECT_EQ(mode, simd::Mode::Scalar);
    EXPECT_TRUE(simd::parseMode("avx2", mode));
    EXPECT_EQ(mode, simd::Mode::Avx2);
    EXPECT_TRUE(simd::parseMode("auto", mode));
    EXPECT_EQ(mode, simd::Mode::Auto);
    EXPECT_FALSE(simd::parseMode("sse9", mode));
    EXPECT_STREQ(simd::modeName(simd::Mode::Scalar), "scalar");
    EXPECT_STREQ(simd::modeName(simd::Mode::Avx2), "avx2");
    EXPECT_STREQ(simd::modeName(simd::Mode::Auto), "auto");
}

TEST(SimdEquivalence, ScalarModeDisablesAvx2Dispatch)
{
    SimdScope scope(simd::Mode::Scalar);
    EXPECT_FALSE(simd::avx2Enabled());
}

} // namespace
} // namespace antsim
