/**
 * @file
 * Paper-regression tests: pin the headline claims of the reproduction
 * at reduced sampling scale so refactors cannot silently change the
 * story. Bands are deliberately loose (sampling noise, small caps) --
 * the full-scale numbers live in EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "conv/rcp_model.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

RunConfig
fastConfig()
{
    RunConfig cfg;
    cfg.sampleCap = 3;
    cfg.seed = 42;
    return cfg;
}

TEST(PaperRegression, Table2EfficienciesExact)
{
    // The closed-form rows must match the paper bit-for-bit (they are
    // pure arithmetic).
    const auto rows = table2Rows();
    EXPECT_NEAR(rows[0].efficiency, 0.9652, 5e-5);
    EXPECT_NEAR(rows[1].efficiency, 0.0007, 5e-5);
    EXPECT_NEAR(rows[2].efficiency, 0.2371, 5e-5);
}

TEST(PaperRegression, Figure9ShapeResNet18)
{
    // ANT vs SCNN+ at 90% on ResNet18: the paper's geomean is 3.71x
    // speedup / 4.40x energy; per-network values spread around it.
    ScnnPe scnn;
    AntPe ant;
    const auto profile = SparsityProfile::swat(0.9);
    const auto layers = resnet18Cifar();
    const auto s = runConvNetwork(scnn, layers, profile, fastConfig());
    const auto a = runConvNetwork(ant, layers, profile, fastConfig());

    const double speedup = speedupOf(s, a);
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 12.0);
    const double energy = energyRatioOf(s, a);
    EXPECT_GT(energy, 1.5);
    EXPECT_LT(energy, 10.0);
}

TEST(PaperRegression, Table5RcpAvoidanceBand)
{
    // Paper: 74.9-98.0% of RCPs avoided.
    AntPe ant;
    const auto stats = runConvNetwork(ant, resnet18Cifar(),
                                      SparsityProfile::swat(0.9),
                                      fastConfig());
    EXPECT_GT(stats.rcpAvoidedFraction(), 0.74);
    EXPECT_LT(stats.rcpAvoidedFraction(), 0.99);
}

TEST(PaperRegression, Figure1UpdatePhaseRcpShare)
{
    // Paper: up to 96% of the non-zero computation in G_A*A is RCPs.
    ScnnPe scnn;
    RunConfig cfg = fastConfig();
    cfg.phases = {false, false, true};
    const auto stats = runConvNetwork(scnn, resnet18Cifar(),
                                      SparsityProfile::swat(0.9), cfg);
    EXPECT_LT(stats.validMultFraction(), 0.10);
}

TEST(PaperRegression, Section77TensorDashBand)
{
    // Paper: TensorDash ~2.25x over dense at 90% one-sided sparsity.
    DenseInnerProductPe dense;
    TensorDashPe td;
    const auto profile = SparsityProfile::swat(0.9);
    const auto layers = resnet18Cifar();
    const auto d = runConvNetwork(dense, layers, profile, fastConfig());
    const auto t = runConvNetwork(td, layers, profile, fastConfig());
    const double speedup = speedupOf(d, t);
    EXPECT_GT(speedup, 1.8);
    EXPECT_LT(speedup, 2.6);
}

TEST(PaperRegression, Section78MatmulElimination)
{
    // Paper: >= 99% of matmul RCPs eliminated (transformer).
    AntPe ant;
    const auto stats =
        runMatmulNetwork(ant, transformerLayers(), 0.9,
                         SparsifyMethod::TopK, fastConfig());
    EXPECT_GT(stats.rcpAvoidedFraction(), 0.99);
}

TEST(PaperRegression, Figure14AblationOrdering)
{
    // Paper: both conditions ~1.06x over r-only; each condition alone
    // still avoids a nontrivial share of RCPs.
    const auto profile = SparsityProfile::swat(0.9);
    const auto layers = resnet18Cifar();
    const auto cfg = fastConfig();

    auto run = [&](bool use_r, bool use_s) {
        AntPeConfig acfg;
        acfg.useRCondition = use_r;
        acfg.useSCondition = use_s;
        AntPe ant(acfg);
        return runConvNetwork(ant, layers, profile, cfg);
    };
    const auto both = run(true, true);
    const auto r_only = run(true, false);
    const double gain =
        static_cast<double>(r_only.total.get(Counter::Cycles)) /
        static_cast<double>(both.total.get(Counter::Cycles));
    EXPECT_GT(gain, 1.0);
    EXPECT_LT(gain, 1.5);
}

TEST(PaperRegression, GoldenParallelResNet18DensityPoints)
{
    // Golden-value lock on the *parallel* path (numThreads = 4): ANT
    // vs SCNN+ speedup and RCP-avoided fraction on ResNet18 at the
    // paper's density points (10/20/50% density). The engine is
    // deterministic, so these reproduce to double precision on any
    // machine and any thread count; if they move, either the model or
    // the parallel reduction changed.
    struct GoldenPoint
    {
        double sparsity;
        double speedup;
        double rcpAvoided;
    };
    const GoldenPoint golden[] = {
        {0.9, 3.86631132721166, 0.889537046896049},
        {0.8, 6.29557219450641, 0.90622396381939},
        {0.5, 8.57919770078069, 0.936087528738366},
    };
    RunConfig cfg = fastConfig();
    cfg.numThreads = 4;
    const auto layers = resnet18Cifar();
    for (const GoldenPoint &point : golden) {
        ScnnPe scnn;
        AntPe ant;
        const auto profile = SparsityProfile::swat(point.sparsity);
        const auto s = runConvNetwork(scnn, layers, profile, cfg);
        const auto a = runConvNetwork(ant, layers, profile, cfg);
        EXPECT_NEAR(speedupOf(s, a), point.speedup, 1e-9)
            << "sparsity " << point.sparsity;
        EXPECT_NEAR(a.rcpAvoidedFraction(), point.rcpAvoided, 1e-9)
            << "sparsity " << point.sparsity;
    }
}

/** SCNN+ and ANT totals of one counter in a golden top-K run. */
struct GoldenTotal
{
    Counter counter;
    std::uint64_t scnn;
    std::uint64_t ant;
};

void
expectGoldenTotals(const std::vector<NetworkStats> &stats,
                   const std::vector<GoldenTotal> &golden,
                   const std::string &context)
{
    ASSERT_EQ(stats.size(), 2u);
    for (const GoldenTotal &g : golden) {
        EXPECT_EQ(stats[0].total.get(g.counter), g.scnn)
            << context << " scnn " << counterName(g.counter);
        EXPECT_EQ(stats[1].total.get(g.counter), g.ant)
            << context << " ant " << counterName(g.counter);
    }
}

TEST(PaperRegression, GoldenTopKTotals)
{
    // Golden-value lock on the top-K trace path, which the ResNet18
    // locks above (Bernoulli masks) never run: SCNN+ and ANT totals of
    // ResNet50 and the RNN matmuls at 90% top-K sparsity. Every counter
    // is a pure function of the generated planes, so these move if the
    // top-K random stream or its selection drifts.
    ScnnPe scnn;
    AntPe ant;
    RunConfig cfg = fastConfig();
    cfg.sampleCap = 2;
    cfg.numThreads = 4;
    expectGoldenTotals(
        runConvNetwork({{scnn}, {ant}}, resnet50Imagenet(),
                       SparsityProfile::topK(0.9), cfg),
        {
            {Counter::Cycles, 1652214636, 85066301},
            {Counter::MultsExecuted, 26099377408, 976658408},
            {Counter::MultsValid, 80922228, 80922228},
            {Counter::RcpsAvoided, 0, 25122719000},
            {Counter::SramValueReads, 1652696666, 63061854},
        },
        "resnet50");
    expectGoldenTotals(
        runMatmulNetwork({{scnn}, {ant}}, rnnLayers(), 0.9,
                         SparsifyMethod::TopK, cfg),
        {
            {Counter::Cycles, 780050, 21899},
            {Counter::MultsExecuted, 12405600, 333822},
            {Counter::MultsValid, 118919, 118919},
            {Counter::RcpsAvoided, 0, 12071778},
            {Counter::SramValueReads, 781100, 22297},
        },
        "rnn");
}

TEST(PaperRegression, SmallLayerOverheadExists)
{
    // Paper Sec. 7.6: on very small layers ANT can slow down (up to
    // 30%) because the per-group overheads stop amortizing. Verify the
    // model reproduces the *existence* of this regime on a miniature
    // layer with a long stack of tiny sparse kernels.
    ScnnPe scnn;
    AntPe ant;
    const std::vector<ConvLayer> tiny = {{"t", 4, 256, 4, 4, 3, 1, 1}};
    const auto profile = SparsityProfile::swat(0.9);
    const auto s = runConvNetwork(scnn, tiny, profile, fastConfig());
    const auto a = runConvNetwork(ant, tiny, profile, fastConfig());
    // ANT gains little or loses here -- well below its large-layer
    // speedups.
    EXPECT_LT(speedupOf(s, a), 2.0);
}

} // namespace
} // namespace antsim
