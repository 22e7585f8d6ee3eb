/**
 * @file
 * End-to-end integration tests: all four accelerator models on shared
 * workloads, checking the paper's qualitative orderings.
 */

#include <gtest/gtest.h>

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
    // Fig. 12: ANT outperforms SCNN+ at n = 4, 6, 8.
    const auto net = smallNetwork();
    const auto cfg = runCfg();
    const auto profile = SparsityProfile::swat(0.9);
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
