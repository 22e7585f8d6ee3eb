/**
 * @file
 * Tests for the ANT PE cycle model: functional correctness, counter
 * invariants, equivalence of its executed product set to Algorithm 2,
 * and the matmul mode of Sec. 5.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "ant/ant_pe.hh"
#include "conv/dense_conv.hh"
#include "oracles/anticipate.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

struct Planes
{
    Dense2d<float> kernel;
    Dense2d<float> image;
    ProblemSpec spec;
};

Planes
makePlanes(std::uint32_t kdim, std::uint32_t idim, double sparsity,
           std::uint64_t seed, std::uint32_t stride = 1)
{
    Rng rng(seed);
    return {bernoulliPlane(kdim, kdim, sparsity, rng),
            bernoulliPlane(idim, idim, sparsity, rng),
            ProblemSpec::conv(kdim, kdim, idim, idim, stride)};
}

TEST(AntPe, OutputMatchesDenseReference)
{
    const Planes p = makePlanes(3, 10, 0.5, 1);
    AntPe pe;
    const PeResult r = pe.runPair(p.spec, CsrMatrix::fromDense(p.kernel),
                                  CsrMatrix::fromDense(p.image), true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
}

TEST(AntPe, ExecutedProductSetMatchesAlgorithm2)
{
    // The hardware realizes Algorithm 2: same executed multiplies,
    // same valid products, same residual RCPs.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const Planes p = makePlanes(5, 12, 0.6, 10 + seed);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        AntPeConfig cfg;
        AntPe pe(cfg);
        const PeResult r = pe.runPair(p.spec, kernel, image, false);
        const AnticipateResult alg2 =
            blockAnticipation(p.spec, kernel, image, cfg.n);
        EXPECT_EQ(r.counters.get(Counter::MultsExecuted),
                  alg2.executedProducts)
            << "seed " << seed;
        EXPECT_EQ(r.counters.get(Counter::MultsValid), alg2.validProducts);
        EXPECT_EQ(r.counters.get(Counter::MultsRcp), alg2.residualRcps);
        EXPECT_EQ(r.counters.get(Counter::RcpsAvoided), alg2.skippedRcps);
    }
}

TEST(AntPe, NeverExecutesMoreThanScnn)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const Planes p = makePlanes(8, 14, 0.7, 20 + seed);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        AntPe ant;
        ScnnPe scnn;
        const auto ant_r = ant.runPair(p.spec, kernel, image, false);
        const auto scnn_r = scnn.runPair(p.spec, kernel, image, false);
        EXPECT_LE(ant_r.counters.get(Counter::MultsExecuted),
                  scnn_r.counters.get(Counter::MultsExecuted));
        // Both execute all valid products.
        EXPECT_EQ(ant_r.counters.get(Counter::MultsValid),
                  scnn_r.counters.get(Counter::MultsValid));
    }
}

TEST(AntPe, FasterThanScnnOnUpdateShape)
{
    // On the RCP-dominated update-phase shape ANT should win cycles.
    Rng rng(30);
    const auto kernel_plane = bernoulliPlane(14, 14, 0.9, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.9, rng);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe ant;
    ScnnPe scnn;
    const auto ant_r = ant.runPair(spec, kernel, image, false);
    const auto scnn_r = scnn.runPair(spec, kernel, image, false);
    EXPECT_LT(ant_r.counters.get(Counter::Cycles),
              scnn_r.counters.get(Counter::Cycles));
}

TEST(AntPe, CyclesLowerBoundedByIssueRate)
{
    const Planes p = makePlanes(6, 12, 0.5, 40);
    AntPeConfig cfg;
    AntPe pe(cfg);
    const PeResult r = pe.runPair(p.spec, CsrMatrix::fromDense(p.kernel),
                                  CsrMatrix::fromDense(p.image), false);
    // Each active cycle issues at most n*n multiplies.
    EXPECT_GE(r.counters.get(Counter::ActiveCycles) * cfg.n * cfg.n,
              r.counters.get(Counter::MultsExecuted));
    // Total cycles include startup and scan cycles.
    EXPECT_GE(r.counters.get(Counter::Cycles),
              cfg.startupCycles + r.counters.get(Counter::ActiveCycles));
}

TEST(AntPe, SramSkippingReducesTraffic)
{
    // On the update shape, the r-window should cut kernel index/value
    // reads versus SCNN's full re-streaming.
    Rng rng(50);
    const auto kernel_plane = bernoulliPlane(14, 14, 0.9, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.9, rng);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe ant;
    ScnnPe scnn;
    const auto ant_r = ant.runPair(spec, kernel, image, false);
    const auto scnn_r = scnn.runPair(spec, kernel, image, false);
    const auto traffic = [](const CounterSet &c) {
        return c.get(Counter::SramValueReads) +
            c.get(Counter::SramIndexReads);
    };
    EXPECT_LT(traffic(ant_r.counters), traffic(scnn_r.counters));
    EXPECT_GT(ant_r.counters.get(Counter::SramReadsAvoided), 0u);
}

TEST(AntPe, EmptyOperands)
{
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix(3, 3), CsrMatrix(8, 8), true);
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted), 0u);
    EXPECT_EQ(r.counters.get(Counter::Cycles), 5u);
}

TEST(AntPe, EmptyKernelWithImage)
{
    Rng rng(60);
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(8, 8, 0.5, rng));
    AntPe pe;
    const PeResult r = pe.runPair(spec, CsrMatrix(3, 3), image, true);
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted), 0u);
    // One idle scan cycle per image group.
    EXPECT_GT(r.counters.get(Counter::IdleScanCycles), 0u);
}

TEST(AntPe, AblationSwitchesMatchAlgorithm2)
{
    const Planes p = makePlanes(8, 16, 0.7, 70);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    for (const auto &[use_r, use_s] :
         {std::pair{true, false}, std::pair{false, true},
          std::pair{false, false}}) {
        AntPeConfig cfg;
        cfg.useRCondition = use_r;
        cfg.useSCondition = use_s;
        AntPe pe(cfg);
        const PeResult r = pe.runPair(p.spec, kernel, image, true);
        const AnticipateResult alg2 = blockAnticipation(
            p.spec, kernel, image, cfg.n, use_r, use_s);
        EXPECT_EQ(r.counters.get(Counter::MultsExecuted),
                  alg2.executedProducts)
            << "r=" << use_r << " s=" << use_s;
        EXPECT_LT(maxAbsDiff(r.output,
                             referenceExecute(p.spec, p.kernel, p.image)),
                  1e-9);
    }
}

TEST(AntPe, RotatedKernelBackwardPass)
{
    // Backward-phase usage: rotated kernel over a dilated gradient.
    Rng rng(80);
    const auto w = bernoulliPlane(3, 3, 0.3, rng);
    const auto ga = bernoulliPlane(12, 12, 0.6, rng);
    const auto spec = ProblemSpec::conv(3, 3, 12, 12);
    const CsrMatrix rotated = CsrMatrix::fromDense(w).rotated180();
    AntPe pe;
    const PeResult r = pe.runPair(spec, rotated, CsrMatrix::fromDense(ga),
                                  true);
    const auto ref = referenceExecute(spec, rotated.toDense(), ga);
    EXPECT_LT(maxAbsDiff(r.output, ref), 1e-9);
}

TEST(AntPeMatmul, OutputMatchesDenseReference)
{
    Rng rng(90);
    const auto image_plane = bernoulliPlane(12, 10, 0.5, rng);
    const auto kernel_plane = bernoulliPlane(10, 9, 0.5, rng);
    const auto spec = ProblemSpec::matmul(12, 10, 10, 9);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix::fromDense(kernel_plane),
                   CsrMatrix::fromDense(image_plane), true);
    EXPECT_LT(maxAbsDiff(r.output, referenceExecute(spec, kernel_plane,
                                                    image_plane)),
              1e-9);
}

TEST(AntPeMatmul, EliminatesAlmostAllRcps)
{
    // Sec. 7.8: >99% of matmul RCPs anticipated. CSC grouping keeps
    // the kernel-row window tight.
    Rng rng(91);
    const auto image_plane = bernoulliPlane(300, 64, 0.9, rng);
    const auto kernel_plane = bernoulliPlane(64, 128, 0.9, rng);
    const auto spec = ProblemSpec::matmul(300, 64, 64, 128);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix::fromDense(kernel_plane),
                   CsrMatrix::fromDense(image_plane), false);
    const auto avoided = r.counters.get(Counter::RcpsAvoided);
    const auto suffered = r.counters.get(Counter::MultsRcp);
    EXPECT_GT(static_cast<double>(avoided) /
                  static_cast<double>(avoided + suffered),
              0.99);
}

TEST(AntPeMatmul, ValidCountMatchesReferenceCensus)
{
    Rng rng(92);
    const auto image_plane = bernoulliPlane(20, 16, 0.6, rng);
    const auto kernel_plane = bernoulliPlane(16, 12, 0.6, rng);
    const auto spec = ProblemSpec::matmul(20, 16, 16, 12);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe pe;
    const PeResult r = pe.runPair(spec, kernel, image, false);
    // Valid products of the matmul = sum over columns x of
    // nnz(image col x) * nnz(kernel row x).
    std::uint64_t want_valid = 0;
    const CsrMatrix csc = image.transposed();
    for (std::uint32_t x = 0; x < image.width(); ++x) {
        want_valid += static_cast<std::uint64_t>(csc.rowPtr()[x + 1] -
                                                 csc.rowPtr()[x]) *
            (kernel.rowPtr()[x + 1] - kernel.rowPtr()[x]);
    }
    EXPECT_EQ(r.counters.get(Counter::MultsValid), want_valid);
}

TEST(AntPeDeathTest, KSmallerThanNRejected)
{
    AntPeConfig cfg;
    cfg.n = 8;
    cfg.k = 4;
    EXPECT_DEATH(AntPe{cfg}, "at least the multiplier width");
}

/** Parameterized functional sweep across (n, k, stride, sparsity). */
class AntSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, double>>
{};

TEST_P(AntSweep, OutputMatchesReferenceAndInvariantsHold)
{
    const auto [n, k, stride, sparsity] = GetParam();
    const Planes p =
        makePlanes(4, 13, sparsity, n * 31 + k * 7 + stride, stride);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    AntPeConfig cfg;
    cfg.n = n;
    cfg.k = k;
    AntPe pe(cfg);
    const PeResult r = pe.runPair(p.spec, kernel, image, true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
    EXPECT_EQ(r.counters.get(Counter::MultsValid) +
                  r.counters.get(Counter::MultsRcp),
              r.counters.get(Counter::MultsExecuted));
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted) +
                  r.counters.get(Counter::RcpsAvoided),
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AntSweep,
    ::testing::Combine(::testing::Values(1u, 4u, 6u),
                       ::testing::Values(8u, 16u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(0.3, 0.9)));

} // namespace
} // namespace antsim
