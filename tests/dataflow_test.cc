/**
 * @file
 * Tests for the kernel-stationary dataflow (Sec. 4.6) and the inverse
 * x/y range algebra it relies on.
 */

#include <gtest/gtest.h>

#include "ant/ant_pe.hh"
#include "conv/dense_conv.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(InverseRanges, XRangeSoundness)
{
    // Every valid product's image x lies in xRange of its kernel s.
    for (std::uint32_t stride : {1u, 2u}) {
        for (std::uint32_t dil : {1u, 2u}) {
            const auto spec =
                ProblemSpec::conv(4, 4, 16, 16, stride, dil);
            for (std::uint32_t x = 0; x < 16; ++x) {
                for (std::uint32_t y = 0; y < 16; ++y) {
                    for (std::uint32_t s = 0; s < 4; ++s) {
                        for (std::uint32_t r = 0; r < 4; ++r) {
                            if (!spec.isValid(x, y, s, r))
                                continue;
                            EXPECT_TRUE(spec.xRange(s, s).contains(x));
                            EXPECT_TRUE(spec.yRange(r, r).contains(y));
                        }
                    }
                }
            }
        }
    }
}

TEST(InverseRanges, XRangeTightAtStride1)
{
    // At stride = dilation = 1 everything inside the inverse range is
    // a valid pairing, mirroring the forward-range tightness.
    const auto spec = ProblemSpec::conv(3, 3, 9, 9);
    for (std::uint32_t s = 0; s < 3; ++s) {
        const IndexRange range = spec.xRange(s, s);
        for (std::int64_t x = range.lo; x <= range.hi; ++x) {
            EXPECT_TRUE(spec.sRangeIdeal(static_cast<std::uint32_t>(x))
                            .contains(s));
        }
    }
}

TEST(InverseRanges, ClampToImage)
{
    const auto spec = ProblemSpec::conv(3, 3, 9, 9);
    const IndexRange range = spec.xRange(0, 2);
    EXPECT_EQ(range.lo, 0);
    EXPECT_EQ(range.hi, 8);
}

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

AntPe
kernelStationaryPe()
{
    AntPeConfig cfg;
    cfg.dataflow = AntDataflow::KernelStationary;
    return AntPe(cfg);
}

TEST(KernelStationary, OutputMatchesDenseReference)
{
    const Planes p = makePlanes(5, 12, 0.5, 1);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    AntPe pe = kernelStationaryPe();
    const PeResult r = pe.runStack(p.spec, {&kernel}, image, true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
}

TEST(KernelStationary, ValidProductsMatchImageStationary)
{
    // Both dataflows execute every valid product exactly once.
    const Planes p = makePlanes(8, 14, 0.6, 2);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);

    AntPe img_pe;
    AntPe ker_pe = kernelStationaryPe();
    const PeResult a = img_pe.runStack(p.spec, {&kernel}, image, false);
    const PeResult b = ker_pe.runStack(p.spec, {&kernel}, image, false);
    EXPECT_EQ(a.counters.get(Counter::MultsValid),
              b.counters.get(Counter::MultsValid));
    // Both satisfy the conservation invariant.
    for (const PeResult *r : {&a, &b}) {
        EXPECT_EQ(r->counters.get(Counter::MultsExecuted) +
                      r->counters.get(Counter::RcpsAvoided),
                  static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    }
}

TEST(KernelStationary, CountingMatchesFunctional)
{
    const Planes p = makePlanes(6, 12, 0.5, 3);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    AntPe pe = kernelStationaryPe();
    const PeResult slow = pe.runStack(p.spec, {&kernel}, image, true);
    const PeResult fast = pe.runStack(p.spec, {&kernel}, image, false);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const auto counter = static_cast<Counter>(i);
        EXPECT_EQ(fast.counters.get(counter), slow.counters.get(counter))
            << counterName(counter);
    }
}

TEST(KernelStationary, SramReadsAvoidedTakesTheImageStationaryRule)
{
    // One kernel entry against a dense 1x4 image row: every product is
    // valid, so there is nothing to skip. Either dataflow reads the
    // streamed operand's windowed indices plus the values the FNIR
    // selects, which is all of it, once per stationary group (Sec. 4.3).
    const auto spec = ProblemSpec::conv(1, 1, 1, 4);
    const CsrMatrix kernel =
        CsrMatrix::fromDense(Dense2d<float>(1, 1, 1.0f));
    const CsrMatrix image = CsrMatrix::fromDense(Dense2d<float>(1, 4, 1.0f));
    AntPe image_stationary;
    AntPe kernel_stationary = kernelStationaryPe();
    for (AntPe *pe : {&image_stationary, &kernel_stationary}) {
        for (const bool collect_output : {false, true}) {
            const PeResult r =
                pe->runStack(spec, {&kernel}, image, collect_output);
            EXPECT_EQ(r.counters.get(Counter::MultsRcp), 0u);
            EXPECT_EQ(r.counters.get(Counter::SramReadsAvoided), 0u)
                << (pe == &kernel_stationary ? "kernel" : "image")
                << "-stationary, collect_output " << collect_output;
        }
    }
}

TEST(KernelStationary, StackOutputIsSummedReference)
{
    Rng rng(4);
    const auto spec = ProblemSpec::conv(3, 3, 12, 12);
    std::vector<CsrMatrix> kernels;
    std::vector<const CsrMatrix *> ptrs;
    for (int i = 0; i < 4; ++i) {
        kernels.push_back(
            CsrMatrix::fromDense(bernoulliPlane(3, 3, 0.4, rng)));
    }
    for (const auto &k : kernels)
        ptrs.push_back(&k);
    const Dense2d<float> image_plane = bernoulliPlane(12, 12, 0.5, rng);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);

    AntPe pe = kernelStationaryPe();
    const PeResult r = pe.runStack(spec, ptrs, image, true);
    Dense2d<double> want(spec.outH(), spec.outW());
    for (const auto &k : kernels) {
        const auto ref = referenceExecute(spec, k.toDense(), image_plane);
        for (std::size_t i = 0; i < want.data().size(); ++i)
            want.data()[i] += ref.data()[i];
    }
    EXPECT_LT(maxAbsDiff(r.output, want), 1e-9);
}

TEST(KernelStationary, BeatsScnnOnUpdateShape)
{
    Rng rng(5);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, 0.9, rng));
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(16, 16, 0.9, rng));
    AntPe ant = kernelStationaryPe();
    ScnnPe scnn;
    const auto ant_r = ant.runStack(spec, {&kernel}, image, false);
    const auto scnn_r = scnn.runStack(spec, {&kernel}, image, false);
    EXPECT_LT(ant_r.counters.get(Counter::Cycles),
              scnn_r.counters.get(Counter::Cycles));
}

TEST(KernelStationary, StridedAndDilatedStillExact)
{
    for (std::uint32_t stride : {1u, 2u}) {
        const Planes p = makePlanes(3, 13, 0.5, 10 + stride, stride);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        AntPe pe = kernelStationaryPe();
        const PeResult r = pe.runStack(p.spec, {&kernel}, image, true);
        EXPECT_LT(maxAbsDiff(r.output,
                             referenceExecute(p.spec, p.kernel, p.image)),
                  1e-9)
            << "stride " << stride;
    }
}

} // namespace
} // namespace antsim
