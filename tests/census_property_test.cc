/**
 * @file
 * Property tests of the shared census engine (conv/census.hh) and the
 * fused CSR plane generator (workload/tracegen.hh):
 *
 *  - CensusContext::countProducts must be counter-for-counter
 *    identical to the brute-force countProducts over randomized
 *    strides, dilations, paddings, cropped output dims, and matmul;
 *  - ValidTable must agree with ProblemSpec::isValid on every
 *    (x, y, s, r) coordinate;
 *  - generateCsrPlane must consume the identical random stream and
 *    emit the bit-identical CsrMatrix as the legacy dense pipeline
 *    generatePlane -> embedPlane -> fromDense -> rotated180, also when
 *    differently shaped recipes share its thread-local scratch.
 */

#include <gtest/gtest.h>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "tensor/sparsify.hh"
#include "util/thread_pool.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/** A sparsified, bf16-quantized CSR plane (the simulators' diet). */
CsrMatrix
randomCsr(std::uint32_t height, std::uint32_t width, double sparsity,
          Rng &rng)
{
    return CsrMatrix::fromDense(
        generatePlane(height, width, sparsity, SparsifyMethod::Bernoulli,
                      rng));
}

void
expectCensusEqual(const ProductCensus &expected, const ProductCensus &got,
                  const std::string &context)
{
    EXPECT_EQ(expected.denseProducts, got.denseProducts) << context;
    EXPECT_EQ(expected.nonzeroProducts, got.nonzeroProducts) << context;
    EXPECT_EQ(expected.validProducts, got.validProducts) << context;
    EXPECT_EQ(expected.rcpProducts, got.rcpProducts) << context;
}

/** Compare census vs brute force and ValidTable vs isValid for a spec. */
void
checkSpec(const ProblemSpec &spec, Rng &rng, const std::string &context)
{
    const CsrMatrix image =
        randomCsr(spec.imageH(), spec.imageW(), 0.7, rng);
    const CensusContext census(spec, image);
    const ValidTable table(spec);

    // Several kernels against one context: the sharing the stack
    // counting path depends on.
    for (int k = 0; k < 3; ++k) {
        const CsrMatrix kernel =
            randomCsr(spec.kernelH(), spec.kernelW(), 0.4, rng);
        expectCensusEqual(countProducts(spec, kernel, image),
                          census.countProducts(kernel), context);
    }

    for (std::uint32_t y = 0; y < spec.imageH(); ++y)
        for (std::uint32_t x = 0; x < spec.imageW(); ++x)
            for (std::uint32_t r = 0; r < spec.kernelH(); ++r)
                for (std::uint32_t s = 0; s < spec.kernelW(); ++s)
                    ASSERT_EQ(spec.isValid(x, y, s, r),
                              table.valid(x, y, s, r))
                        << context << " at x=" << x << " y=" << y
                        << " s=" << s << " r=" << r;
}

TEST(CensusProperty, MatchesBruteForceOnRandomConvGeometries)
{
    Rng rng(2022);
    for (int trial = 0; trial < 40; ++trial) {
        const auto stride =
            static_cast<std::uint32_t>(rng.range(1, 3));
        const auto dilation =
            static_cast<std::uint32_t>(rng.range(1, 3));
        const auto kernel = static_cast<std::uint32_t>(rng.range(1, 5));
        // Image large enough for at least one kernel placement, plus
        // random padding slack that only adds RCPs.
        const std::uint32_t reach = dilation * (kernel - 1) + 1;
        const auto slack = static_cast<std::uint32_t>(rng.range(0, 9));
        const std::uint32_t image = reach + slack;
        const ProblemSpec spec = ProblemSpec::conv(
            kernel, kernel, image, image, stride, dilation);
        checkSpec(spec, rng, "conv " + spec.toString());
    }
}

TEST(CensusProperty, MatchesBruteForceOnCroppedOutputDims)
{
    // The update phase G_A * A overrides (crops) the natural output
    // dims; products mapping past the crop are RCPs.
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const auto stride =
            static_cast<std::uint32_t>(rng.range(1, 2));
        const auto kernel = static_cast<std::uint32_t>(rng.range(2, 4));
        const std::uint32_t image =
            kernel + static_cast<std::uint32_t>(rng.range(2, 8));
        const std::uint32_t natural_out = (image - kernel) / stride + 1;
        const auto out = static_cast<std::uint32_t>(
            rng.range(1, static_cast<std::int64_t>(natural_out)));
        const ProblemSpec spec = ProblemSpec::convWithOutDims(
            kernel, kernel, image, image, out, out, stride);
        checkSpec(spec, rng, "cropped " + spec.toString());
    }
}

TEST(CensusProperty, MatchesBruteForceOnMatmul)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const auto h = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto w = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto s = static_cast<std::uint32_t>(rng.range(1, 12));
        const ProblemSpec spec = ProblemSpec::matmul(h, w, w, s);
        checkSpec(spec, rng, "matmul " + spec.toString());
    }
}

TEST(CensusProperty, EmptyPlanesCountZero)
{
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 8, 8, 2);
    const CsrMatrix empty =
        CsrMatrix::fromDense(Dense2d<float>(8, 8));
    const CensusContext census(spec, empty);
    Rng rng(5);
    const CsrMatrix kernel = randomCsr(3, 3, 0.3, rng);
    const ProductCensus got = census.countProducts(kernel);
    EXPECT_EQ(got.nonzeroProducts, 0u);
    EXPECT_EQ(got.validProducts, 0u);
    EXPECT_EQ(got.rcpProducts, 0u);
    EXPECT_EQ(got.denseProducts, spec.denseCartesianProducts());
}

/** Legacy dense pipeline the fused generator must reproduce exactly. */
CsrMatrix
legacyPlane(const PlaneRecipe &recipe, Rng &rng)
{
    const Dense2d<float> inner = generatePlane(
        recipe.height, recipe.width, recipe.sparsity, recipe.method, rng);
    const Dense2d<float> embedded =
        recipe.outHeight == recipe.height &&
            recipe.outWidth == recipe.width && recipe.offset == 0 &&
            recipe.dilation == 1
        ? inner
        : embedPlane(inner, recipe.outHeight, recipe.outWidth,
                     recipe.offset, recipe.dilation);
    CsrMatrix csr = CsrMatrix::fromDense(embedded);
    return recipe.rotate ? csr.rotated180() : csr;
}

void
expectFusedMatchesLegacy(const PlaneRecipe &recipe, std::uint64_t seed)
{
    Rng legacy_rng(seed);
    Rng fused_rng(seed);
    const CsrMatrix expected = legacyPlane(recipe, legacy_rng);
    const CsrMatrix got = generateCsrPlane(recipe, fused_rng);
    EXPECT_TRUE(expected == got)
        << "plane mismatch for " << recipe.height << "x" << recipe.width
        << " sparsity " << recipe.sparsity << " offset " << recipe.offset
        << " dilation " << recipe.dilation << " rotate " << recipe.rotate;
    // Identical random stream consumed: downstream draws stay aligned.
    EXPECT_EQ(legacy_rng.state(), fused_rng.state());
}

TEST(CensusProperty, FusedGeneratorMatchesLegacyPipeline)
{
    Rng rng(404);
    for (const SparsifyMethod method :
         {SparsifyMethod::Bernoulli, SparsifyMethod::TopK}) {
        for (int trial = 0; trial < 25; ++trial) {
            PlaneRecipe recipe;
            recipe.height = static_cast<std::uint32_t>(rng.range(1, 16));
            recipe.width = static_cast<std::uint32_t>(rng.range(1, 16));
            recipe.sparsity = rng.uniform();
            recipe.method = method;
            recipe.offset = static_cast<std::uint32_t>(rng.range(0, 3));
            recipe.dilation =
                static_cast<std::uint32_t>(rng.range(1, 3));
            recipe.outHeight = recipe.offset +
                recipe.dilation * (recipe.height - 1) + 1 +
                static_cast<std::uint32_t>(rng.range(0, 3));
            recipe.outWidth = recipe.offset +
                recipe.dilation * (recipe.width - 1) + 1 +
                static_cast<std::uint32_t>(rng.range(0, 3));
            recipe.rotate = rng.bernoulli(0.5);
            expectFusedMatchesLegacy(recipe, rng.next());
        }
    }
}

/**
 * Big, small, rotated and empty recipes of both methods: the generator
 * keeps its arrays in thread-local scratch, so a plane must not inherit
 * anything from the (larger, smaller, rotated) plane before it.
 */
std::vector<PlaneRecipe>
mixedRecipes()
{
    PlaneRecipe big = PlaneRecipe::plain(48, 40, 0.3,
                                         SparsifyMethod::Bernoulli);
    big.outHeight = 52;
    big.outWidth = 44;
    big.offset = 2;
    PlaneRecipe dilated = PlaneRecipe::plain(9, 11, 0.5,
                                             SparsifyMethod::TopK);
    dilated.outHeight = 2 * 8 + 4;
    dilated.outWidth = 2 * 10 + 4;
    dilated.offset = 1;
    dilated.dilation = 2;
    PlaneRecipe rotated = PlaneRecipe::plain(3, 3, 0.4,
                                             SparsifyMethod::Bernoulli);
    rotated.rotate = true;
    PlaneRecipe rotated_top_k = PlaneRecipe::plain(7, 5, 0.6,
                                                   SparsifyMethod::TopK);
    rotated_top_k.rotate = true;
    return {big,
            PlaneRecipe::plain(1, 1, 0.0, SparsifyMethod::Bernoulli),
            rotated,
            PlaneRecipe::plain(6, 6, 1.0, SparsifyMethod::Bernoulli),
            dilated,
            PlaneRecipe::plain(30, 30, 1.0, SparsifyMethod::TopK),
            rotated_top_k,
            PlaneRecipe::plain(64, 64, 0.9, SparsifyMethod::TopK)};
}

TEST(CensusProperty, FusedGeneratorScratchCarriesNoStateOnOneThread)
{
    const std::vector<PlaneRecipe> recipes = mixedRecipes();
    for (int round = 0; round < 3; ++round) {
        for (std::size_t r = 0; r < recipes.size(); ++r)
            expectFusedMatchesLegacy(recipes[r], 1000 * round + r);
    }
}

TEST(CensusProperty, FusedGeneratorScratchCarriesNoStateAcrossThreads)
{
    // Every pool thread generates an interleaved stream of the mixed
    // recipes; each plane lands in its own slot and must equal the
    // legacy pipeline's plane for the same (recipe, seed).
    const std::vector<PlaneRecipe> recipes = mixedRecipes();
    const std::size_t items = 8 * recipes.size();
    std::vector<char> matches(items, 0);
    ThreadPool pool(4);
    pool.parallelFor(0, items, /*grain=*/1,
                     [&recipes, &matches](std::uint64_t i, std::uint32_t) {
                         const PlaneRecipe &recipe =
                             recipes[(i * 5) % recipes.size()];
                         Rng legacy_rng(i);
                         Rng fused_rng(i);
                         matches[i] = legacyPlane(recipe, legacy_rng) ==
                                 generateCsrPlane(recipe, fused_rng) &&
                             legacy_rng.state() == fused_rng.state();
                     });
    for (std::size_t i = 0; i < items; ++i)
        EXPECT_TRUE(matches[i]) << "plane " << i;
}

TEST(CensusProperty, FusedGeneratorSparsityExtremes)
{
    for (const SparsifyMethod method :
         {SparsifyMethod::Bernoulli, SparsifyMethod::TopK}) {
        for (const double sparsity : {0.0, 1.0}) {
            PlaneRecipe recipe =
                PlaneRecipe::plain(6, 9, sparsity, method);
            expectFusedMatchesLegacy(recipe, 99);
        }
    }
}

} // namespace
} // namespace antsim
