/**
 * @file
 * Property tests of the shared census engine (conv/census.hh) and the
 * fused CSR plane generator (workload/tracegen.hh):
 *
 *  - CensusContext::countProducts must be counter-for-counter
 *    identical to the brute-force countProducts over randomized
 *    strides, dilations, paddings, cropped output dims, and matmul,
 *    for one plane and, summed, for stacks that mix full, empty and
 *    sparse planes;
 *  - generateCsrPlane must consume the identical random stream and
 *    emit the same plane as the legacy dense pipeline generatePlane ->
 *    embedPlane -> fromDense -> rotated180, also when differently
 *    shaped recipes share (and grow) its thread-local scratch, on every
 *    recipe fig10 generates, and at the sizes the benches generate,
 *    where the top-K pre-filter runs. A Bernoulli plane must also equal
 *    an arithmetic replay of the one-draw cell rule;
 *  - the pre-filter's cut must bound every cell it skips, and its
 *    fallback must reproduce the full path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "oracles/legacy_planes.hh"
#include "util/bfloat16.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"
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

/** Compare census vs brute force for a spec. */
void
checkSpec(const ProblemSpec &spec, Rng &rng, const std::string &context)
{
    const CsrMatrix image =
        randomCsr(spec.imageH(), spec.imageW(), 0.7, rng);
    const CensusContext census(spec, image);

    // Several kernels against one context: the sharing the stack
    // counting path depends on.
    for (int k = 0; k < 3; ++k) {
        const CsrMatrix kernel =
            randomCsr(spec.kernelH(), spec.kernelW(), 0.4, rng);
        expectCensusEqual(countProducts(spec, kernel, image),
                          census.countProducts({&kernel}), context);
    }
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

/**
 * A random stack of 0-12 planes against one image: each plane full
 * (the census's precomputed sum), empty, or Bernoulli-sparse. Its
 * census must equal the brute-force census summed over the planes.
 */
void
checkStack(const ProblemSpec &spec, Rng &rng, const std::string &context)
{
    const CsrMatrix image =
        randomCsr(spec.imageH(), spec.imageW(), rng.uniform(), rng);
    std::vector<CsrMatrix> planes;
    const auto count = static_cast<std::size_t>(rng.range(0, 12));
    for (std::size_t i = 0; i < count; ++i) {
        switch (rng.range(0, 2)) {
          case 0: // full
            planes.push_back(
                randomCsr(spec.kernelH(), spec.kernelW(), 0.0, rng));
            break;
          case 1:
            planes.emplace_back(spec.kernelH(), spec.kernelW());
            break;
          default:
            planes.push_back(randomCsr(spec.kernelH(), spec.kernelW(),
                                       rng.uniform(), rng));
        }
    }
    std::vector<const CsrMatrix *> stack;
    ProductCensus want;
    for (const CsrMatrix &plane : planes) {
        stack.push_back(&plane);
        want += countProducts(spec, plane, image);
    }
    expectCensusEqual(want, CensusContext(spec, image).countProducts(stack),
                      context + " stack of " + std::to_string(count));
}

TEST(CensusProperty, StackMatchesSummedBruteForce)
{
    Rng rng(2026);
    for (int trial = 0; trial < 60; ++trial) {
        const auto stride = static_cast<std::uint32_t>(rng.range(1, 3));
        const auto dilation = static_cast<std::uint32_t>(rng.range(1, 3));
        const auto kernel = static_cast<std::uint32_t>(rng.range(1, 5));
        const std::uint32_t image = dilation * (kernel - 1) + 1 +
            static_cast<std::uint32_t>(rng.range(0, 9));
        const ProblemSpec spec = ProblemSpec::conv(
            kernel, kernel, image, image, stride, dilation);
        checkStack(spec, rng, "conv " + spec.toString());
    }
    for (int trial = 0; trial < 30; ++trial) {
        const auto h = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto w = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto s = static_cast<std::uint32_t>(rng.range(1, 12));
        const ProblemSpec spec = ProblemSpec::matmul(h, w, w, s);
        checkStack(spec, rng, "matmul " + spec.toString());
    }
    // A stack of one full plane takes only the precomputed sum.
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 9, 9, 2, 2);
    const CsrMatrix image = randomCsr(9, 9, 0.5, rng);
    const CsrMatrix full = randomCsr(3, 3, 0.0, rng);
    ASSERT_EQ(full.nnz(), 9u);
    expectCensusEqual(countProducts(spec, full, image),
                      CensusContext(spec, image).countProducts({&full}),
                      "one full plane");
}

TEST(CensusProperty, EmptyPlanesCountZero)
{
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 8, 8, 2);
    const CsrMatrix empty =
        CsrMatrix::fromDense(Dense2d<float>(8, 8));
    const CensusContext census(spec, empty);
    Rng rng(5);
    const CsrMatrix kernel = randomCsr(3, 3, 0.3, rng);
    const ProductCensus got = census.countProducts({&kernel});
    EXPECT_EQ(got.nonzeroProducts, 0u);
    EXPECT_EQ(got.validProducts, 0u);
    EXPECT_EQ(got.rcpProducts, 0u);
    EXPECT_EQ(got.denseProducts, spec.denseCartesianProducts());
}

/**
 * Legacy dense pipeline: the fused generator reproduces its planes and
 * Rng stream.
 */
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

/**
 * A Bernoulli cell's rule, written arithmetically on its draw @p r: its
 * trial is the uniform (r >> 11) 2^-53 against 1 - @p sparsity, and a
 * kept cell with low byte m = r mod 256 holds
 * (-1)^[m >= 128] (1 + (m mod 128) / 128).
 */
float
bernoulliRule(std::uint64_t r, double sparsity)
{
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    if (!(u < 1.0 - sparsity))
        return 0.0f;
    const auto m = static_cast<int>(r % 256);
    const float magnitude = 1.0f + static_cast<float>(m % 128) / 128.0f;
    return m >= 128 ? -magnitude : magnitude;
}

/**
 * The plane generateCsrPlane must emit: the legacy pipeline's for a
 * top-K recipe; for a Bernoulli recipe, a replay of one next() draw
 * per cell in row-major order through bernoulliRule, embedded,
 * compressed and rotated as the legacy pipeline does.
 */
CsrMatrix
oraclePlane(const PlaneRecipe &recipe, Rng &rng)
{
    if (recipe.method == SparsifyMethod::TopK)
        return legacyPlane(recipe, rng);
    Dense2d<float> inner(recipe.height, recipe.width);
    for (std::uint32_t y = 0; y < recipe.height; ++y) {
        for (std::uint32_t x = 0; x < recipe.width; ++x)
            inner.at(x, y) = bernoulliRule(rng.next(), recipe.sparsity);
    }
    const CsrMatrix csr = CsrMatrix::fromDense(
        embedPlane(inner, recipe.outHeight, recipe.outWidth,
                   recipe.offset, recipe.dilation));
    return recipe.rotate ? csr.rotated180() : csr;
}

/**
 * What differs between generateCsrPlane and the legacy pipeline or the
 * oracle for (@p recipe, @p seed), empty when nothing does: the plane
 * and the Rng post-state must equal both.
 */
std::string
fusedMismatch(const PlaneRecipe &recipe, std::uint64_t seed)
{
    Rng legacy_rng(seed);
    Rng oracle_rng(seed);
    Rng fused_rng(seed);
    const CsrMatrix legacy = legacyPlane(recipe, legacy_rng);
    const CsrMatrix oracle = oraclePlane(recipe, oracle_rng);
    const CsrMatrix got = generateCsrPlane(recipe, fused_rng);
    std::string mismatch;
    if (!(legacy == got))
        mismatch += " legacy-plane";
    if (!(oracle == got))
        mismatch += " oracle-plane";
    // Identical random stream consumed: downstream draws stay aligned.
    if (legacy_rng.state() != fused_rng.state() ||
        oracle_rng.state() != fused_rng.state())
        mismatch += " rng-state";
    return mismatch;
}

void
expectFusedMatchesLegacy(const PlaneRecipe &recipe, std::uint64_t seed)
{
    EXPECT_EQ(fusedMismatch(recipe, seed), "")
        << recipe.height << "x" << recipe.width << " sparsity "
        << recipe.sparsity << " offset " << recipe.offset << " dilation "
        << recipe.dilation << " rotate " << recipe.rotate;
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
 * fig10's planes, recipe for recipe: every ResNet18 (CIFAR) layer's
 * image and kernel recipe in every phase, at the dense baseline and at
 * the seven ReSprop points (G_A / A sparsity) fig10 runs. They are the
 * planes that bench spends its generation time on: update-phase G_A
 * planes from 32x32 down to 4x4, dense rotated 3x3 and 1x1 weight
 * planes, padded activations and stride-dilated gradients.
 */
TEST(CensusProperty, FusedGeneratorMatchesLegacyOnFig10Recipes)
{
    std::vector<SparsityProfile> profiles = {SparsityProfile::dense()};
    for (const auto &[grad, act] :
         {std::pair{0.30, 0.80}, std::pair{0.42, 0.85},
          std::pair{0.50, 0.86}, std::pair{0.70, 0.88},
          std::pair{0.80, 0.90}, std::pair{0.90, 0.91},
          std::pair{0.95, 0.92}})
        profiles.push_back(SparsityProfile::resprop(grad, act));

    std::set<std::uint32_t> update_kernel_dims;
    std::set<std::uint32_t> rotated_kernel_dims;
    std::size_t padded_images = 0;
    std::size_t dilated_images = 0;
    std::uint64_t seed = 9000;
    for (const SparsityProfile &profile : profiles) {
        for (const ConvLayer &layer : resnet18Cifar()) {
            const PhaseSpecs specs = layer.phaseSpecs();
            for (const TrainingPhase phase :
                 {TrainingPhase::Forward, TrainingPhase::Backward,
                  TrainingPhase::Update}) {
                const PlaneRecipe image =
                    convImageRecipe(layer, phase, profile, specs);
                const PlaneRecipe kernel =
                    convKernelRecipe(layer, phase, profile, specs);
                SCOPED_TRACE(layer.name);
                expectFusedMatchesLegacy(image, seed++);
                expectFusedMatchesLegacy(kernel, seed++);
                if (phase == TrainingPhase::Update)
                    update_kernel_dims.insert(kernel.height);
                if (kernel.rotate && kernel.sparsity == 0.0)
                    rotated_kernel_dims.insert(kernel.height);
                padded_images += image.offset > 0 ? 1 : 0;
                dilated_images += image.dilation > 1 ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(update_kernel_dims, (std::set<std::uint32_t>{4, 8, 16, 32}));
    EXPECT_EQ(rotated_kernel_dims, (std::set<std::uint32_t>{1, 3}));
    EXPECT_GT(padded_images, 0u);
    EXPECT_GT(dilated_images, 0u);
}

/**
 * Big, small, rotated and empty recipes of both methods: the generator
 * keeps its arrays in thread-local scratch, so a plane must not inherit
 * anything from the (larger, smaller, rotated) plane before it. The
 * last recipe is a Bernoulli plane larger than every one before it,
 * after a top-K plane, so each thread's scratch grows there.
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
    PlaneRecipe growing = PlaneRecipe::plain(80, 70, 0.42,
                                             SparsifyMethod::Bernoulli);
    growing.outHeight = 82;
    growing.outWidth = 72;
    growing.offset = 1;
    growing.rotate = true;
    return {big,
            PlaneRecipe::plain(1, 1, 0.0, SparsifyMethod::Bernoulli),
            rotated,
            PlaneRecipe::plain(6, 6, 1.0, SparsifyMethod::Bernoulli),
            dilated,
            PlaneRecipe::plain(30, 30, 1.0, SparsifyMethod::TopK),
            rotated_top_k,
            PlaneRecipe::plain(64, 64, 0.9, SparsifyMethod::TopK),
            growing};
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
    // recipes; each plane lands in its own slot and must match the
    // legacy pipeline and the oracle for the same (recipe, seed).
    const std::vector<PlaneRecipe> recipes = mixedRecipes();
    const std::size_t items = 8 * recipes.size();
    std::vector<char> matches(items, 0);
    ThreadPool pool(4);
    pool.parallelFor(0, items, /*grain=*/1,
                     [&recipes, &matches](std::uint64_t i, std::uint32_t) {
                         matches[i] = fusedMismatch(
                             recipes[(i * 5) % recipes.size()], i)
                                          .empty();
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

/**
 * Every Bernoulli value is non-zero, bf16-exact and of magnitude in
 * [1, 2): the mixed and random recipes, and fig10's shapes (dense 3x3
 * kernels, 32x32 gradients at 85%, padded 56x56 activations).
 */
TEST(CensusProperty, FusedBernoulliValuesAreBf16ExactInOneToTwo)
{
    std::vector<PlaneRecipe> recipes;
    for (const PlaneRecipe &recipe : mixedRecipes()) {
        if (recipe.method == SparsifyMethod::Bernoulli)
            recipes.push_back(recipe);
    }
    PlaneRecipe padded =
        PlaneRecipe::plain(56, 56, 0.5, SparsifyMethod::Bernoulli);
    padded.outHeight = 58;
    padded.outWidth = 58;
    padded.offset = 1;
    recipes.push_back(padded);
    recipes.push_back(
        PlaneRecipe::plain(3, 3, 0.0, SparsifyMethod::Bernoulli));
    recipes.push_back(
        PlaneRecipe::plain(32, 32, 0.85, SparsifyMethod::Bernoulli));
    Rng rng(505);
    for (int trial = 0; trial < 25; ++trial) {
        recipes.push_back(PlaneRecipe::plain(
            static_cast<std::uint32_t>(rng.range(1, 24)),
            static_cast<std::uint32_t>(rng.range(1, 24)), rng.uniform(),
            SparsifyMethod::Bernoulli));
    }
    std::size_t checked = 0;
    for (std::size_t r = 0; r < recipes.size(); ++r) {
        Rng plane_rng(8000 + r);
        const CsrMatrix plane = generateCsrPlane(recipes[r], plane_rng);
        for (const float v : plane.values()) {
            ASSERT_NE(v, 0.0f) << "recipe " << r;
            ASSERT_EQ(v, bf16Round(v)) << "recipe " << r;
            ASSERT_GE(std::fabs(v), 1.0f) << "recipe " << r;
            ASSERT_LT(std::fabs(v), 2.0f) << "recipe " << r;
        }
        checked += plane.nnz();
    }
    EXPECT_GT(checked, 1000u);
}

/**
 * Top-K recipes at the sizes the benches generate: ResNet50's planes
 * (7x7 to 112x112) and the matmul suites' (512x72, 72x512, 300x8), at
 * the sparsities they use, plus real embedded, dilated and rotated conv
 * recipes and recipes on both sides of the pre-filter's tail <= 0.75
 * gate. Every one must equal the legacy pipeline, Rng post-state
 * included, and every one the pre-filter cuts must take the
 * pre-filtered result rather than fall back.
 */
TEST(CensusProperty, FusedTopKMatchesLegacyAtBenchSizes)
{
    std::vector<PlaneRecipe> recipes;
    const std::uint32_t dims[][2] = {{7, 7},    {14, 14},   {28, 28},
                                     {56, 56},  {112, 112}, {512, 72},
                                     {72, 512}, {300, 8}};
    for (const auto &d : dims) {
        for (const double sparsity : {0.5, 0.7, 0.9, 0.95, 0.99, 0.999})
            recipes.push_back(PlaneRecipe::plain(d[0], d[1], sparsity,
                                                 SparsifyMethod::TopK));
    }
    // conv3's strided 3x3: padded forward images, dilated backward
    // gradients, rotated backward kernels, and 28x28 update kernels.
    const ConvLayer layer{"conv3_b0_3x3", 128, 128, 56, 56, 3, 2, 1};
    const PhaseSpecs specs = layer.phaseSpecs();
    for (const TrainingPhase phase :
         {TrainingPhase::Forward, TrainingPhase::Backward,
          TrainingPhase::Update}) {
        const SparsityProfile profile = SparsityProfile::topK(0.9);
        recipes.push_back(convImageRecipe(layer, phase, profile, specs));
        recipes.push_back(convKernelRecipe(layer, phase, profile, specs));
    }
    PlaneRecipe rotated =
        PlaneRecipe::plain(28, 28, 0.9, SparsifyMethod::TopK);
    rotated.rotate = true;
    recipes.push_back(rotated);
    // At n = 784 sparsity 0.36 is cut (tail 0.748), while 0.35 puts
    // the tail at 0.758; at 90% sparsity 20 cells are cut (tail 0.70)
    // and 18 are not (0.78).
    const PlaneRecipe gates[] = {
        PlaneRecipe::plain(28, 28, 0.36, SparsifyMethod::TopK),
        PlaneRecipe::plain(28, 28, 0.35, SparsifyMethod::TopK),
        PlaneRecipe::plain(4, 5, 0.9, SparsifyMethod::TopK),
        PlaneRecipe::plain(3, 6, 0.9, SparsifyMethod::TopK),
    };
    EXPECT_TRUE(TopKCut::forPlane(gates[0]).has_value());
    EXPECT_FALSE(TopKCut::forPlane(gates[1]).has_value());
    EXPECT_TRUE(TopKCut::forPlane(gates[2]).has_value());
    EXPECT_FALSE(TopKCut::forPlane(gates[3]).has_value());
    recipes.insert(recipes.end(), std::begin(gates), std::end(gates));

    std::size_t cut = 0;
    std::size_t prefiltered = 0;
    for (std::size_t r = 0; r < recipes.size(); ++r) {
        const PlaneRecipe &recipe = recipes[r];
        expectFusedMatchesLegacy(recipe, 7000 + r);
        const std::optional<TopKCut> plane_cut = TopKCut::forPlane(recipe);
        if (!plane_cut)
            continue;
        ++cut;
        Rng rng(7000 + r);
        prefiltered += generateTopKPlane(recipe, plane_cut, rng).prefiltered;
    }
    EXPECT_GE(cut, recipes.size() / 2);
    EXPECT_EQ(prefiltered, cut);
}

/** A cut plane equals the full path's plane and Rng post-state. */
void
expectCutMatchesFullPath(const PlaneRecipe &recipe, const TopKCut &cut,
                         bool expect_prefiltered, std::uint64_t seed)
{
    Rng full_rng(seed);
    Rng cut_rng(seed);
    const TopKPlane full =
        generateTopKPlane(recipe, std::nullopt, full_rng);
    const TopKPlane got = generateTopKPlane(recipe, cut, cut_rng);
    EXPECT_FALSE(full.prefiltered);
    EXPECT_EQ(got.prefiltered, expect_prefiltered)
        << "ucut " << cut.ucut << " bound " << cut.bound;
    EXPECT_TRUE(got.plane == full.plane)
        << "ucut " << cut.ucut << " bound " << cut.bound;
    EXPECT_EQ(cut_rng.state(), full_rng.state());
}

TEST(CensusProperty, TopKCutFallbackEqualsFullPath)
{
    PlaneRecipe embedded =
        PlaneRecipe::plain(28, 28, 0.5, SparsifyMethod::TopK);
    embedded.outHeight = 31;
    embedded.outWidth = 31;
    embedded.offset = 1;
    embedded.rotate = true;
    for (const PlaneRecipe &recipe :
         {PlaneRecipe::plain(56, 56, 0.5, SparsifyMethod::TopK),
          embedded}) {
        // rho = 3: exp(-4.5), about 1% of the cells are candidates,
        // far fewer than the half the plane keeps.
        expectCutMatchesFullPath(recipe, TopKCut::atRadius(3.0), false,
                                 11);
        // rho = 1: 61% are candidates, but the keep-half threshold
        // (about 0.67) lies below the bound.
        expectCutMatchesFullPath(recipe, TopKCut::atRadius(1.0), false,
                                 12);
        // rho = 0.3: 96% are candidates and the threshold clears the
        // bound, so the pre-filtered result stands.
        expectCutMatchesFullPath(recipe, TopKCut::atRadius(0.3), true,
                                 13);
    }
}

TEST(CensusProperty, TopKCutBoundsEveryCellAboveUcut)
{
    // Cells just above the cut, at the cosine's peaks and next to
    // them: the float value must stay strictly below the bound, while
    // the cut cell itself reaches rho, so the bound is not vacuous.
    const double grain = 0x1.0p-53; // uniform()'s resolution
    for (const double rho : {0.3, 0.6745, 1.0, 1.645, 2.5, 3.8}) {
        const TopKCut cut = TopKCut::atRadius(rho);
        for (const double u2 : {0.0, grain, 0.5 - grain, 0.5, 0.5 + grain,
                                1.0 - grain}) {
            double u1 = cut.ucut;
            for (int step = 0; step < 4096; ++step) {
                u1 = std::nextafter(u1, 1.0);
                const float f =
                    static_cast<float>(Rng::boxMuller({u1, u2}));
                ASSERT_LT(std::fabs(f), cut.bound)
                    << "rho " << rho << " u2 " << u2 << " step " << step;
            }
        }
        EXPECT_GT(std::fabs(static_cast<float>(
                      Rng::boxMuller({cut.ucut, 0.0}))),
                  rho * (1.0 - 1e-6));
    }
}

} // namespace
} // namespace antsim
