/**
 * @file
 * Tests for layer descriptors, phase expansion, and trace generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "conv/dense_conv.hh"
#include "obs/metrics.hh"
#include "oracles/legacy_planes.hh"
#include "tensor/sparsify.hh"
#include "workload/layer.hh"
#include "workload/networks.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

ConvLayer
sampleLayer()
{
    return {"test", 8, 16, 14, 14, 3, 1, 1};
}

/** Planes the task and pair builders generated, registry-wide. */
std::uint64_t
planesGenerated()
{
    return obs::metrics::snapshot().profileCounts[static_cast<std::size_t>(
        obs::metrics::ProfileCount::TracePlanesGenerated)];
}

TEST(Layer, PaddedDims)
{
    const ConvLayer layer = sampleLayer();
    EXPECT_EQ(layer.paddedH(), 16u);
    EXPECT_EQ(layer.paddedW(), 16u);
    EXPECT_EQ(layer.planePairs(), 128u);
}

TEST(Layer, PhaseSpecShapes)
{
    const PhaseSpecs specs = sampleLayer().phaseSpecs();
    EXPECT_EQ(specs.forward.outH(), 14u);
    EXPECT_EQ(specs.update.kernelH(), 14u);
    EXPECT_EQ(specs.update.outH(), 3u);
    EXPECT_EQ(specs.backward.outH(), 14u);
}

TEST(Layer, StridedPhaseSpecs)
{
    const ConvLayer layer{"s2", 4, 8, 28, 28, 3, 2, 1};
    const PhaseSpecs specs = layer.phaseSpecs();
    EXPECT_EQ(specs.forward.outH(), 14u);
    EXPECT_EQ(specs.update.dilation(), 2u);
    EXPECT_EQ(specs.update.outH(), 3u);
}

TEST(Layer, PhaseNames)
{
    EXPECT_STREQ(phaseName(TrainingPhase::Forward), "W*A");
    EXPECT_STREQ(phaseName(TrainingPhase::Backward), "W*G_A");
    EXPECT_STREQ(phaseName(TrainingPhase::Update), "G_A*A");
}

TEST(Tracegen, MixSeedDeterministicAndSensitive)
{
    EXPECT_EQ(mixSeed(1, 2, 3, 4), mixSeed(1, 2, 3, 4));
    EXPECT_NE(mixSeed(1, 2, 3, 4), mixSeed(1, 2, 3, 5));
    EXPECT_NE(mixSeed(1, 2, 3, 4), mixSeed(2, 2, 3, 4));
}

TEST(Tracegen, EmbedPlaneCentersWithPadding)
{
    Dense2d<float> inner(2, 2);
    inner.at(0, 0) = 1.0f;
    inner.at(1, 1) = 2.0f;
    const auto out = embedPlane(inner, 4, 4, 1);
    EXPECT_EQ(out.at(1, 1), 1.0f);
    EXPECT_EQ(out.at(2, 2), 2.0f);
    EXPECT_EQ(out.nnz(), 2u);
}

TEST(Tracegen, EmbedPlaneDilates)
{
    Dense2d<float> inner(2, 2);
    inner.at(0, 0) = 1.0f;
    inner.at(1, 0) = 2.0f;
    inner.at(1, 1) = 3.0f;
    const auto out = embedPlane(inner, 5, 5, 0, 2);
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(2, 0), 2.0f);
    EXPECT_EQ(out.at(2, 2), 3.0f);
    EXPECT_EQ(out.nnz(), 3u);
}

TEST(TracegenDeathTest, EmbedMustFit)
{
    Dense2d<float> inner(3, 3, 1.0f);
    EXPECT_DEATH(embedPlane(inner, 4, 4, 2), "does not fit");
}

TEST(Tracegen, ForwardPairShapes)
{
    const ConvLayer layer = sampleLayer();
    Rng rng(1);
    const std::uint64_t planes_before = planesGenerated();
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Forward, SparsityProfile::swat(0.9), rng);
    EXPECT_EQ(planesGenerated() - planes_before, 2u);
    EXPECT_EQ(pair.kernel.height(), 3u);
    EXPECT_EQ(pair.image.height(), 16u);
    EXPECT_EQ(pair.spec.outH(), 14u);
    // Padding border is zero: no image non-zeros in row 0.
    EXPECT_EQ(pair.image.rowPtr()[1], pair.image.rowPtr()[0]);
}

TEST(Tracegen, UpdatePairShapes)
{
    const ConvLayer layer = sampleLayer();
    Rng rng(2);
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Update, SparsityProfile::swat(0.9), rng);
    EXPECT_EQ(pair.kernel.height(), 14u);
    EXPECT_EQ(pair.spec.outH(), 3u);
    EXPECT_EQ(pair.spec.outW(), 3u);
}

TEST(Tracegen, BackwardPairUsesRotatedKernelAndDilatedImage)
{
    const ConvLayer layer{"s2", 4, 8, 28, 28, 3, 2, 1};
    Rng rng(3);
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Backward, SparsityProfile::swat(0.5), rng);
    EXPECT_EQ(pair.kernel.height(), 3u);
    // Dilated gradient: non-zeros only on even-offset positions
    // relative to the embed offset.
    const std::uint32_t offset = (pair.spec.imageH() -
                                  (2 * (14 - 1) + 1)) / 2;
    for (const auto &entry : pair.image.entries()) {
        EXPECT_EQ((entry.x - offset) % 2, 0u);
        EXPECT_EQ((entry.y - offset) % 2, 0u);
    }
}

TEST(Tracegen, SparsityTargetsRespected)
{
    const ConvLayer layer{"big", 1, 1, 64, 64, 3, 1, 1};
    Rng rng(4);
    const PlanePair pair = makeConvPhasePair(
        layer, TrainingPhase::Update, SparsityProfile::resprop(0.9, 0.8),
        rng);
    // Kernel = gradient at 90%, image = activation at 80% (relative to
    // the unpadded plane).
    EXPECT_NEAR(pair.kernel.sparsity(), 0.9, 0.03);
    const double act_nnz = pair.image.nnz();
    EXPECT_NEAR(act_nnz / (64.0 * 64.0), 0.2, 0.03);
}

TEST(Tracegen, DeterministicGivenSameRngSeed)
{
    const ConvLayer layer = sampleLayer();
    Rng a(7);
    Rng b(7);
    const PlanePair p1 = makeConvPhasePair(
        layer, TrainingPhase::Forward, SparsityProfile::swat(0.9), a);
    const PlanePair p2 = makeConvPhasePair(
        layer, TrainingPhase::Forward, SparsityProfile::swat(0.9), b);
    EXPECT_EQ(p1.kernel, p2.kernel);
    EXPECT_EQ(p1.image, p2.image);
}

TEST(Tracegen, StackTaskEqualsPlaneByPlaneGeneration)
{
    // The task-level draw order (image first, then every kernel of the
    // stack) is what the per-layer replay assumes.
    const ConvLayer layer{"s2", 4, 8, 28, 28, 3, 2, 1};
    const PhaseSpecs specs = layer.phaseSpecs();
    for (const SparsifyMethod method :
         {SparsifyMethod::Bernoulli, SparsifyMethod::TopK}) {
        const SparsityProfile profile{0.7, 0.5, 0.8, method};
        for (const TrainingPhase phase :
             {TrainingPhase::Forward, TrainingPhase::Backward,
              TrainingPhase::Update}) {
            Rng task_rng(21);
            const std::uint64_t planes_before = planesGenerated();
            const StackTask task =
                makeConvPhaseTask(layer, phase, profile, task_rng);
            // A task counts its image plus its whole stack at once.
            EXPECT_EQ(planesGenerated() - planes_before,
                      1 + task.kernels.size());

            Rng plane_rng(21);
            EXPECT_EQ(*task.image,
                      generateCsrPlane(
                          convImageRecipe(layer, phase, profile, specs),
                          plane_rng));
            const PlaneRecipe kernel_recipe =
                convKernelRecipe(layer, phase, profile, specs);
            ASSERT_EQ(task.kernels.size(),
                      phase == TrainingPhase::Backward ? layer.inChannels
                                                       : layer.outChannels);
            for (const CsrMatrix &kernel : task.kernels)
                EXPECT_EQ(kernel, generateCsrPlane(kernel_recipe, plane_rng));
            EXPECT_EQ(task_rng.state(), plane_rng.state())
                << "phase " << static_cast<int>(phase);
        }
    }
}

/**
 * generateCsrStack(recipe, count) against @p count successive
 * generateCsrPlane calls from the same seed: every plane equal, and
 * the Rng post-states equal.
 */
void
expectStackEqualsPlanes(const PlaneRecipe &recipe, std::uint32_t count,
                        std::uint64_t seed)
{
    Rng stack_rng(seed);
    const CsrStack stack = generateCsrStack(recipe, count, stack_rng);
    Rng plane_rng(seed);
    ASSERT_EQ(stack.size(), count);
    for (std::uint32_t i = 0; i < count; ++i)
        ASSERT_EQ(stack[i], generateCsrPlane(recipe, plane_rng)) << "plane "
                                                                  << i;
    EXPECT_EQ(stack_rng.state(), plane_rng.state());
}

/** A kernel recipe a bench generates, with the largest stack it takes. */
struct BenchStack
{
    PlaneRecipe recipe;
    std::uint32_t count = 0;
    TrainingPhase phase = TrainingPhase::Forward;
    std::string where;
};

/**
 * Every distinct kernel recipe of fig09 (the five networks at 90%:
 * ResNet50's top-K, the rest Bernoulli) and of fig10 (ResNet18's dense
 * baseline and its seven ReSprop points), in all three phases.
 */
std::vector<BenchStack>
benchKernelStacks()
{
    std::vector<std::pair<std::vector<ConvLayer>, SparsityProfile>> runs;
    for (const NamedNetwork &network : figure9Networks()) {
        runs.push_back({network.layers,
                        network.syntheticTopK ? SparsityProfile::topK(0.9)
                                              : SparsityProfile::swat(0.9)});
    }
    runs.push_back({resnet18Cifar(), SparsityProfile::dense()});
    for (const auto &[grad, act] :
         {std::pair{0.30, 0.80}, std::pair{0.42, 0.85},
          std::pair{0.50, 0.86}, std::pair{0.70, 0.88},
          std::pair{0.80, 0.90}, std::pair{0.90, 0.91},
          std::pair{0.95, 0.92}})
        runs.push_back({resnet18Cifar(), SparsityProfile::resprop(grad, act)});

    using Key = std::tuple<std::uint32_t, std::uint32_t, double, bool,
                           bool>;
    std::map<Key, BenchStack> stacks;
    for (const auto &[layers, profile] : runs) {
        for (const ConvLayer &layer : layers) {
            const PhaseSpecs specs = layer.phaseSpecs();
            for (const TrainingPhase phase :
                 {TrainingPhase::Forward, TrainingPhase::Backward,
                  TrainingPhase::Update}) {
                const PlaneRecipe recipe =
                    convKernelRecipe(layer, phase, profile, specs);
                // Kernel recipes are never embedded.
                EXPECT_EQ(recipe.outHeight, recipe.height);
                EXPECT_EQ(recipe.outWidth, recipe.width);
                const std::uint32_t count = phase == TrainingPhase::Backward
                    ? layer.inChannels
                    : layer.outChannels;
                BenchStack &stack = stacks[{
                    recipe.height, recipe.width, recipe.sparsity,
                    recipe.method == SparsifyMethod::TopK, recipe.rotate}];
                if (count > stack.count)
                    stack = {recipe, count, phase, layer.name};
            }
        }
    }
    std::vector<BenchStack> out;
    for (const auto &[key, stack] : stacks)
        out.push_back(stack);
    return out;
}

TEST(TracegenStack, EqualsSuccessivePlanesOnEveryBenchKernelRecipe)
{
    const std::vector<BenchStack> stacks = benchKernelStacks();
    std::map<TrainingPhase, int> top_k_phases;
    int top_k_empty = 0;
    int bernoulli_dense = 0;
    std::uint64_t seed = 300;
    for (const BenchStack &stack : stacks) {
        SCOPED_TRACE(stack.where + " phase " +
                     std::to_string(static_cast<int>(stack.phase)) +
                     " count " + std::to_string(stack.count));
        expectStackEqualsPlanes(stack.recipe, stack.count, seed++);
        const std::size_t cells =
            static_cast<std::size_t>(stack.recipe.height) *
            stack.recipe.width;
        if (stack.recipe.method == SparsifyMethod::TopK) {
            ++top_k_phases[stack.phase];
            // 1x1 planes at 90% keep llround(0.1) == 0 cells.
            top_k_empty += cells == 1 ? 1 : 0;
        } else {
            bernoulli_dense += stack.recipe.sparsity == 0.0 ? 1 : 0;
        }
    }
    EXPECT_EQ(top_k_phases.size(), 3u) << "top-K stacks in every phase";
    EXPECT_GT(top_k_empty, 0);
    EXPECT_GT(bernoulli_dense, 0);
    EXPECT_TRUE(std::ranges::any_of(stacks, [](const BenchStack &s) {
        return s.recipe.method == SparsifyMethod::TopK && s.recipe.rotate;
    }));
}

TEST(TracegenStack, SinglePlaneAndAllEmptyStacks)
{
    PlaneRecipe embedded = PlaneRecipe::plain(9, 11, 0.5,
                                              SparsifyMethod::Bernoulli);
    embedded.outHeight = 2 * 8 + 4;
    embedded.outWidth = 2 * 10 + 4;
    embedded.offset = 1;
    embedded.dilation = 2;
    embedded.rotate = true;
    PlaneRecipe rotated_top_k = PlaneRecipe::plain(7, 5, 0.6,
                                                   SparsifyMethod::TopK);
    rotated_top_k.rotate = true;
    for (const PlaneRecipe &recipe : {embedded, rotated_top_k})
        expectStackEqualsPlanes(recipe, 1, 41);

    const PlaneRecipe no_cell_kept =
        PlaneRecipe::plain(6, 6, 1.0, SparsifyMethod::Bernoulli);
    const PlaneRecipe keep_zero =
        PlaneRecipe::plain(1, 1, 0.9, SparsifyMethod::TopK);
    for (const PlaneRecipe &recipe : {no_cell_kept, keep_zero}) {
        expectStackEqualsPlanes(recipe, 64, 43);
        Rng rng(43);
        const CsrStack stack = generateCsrStack(recipe, 64, rng);
        for (const CsrMatrix &plane : stack)
            EXPECT_EQ(plane.nnz(), 0u);
    }
}

/**
 * The one-draw contract of a Bernoulli plane, replayed on a copy of
 * the Rng: each of the plane's H x W inner cells takes one next() draw
 * r in row-major order, and the plane's entries are exactly the cells
 * whose own draw passed the trial (r >> 11) < bernoulliThreshold(1 -
 * sparsity), at their embedded (and rotated) position, each holding
 * bernoulliValue(r & 0xff). Returns what differs, empty when nothing.
 */
std::string
oneDrawMismatch(const PlaneRecipe &recipe, const CsrMatrix &plane,
                Rng &replay)
{
    const std::uint64_t keep =
        Rng::bernoulliThreshold(1.0 - recipe.sparsity);
    std::map<std::pair<std::uint32_t, std::uint32_t>, float> kept;
    for (std::uint32_t y = 0; y < recipe.height; ++y) {
        for (std::uint32_t x = 0; x < recipe.width; ++x) {
            const std::uint64_t r = replay.next();
            if ((r >> 11) >= keep)
                continue;
            std::uint32_t row = recipe.offset + recipe.dilation * y;
            std::uint32_t col = recipe.offset + recipe.dilation * x;
            if (recipe.rotate) {
                row = recipe.outHeight - 1 - row;
                col = recipe.outWidth - 1 - col;
            }
            kept[{row, col}] =
                bernoulliValue(static_cast<std::uint32_t>(r & 0xffu));
        }
    }
    std::size_t stray = 0;
    std::size_t wrong = 0;
    for (const SparseEntry &e : plane.entries()) {
        const auto it = kept.find({e.y, e.x});
        stray += it == kept.end() ? 1 : 0;
        wrong += it != kept.end() && it->second != e.value ? 1 : 0;
    }
    std::string mismatch;
    if (plane.nnz() != kept.size())
        mismatch += " nnz " + std::to_string(plane.nnz()) + " vs " +
            std::to_string(kept.size()) + " kept draws;";
    if (stray > 0)
        mismatch += " " + std::to_string(stray) +
            " entries without a kept draw;";
    if (wrong > 0)
        mismatch += " " + std::to_string(wrong) +
            " values not of their draw;";
    return mismatch;
}

TEST(TracegenBernoulli, OneDrawPerCellOnRandomRecipesAndStacks)
{
    Rng pick(2029);
    for (int trial = 0; trial < 60; ++trial) {
        PlaneRecipe recipe;
        recipe.height = static_cast<std::uint32_t>(pick.range(1, 20));
        recipe.width = static_cast<std::uint32_t>(pick.range(1, 20));
        // Two recipes in ten sit at the ends of the sparsity range.
        recipe.sparsity = trial % 10 == 0 ? 0.0
            : trial % 10 == 5             ? 1.0
                                          : pick.uniform();
        recipe.method = SparsifyMethod::Bernoulli;
        recipe.offset = static_cast<std::uint32_t>(pick.range(0, 3));
        recipe.dilation = static_cast<std::uint32_t>(pick.range(1, 3));
        recipe.outHeight = recipe.offset +
            recipe.dilation * (recipe.height - 1) + 1 +
            static_cast<std::uint32_t>(pick.range(0, 3));
        recipe.outWidth = recipe.offset +
            recipe.dilation * (recipe.width - 1) + 1 +
            static_cast<std::uint32_t>(pick.range(0, 3));
        recipe.rotate = pick.bernoulli(0.5);
        const auto count = static_cast<std::uint32_t>(pick.range(1, 9));
        const std::uint64_t seed = pick.next();
        const std::uint64_t cells =
            static_cast<std::uint64_t>(recipe.height) * recipe.width;
        SCOPED_TRACE(std::to_string(recipe.height) + "x" +
                     std::to_string(recipe.width) + " sparsity " +
                     std::to_string(recipe.sparsity) + " offset " +
                     std::to_string(recipe.offset) + " dilation " +
                     std::to_string(recipe.dilation) + " rotate " +
                     std::to_string(recipe.rotate) + " stack " +
                     std::to_string(count));

        // One plane: exactly H x W draws.
        Rng plane_rng(seed);
        const CsrMatrix plane = generateCsrPlane(recipe, plane_rng);
        Rng replay(seed);
        EXPECT_EQ(oneDrawMismatch(recipe, plane, replay), "");
        Rng advanced(seed);
        for (std::uint64_t i = 0; i < cells; ++i)
            advanced.next();
        EXPECT_EQ(plane_rng.state(), advanced.state());
        EXPECT_EQ(replay.state(), advanced.state());

        // A stack: exactly K x H x W draws, plane after plane.
        Rng stack_rng(seed);
        const CsrStack stack = generateCsrStack(recipe, count, stack_rng);
        ASSERT_EQ(stack.size(), count);
        Rng stack_replay(seed);
        for (std::uint32_t i = 0; i < count; ++i)
            EXPECT_EQ(oneDrawMismatch(recipe, stack[i], stack_replay), "")
                << "plane " << i;
        Rng stack_advanced(seed);
        for (std::uint64_t i = 0; i < count * cells; ++i)
            stack_advanced.next();
        EXPECT_EQ(stack_rng.state(), stack_advanced.state());
    }
}

TEST(Tracegen, MatmulPairShapes)
{
    const MatmulLayer layer{"mm", 300, 8, 8, 1200};
    Rng rng(5);
    const std::uint64_t planes_before = planesGenerated();
    const PlanePair pair =
        makeMatmulPair(layer, 0.5, SparsifyMethod::Bernoulli, rng);
    EXPECT_EQ(planesGenerated() - planes_before, 2u);
    EXPECT_EQ(pair.image.height(), 300u);
    EXPECT_EQ(pair.kernel.height(), 8u);
    EXPECT_EQ(pair.spec.outW(), 1200u);
    EXPECT_NEAR(pair.kernel.sparsity(), 0.5, 0.1);
}

TEST(Tracegen, TopKMethodHitsExactTarget)
{
    const MatmulLayer layer{"mm", 100, 10, 10, 100};
    Rng rng(6);
    const PlanePair pair =
        makeMatmulPair(layer, 0.9, SparsifyMethod::TopK, rng);
    EXPECT_EQ(pair.image.nnz(), 100u); // 1000 * 0.1
}

TEST(SparsityProfile, Presets)
{
    const auto swat = SparsityProfile::swat(0.9);
    EXPECT_DOUBLE_EQ(swat.weight, 0.9);
    EXPECT_DOUBLE_EQ(swat.act, 0.9);
    EXPECT_DOUBLE_EQ(swat.grad, 0.9);
    const auto rs = SparsityProfile::resprop(0.8, 0.6);
    EXPECT_DOUBLE_EQ(rs.grad, 0.8);
    EXPECT_DOUBLE_EQ(rs.act, 0.6);
    EXPECT_DOUBLE_EQ(rs.weight, 0.0);
    const auto topk = SparsityProfile::topK(0.9);
    EXPECT_TRUE(topk.method == SparsifyMethod::TopK);
    const auto dense = SparsityProfile::dense();
    EXPECT_DOUBLE_EQ(dense.weight, 0.0);
}

} // namespace
} // namespace antsim
