/**
 * @file
 * Google-benchmark microbenchmarks of the census engine: brute-force
 * countProducts vs CensusContext, single-kernel and stack-amortized
 * (the SCNN counting path runs one context against every kernel of a
 * stack), plus the fused CSR plane generator.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/bfloat16.hh"
#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

CsrMatrix
csrPlane(std::uint32_t height, std::uint32_t width, double sparsity,
         std::uint64_t seed)
{
    Rng rng(seed);
    return CsrMatrix::fromDense(
        bernoulliPlane(height, width, sparsity, rng));
}

/** The ResNet-like stack shape the SCNN counting path sees. */
constexpr std::uint32_t kStackKernels = 64;

std::vector<CsrMatrix>
kernelStack(std::uint32_t kernel, double sparsity)
{
    std::vector<CsrMatrix> kernels;
    kernels.reserve(kStackKernels);
    for (std::uint32_t k = 0; k < kStackKernels; ++k)
        kernels.push_back(csrPlane(kernel, kernel, sparsity, 1000 + k));
    return kernels;
}

void
BM_BruteCensusStack(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    const auto kernels = kernelStack(3, 0.9);
    for (auto _ : state) {
        ProductCensus census;
        for (const CsrMatrix &kernel : kernels)
            census += countProducts(spec, kernel, image);
        benchmark::DoNotOptimize(census);
    }
    state.SetItemsProcessed(state.iterations() * kStackKernels);
}
BENCHMARK(BM_BruteCensusStack)->Arg(16)->Arg(32)->Arg(56);

void
BM_CensusContextStack(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    const auto kernels = kernelStack(3, 0.9);
    std::vector<const CsrMatrix *> stack;
    for (const CsrMatrix &kernel : kernels)
        stack.push_back(&kernel);
    for (auto _ : state) {
        const ProductCensus census =
            CensusContext(spec, image).countProducts(stack);
        benchmark::DoNotOptimize(census);
    }
    state.SetItemsProcessed(state.iterations() * kStackKernels);
}
BENCHMARK(BM_CensusContextStack)->Arg(16)->Arg(32)->Arg(56);

void
BM_CensusContextBuild(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    // Stride 2 exercises all four residue-class tables.
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim, 2);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    for (auto _ : state) {
        const CensusContext context(spec, image);
        benchmark::DoNotOptimize(context);
    }
    state.SetItemsProcessed(state.iterations() * image.nnz());
}
BENCHMARK(BM_CensusContextBuild)->Arg(16)->Arg(32)->Arg(56);

/**
 * A padded height x width plane at the sparsity percentage of the third
 * argument; items are its cells.
 */
void
BM_FusedPlaneGenerator(benchmark::State &state, SparsifyMethod method)
{
    const auto height = static_cast<std::uint32_t>(state.range(0));
    const auto width = static_cast<std::uint32_t>(state.range(1));
    const double sparsity = static_cast<double>(state.range(2)) / 100.0;
    PlaneRecipe recipe = PlaneRecipe::plain(height, width, sparsity, method);
    recipe.outHeight = height + 2;
    recipe.outWidth = width + 2;
    recipe.offset = 1;
    // Seeded once: each iteration draws the next plane of one stream,
    // so no two iterations see the same kept-cell pattern.
    Rng rng(42);
    for (auto _ : state) {
        auto csr = generateCsrPlane(recipe, rng);
        benchmark::DoNotOptimize(csr);
    }
    state.SetItemsProcessed(state.iterations() * height * width);
}
BENCHMARK_CAPTURE(BM_FusedPlaneGenerator, topk, SparsifyMethod::TopK)
    ->Args({32, 32, 90})
    ->Args({56, 56, 90})
    ->Args({128, 128, 90})
    ->Args({72, 512, 90});
// fig10's shapes: dense and 85%-sparse 3x3 kernels, and 32x32 planes
// dense, at the mid densities of its update-phase gradients (where the
// kept branch is least predictable) and at 85%.
BENCHMARK_CAPTURE(BM_FusedPlaneGenerator, bernoulli,
                  SparsifyMethod::Bernoulli)
    ->Args({56, 56, 90})
    ->Args({3, 3, 0})
    ->Args({3, 3, 85})
    ->Args({32, 32, 0})
    ->Args({32, 32, 30})
    ->Args({32, 32, 50})
    ->Args({32, 32, 70})
    ->Args({32, 32, 85});

/**
 * A runner unit's kernel stack: Args(planes, dim, sparsity %) of
 * dim x dim kernel planes, generated into one slab (generateCsrStack).
 * Items are cells.
 */
void
BM_KernelStackGenerator(benchmark::State &state, SparsifyMethod method)
{
    const auto count = static_cast<std::uint32_t>(state.range(0));
    const auto dim = static_cast<std::uint32_t>(state.range(1));
    const double sparsity = static_cast<double>(state.range(2)) / 100.0;
    const PlaneRecipe recipe = PlaneRecipe::plain(dim, dim, sparsity, method);
    // Seeded once, as in BM_FusedPlaneGenerator.
    Rng rng(42);
    for (auto _ : state) {
        auto stack = generateCsrStack(recipe, count, rng);
        benchmark::DoNotOptimize(stack);
    }
    state.SetItemsProcessed(state.iterations() * count * dim * dim);
}
// fig10's stacks: dense 3x3 weights, and update-phase gradients of
// 32x32 at 42% and 4x4 at 90%.
BENCHMARK_CAPTURE(BM_KernelStackGenerator, bernoulli,
                  SparsifyMethod::Bernoulli)
    ->Args({512, 3, 0})
    ->Args({64, 32, 42})
    ->Args({512, 4, 90});
// fig9's ResNet50 stacks: 7x7 weights and 56x56 update gradients.
BENCHMARK_CAPTURE(BM_KernelStackGenerator, topk, SparsifyMethod::TopK)
    ->Args({2048, 7, 90})
    ->Args({256, 56, 90});

} // namespace
} // namespace antsim

BENCHMARK_MAIN();
