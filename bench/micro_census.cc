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
#include "util/simd.hh"
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
    for (auto _ : state) {
        const CensusContext context(spec, image);
        ProductCensus census;
        for (const CsrMatrix &kernel : kernels)
            census += context.countProducts(kernel);
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
    for (auto _ : state) {
        Rng rng(42);
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

} // namespace

/**
 * Scalar-vs-AVX2 pairs for the perf gate (scripts/check_perf.py reads
 * the pair names from perf_baseline.json "micro_speedups"): the same
 * body with the dispatch mode pinned, so the ratio isolates the vector
 * kernels. The AVX2 variants are registered only on AVX2 hardware
 * (see main below); the gate skips a pair whose AVX2 half is absent.
 * Namespace-scope (not anonymous) so main can register the AVX2 halves.
 */
void
censusBuildWithMode(benchmark::State &state, simd::Mode mode)
{
    const simd::Mode saved = simd::mode();
    simd::setMode(mode);
    const std::uint32_t dim = 56;
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim, 2);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    for (auto _ : state) {
        const CensusContext context(spec, image);
        benchmark::DoNotOptimize(context);
    }
    state.SetItemsProcessed(state.iterations() * image.nnz());
    simd::setMode(saved);
}

namespace {

void
BM_CensusBuildScalar(benchmark::State &state)
{
    censusBuildWithMode(state, simd::Mode::Scalar);
}
BENCHMARK(BM_CensusBuildScalar);

} // namespace

void
censusStackWithMode(benchmark::State &state, simd::Mode mode)
{
    const simd::Mode saved = simd::mode();
    simd::setMode(mode);
    const std::uint32_t dim = 56;
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    const auto kernels = kernelStack(3, 0.9);
    for (auto _ : state) {
        const CensusContext context(spec, image);
        ProductCensus census;
        for (const CsrMatrix &kernel : kernels)
            census += context.countProducts(kernel);
        benchmark::DoNotOptimize(census);
    }
    state.SetItemsProcessed(state.iterations() * kStackKernels);
    simd::setMode(saved);
}

namespace {

void
BM_CensusStackScalar(benchmark::State &state)
{
    censusStackWithMode(state, simd::Mode::Scalar);
}
BENCHMARK(BM_CensusStackScalar);

} // namespace

/**
 * Kernel-level gate pair: the census hot loop in isolation
 * (census_kernels, conv/census.hh), where the speedup target of the
 * SIMD work is defined. The whole-build pairs above include table
 * allocation and the O(nnz) census-point scatter, which dilute the
 * kernel ratio on small conv shapes.
 */
void
satIntegrateWithMode(benchmark::State &state, simd::Mode mode)
{
    const simd::Mode saved = simd::mode();
    simd::setMode(mode);
    // L1-resident working set (8 x 1024 x 4B = 32 KB): the production
    // tables are one image row per integration step, so the kernel is
    // compute-bound in situ; a larger set here would measure DRAM.
    constexpr std::size_t kRows = 8;
    constexpr std::size_t kCols = 1024;
    std::vector<std::uint32_t> table(kRows * kCols);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<std::uint32_t>(i % 3 == 0);
    for (auto _ : state) {
        for (std::size_t v = 1; v < kRows; ++v)
            census_kernels::satIntegrateRow(table.data() + v * kCols,
                                            table.data() + (v - 1) * kCols,
                                            kCols);
        benchmark::DoNotOptimize(table.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * (kRows - 1) * kCols);
    simd::setMode(saved);
}

namespace {

void
BM_SatIntegrateScalar(benchmark::State &state)
{
    satIntegrateWithMode(state, simd::Mode::Scalar);
}
BENCHMARK(BM_SatIntegrateScalar);

} // namespace
} // namespace antsim

int
main(int argc, char **argv)
{
    // The AVX2 halves of the perf-gate pairs exist only where they can
    // run; scripts/check_perf.py treats a missing AVX2 benchmark as
    // "skip the pair", not as a regression.
    if (antsim::simd::cpuHasAvx2()) {
        benchmark::RegisterBenchmark(
            "BM_CensusBuildAvx2", [](benchmark::State &state) {
                antsim::censusBuildWithMode(state, antsim::simd::Mode::Avx2);
            });
        benchmark::RegisterBenchmark(
            "BM_CensusStackAvx2", [](benchmark::State &state) {
                antsim::censusStackWithMode(state, antsim::simd::Mode::Avx2);
            });
        benchmark::RegisterBenchmark(
            "BM_SatIntegrateAvx2", [](benchmark::State &state) {
                antsim::satIntegrateWithMode(state, antsim::simd::Mode::Avx2);
            });
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
