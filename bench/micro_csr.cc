/**
 * @file
 * Google-benchmark microbenchmarks of the sparse-tensor substrate:
 * CSR compression, rotation (Algorithm 3), transpose, and chunking.
 */

#include <benchmark/benchmark.h>

#include "sim/chunking.hh"
#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

Dense2d<float>
plane(std::uint32_t dim, double sparsity)
{
    Rng rng(dim);
    return bernoulliPlane(dim, dim, sparsity, rng);
}

void
BM_CsrFromDense(benchmark::State &state)
{
    const auto dense = plane(static_cast<std::uint32_t>(state.range(0)),
                             0.9);
    for (auto _ : state) {
        auto csr = CsrMatrix::fromDense(dense);
        benchmark::DoNotOptimize(csr);
    }
    state.SetItemsProcessed(state.iterations() * dense.size());
}
BENCHMARK(BM_CsrFromDense)->Arg(32)->Arg(128)->Arg(256);

void
BM_CsrRotate(benchmark::State &state)
{
    const auto csr = CsrMatrix::fromDense(
        plane(static_cast<std::uint32_t>(state.range(0)), 0.9));
    for (auto _ : state) {
        auto rotated = csr.rotated180();
        benchmark::DoNotOptimize(rotated);
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_CsrRotate)->Arg(32)->Arg(128)->Arg(256);

void
BM_CsrTranspose(benchmark::State &state)
{
    const auto csr = CsrMatrix::fromDense(
        plane(static_cast<std::uint32_t>(state.range(0)), 0.9));
    for (auto _ : state) {
        auto transposed = csr.transposed();
        benchmark::DoNotOptimize(transposed);
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_CsrTranspose)->Arg(32)->Arg(128)->Arg(256);

void
BM_ChunkByCapacity(benchmark::State &state)
{
    const auto csr = CsrMatrix::fromDense(plane(256, 0.5));
    for (auto _ : state) {
        auto chunks = chunkByCapacity(csr, 4096);
        benchmark::DoNotOptimize(chunks);
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_ChunkByCapacity);

} // namespace
} // namespace antsim

BENCHMARK_MAIN();
