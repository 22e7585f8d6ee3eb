/**
 * @file
 * Google-benchmark microbenchmarks of the FNIR block and the ANT PE's
 * counting runs at bench shapes -- host-side throughput of the
 * simulator itself (useful when scaling simulations up, not a paper
 * figure).
 */

#include <benchmark/benchmark.h>

#include "ant/ant_pe.hh"
#include "ant/fnir.hh"
#include "scnn/scnn_pe.hh"
#include "sim/chunking.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

void
BM_FnirEvaluate(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    const Fnir fnir(n, k);
    Rng rng(1);
    std::vector<std::uint32_t> window(k);
    for (auto &v : window)
        v = static_cast<std::uint32_t>(rng.range(0, 31));
    CounterSet counters;
    for (auto _ : state) {
        auto result = fnir.evaluate(window, 8, 23, counters);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_FnirEvaluate)
    ->Args({4, 16})
    ->Args({4, 32})
    ->Args({8, 32});

/** One of the FNIR comparator banks (Fnir::rangeBitsScalar, ...Avx2). */
using RangeBitsBank = void (*)(const std::uint32_t *, std::size_t,
                               std::int64_t, std::int64_t, std::uint64_t *);

/**
 * The comparator bank over one group's candidate stream at fig10's
 * update shape, as the ANT PE's counting walk runs it: the columns of
 * rows 8-10 of 256 32x32 gradient planes at 42% sparsity (14,193
 * candidates in [0, 32)) against the range [12, 17]. The AVX2 half is
 * registered only on AVX2 CPUs (see main below); scripts/check_perf.py
 * gates the pair's CPU-time ratio (perf_baseline.json
 * "micro_speedups"). Items are candidates.
 */
void
rangeBitsOnFig10Stream(benchmark::State &state, RangeBitsBank bank)
{
    Rng rng(7);
    const CsrStack planes = generateCsrStack(
        PlaneRecipe::plain(32, 32, 0.42, SparsifyMethod::Bernoulli), 256,
        rng);
    std::vector<std::uint32_t> stream;
    for (const CsrMatrix &plane : planes) {
        const auto row_ptr = plane.rowPtr();
        const auto columns = plane.columns();
        stream.insert(stream.end(), columns.begin() + row_ptr[8],
                      columns.begin() + row_ptr[11]);
    }
    std::vector<std::uint64_t> bits((stream.size() + 63) / 64);
    for (auto _ : state) {
        bank(stream.data(), stream.size(), 12, 17, bits.data());
        benchmark::DoNotOptimize(bits.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}

void
BM_FnirRangeBitsScalar(benchmark::State &state)
{
    rangeBitsOnFig10Stream(state, Fnir::rangeBitsScalar);
}
BENCHMARK(BM_FnirRangeBitsScalar);

/** Products a counting run executes: the benchmark's item count. */
std::int64_t
executedProducts(const PeResult &result)
{
    return static_cast<std::int64_t>(
        result.counters.get(Counter::MultsExecuted));
}

/**
 * ANT counting run on one fig10 ResNet18 task: 256 dense 3x3 weight
 * planes against a 34x34 padded activation plane at 85% sparsity
 * (forward, first arg 0), 64 rotated dense 3x3 weight planes against a
 * padded 32x32 gradient plane at 42% (backward, first arg 1, fig10's
 * largest ANT phase), or 256 32x32 gradient planes at 42% against the
 * activations (update, first arg 2). The second arg picks the
 * dataflow: 0 image stationary, 1 kernel stationary. Items are
 * executed products.
 */
void
BM_AntConvStackCounting(benchmark::State &state)
{
    const ConvLayer layer{"fig10", 64, 256, 32, 32, 3, 1, 1};
    Rng rng(7);
    const StackTask task = makeConvPhaseTask(
        layer, static_cast<TrainingPhase>(state.range(0)),
        SparsityProfile::resprop(0.42, 0.85), rng);
    const auto kernels = task.kernelPtrs();
    AntPeConfig config;
    if (state.range(1) != 0)
        config.dataflow = AntDataflow::KernelStationary;
    AntPe pe(config);
    std::int64_t executed = 0;
    for (auto _ : state) {
        auto result = pe.runStack(task.spec, kernels, *task.image, false);
        executed = executedProducts(result);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * executed);
}
BENCHMARK(BM_AntConvStackCounting)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1});

/**
 * ANT counting run on one sec78 proj_upd chunk pair (72x512 image,
 * 512x512 kernel, top-K at the argument's sparsity in percent, 4096
 * entries per chunk): the middle kernel chunk against the first image
 * chunk. Items are executed products.
 */
void
BM_AntMatmulChunkCounting(benchmark::State &state)
{
    const MatmulLayer layer{"proj_upd", 72, 512, 512, 512};
    Rng rng(7);
    const PlanePair pair =
        makeMatmulPair(layer, static_cast<double>(state.range(0)) / 100.0,
                       SparsifyMethod::TopK, rng);
    const std::vector<CsrMatrix> kernels = chunkByCapacity(pair.kernel, 4096);
    const std::vector<CsrMatrix> images = chunkByCapacity(pair.image, 4096);
    const CsrMatrix &kernel = kernels[kernels.size() / 2];
    AntPe pe;
    std::int64_t executed = 0;
    for (auto _ : state) {
        auto result = pe.runPair(pair.spec, kernel, images.front(), false);
        executed = executedProducts(result);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * executed);
}
BENCHMARK(BM_AntMatmulChunkCounting)->Arg(0)->Arg(50)->Arg(90);

void
BM_ScnnPePairCounting(benchmark::State &state)
{
    const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(7);
    const auto kernel =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, sparsity, rng));
    const auto image =
        CsrMatrix::fromDense(bernoulliPlane(16, 16, sparsity, rng));
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    ScnnPe pe;
    for (auto _ : state) {
        auto result = pe.runPair(spec, kernel, image, false);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ScnnPePairCounting)->Arg(50)->Arg(90);

} // namespace
} // namespace antsim

int
main(int argc, char **argv)
{
#if defined(__x86_64__)
    // The AVX2 half of the gate pair exists only where it can run;
    // scripts/check_perf.py skips a pair whose AVX2 benchmark is absent.
    if (antsim::Fnir::hasAvx2Bank()) {
        benchmark::RegisterBenchmark(
            "BM_FnirRangeBitsAvx2", [](benchmark::State &state) {
                antsim::rangeBitsOnFig10Stream(state,
                                               antsim::Fnir::rangeBitsAvx2);
            });
    }
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
