#include "tracegen.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "tensor/sparsify.hh"
#include "util/bfloat16.hh"
#include "util/logging.hh"
#include "util/simd.hh"

#if defined(__x86_64__)
#define ANTSIM_X86_SIMD 1
#include <immintrin.h>
#endif

namespace antsim {

namespace {

/** dst[i] = |src[i]| (sign-bit clear, bit-identical to std::fabs). */
void
absArrayScalar(const float *src, float *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

/** Count of data[i] strictly greater than @p threshold. */
std::size_t
countGreaterScalar(const float *data, std::size_t n, float threshold)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] > threshold ? 1 : 0;
    return count;
}

#ifdef ANTSIM_X86_SIMD

__attribute__((target("avx2"))) void
absArrayAvx2(const float *src, float *dst, std::size_t n)
{
    const __m256 mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(dst + i,
                         _mm256_and_ps(_mm256_loadu_ps(src + i), mask));
    }
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

__attribute__((target("avx2"))) std::size_t
countGreaterAvx2(const float *data, std::size_t n, float threshold)
{
    const __m256 t = _mm256_set1_ps(threshold);
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // GT_OQ matches the scalar ordered > (the generated magnitudes
        // are never NaN either way).
        const int mask = _mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(data + i), t, _CMP_GT_OQ));
        count += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(mask)));
    }
    for (; i < n; ++i)
        count += data[i] > threshold ? 1 : 0;
    return count;
}

#endif // ANTSIM_X86_SIMD

void
absArray(const float *src, float *dst, std::size_t n)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled()) {
        absArrayAvx2(src, dst, n);
        return;
    }
#endif
    absArrayScalar(src, dst, n);
}

std::size_t
countGreater(const float *data, std::size_t n, float threshold)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled())
        return countGreaterAvx2(data, n, threshold);
#endif
    return countGreaterScalar(data, n, threshold);
}

std::atomic<std::uint64_t> g_planes_generated{0};

/**
 * Emit one surviving inner-plane value into the CSR arrays under
 * construction. Quantizes to bf16 exactly where the legacy pipeline
 * does (after sparsification, before compression) and drops values the
 * rounding flushed to zero, as fromDense would.
 */
inline void
emitValue(float value, std::uint32_t x, std::uint32_t y,
          const PlaneRecipe &recipe, std::vector<float> &values,
          std::vector<std::uint32_t> &columns,
          std::vector<std::uint32_t> &row_counts)
{
    const float quantized = bf16Round(value);
    if (quantized == 0.0f)
        return;
    values.push_back(quantized);
    columns.push_back(recipe.offset + recipe.dilation * x);
    ++row_counts[recipe.offset + recipe.dilation * y];
}

} // namespace

CsrMatrix
generateCsrPlane(const PlaneRecipe &recipe, Rng &rng)
{
    ANT_ASSERT(recipe.height > 0 && recipe.width > 0,
               "plane recipe needs positive inner dims");
    ANT_ASSERT(recipe.dilation >= 1, "dilation must be at least 1");
    ANT_ASSERT(recipe.offset +
                       recipe.dilation * (recipe.height - 1) <
                   recipe.outHeight &&
               recipe.offset + recipe.dilation * (recipe.width - 1) <
                   recipe.outWidth,
               "embedded plane does not fit: inner ", recipe.height, "x",
               recipe.width, " offset ", recipe.offset, " dilation ",
               recipe.dilation, " into ", recipe.outHeight, "x",
               recipe.outWidth);

    g_planes_generated.fetch_add(1, std::memory_order_relaxed);

    std::vector<float> values;
    std::vector<std::uint32_t> columns;
    // Count entries per embedded row, prefix-summed into rowPtr below.
    // Thread-local scratch: benchmarks generate hundreds of thousands
    // of planes per run and the per-plane malloc shows up.
    static thread_local std::vector<std::uint32_t> row_counts;
    row_counts.assign(recipe.outHeight + 1, 0);

    if (recipe.method == SparsifyMethod::Bernoulli) {
        // Same draw sequence as bernoulliPlane: one Bernoulli trial per
        // cell in row-major order, one normal per surviving cell.
        const double keep_p = 1.0 - recipe.sparsity;
        const std::size_t expected = static_cast<std::size_t>(
            static_cast<double>(recipe.height) * recipe.width * keep_p);
        values.reserve(expected);
        columns.reserve(expected);
        for (std::uint32_t y = 0; y < recipe.height; ++y) {
            for (std::uint32_t x = 0; x < recipe.width; ++x) {
                if (!rng.bernoulli(keep_p))
                    continue;
                float f = static_cast<float>(rng.normal());
                if (f == 0.0f)
                    f = 1e-6f;
                emitValue(f, x, y, recipe, values, columns, row_counts);
            }
        }
    } else {
        // Same draw sequence as randomDensePlane: one normal per cell,
        // then the topKSparsify selection. The kept set is the first
        // `keep` cells under (magnitude desc, position asc) -- i.e.,
        // every cell whose magnitude beats the keep-th largest, plus
        // the earliest-position ties at exactly that threshold -- so a
        // scalar magnitude nth_element plus a tie budget reproduces the
        // legacy index-vector selection bit for bit at a fraction of
        // the memory traffic. Scratch buffers persist per thread:
        // benchmarks generate hundreds of thousands of planes.
        const std::size_t total =
            static_cast<std::size_t>(recipe.height) * recipe.width;
        static thread_local std::vector<float> data;
        static thread_local std::vector<float> mags;
        data.resize(total);
        for (auto &v : data) {
            float f = static_cast<float>(rng.normal());
            if (f == 0.0f)
                f = 1e-6f;
            v = f;
        }
        const auto keep = static_cast<std::size_t>(std::llround(
            static_cast<double>(total) * (1.0 - recipe.sparsity)));
        float threshold = 0.0f;
        std::size_t tie_budget = total;
        if (keep < total && keep > 0) {
            mags.resize(total);
            absArray(data.data(), mags.data(), total);
            std::nth_element(mags.begin(),
                             mags.begin() +
                                 static_cast<std::ptrdiff_t>(keep - 1),
                             mags.end(), std::greater<float>());
            threshold = mags[keep - 1];
            // The partition puts every magnitude above the threshold
            // into the first `keep` slots, so counting strict winners
            // only needs that prefix.
            const std::size_t above =
                countGreater(mags.data(), keep, threshold);
            tie_budget = keep - above;
        }
        values.reserve(keep);
        columns.reserve(keep);
        std::size_t idx = 0;
        for (std::uint32_t y = 0; y < recipe.height && keep > 0; ++y) {
            for (std::uint32_t x = 0; x < recipe.width; ++x, ++idx) {
                const float mag = std::fabs(data[idx]);
                if (mag < threshold)
                    continue;
                if (mag == threshold) {
                    if (tie_budget == 0)
                        continue;
                    --tie_budget;
                }
                emitValue(data[idx], x, y, recipe, values, columns,
                          row_counts);
            }
        }
    }

    // row_counts -> rowPtr (exclusive prefix): shift then accumulate.
    std::vector<std::uint32_t> row_ptr(recipe.outHeight + 1, 0);
    for (std::uint32_t y = 0; y < recipe.outHeight; ++y)
        row_ptr[y + 1] = row_ptr[y] + row_counts[y];

    CsrMatrix plane =
        CsrMatrix::fromRaw(recipe.outHeight, recipe.outWidth,
                           std::move(values), std::move(columns),
                           std::move(row_ptr));
    return recipe.rotate ? plane.rotated180() : plane;
}

std::uint64_t
tracePlanesGenerated()
{
    return g_planes_generated.load(std::memory_order_relaxed);
}

PlaneRecipe
convImageRecipe(const ConvLayer &layer, TrainingPhase phase,
                const SparsityProfile &profile, const PhaseSpecs &specs)
{
    const ProblemSpec &fwd = specs.forward;
    if (phase == TrainingPhase::Backward) {
        // Zero-dilate the gradient by the forward stride and center it
        // in the backward image (the re-padding).
        const ProblemSpec &bwd = specs.backward;
        const std::uint32_t gh = layer.stride * (fwd.outH() - 1) + 1;
        const std::uint32_t offset = (bwd.imageH() - gh) / 2;
        return {fwd.outH(), fwd.outW(), profile.grad, profile.method,
                bwd.imageH(), bwd.imageW(), offset, layer.stride, false};
    }
    return {layer.inH, layer.inW, profile.act, profile.method,
            layer.paddedH(), layer.paddedW(), layer.pad, 1, false};
}

PlaneRecipe
convKernelRecipe(const ConvLayer &layer, TrainingPhase phase,
                 const SparsityProfile &profile, const PhaseSpecs &specs)
{
    const ProblemSpec &fwd = specs.forward;
    if (phase == TrainingPhase::Update) {
        return PlaneRecipe::plain(fwd.outH(), fwd.outW(), profile.grad,
                                  profile.method);
    }
    PlaneRecipe recipe = PlaneRecipe::plain(
        layer.kernel, layer.kernel, profile.weight, profile.method);
    recipe.rotate = phase == TrainingPhase::Backward;
    return recipe;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t c_value)
{
    // SplitMix64-style avalanche over the concatenated stream.
    std::uint64_t x = seed;
    for (std::uint64_t v : {a, b, c_value}) {
        x += 0x9e3779b97f4a7c15ull + v;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x = x ^ (x >> 31);
    }
    return x;
}

Dense2d<float>
generatePlane(std::uint32_t height, std::uint32_t width, double sparsity,
              SparsifyMethod method, Rng &rng)
{
    Dense2d<float> plane = method == SparsifyMethod::Bernoulli
        ? bernoulliPlane(height, width, sparsity, rng)
        : topKSparsify(randomDensePlane(height, width, rng), sparsity);
    // The datapath stores Bfloat16 values (Table 4); quantize here so
    // the whole simulation sees exactly what the hardware would.
    for (float &v : plane.data())
        v = bf16Round(v);
    return plane;
}

Dense2d<float>
embedPlane(const Dense2d<float> &inner, std::uint32_t out_height,
           std::uint32_t out_width, std::uint32_t offset,
           std::uint32_t dilation)
{
    ANT_ASSERT(dilation >= 1, "dilation must be at least 1");
    ANT_ASSERT(offset + dilation * (inner.height() - 1) < out_height &&
               offset + dilation * (inner.width() - 1) < out_width,
               "embedded plane does not fit: inner ", inner.height(), "x",
               inner.width(), " offset ", offset, " dilation ", dilation,
               " into ", out_height, "x", out_width);

    Dense2d<float> out(out_height, out_width);
    for (std::uint32_t y = 0; y < inner.height(); ++y)
        for (std::uint32_t x = 0; x < inner.width(); ++x)
            out.at(offset + dilation * x, offset + dilation * y) =
                inner.at(x, y);
    return out;
}

PlanePair
makeConvPhasePair(const ConvLayer &layer, TrainingPhase phase,
                  const SparsityProfile &profile, Rng &rng)
{
    const PhaseSpecs specs = layer.phaseSpecs();
    // Kernel plane first, then image: the draw order the per-pair API
    // has always used (the fused CSR generator consumes the identical
    // random stream as the legacy dense pipeline).
    CsrMatrix kernel = generateCsrPlane(
        convKernelRecipe(layer, phase, profile, specs), rng);
    CsrMatrix image = generateCsrPlane(
        convImageRecipe(layer, phase, profile, specs), rng);
    switch (phase) {
      case TrainingPhase::Forward:
        return {specs.forward, std::move(kernel), std::move(image)};
      case TrainingPhase::Backward:
        return {specs.backward, std::move(kernel), std::move(image)};
      case TrainingPhase::Update:
        return {specs.update, std::move(kernel), std::move(image)};
    }
    ANT_PANIC("unknown training phase");
}

std::uint64_t
stackTaskCount(const ConvLayer &layer, TrainingPhase phase)
{
    return phase == TrainingPhase::Backward ? layer.outChannels
                                            : layer.inChannels;
}

StackTask
makeConvPhaseTask(const ConvLayer &layer, TrainingPhase phase,
                  const SparsityProfile &profile, Rng &rng)
{
    // Image plane first, then the kernel stack -- the draw order this
    // API has always used (layer_replay and the estimator rely on it;
    // tests/workload_test.cc pins it).
    //
    //  - forward:  task per input channel c -- image = A[c], kernels =
    //    W[k][c] for every output channel k;
    //  - backward: task per output channel k -- image = dilated
    //    G_A[k], kernels = rotated W[k][c] for every input channel c;
    //  - update:   task per input channel c -- image = A[c], kernels =
    //    G_A[k] for every output channel k.
    const PhaseSpecs specs = layer.phaseSpecs();
    const PlaneRecipe image_recipe =
        convImageRecipe(layer, phase, profile, specs);
    const PlaneRecipe kernel_recipe =
        convKernelRecipe(layer, phase, profile, specs);

    auto image = std::make_unique<const CsrMatrix>(
        generateCsrPlane(image_recipe, rng));
    const std::uint32_t stack_size = phase == TrainingPhase::Backward
        ? layer.inChannels
        : layer.outChannels;
    std::vector<CsrMatrix> kernels;
    kernels.reserve(stack_size);
    for (std::uint32_t i = 0; i < stack_size; ++i)
        kernels.push_back(generateCsrPlane(kernel_recipe, rng));

    switch (phase) {
      case TrainingPhase::Forward:
        return {specs.forward, std::move(kernels), std::move(image)};
      case TrainingPhase::Backward:
        return {specs.backward, std::move(kernels), std::move(image)};
      case TrainingPhase::Update:
        return {specs.update, std::move(kernels), std::move(image)};
    }
    ANT_PANIC("unknown training phase");
}

PlanePair
makeMatmulPair(const MatmulLayer &layer, double sparsity,
               SparsifyMethod method, Rng &rng)
{
    // Image first, then kernel: the legacy draw order.
    CsrMatrix image = generateCsrPlane(
        PlaneRecipe::plain(layer.imageH, layer.imageW, sparsity, method),
        rng);
    CsrMatrix kernel = generateCsrPlane(
        PlaneRecipe::plain(layer.kernelR, layer.kernelS, sparsity, method),
        rng);
    return {layer.spec(), std::move(kernel), std::move(image)};
}

} // namespace antsim
