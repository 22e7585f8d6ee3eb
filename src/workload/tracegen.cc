#include "tracegen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "obs/metrics.hh"
#include "util/bfloat16.hh"
#include "util/logging.hh"
#include "util/simd.hh"

#if defined(__x86_64__)
#define ANTSIM_X86_SIMD 1
#include <immintrin.h>
#endif

namespace antsim {

using obs::metrics::ProfileCount;

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

/**
 * Writes a plane's CSR entries into scratch arrays sized for every cell
 * of the plane, through cursors a local writer keeps in registers. A
 * row's entry count is the cursor's advance over the row, stored at
 * row_ptr[row + 1] of the embedded row (prefix-summed later).
 */
class EntryWriter
{
  public:
    EntryWriter(const PlaneRecipe &recipe, float *values,
                std::uint32_t *columns, std::uint32_t *row_ptr)
        : offset_(recipe.offset), dilation_(recipe.dilation),
          value_(values), column_(columns), columnsBegin_(columns),
          rowStart_(columns), rowPtr_(row_ptr)
    {}

    /** Append an entry of inner column @p x. */
    void
    put(float value, std::uint32_t x)
    {
        *value_++ = value;
        *column_++ = offset_ + dilation_ * x;
    }

    /** Close inner row @p y: count its entries in its embedded row. */
    void
    endRow(std::uint32_t y)
    {
        rowPtr_[offset_ + dilation_ * y + 1] =
            static_cast<std::uint32_t>(column_ - rowStart_);
        rowStart_ = column_;
    }

    /** Entries written so far. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(column_ - columnsBegin_);
    }

  private:
    std::uint32_t offset_;
    std::uint32_t dilation_;
    float *value_;
    std::uint32_t *column_;
    const std::uint32_t *columnsBegin_;
    const std::uint32_t *rowStart_;
    std::uint32_t *rowPtr_;
};

/**
 * A kept Bernoulli cell's value, from the angle uniform @p u2 of the
 * normal the stream draws for it: with m = floor(256 u2), it is
 * (-1)^[m >= 128] (1 + (m mod 128) / 128). No counter reads a value,
 * so the Box-Muller transform is skipped; the value is non-zero and
 * bf16-exact (seven mantissa bits), built from its float bits without
 * a branch.
 */
inline float
bernoulliValue(double u2)
{
    const auto m = static_cast<std::uint32_t>(u2 * 256.0);
    return std::bit_cast<float>((m & 0x80u) << 24 | 0x3f800000u |
                                (m & 0x7fu) << 16);
}

/**
 * Cells a top-K plane of @p cells cells keeps at @p sparsity:
 * llround(cells * (1 - sparsity)).
 */
std::size_t
topKKeep(std::size_t cells, double sparsity)
{
    return static_cast<std::size_t>(std::llround(
        static_cast<double>(cells) * (1.0 - sparsity)));
}

/**
 * x with P(Z >= x) = @p tail for a standard normal Z, 0 < tail <= 0.5
 * (Abramowitz & Stegun 26.2.23; absolute error below 4.5e-4).
 */
double
normalUpperQuantile(double tail)
{
    const double t = std::sqrt(-2.0 * std::log(tail));
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) /
        (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)));
}

/** A top-K cell's value: exact zeros become 1e-6, as in the legacy
 *  randomDensePlane. */
float
topKValue(double normal)
{
    const float f = static_cast<float>(normal);
    return f == 0.0f ? 1e-6f : f;
}

/**
 * Where a top-K selection cuts: the keep-th largest magnitude, and how
 * many cells at exactly that magnitude survive (the earliest-position
 * ties).
 */
struct KeepThreshold
{
    float threshold = 0.0f;
    std::size_t tieBudget = 0;
};

/** The threshold keeping @p keep of mags[0, count), 0 < keep <= count
 *  (reorders those magnitudes). */
KeepThreshold
keepThreshold(std::vector<float> &mags, std::size_t count, std::size_t keep)
{
    const auto first = mags.begin();
    std::nth_element(first, first + static_cast<std::ptrdiff_t>(keep - 1),
                     first + static_cast<std::ptrdiff_t>(count),
                     std::greater<float>());
    const float threshold = mags[keep - 1];
    // The partition puts every magnitude above the threshold into the
    // first `keep` slots, so counting strict winners only needs that
    // prefix.
    return {threshold, keep - countGreater(mags.data(), keep, threshold)};
}

/**
 * The plane generator behind generateCsrPlane and generateTopKPlane,
 * pre-filtering a top-K plane with @p cut (ignored for Bernoulli
 * recipes).
 */
TopKPlane
buildPlane(const PlaneRecipe &recipe, const std::optional<TopKCut> &cut,
           Rng &rng)
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

    // Thread-local scratch: benchmarks generate millions of planes per
    // run, and with the arrays reused the finished plane's arena slab
    // is its only allocation. values and columns hold the largest
    // plane's cell count so far, which bounds any plane's entries, so
    // the writer needs no capacity check. They are left uninitialized,
    // so growing them touches no page: resident memory follows the
    // entries written, not the cells. row_ptr counts entries per
    // embedded row at [row + 1] and is prefix-summed below.
    const std::size_t total =
        static_cast<std::size_t>(recipe.height) * recipe.width;
    static thread_local std::size_t capacity = 0;
    static thread_local std::unique_ptr<float[]> values;
    static thread_local std::unique_ptr<std::uint32_t[]> columns;
    static thread_local std::vector<std::uint32_t> row_ptr;
    if (capacity < total) {
        values = std::make_unique_for_overwrite<float[]>(total);
        columns = std::make_unique_for_overwrite<std::uint32_t[]>(total);
        capacity = total;
    }
    row_ptr.assign(recipe.outHeight + 1, 0);
    EntryWriter writer(recipe, values.get(), columns.get(), row_ptr.data());

    bool prefiltered = false;
    if (recipe.method == SparsifyMethod::Bernoulli) {
        // Same draw sequence as bernoulliPlane: one Bernoulli trial per
        // cell in row-major order, one normal's uniforms per kept cell.
        // The trial is bernoulli(keep_p)'s integer form, and the values
        // skip the Box-Muller transform (bernoulliValue) and need
        // neither bf16Round nor the zero drop. The loop runs on a local
        // copy of the Rng and on local bounds, which the writer's stores
        // cannot alias, so the state, bounds and cursors stay in
        // registers.
        const std::uint64_t keep =
            Rng::bernoulliThreshold(1.0 - recipe.sparsity);
        const std::uint32_t height = recipe.height;
        const std::uint32_t width = recipe.width;
        Rng local = rng;
        for (std::uint32_t y = 0; y < height; ++y) {
            for (std::uint32_t x = 0; x < width; ++x) {
                if (local.bernoulliBelow(keep))
                    writer.put(bernoulliValue(local.drawNormal().u2), x);
            }
            writer.endRow(y);
        }
        rng = local;
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
        const std::size_t keep = topKKeep(total, recipe.sparsity);
        const bool selects = keep > 0 && keep < total;
        static thread_local std::vector<float> data;
        static thread_local std::vector<float> mags;
        data.resize(total);
        if (selects)
            mags.resize(total);
        // Threshold 0 keeps every cell (no value is zero): keep == total.
        KeepThreshold selection{0.0f, total};
        if (cut && selects) {
            // The pre-filter (TopKCut): draw every cell's uniforms in
            // stream order but transform only the candidates. The rest
            // stay 0 in data, below any threshold the check accepts.
            const Rng start = rng;
            std::size_t candidates = 0;
            for (float &v : data) {
                const Rng::NormalDraw draw = rng.drawNormal();
                v = 0.0f;
                if (draw.u1 <= cut->ucut) {
                    v = topKValue(Rng::boxMuller(draw));
                    mags[candidates++] = std::fabs(v);
                }
            }
            if (candidates >= keep) {
                selection = keepThreshold(mags, candidates, keep);
                prefiltered = selection.threshold > cut->bound;
            }
            if (!prefiltered)
                rng = start; // fall back: redraw on the full path
        }
        if (!prefiltered) {
            for (float &v : data)
                v = topKValue(rng.normal());
            if (selects) {
                absArray(data.data(), mags.data(), total);
                selection = keepThreshold(mags, total, keep);
            }
        }
        // Quantize to bf16 exactly where the legacy pipeline does
        // (after sparsification, before compression), and drop values
        // the rounding flushed to zero, as fromDense would.
        std::size_t idx = 0;
        for (std::uint32_t y = 0; y < recipe.height && keep > 0; ++y) {
            for (std::uint32_t x = 0; x < recipe.width; ++x, ++idx) {
                const float mag = std::fabs(data[idx]);
                if (mag < selection.threshold)
                    continue;
                if (mag == selection.threshold) {
                    if (selection.tieBudget == 0)
                        continue;
                    --selection.tieBudget;
                }
                const float quantized = bf16Round(data[idx]);
                if (quantized != 0.0f)
                    writer.put(quantized, x);
            }
            writer.endRow(y);
        }
    }

    const std::size_t nnz = writer.size();
    const std::span<float> entry_values(values.get(), nnz);
    const std::span<std::uint32_t> entry_columns(columns.get(), nnz);
    if (recipe.rotate) {
        // rotated180 in place: y' = H - 1 - y and x' = W - 1 - x reverse
        // the row-major entry order, so reverse the arrays and the
        // per-row counts, and mirror the columns.
        std::ranges::reverse(entry_values);
        std::ranges::reverse(entry_columns);
        for (std::uint32_t &x : entry_columns)
            x = recipe.outWidth - 1 - x;
        std::reverse(row_ptr.begin() + 1, row_ptr.end());
    }
    for (std::uint32_t y = 0; y < recipe.outHeight; ++y)
        row_ptr[y + 1] += row_ptr[y];
    return {CsrMatrix::fromRaw(recipe.outHeight, recipe.outWidth,
                               entry_values, entry_columns, row_ptr),
            prefiltered};
}

} // namespace

TopKCut
TopKCut::atRadius(double rho)
{
    return {std::exp(-0.5 * rho * rho), rho * (1.0 + 1e-6)};
}

std::optional<TopKCut>
TopKCut::forPlane(const PlaneRecipe &recipe)
{
    if (recipe.method != SparsifyMethod::TopK)
        return std::nullopt;
    const std::size_t cells =
        static_cast<std::size_t>(recipe.height) * recipe.width;
    const std::size_t keep = topKKeep(cells, recipe.sparsity);
    if (keep == 0 || keep >= cells)
        return std::nullopt;
    const double n = static_cast<double>(cells);
    const double p = static_cast<double>(keep) / n;
    const double tail = p + 6.0 * std::sqrt(p * (1.0 - p) / n) + 4.0 / n;
    // Past this tail over 95% of the cells would be candidates, and the
    // full path is as fast or faster (docs/MODEL.md Sec. 10).
    if (tail > 0.75)
        return std::nullopt;
    return atRadius(normalUpperQuantile(0.5 * tail));
}

CsrMatrix
generateCsrPlane(const PlaneRecipe &recipe, Rng &rng)
{
    return buildPlane(recipe, TopKCut::forPlane(recipe), rng).plane;
}

TopKPlane
generateTopKPlane(const PlaneRecipe &recipe,
                  const std::optional<TopKCut> &cut, Rng &rng)
{
    ANT_ASSERT(recipe.method == SparsifyMethod::TopK,
               "generateTopKPlane needs a top-K recipe");
    return buildPlane(recipe, cut, rng);
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

PlanePair
makeConvPhasePair(const ConvLayer &layer, TrainingPhase phase,
                  const SparsityProfile &profile, Rng &rng)
{
    const PhaseSpecs specs = layer.phaseSpecs();
    // Kernel plane first, then image: the draw order the per-pair API
    // has always used (the fused CSR generator consumes the identical
    // random stream as the legacy dense pipeline).
    obs::metrics::profileCount(ProfileCount::TracePlanesGenerated, 2);
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
    // API has always used (layer_replay relies on it;
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

    const std::uint32_t stack_size = phase == TrainingPhase::Backward
        ? layer.inChannels
        : layer.outChannels;
    obs::metrics::profileCount(ProfileCount::TracePlanesGenerated,
                               1 + static_cast<std::uint64_t>(stack_size));
    auto image = std::make_unique<const CsrMatrix>(
        generateCsrPlane(image_recipe, rng));
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
    obs::metrics::profileCount(ProfileCount::TracePlanesGenerated, 2);
    CsrMatrix image = generateCsrPlane(
        PlaneRecipe::plain(layer.imageH, layer.imageW, sparsity, method),
        rng);
    CsrMatrix kernel = generateCsrPlane(
        PlaneRecipe::plain(layer.kernelR, layer.kernelS, sparsity, method),
        rng);
    return {layer.spec(), std::move(kernel), std::move(image)};
}

} // namespace antsim
