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

namespace antsim {

using obs::metrics::ProfileCount;

namespace {

/** dst[i] = |src[i]|. */
void
absArray(const float *src, float *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

/** Count of data[i] strictly greater than @p threshold. */
std::size_t
countGreater(const float *data, std::size_t n, float threshold)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] > threshold ? 1 : 0;
    return count;
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
 * A kept Bernoulli cell's value, from @p m = floor(256 u2) of the angle
 * uniform u2 of the normal the stream draws for it
 * (Rng::drawNormalAngleByte): (-1)^[m >= 128] (1 + (m mod 128) / 128).
 * No counter reads a value, so the Box-Muller transform is skipped;
 * the value is non-zero and bf16-exact (seven mantissa bits), built
 * from its float bits without a branch.
 */
inline float
bernoulliValue(std::uint32_t m)
{
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

/** Entries the plane drawn last stored, and whether its top-K
 *  pre-filtered result was taken. */
struct DrawnPlane
{
    std::size_t nnz = 0;
    bool prefiltered = false;
};

/**
 * One recipe's plane generator: the recipe's invariants (the embedding
 * check, the Bernoulli threshold, the top-K keep count and cut) are
 * computed once, and draw() then makes any number of planes in stream
 * order, generateCsrPlane's and generateCsrStack's alike.
 */
class PlaneGenerator
{
  public:
    /** The generator of @p recipe, pre-filtering a top-K plane with
     *  @p cut (ignored for Bernoulli recipes). */
    PlaneGenerator(const PlaneRecipe &recipe, std::optional<TopKCut> cut)
        : recipe_(recipe),
          cells_(static_cast<std::size_t>(recipe.height) * recipe.width),
          cut_(cut)
    {
        ANT_ASSERT(recipe.height > 0 && recipe.width > 0,
                   "plane recipe needs positive inner dims");
        ANT_ASSERT(recipe.dilation >= 1, "dilation must be at least 1");
        ANT_ASSERT(recipe.offset +
                           recipe.dilation * (recipe.height - 1) <
                       recipe.outHeight &&
                   recipe.offset + recipe.dilation * (recipe.width - 1) <
                       recipe.outWidth,
                   "embedded plane does not fit: inner ", recipe.height,
                   "x", recipe.width, " offset ", recipe.offset,
                   " dilation ", recipe.dilation, " into ",
                   recipe.outHeight, "x", recipe.outWidth);
        if (recipe.method == SparsifyMethod::Bernoulli) {
            bernoulliKeep_ = Rng::bernoulliThreshold(1.0 - recipe.sparsity);
            maxEntries_ = cells_;
        } else {
            topKKeep_ = topKKeep(cells_, recipe.sparsity);
            maxEntries_ = topKKeep_;
        }
    }

    /** The most entries one plane can store. */
    std::size_t maxEntries() const { return maxEntries_; }

    /**
     * Draw the next plane into @p slot, which has room for maxEntries()
     * entries and zeroed outHeight + 1 row pointers: the entries in
     * row-major order of the final (rotated) plane, and the row
     * pointers prefix-summed.
     */
    DrawnPlane
    draw(const CsrStack::PlaneSlot &slot, Rng &rng) const
    {
        EntryWriter writer(recipe_, slot.values, slot.columns, slot.rowPtr);
        DrawnPlane drawn;
        if (recipe_.method == SparsifyMethod::Bernoulli)
            drawBernoulli(writer, rng);
        else
            drawn.prefiltered = drawTopK(writer, rng);
        drawn.nnz = writer.size();
        if (recipe_.rotate) {
            // rotated180 in place: y' = H - 1 - y and x' = W - 1 - x
            // reverse the row-major entry order, so reverse the arrays
            // and the per-row counts, and mirror the columns.
            std::ranges::reverse(std::span(slot.values, drawn.nnz));
            const std::span<std::uint32_t> columns(slot.columns, drawn.nnz);
            std::ranges::reverse(columns);
            for (std::uint32_t &x : columns)
                x = recipe_.outWidth - 1 - x;
            std::reverse(slot.rowPtr + 1, slot.rowPtr + recipe_.outHeight + 1);
        }
        for (std::uint32_t y = 0; y < recipe_.outHeight; ++y)
            slot.rowPtr[y + 1] += slot.rowPtr[y];
        return drawn;
    }

  private:
    /**
     * Same draw sequence as bernoulliPlane: one Bernoulli trial per cell
     * in row-major order, one normal's uniforms per kept cell. The trial
     * is bernoulli(keep_p)'s integer form, and a kept cell reads only
     * the integer angle byte of its normal (bernoulliValue), so the loop
     * does no floating-point work and needs neither bf16Round nor the
     * zero drop. It runs on a local copy of the Rng and on local bounds,
     * which the writer's stores cannot alias, so the state, bounds and
     * cursors stay in registers.
     */
    void
    drawBernoulli(EntryWriter &writer, Rng &rng) const
    {
        const std::uint64_t keep = bernoulliKeep_;
        const std::uint32_t height = recipe_.height;
        const std::uint32_t width = recipe_.width;
        Rng local = rng;
        for (std::uint32_t y = 0; y < height; ++y) {
            for (std::uint32_t x = 0; x < width; ++x) {
                if (local.bernoulliBelow(keep))
                    writer.put(bernoulliValue(local.drawNormalAngleByte()),
                               x);
            }
            writer.endRow(y);
        }
        rng = local;
    }

    /**
     * Same draw sequence as randomDensePlane: one normal per cell, then
     * the topKSparsify selection. The kept set is the first `keep`
     * cells under (magnitude desc, position asc) -- i.e., every cell
     * whose magnitude beats the keep-th largest, plus the
     * earliest-position ties at exactly that threshold -- so a scalar
     * magnitude nth_element plus a tie budget reproduces the legacy
     * index-vector selection bit for bit at a fraction of the memory
     * traffic. Scratch buffers persist per thread: benchmarks generate
     * hundreds of thousands of planes. Returns whether the pre-filtered
     * result was taken.
     */
    bool
    drawTopK(EntryWriter &writer, Rng &rng) const
    {
        const std::size_t total = cells_;
        const std::size_t keep = topKKeep_;
        const bool selects = keep > 0 && keep < total;
        static thread_local std::vector<float> data;
        static thread_local std::vector<float> mags;
        data.resize(total);
        if (selects)
            mags.resize(total);
        // Threshold 0 keeps every cell (no value is zero): keep == total.
        KeepThreshold selection{0.0f, total};
        bool prefiltered = false;
        if (cut_ && selects) {
            // The pre-filter (TopKCut): draw every cell's uniforms in
            // stream order but transform only the candidates. The rest
            // stay 0 in data, below any threshold the check accepts.
            const Rng start = rng;
            std::size_t candidates = 0;
            for (float &v : data) {
                const Rng::NormalDraw draw = rng.drawNormal();
                v = 0.0f;
                if (draw.u1 <= cut_->ucut) {
                    v = topKValue(Rng::boxMuller(draw));
                    mags[candidates++] = std::fabs(v);
                }
            }
            if (candidates >= keep) {
                selection = keepThreshold(mags, candidates, keep);
                prefiltered = selection.threshold > cut_->bound;
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
        for (std::uint32_t y = 0; y < recipe_.height && keep > 0; ++y) {
            for (std::uint32_t x = 0; x < recipe_.width; ++x, ++idx) {
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
        return prefiltered;
    }

    const PlaneRecipe &recipe_;
    std::size_t cells_;
    std::optional<TopKCut> cut_;
    std::uint64_t bernoulliKeep_ = 0;
    std::size_t topKKeep_ = 0;
    std::size_t maxEntries_ = 0;
};

/**
 * One plane of @p recipe, pre-filtered with @p cut, in a slab of its
 * own: drawn into thread-local scratch that holds the largest plane's
 * entries so far, then copied into the matrix (fromRaw).
 */
TopKPlane
singlePlane(const PlaneRecipe &recipe, const std::optional<TopKCut> &cut,
            Rng &rng)
{
    const PlaneGenerator generator(recipe, cut);
    // values and columns are left uninitialized, so growing them
    // touches no page: resident memory follows the entries written,
    // not the cells. row_ptr counts entries per embedded row at
    // [row + 1] until draw() prefix-sums it.
    static thread_local std::size_t capacity = 0;
    static thread_local std::unique_ptr<float[]> values;
    static thread_local std::unique_ptr<std::uint32_t[]> columns;
    static thread_local std::vector<std::uint32_t> row_ptr;
    if (capacity < generator.maxEntries()) {
        capacity = generator.maxEntries();
        values = std::make_unique_for_overwrite<float[]>(capacity);
        columns = std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
    }
    row_ptr.assign(recipe.outHeight + 1, 0);
    const DrawnPlane drawn = generator.draw(
        {values.get(), columns.get(), row_ptr.data()}, rng);
    return {CsrMatrix::fromRaw(recipe.outHeight, recipe.outWidth,
                               {values.get(), drawn.nnz},
                               {columns.get(), drawn.nnz}, row_ptr),
            drawn.prefiltered};
}

/**
 * Values slots a stack of @p count Bernoulli planes of @p cells cells
 * reserves: room for mean + 6 sd of the stack's kept cells and one
 * whole plane (the room beginPlane asks for), but never more than an
 * all-kept stack takes. So the slab grows only with probability ~1e-9.
 */
std::size_t
bernoulliStackSlots(std::uint32_t count, std::size_t cells, double sparsity)
{
    const double n = static_cast<double>(count) * static_cast<double>(cells);
    const double p = std::clamp(1.0 - sparsity, 0.0, 1.0);
    const auto entries = static_cast<std::size_t>(
        std::ceil(std::min(n, n * p + 6.0 * std::sqrt(n * p * (1.0 - p)))));
    return std::min(count * cells, entries + cells);
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
    return singlePlane(recipe, TopKCut::forPlane(recipe), rng).plane;
}

TopKPlane
generateTopKPlane(const PlaneRecipe &recipe,
                  const std::optional<TopKCut> &cut, Rng &rng)
{
    ANT_ASSERT(recipe.method == SparsifyMethod::TopK,
               "generateTopKPlane needs a top-K recipe");
    return singlePlane(recipe, cut, rng);
}

CsrStack
generateCsrStack(const PlaneRecipe &recipe, std::uint32_t count, Rng &rng)
{
    const PlaneGenerator generator(recipe, TopKCut::forPlane(recipe));
    const std::size_t slots = recipe.method == SparsifyMethod::Bernoulli
        ? bernoulliStackSlots(count, generator.maxEntries(),
                              recipe.sparsity)
        : count * generator.maxEntries();
    CsrStack stack(count, recipe.outHeight, recipe.outWidth, slots);
    for (std::uint32_t i = 0; i < count; ++i) {
        const CsrStack::PlaneSlot slot =
            stack.beginPlane(generator.maxEntries());
        stack.endPlane(generator.draw(slot, rng).nnz);
    }
    stack.validate();
    return stack;
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
    CsrStack kernels = generateCsrStack(kernel_recipe, stack_size, rng);

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
