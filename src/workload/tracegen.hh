/**
 * @file
 * Synthetic sparse-training trace generation (substitutes the paper's
 * GPU-collected ReSprop/SWAT traces; see DESIGN.md).
 *
 * For a given layer, phase, and sparsity profile, produces the
 * StackTask one runner unit simulates: a stationary CSR image plane
 * plus the stack of kernel planes that streams against it (a matmul
 * layer's unit is one (kernel, image) PlanePair). Per plane:
 *
 *  - forward  W * A:   kernel = sparsified W[k][c] (R x S);
 *                      image  = sparsified A[c] embedded in padding;
 *  - backward R(W) * G_A: kernel = rotated sparsified W[k][c];
 *                      image  = sparsified G_A[k] zero-dilated by the
 *                      layer stride and re-padded;
 *  - update   G_A * A: kernel = sparsified G_A[k] (used with kernel
 *                      dilation = stride); image = padded A[c].
 *
 * Sparsity is imposed on a stream of i.i.d. standard normals by
 * Bernoulli masking (ReSprop/SWAT-style targets) or magnitude top-K
 * (the paper's synthetic ResNet50/transformer/RNN path). Top-K planes
 * keep the normals as values, since they decide the kept set. The
 * accelerators' counters read only positions, so a kept Bernoulli cell
 * skips the Box-Muller transform: its value is (-1)^[m >= 128] (1 +
 * (m mod 128) / 128) with m = floor(256 u2), from the angle uniform u2
 * of the normal the stream draws for it, which is non-zero and
 * bf16-exact. Only functional runs (collect_output) read values.
 * Everything is keyed by a deterministic seed hierarchy so runs
 * reproduce bit-for-bit.
 *
 * Every plane comes from one fused generator, which draws the
 * identical random stream as the legacy generatePlane -> bf16Round ->
 * embedPlane -> fromDense -> rotated180 pipeline but emits CSR
 * directly, skipping the dense intermediates. generateCsrPlane makes
 * one plane in a slab of its own; generateCsrStack makes a unit's
 * whole kernel stack in one CsrStack slab, drawing exactly the stream
 * of that many generateCsrPlane calls. The legacy pipeline is the
 * tests' oracle (tests/oracles/legacy_planes.hh). The generator's
 * columns, rowPtr and Rng post-state equal the legacy pipeline's for
 * both methods, and so do its top-K values; its Bernoulli values
 * follow the rule above (tests/census_property_test.cc proves both).
 * Its top-K path anticipates which cells can never be kept: a radius
 * pre-filter (TopKCut) evaluates the Box-Muller transform only for
 * cells whose radius can reach the keep threshold, and falls back to
 * the full path whenever it cannot prove that threshold, so the output
 * never changes.
 */

#ifndef ANTSIM_WORKLOAD_TRACEGEN_HH
#define ANTSIM_WORKLOAD_TRACEGEN_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tensor/csr.hh"
#include "util/rng.hh"
#include "workload/layer.hh"

namespace antsim {

/** How a target sparsity is imposed on a plane. */
enum class SparsifyMethod {
    /** i.i.d. Bernoulli mask at the target rate. */
    Bernoulli,
    /** Keep the top (1 - sparsity) fraction by magnitude. */
    TopK,
};

/**
 * Everything that determines a generated plane besides the Rng state:
 * the inner generated dims, how it is sparsified, how it is embedded
 * into the padded/dilated output plane, and whether the CSR is rotated
 * by 180 degrees (backward-phase kernels).
 */
struct PlaneRecipe
{
    /** Generated (inner) plane height. */
    std::uint32_t height = 0;
    /** Generated (inner) plane width. */
    std::uint32_t width = 0;
    /** Target sparsity in [0, 1]. */
    double sparsity = 0.0;
    /** Masking method. */
    SparsifyMethod method = SparsifyMethod::Bernoulli;
    /** Embedded plane height (== height when not embedded). */
    std::uint32_t outHeight = 0;
    /** Embedded plane width (== width when not embedded). */
    std::uint32_t outWidth = 0;
    /** Embedding border offset. */
    std::uint32_t offset = 0;
    /** Embedding dilation (backward-phase zero-dilation). */
    std::uint32_t dilation = 1;
    /** Rotate the final CSR by 180 degrees (backward kernels). */
    bool rotate = false;

    /** Recipe for a plane used as-is (no embedding, no rotation). */
    static PlaneRecipe
    plain(std::uint32_t height, std::uint32_t width, double sparsity,
          SparsifyMethod method)
    {
        return {height, width, sparsity, method, height, width, 0, 1,
                false};
    }
};

/**
 * Generate the plane described by (@p recipe, @p rng) as CSR directly.
 * Consumes exactly the same random stream and produces bit-identical
 * columns/rowPtr arrays as the legacy dense pipeline, and top-K values
 * too; a kept Bernoulli cell's value follows the rule in the file
 * comment, and its trial is bernoulli()'s exact integer form
 * (Rng::bernoulliThreshold). The entries are written through cursors
 * into thread-local scratch that holds the largest plane's entries so
 * far (a rotation reverses them in place), so the plane's arena slab
 * is its one allocation. Top-K recipes are pre-filtered with
 * TopKCut::forPlane's cut.
 */
CsrMatrix generateCsrPlane(const PlaneRecipe &recipe, Rng &rng);

/**
 * Generate @p count planes of @p recipe into one CsrStack: the same
 * planes, and the same Rng post-state, as @p count successive
 * generateCsrPlane calls. The recipe's invariants (the embedding
 * check, the Bernoulli threshold, TopKCut::forPlane) are computed once
 * and the entries are written straight into the stack's slab, each
 * plane's right after the previous one's. The slab is sized from the
 * recipe: count x keep entries for top-K, and for Bernoulli the mean
 * kept count plus six standard deviations plus one whole plane (it
 * grows geometrically in the rare case that falls short).
 * CsrStack::validate then checks every plane against
 * CsrMatrix::validate's invariants, each in flat loops.
 */
CsrStack generateCsrStack(const PlaneRecipe &recipe, std::uint32_t count,
                          Rng &rng);

/**
 * The radius cut of the top-K pre-filter (docs/MODEL.md Sec. 10).
 *
 * The top-K path keeps the `keep` largest magnitudes of a plane of
 * Box-Muller normals f = sqrt(-2 ln u1) cos(2 pi u2), so most cells'
 * transforms are computed only to be dropped. Since |cos| <= 1, a cell
 * whose radius uniform u1 exceeds ucut = exp(-rho^2 / 2) has
 * |float(f)| < bound = rho (1 + 1e-6); the margin covers the float
 * cast's 2^-24 and a few ulp of log and exp. The generator draws every
 * cell's uniforms in stream order but transforms only the candidates
 * (u1 <= ucut). It takes that result only when there are at least
 * `keep` candidates and the keep-th largest candidate magnitude is
 * strictly above bound: then no other cell can reach or tie the
 * threshold, so the kept cells, their order and the Rng post-state
 * equal the full path's. Otherwise it rewinds the Rng to the plane's
 * start and runs the full path. The cut decides only how often that
 * fallback happens, never the output.
 */
struct TopKCut
{
    /** Cells whose Box-Muller u1 exceeds this are never transformed. */
    double ucut = 0.0;
    /** Strict bound on |float(normal)| of every such cell. */
    double bound = 0.0;

    /** The cut at radius @p rho. */
    static TopKCut atRadius(double rho);

    /**
     * The cut generateCsrPlane applies to @p recipe, or nullopt for the
     * full path. A top-K plane of n cells that keeps 0 < keep < n is
     * cut at the radius rho with
     * P(|Z| >= rho) = p + 6 sqrt(p (1 - p) / n) + 4 / n, p = keep / n
     * (six standard deviations above the kept share), if that tail is
     * at most 0.75; beyond it over 95% of the cells would be
     * candidates, and the cut no longer beats the full path.
     */
    static std::optional<TopKCut> forPlane(const PlaneRecipe &recipe);
};

/** A top-K plane and whether its pre-filtered result was taken. */
struct TopKPlane
{
    CsrMatrix plane;
    /** False when the full path ran, from the start or as fallback. */
    bool prefiltered = false;
};

/**
 * generateCsrPlane for a top-K @p recipe, pre-filtered with @p cut
 * instead of TopKCut::forPlane's (nullopt: the full path). For every
 * TopKCut::atRadius cut the plane and the Rng post-state equal
 * generateCsrPlane's; tests force the fallback through it.
 */
TopKPlane generateTopKPlane(const PlaneRecipe &recipe,
                            const std::optional<TopKCut> &cut, Rng &rng);

/** Target sparsities of the three training tensors. */
struct SparsityProfile
{
    /** Weight sparsity (all phases). */
    double weight = 0.0;
    /** Activation sparsity. */
    double act = 0.0;
    /** Activation-gradient sparsity. */
    double grad = 0.0;
    /** Masking method. */
    SparsifyMethod method = SparsifyMethod::Bernoulli;

    /**
     * SWAT-style: weights, activations and activation gradients all
     * sparsified to the target, each by its own independent Bernoulli
     * mask. (The paper's gradients inherit the activations' ReLU zero
     * mask, Sec. 2.1; no run path models that correlation.)
     */
    static SparsityProfile
    swat(double target)
    {
        return {target, target, target, SparsifyMethod::Bernoulli};
    }

    /** ReSprop-style: sparse gradients, given activation sparsity. */
    static SparsityProfile
    resprop(double grad_sparsity, double act_sparsity)
    {
        return {0.0, act_sparsity, grad_sparsity,
                SparsifyMethod::Bernoulli};
    }

    /** Synthetic top-K sparsification of all tensors (ResNet50 path). */
    static SparsityProfile
    topK(double target)
    {
        return {target, target, target, SparsifyMethod::TopK};
    }

    /** Fully dense tensors (Fig. 10's dense baseline). */
    static SparsityProfile
    dense()
    {
        return {0.0, 0.0, 0.0, SparsifyMethod::Bernoulli};
    }
};

/** A generated (kernel, image) plane pair plus its geometry. */
struct PlanePair
{
    ProblemSpec spec;
    CsrMatrix kernel;
    CsrMatrix image;
};

/**
 * A channel-batched task: one stationary image plane with the kernel
 * stack that streams against it (Sec. 2.3's input-stationary dataflow;
 * see PeModel::runStack). For the forward and update phases the task
 * is per input channel c and the stack spans the K output channels;
 * for the backward phase the task is per output channel k and the
 * stack spans the C input channels (rotated weights).
 */
struct StackTask
{
    ProblemSpec spec;
    /** The kernel stack, in generation order, in one slab. */
    CsrStack kernels;
    /** The stationary image plane (read as `*task.image`). */
    std::unique_ptr<const CsrMatrix> image;

    /** Borrowed pointer view for PeModel::runStack. */
    std::vector<const CsrMatrix *>
    kernelPtrs() const
    {
        std::vector<const CsrMatrix *> ptrs;
        ptrs.reserve(kernels.size());
        for (const CsrMatrix &k : kernels)
            ptrs.push_back(&k);
        return ptrs;
    }
};

/** Deterministic seed mixing for the trace hierarchy. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c_value = 0);

/**
 * Build the (kernel, image) pair for one sampled (k, c) plane pair of
 * a conv layer in the given phase. @p rng provides all randomness.
 *
 * This builder, makeMatmulPair and makeConvPhaseTask tally the planes
 * they generate (2, 2, and 1 + stack) in the host metrics registry's
 * trace_planes_generated count (obs/metrics.hh), once per call; direct
 * generateCsrPlane calls are not counted.
 */
PlanePair makeConvPhasePair(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile, Rng &rng);

/** Build the pair for one matmul layer at a uniform sparsity. */
PlanePair makeMatmulPair(const MatmulLayer &layer, double sparsity,
                         SparsifyMethod method, Rng &rng);

/**
 * Number of stacked tasks a layer expands to in a phase: inChannels
 * for forward/update (task per image channel), outChannels for
 * backward (task per gradient channel).
 */
std::uint64_t stackTaskCount(const ConvLayer &layer, TrainingPhase phase);

/**
 * Build one channel-batched task of a conv layer phase. @p rng drives
 * all randomness (image plane plus the whole kernel stack).
 */
StackTask makeConvPhaseTask(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile, Rng &rng);

/**
 * Recipe of a conv phase's image plane (padding/dilation included):
 * the trace generator's single source of geometric truth.
 */
PlaneRecipe convImageRecipe(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile,
                            const PhaseSpecs &specs);

/** Recipe of one kernel-stack plane of a conv phase. */
PlaneRecipe convKernelRecipe(const ConvLayer &layer, TrainingPhase phase,
                             const SparsityProfile &profile,
                             const PhaseSpecs &specs);

} // namespace antsim

#endif // ANTSIM_WORKLOAD_TRACEGEN_HH
