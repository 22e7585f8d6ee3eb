/**
 * @file
 * Network layer descriptors and training-phase geometry.
 *
 * A ConvLayer describes one convolution of a CNN in the usual NN terms
 * (channels, unpadded spatial dims, square kernel, stride, padding).
 * Training expands it into three outer-product problems (Eqs. 1-3):
 * the forward pass W * A, the backward pass R(W) * G_A, and the weight
 * update G_A * A, each decomposing into outChannels x inChannels
 * 2-D plane pairs. All five evaluated networks use same-padding
 * (pad = (k-1)/2) or 1x1/pad-0 convolutions, which is what the
 * backward-phase geometry in conv/rcp_model.hh assumes.
 *
 * A MatmulLayer describes one fully-connected/attention projection in
 * the Sec. 5 convention: out[H x S] = image[H x W] * kernel[R x S].
 */

#ifndef ANTSIM_WORKLOAD_LAYER_HH
#define ANTSIM_WORKLOAD_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "conv/problem_spec.hh"
#include "conv/rcp_model.hh"

namespace antsim {

/** The three convolution phases of Backprop (Sec. 2.1). */
enum class TrainingPhase : unsigned {
    /** A^{L+1} = W * A (Eq. 1). */
    Forward = 0,
    /** G_A^L = R(W) * G_A^{L+1} (Eq. 2). */
    Backward = 1,
    /** G_W = G_A^{L+1} * A (Eq. 3). */
    Update = 2,
};

/** Short name of a phase for tables ("W*A", "W*G_A", "G_A*A"). */
const char *phaseName(TrainingPhase phase);

/** One convolution layer of a CNN. */
struct ConvLayer
{
    std::string name;
    std::uint32_t inChannels;
    std::uint32_t outChannels;
    /** Unpadded input spatial dims. */
    std::uint32_t inH;
    std::uint32_t inW;
    /** Square kernel size (R = S = kernel). */
    std::uint32_t kernel;
    std::uint32_t stride;
    std::uint32_t pad;

    /** Padded image dims seen by the forward convolution. */
    std::uint32_t paddedH() const { return inH + 2 * pad; }
    std::uint32_t paddedW() const { return inW + 2 * pad; }

    /** The three phase geometries for one (k, c) plane pair. */
    PhaseSpecs
    phaseSpecs() const
    {
        return trainingPhaseSpecs(kernel, kernel, paddedH(), paddedW(),
                                  stride);
    }

    /** Plane pairs per phase: outChannels * inChannels. */
    std::uint64_t
    planePairs() const
    {
        return static_cast<std::uint64_t>(outChannels) * inChannels;
    }
};

/** One matmul layer (Sec. 5 / Table 3 convention; W == R). */
struct MatmulLayer
{
    std::string name;
    std::uint32_t imageH;
    std::uint32_t imageW;
    std::uint32_t kernelR;
    std::uint32_t kernelS;

    ProblemSpec
    spec() const
    {
        return ProblemSpec::matmul(imageH, imageW, kernelR, kernelS);
    }
};

} // namespace antsim

#endif // ANTSIM_WORKLOAD_LAYER_HH
