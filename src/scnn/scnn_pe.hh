/**
 * @file
 * SCNN-like processing-element cycle model (the paper's baseline).
 *
 * The PE (Fig. 3) holds n image non-zeros stationary and streams
 * kernel non-zeros n per cycle through an n x n multiplier array,
 * forming the full cartesian product of the two compressed operand
 * streams. Every product's output index is computed; valid products
 * are accumulated, the rest are Redundant Cartesian Products that
 * waste the multiply, the index computation, and the SRAM traffic that
 * fed them. No anticipation happens here -- this is exactly the
 * inefficiency ANT removes.
 *
 * Dataflow: input (image) stationary (Sec. 2.3). A *kernel stack* --
 * the kernel planes of all output channels -- streams through the PE
 * back to back as one merged non-zero stream (operand groups may span
 * kernel-plane boundaries, as SCNN's weight vectors spanning output
 * channels do), paying the 5-cycle pipeline start-up once per image
 * load (Sec. 6.1).
 *
 * Cycle accounting: startup + ceil(nnzI / n) * ceil(sum nnzK / n).
 */

#ifndef ANTSIM_SCNN_SCNN_PE_HH
#define ANTSIM_SCNN_SCNN_PE_HH

#include "sim/pe_model.hh"
#include "sim/sram.hh"

namespace antsim {

/** Static parameters of the SCNN-like PE. */
struct ScnnPeConfig
{
    /** Multiplier array dimension (n x n multipliers, Table 4). */
    std::uint32_t n = 4;
    /** Pipeline start-up cost per new image load (Sec. 6.1). */
    std::uint32_t startupCycles = 5;
    /** Value/index buffer geometry (8 KB, 16-bit elements). */
    SramConfig buffer = SramConfig{};
    /** Accumulator bank geometry (64 KB, 16-bit partial sums). */
    SramConfig accumulatorBank = SramConfig::accumulatorBank();
};

/** SCNN-like PE: full cartesian product, no RCP anticipation. */
class ScnnPe : public PeModel
{
  public:
    explicit ScnnPe(const ScnnPeConfig &config = ScnnPeConfig{});

    std::string name() const override { return "SCNN-like"; }

    std::uint32_t
    multiplierCount() const override
    {
        return config_.n * config_.n;
    }

    std::unique_ptr<PeModel>
    clone() const override
    {
        return std::make_unique<ScnnPe>(config_);
    }

    PeResult runStack(const ProblemSpec &spec,
                      const std::vector<const CsrMatrix *> &kernels,
                      const CsrMatrix &image, bool collect_output) override;

  private:
    /** Functional path: executes every product, accumulates outputs. */
    PeResult runStackFunctional(const ProblemSpec &spec,
                                const std::vector<const CsrMatrix *>
                                    &kernels,
                                const CsrMatrix &image);

    /**
     * Counting-only fast path (no functional output): closed-form
     * cycles/SRAM plus a product census for the valid/RCP split.
     * Tests assert it matches the functional path counter-for-counter.
     */
    PeResult runStackCounting(const ProblemSpec &spec,
                              const std::vector<const CsrMatrix *>
                                  &kernels,
                              const CsrMatrix &image);

    ScnnPeConfig config_;
};

} // namespace antsim

#endif // ANTSIM_SCNN_SCNN_PE_HH
