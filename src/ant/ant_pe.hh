/**
 * @file
 * ANT (ANTicipator) processing-element cycle model (Sec. 4, Fig. 6).
 *
 * The ANT PE extends the SCNN pipeline with RCP anticipation:
 *
 *  (1) n image non-zeros are fetched and held stationary;
 *  (2) the s-range block computes [s_min, s_max] from the group's
 *      min/max x indices (Eq. 11);
 *  (3) the r-range block computes [r_min, r_max] from the group's
 *      first/last y indices (CSR order makes y monotonic, Eq. 12);
 *      the Kernel Indices Buffer controller uses the r range to fetch
 *      only row pointers r_min..r_max -- kernel rows outside the range
 *      are never read from SRAM (Sec. 4.3);
 *  (4) each cycle, k sequential column indices from the windowed rows
 *      feed the FNIR block, which selects up to n indices inside
 *      [s_min, s_max] plus the n+1-st for feedback;
 *  (5) if the n+1-st is valid, the next window starts there; otherwise
 *      the scan advances by k (Sec. 4.2 step 5);
 *  (6) selected kernel values are fetched and multiplied against the
 *      n stationary image values; output indices are computed and
 *      valid products accumulate. Products that survive the group
 *      min/max screen but fail the exact per-element test are residual
 *      RCPs -- executed and counted, exactly as in the paper.
 *
 * Dataflows (Sec. 4.6): the steps above describe image stationary.
 * Like the SCNN baseline, the PE streams a *kernel stack* (the kernel
 * planes of all output channels) against one resident image plane
 * with a single pipeline start-up; for each image group, the windowed
 * candidate streams of the stacked kernels are scanned back to back,
 * and FNIR windows may span kernel-plane boundaries. Kernel stationary
 * is the same loop with the operand roles swapped: n kernel non-zeros
 * of the stack are held, the image's rows inside the y window stream
 * through the FNIR, and the x/y range blocks replace s/r. The swap is
 * resolved once per call (docs/MODEL.md Sec. 4).
 *
 * Matmul mode (Sec. 5) keeps its own loop: the image is traversed in
 * CSC order so a group
 * shares (mostly) one column x; kernel rows r in [x_0, x_{n-1}] are
 * streamed directly n per cycle with the FNIR block bypassed, and
 * validity is r == x per element.
 *
 * The Fig. 14 ablations (r-condition only / s-condition only) are
 * supported: disabling the r condition streams all rows of the
 * streamed planes,
 * disabling the s condition makes the FNIR accept everything.
 *
 * Functional runs (collect_output) take every product through the
 * bit-level FNIR and the accumulator. Counting runs charge the same
 * counters without enumerating products: a bitset walk of each group's
 * FNIR windows, or a closed form where the group's screen covers every
 * streamed column (and per group in matmul mode), and the census's
 * valid count, since ANT never skips a valid product (docs/MODEL.md
 * Sec. 4).
 */

#ifndef ANTSIM_ANT_ANT_PE_HH
#define ANTSIM_ANT_ANT_PE_HH

#include <array>

#include "ant/fnir.hh"
#include "sim/pe_model.hh"
#include "sim/sram.hh"

namespace antsim {

/**
 * PE dataflow (Sec. 4.6). Image-stationary is the paper's primary
 * description; kernel-stationary swaps the roles of the operand
 * buffers, holding n kernel non-zeros resident while the image plane
 * streams through the anticipation logic (x/y range computation
 * instead of s/r).
 */
enum class AntDataflow { ImageStationary, KernelStationary };

/** Static parameters of the ANT PE (Table 4). */
struct AntPeConfig
{
    /** Multiplier array dimension n (default 4 -> 4x4 multipliers). */
    std::uint32_t n = 4;
    /** FNIR input window width k (default 16). */
    std::uint32_t k = 16;
    /** Pipeline start-up cost per new image load (Sec. 6.1). */
    std::uint32_t startupCycles = 5;
    /** Apply the r/y condition (Eq. 9); Fig. 14 ablation switch. */
    bool useRCondition = true;
    /** Apply the s/x condition (Eq. 10); Fig. 14 ablation switch. */
    bool useSCondition = true;
    /** Operand-stationarity choice (Sec. 4.6). */
    AntDataflow dataflow = AntDataflow::ImageStationary;
    /** Value/index buffer geometry (8 KB, 16-bit elements). */
    SramConfig buffer = SramConfig{};
    /** Accumulator bank geometry (64 KB, 16-bit partial sums). */
    SramConfig accumulatorBank = SramConfig::accumulatorBank();
};

/** The ANT PE: outer-product datapath with RCP anticipation. */
class AntPe : public PeModel
{
  public:
    explicit AntPe(const AntPeConfig &config = AntPeConfig{});

    std::string name() const override { return "ANT"; }

    std::uint32_t
    multiplierCount() const override
    {
        return config_.n * config_.n;
    }

    std::unique_ptr<PeModel>
    clone() const override
    {
        // Copy-construct so every data member (config_ AND fnir_, plus
        // anything added later) replicates; rebuilding from config_
        // alone would silently drop future stateful members and break
        // parallel determinism (the clone-completeness lint rule).
        return std::make_unique<AntPe>(*this);
    }

    const AntPeConfig &config() const { return config_; }

    /**
     * A conv spec runs the stack through runConvStack; a matmul spec
     * takes exactly one kernel plane and runs runMatmulPair.
     */
    PeResult runStack(const ProblemSpec &spec,
                      const std::vector<const CsrMatrix *> &kernels,
                      const CsrMatrix &image, bool collect_output) override;

  private:
    /**
     * Convolution-mode execution (FNIR active) for both dataflows: the
     * Sec. 4.6 role swap picks the stationary entries, the streamed
     * planes and the range blocks before the group loop, which is
     * shared, as are the window memo, the controller walk, the FNIR
     * scan and the end-of-run charges.
     */
    PeResult runConvStack(const ProblemSpec &spec,
                          const std::vector<const CsrMatrix *> &kernels,
                          const CsrMatrix &image, bool collect_output);

    /** Matmul-mode execution (CSC image traversal, FNIR bypassed). */
    PeResult runMatmulPair(const ProblemSpec &spec, const CsrMatrix &kernel,
                           const CsrMatrix &image, bool collect_output);

    AntPeConfig config_;
    Fnir fnir_;
    /**
     * SRAM accesses of a w-lane index read and a w-value read,
     * w = 0..64: the counting walk's per-window costs, tabled once.
     */
    std::array<std::uint64_t, 65> indexCost_{};
    std::array<std::uint64_t, 65> valueCost_{};
};

} // namespace antsim

#endif // ANTSIM_ANT_ANT_PE_HH
