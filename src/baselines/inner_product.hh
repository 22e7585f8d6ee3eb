/**
 * @file
 * Inner-product baseline accelerators (Sec. 6.1, Sec. 7.7).
 *
 * The paper compares ANT against two inner-product designs configured
 * with 16 multipliers per tile and enough tiles to match ANT's total
 * multiplier count:
 *
 *  - DaDianNao-like: dense. Executes every MAC of the convolution
 *    (R*S*Hout*Wout per plane pair), including zero operands.
 *  - TensorDash-like: exploits *one-sided* dynamic sparsity. Zero MACs
 *    of the sparse operand are skipped when the lookahead/lookaside
 *    packing window can promote a later non-zero into the slot; the
 *    paper observes ~2.25x over dense at 90% sparsity because packing,
 *    not sparsity, becomes the limit.
 *
 * Both are modeled at MAC-count granularity: a visible-window depth of
 * 3 (lookahead 2) bounds compression at 3x, and a scheduler efficiency
 * of 0.75 accounts for fragmentation -- together calibrated to the
 * ~2.25x the paper reports for TensorDash on these workloads. Neither
 * design suffers RCPs (inner products map every MAC to its output),
 * but neither can exploit the second operand's sparsity, which is
 * exactly the Sec. 7.7 comparison.
 */

#ifndef ANTSIM_BASELINES_INNER_PRODUCT_HH
#define ANTSIM_BASELINES_INNER_PRODUCT_HH

#include "sim/pe_model.hh"

namespace antsim {

/** Shared configuration of the inner-product tiles. */
struct InnerProductConfig
{
    /** Multipliers per tile (paper: 16). */
    std::uint32_t multipliers = 16;
    /** Pipeline start-up cost per chunk pair. */
    std::uint32_t startupCycles = 5;
    /** Visible packing window depth (lookahead 2 => 3 rows). */
    std::uint32_t packWindow = 3;
    /** Fraction of ideal packing the scheduler achieves. */
    double packEfficiency = 0.75;
};

/** Dense inner-product tile (DaDianNao-like). */
class DenseInnerProductPe : public PeModel
{
  public:
    explicit DenseInnerProductPe(
        const InnerProductConfig &config = InnerProductConfig{});

    std::string name() const override { return "DaDianNao-like"; }

    std::uint32_t
    multiplierCount() const override
    {
        return config_.multipliers;
    }

    std::unique_ptr<PeModel>
    clone() const override
    {
        return std::make_unique<DenseInnerProductPe>(config_);
    }

    bool usesCompressedOperands() const override { return false; }

    PeResult runPair(const ProblemSpec &spec, const CsrMatrix &kernel,
                     const CsrMatrix &image, bool collect_output) override;

    PeResult runStack(const ProblemSpec &spec,
                      const std::vector<const CsrMatrix *> &kernels,
                      const CsrMatrix &image, bool collect_output) override;

  private:
    InnerProductConfig config_;
};

/**
 * One-sided sparse inner-product tile (TensorDash-like). Skips zero
 * MACs of the *image* operand (dynamic side); the kernel operand is
 * processed densely.
 */
class TensorDashPe : public PeModel
{
  public:
    explicit TensorDashPe(
        const InnerProductConfig &config = InnerProductConfig{});

    std::string name() const override { return "TensorDash-like"; }

    std::uint32_t
    multiplierCount() const override
    {
        return config_.multipliers;
    }

    std::unique_ptr<PeModel>
    clone() const override
    {
        return std::make_unique<TensorDashPe>(config_);
    }

    bool usesCompressedOperands() const override { return false; }

    PeResult runPair(const ProblemSpec &spec, const CsrMatrix &kernel,
                     const CsrMatrix &image, bool collect_output) override;

    PeResult runStack(const ProblemSpec &spec,
                      const std::vector<const CsrMatrix *> &kernels,
                      const CsrMatrix &image, bool collect_output) override;

  private:
    InnerProductConfig config_;
};

/**
 * Exact count of convolution MACs whose image operand is non-zero:
 * sum over image non-zeros of the number of (s, r) kernel positions
 * pairing with them, computed with per-axis position-count tables.
 */
std::uint64_t nonzeroImageMacs(const ProblemSpec &spec,
                               const CsrMatrix &image);

} // namespace antsim

#endif // ANTSIM_BASELINES_INNER_PRODUCT_HH
