/**
 * @file
 * Functional RCP anticipation, a test oracle: Algorithm 1 (ideal) and
 * Algorithm 2 (outer-product block granularity).
 *
 * Algorithm 1 tests every (image element, kernel element) pair against
 * the per-element index conditions (Eqs. 7-8) and skips every RCP --
 * the upper bound on what any anticipator can eliminate.
 *
 * Algorithm 2 models the constraint of an n x n outer-product datapath:
 * a factor can only be skipped if the *whole* row/column of products it
 * feeds is redundant. It screens each kernel element against the
 * min/max image indices of the current n-element image group
 * (Eqs. 9-10), so some RCPs survive. This is the algorithm the ANT PE
 * realizes in hardware; the cycle model in src/ant must execute exactly
 * the product set Algorithm 2 admits (ant_pe_test asserts it against
 * this reference).
 */

#ifndef ANTSIM_ORACLES_ANTICIPATE_HH
#define ANTSIM_ORACLES_ANTICIPATE_HH

#include <cstdint>

#include "conv/problem_spec.hh"
#include "tensor/csr.hh"
#include "tensor/matrix.hh"

namespace antsim {

/** Outcome of an anticipated execution. */
struct AnticipateResult
{
    Dense2d<double> output;
    /** Products actually multiplied (valid + residual RCPs). */
    std::uint64_t executedProducts = 0;
    /** Executed products that were valid. */
    std::uint64_t validProducts = 0;
    /** Executed products that were residual RCPs. */
    std::uint64_t residualRcps = 0;
    /** RCPs skipped by anticipation. */
    std::uint64_t skippedRcps = 0;

    /** Fraction of all RCPs that anticipation eliminated. */
    double
    rcpEliminationRate() const
    {
        const std::uint64_t total = residualRcps + skippedRcps;
        return total == 0
            ? 1.0
            : static_cast<double>(skippedRcps) / static_cast<double>(total);
    }
};

/**
 * Algorithm 1: ideal anticipation. Skips every RCP via the per-element
 * conditions; residualRcps is always zero.
 */
AnticipateResult idealAnticipation(const ProblemSpec &spec,
                                   const CsrMatrix &kernel,
                                   const CsrMatrix &image);

/**
 * Algorithm 2: anticipation at outer-product granularity.
 *
 * Iterates image non-zeros in CSR order @p n at a time; for each group,
 * screens every kernel element against the group's min/max x and y
 * (Eqs. 9-10) and multiplies the surviving kernel elements with all n
 * image elements.
 *
 * @param n Outer-product group width (the multiplier array dimension).
 * @param use_r_condition Apply the r/y screen (Eq. 9); Fig. 14 ablation.
 * @param use_s_condition Apply the s/x screen (Eq. 10); Fig. 14 ablation.
 */
AnticipateResult blockAnticipation(const ProblemSpec &spec,
                                   const CsrMatrix &kernel,
                                   const CsrMatrix &image, std::uint32_t n,
                                   bool use_r_condition = true,
                                   bool use_s_condition = true);

} // namespace antsim

#endif // ANTSIM_ORACLES_ANTICIPATE_HH
