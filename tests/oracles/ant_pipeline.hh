/**
 * @file
 * Tick-accurate ANT PE pipeline model (Fig. 6), a test oracle.
 *
 * The throughput model in ant/ant_pe.hh computes per-group cycle counts
 * with closed loops under the assumption that the six pipeline stages
 * overlap perfectly after the initial fill. This model *checks* that
 * assumption: it advances the PE cycle by cycle through the clocked
 * two-phase framework (oracles/clock.hh) with explicit pipeline
 * registers:
 *
 *   [scan/FNIR] -> P1 -> [kernel value fetch] -> P2 ->
 *   [multiplier array] -> P3 -> [output index + accumulate]
 *
 * The scanner holds the stationary image group, evaluates one FNIR
 * window per cycle with the n+1-st-index feedback, and rolls to the
 * next image group seamlessly. Start-up models the paper's 5-cycle
 * pipeline fill for a new matrix pair.
 *
 * Scope: single kernel plane, image-stationary, convolution mode,
 * full-row-window streaming (the controller-walk bound of stacked
 * small kernels is a throughput-model concern; see ant_pe.hh). Tests
 * assert the executed/valid/RCP product counts match the throughput
 * model exactly and total cycles match up to the pipeline drain.
 */

#ifndef ANTSIM_ORACLES_ANT_PIPELINE_HH
#define ANTSIM_ORACLES_ANT_PIPELINE_HH

#include <cstdint>

#include "ant/ant_pe.hh"
#include "conv/problem_spec.hh"
#include "tensor/csr.hh"
#include "util/counters.hh"

namespace antsim {

/** Result of a tick-accurate run. */
struct PipelineRunResult
{
    /** Total cycles from start-up until the last product retired. */
    std::uint64_t cycles = 0;
    /** Products issued to the multiplier array. */
    std::uint64_t executed = 0;
    /** Retired products with a valid output index. */
    std::uint64_t valid = 0;
    /** Retired residual RCPs. */
    std::uint64_t residualRcps = 0;
    /** FNIR evaluations performed (scan cycles). */
    std::uint64_t fnirEvaluations = 0;
};

/** Tick-accurate single-pair ANT PE. */
class AntPipelineModel
{
  public:
    explicit AntPipelineModel(const AntPeConfig &config = AntPeConfig{});

    /**
     * Run one (kernel, image) convolution pair to completion.
     * Requires an image-stationary config and a Conv spec.
     */
    PipelineRunResult run(const ProblemSpec &spec, const CsrMatrix &kernel,
                          const CsrMatrix &image) const;

  private:
    AntPeConfig config_;
};

namespace verify {

/**
 * Audit the product census of a tick-accurate pipeline run:
 * executed == valid + residual RCPs, and executed within the trace's
 * nnzK x nnzI product space. A no-op unless audit::enabled(); panics
 * with the report (naming @p model) on violation.
 */
void auditPipelineCountsOrPanic(const char *model, std::uint64_t executed,
                                std::uint64_t valid,
                                std::uint64_t residual_rcps,
                                std::uint64_t total_products);

} // namespace verify
} // namespace antsim

#endif // ANTSIM_ORACLES_ANT_PIPELINE_HH
