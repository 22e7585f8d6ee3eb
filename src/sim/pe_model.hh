/**
 * @file
 * Common interface for processing-element cycle models.
 *
 * A PE model consumes one (kernel chunk, image chunk) pair under a
 * ProblemSpec and reports its counters (cycles, multiplies, SRAM
 * accesses, ...) plus, optionally, the functionally accumulated output
 * plane. The SCNN-like baseline PE (src/scnn), the ANT PE (src/ant)
 * and the inner-product baselines (src/baselines) implement this
 * interface; the runner (workload/runner.hh) streams each unit's chunk
 * pairs or kernel stacks through it and sums the counters.
 */

#ifndef ANTSIM_SIM_PE_MODEL_HH
#define ANTSIM_SIM_PE_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "conv/problem_spec.hh"
#include "tensor/csr.hh"
#include "tensor/matrix.hh"
#include "util/counters.hh"

namespace antsim {

/** Outcome of one chunk-pair execution on a PE. */
struct PeResult
{
    /** All activity counters, including Counter::Cycles. */
    CounterSet counters;
    /** Accumulated output plane; empty (0x0) unless requested. */
    Dense2d<double> output;
};

/** Abstract PE cycle model. */
class PeModel
{
  public:
    PeModel() = default;
    virtual ~PeModel() = default;

  protected:
    // Copyable only by derived classes (their clone() implementations
    // delegate to copy construction); copying through a base pointer
    // would slice, and replication must go through clone().
    PeModel(const PeModel &) = default;
    PeModel &operator=(const PeModel &) = default;

  public:

    /** Human-readable model name for reports. */
    virtual std::string name() const = 0;

    /** Multipliers in this PE (for utilization metrics). */
    virtual std::uint32_t multiplierCount() const = 0;

    /**
     * Fresh replica of this PE with the same configuration and no
     * shared mutable state. The parallel runner (workload/runner.cc)
     * gives each worker thread its own replica; results must be
     * bit-identical to the original's on identical inputs, which the
     * determinism of the whole parallel engine rests on (clone_test
     * and parallel_determinism_test enforce both properties).
     */
    virtual std::unique_ptr<PeModel> clone() const = 0;

    /**
     * Whether the PE streams compressed (CSR) operands through the
     * capacity-limited sparse buffers. Dense inner-product baselines
     * return false: their operands are dense-tiled, so the sparse
     * chunk capacity must not split their work (it would double-count
     * the dense MAC stream).
     */
    virtual bool usesCompressedOperands() const { return true; }

    /**
     * Execute one (kernel chunk, image chunk) pair: runStack of a
     * one-plane stack, which is also how a matmul runs.
     *
     * Chunks carry global matrix dims with a subset of the non-zeros;
     * chunk results are additive because the outer product is linear in
     * its operand entries.
     *
     * @param collect_output Accumulate the functional output plane
     *        (costs memory proportional to the output; benchmarks that
     *        only need counters pass false).
     */
    PeResult
    runPair(const ProblemSpec &spec, const CsrMatrix &kernel,
            const CsrMatrix &image, bool collect_output)
    {
        return runStack(spec, {&kernel}, image, collect_output);
    }

    /**
     * Execute a *kernel stack* against one stationary image: the
     * hardware dataflow keeps the image plane resident and streams the
     * kernel planes of every output channel through the PE back to
     * back, paying the pipeline start-up once (Sec. 2.3: SCNN's
     * input-stationary dataflow; the paper's 5-cycle start-up applies
     * "whenever a PE is given new image and kernel matrices").
     * Operand groups may span kernel-plane boundaries, exactly as a
     * merged weight stream does in SCNN.
     *
     * With collect_output, the returned plane is the SUM of the
     * per-kernel outputs (the outer product is linear, so this is a
     * meaningful functional check even though real hardware routes
     * each kernel's products to its own output plane). A matmul spec
     * takes a one-plane stack: its kernel is the whole left operand.
     */
    virtual PeResult runStack(const ProblemSpec &spec,
                              const std::vector<const CsrMatrix *> &kernels,
                              const CsrMatrix &image,
                              bool collect_output) = 0;
};

} // namespace antsim

#endif // ANTSIM_SIM_PE_MODEL_HH
