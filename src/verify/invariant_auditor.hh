/**
 * @file
 * Machine-checked conservation laws over the simulator's counters.
 *
 * The paper's headline results (Tables 2/3/5, Figs 9-14) are counter
 * bookkeeping: every eliminated RCP must be provably *accounted for*,
 * not merely *not executed*. The InvariantAuditor encodes the counting
 * rules of Sec. 4 (cycle model) and Sec. 6.1 (counting methodology) as
 * explicit laws over a CounterSet + ProblemSpec pair:
 *
 *  - mults-split:     MultsExecuted == MultsValid + MultsRcp
 *  - rcp-bound:       RcpsAvoided + MultsRcp <= dense cartesian count
 *  - product-total:   MultsExecuted + RcpsAvoided == nnzK * nnzI
 *                     (cartesian-product machines only)
 *  - cycle-split:     StartupCycles + ActiveCycles + IdleScanCycles
 *                     == Cycles
 *  - accum-valid:     AccumAdds == MultsValid
 *  - index-calcs:     OutputIndexCalcs == MultsExecuted (outer-product
 *                     machines compute one output index per product)
 *  - no-rcp-space:    inner-product machines report zero MultsRcp and
 *                     zero RcpsAvoided (every MAC maps to its output)
 *  - energy:          every energy component is finite and >= 0
 *
 * plus structural CSR validity (monotone row pointers, sorted in-range
 * columns, nnz consistency) and output-plane finiteness. Violations
 * come back as a machine-readable AuditReport rather than a panic so
 * that tests can assert on them; the auditOrPanic() hooks used by the
 * models panic with the rendered report.
 *
 * Exact equalities only hold on un-scaled counter sets. Counter sets
 * that went through CounterSet::scale() carry per-counter rounding, so
 * the laws accept an absolute slack (AuditScope::slack) sized by the
 * caller from the number of scaled sets that were summed.
 */

#ifndef ANTSIM_VERIFY_INVARIANT_AUDITOR_HH
#define ANTSIM_VERIFY_INVARIANT_AUDITOR_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "conv/problem_spec.hh"
#include "sim/energy.hh"
#include "sim/pe_model.hh"
#include "tensor/csr.hh"
#include "tensor/matrix.hh"
#include "util/counters.hh"

namespace antsim {

/** One violated conservation law. */
struct InvariantViolation
{
    /** Stable law identifier (e.g. "mults-split", "csr-row-ptr"). */
    std::string law;
    /** Human-readable explanation including the offending values. */
    std::string detail;
};

/** Outcome of one audit: empty means every law held. */
struct AuditReport
{
    std::vector<InvariantViolation> violations;

    /** True when no law was violated. */
    bool ok() const { return violations.empty(); }

    /** Merge another report's violations into this one. */
    AuditReport &operator+=(const AuditReport &other);

    /** Multi-line human-readable rendering ("all invariants hold"
     *  when ok()). */
    std::string toString() const;
};

/** How a model's executed-product space relates to its operands. */
enum class ProductSpace
{
    /** Outer-product machines: the nnzK x nnzI cartesian product. */
    Cartesian,
    /** Inner-product machines: MACs only, no RCPs by construction. */
    InnerProduct,
    /** Aggregates over heterogeneous models: universal laws only. */
    Mixed,
};

/** Context for auditing one counter set. */
struct AuditScope
{
    ProductSpace space = ProductSpace::Cartesian;
    /** Total non-zero cartesian products of the trace (nnzK * nnzI),
     *  when known; enables the product-total law. */
    std::optional<std::uint64_t> totalProducts;
    /** Dense cartesian product count (R*S*H*W summed over kernel
     *  planes), when known; enables the rcp-bound law. */
    std::optional<std::uint64_t> denseProducts;
    /** Absolute tolerance for the additive laws: 0 for raw counter
     *  sets, >0 for sets that went through rational scaling. */
    std::uint64_t slack = 0;
};

/** Checks conservation laws and structural invariants. */
class InvariantAuditor
{
  public:
    explicit InvariantAuditor(const EnergyModel &energy = EnergyModel{})
        : energy_(energy)
    {}

    /** Audit the counter laws of one counter set under @p scope. */
    AuditReport auditCounters(const CounterSet &counters,
                              const AuditScope &scope) const;

    /** Audit the structural invariants of a CSR matrix. */
    AuditReport auditCsr(const CsrMatrix &matrix) const;

    /**
     * Audit raw CSR arrays directly (the path tests use to feed
     * deliberately malformed structures, which CsrMatrix refuses to
     * construct).
     */
    AuditReport auditCsrArrays(std::uint32_t height, std::uint32_t width,
                               std::span<const float> values,
                               std::span<const std::uint32_t> columns,
                               std::span<const std::uint32_t> row_ptr)
        const;

    /** Audit an output plane: shape matches the spec, values finite. */
    AuditReport auditOutput(const ProblemSpec &spec,
                            const Dense2d<double> &output) const;

    /**
     * Full audit of one PE execution: operand CSR structure, counter
     * laws scoped by the trace's product counts, and (when collected)
     * the output plane.
     */
    AuditReport auditPeRun(const ProblemSpec &spec,
                           const std::vector<const CsrMatrix *> &kernels,
                           const CsrMatrix &image, const PeResult &result,
                           ProductSpace space) const;

  private:
    EnergyModel energy_;
};

} // namespace antsim

#endif // ANTSIM_VERIFY_INVARIANT_AUDITOR_HH
