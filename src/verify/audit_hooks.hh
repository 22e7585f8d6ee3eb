/**
 * @file
 * Self-check entry points the accelerator models call after every run.
 *
 * Each hook is a no-op unless audit::enabled() (src/util/audit.hh) is
 * set -- one relaxed atomic load on the disabled path -- and panics
 * with the rendered AuditReport when a conservation law is violated,
 * so a broken refactor fails the offending test or bench run rather
 * than silently skewing a table.
 *
 * The hooks take plain data (counters, operands, raw product counts)
 * rather than model types so that verify stays below the model
 * libraries in the dependency order: scnn/ant/baselines/workload link
 * ant_verify, never the reverse.
 */

#ifndef ANTSIM_VERIFY_AUDIT_HOOKS_HH
#define ANTSIM_VERIFY_AUDIT_HOOKS_HH

#include <cstdint>
#include <vector>

#include "verify/invariant_auditor.hh"

namespace antsim {
namespace verify {

/**
 * Audit one PE execution (operand structure, counter laws, output
 * plane); panics with the report on violation. @p model names the
 * offender in the panic message.
 */
void auditPeRunOrPanic(const char *model, const ProblemSpec &spec,
                       const std::vector<const CsrMatrix *> &kernels,
                       const CsrMatrix &image, const PeResult &result,
                       ProductSpace space);

/**
 * Audit an aggregated counter set (universal laws only, since the sum
 * may span cartesian and inner-product models). @p slack absorbs the
 * per-counter rounding of CounterSet::scale(): pass 2 per scaled set
 * summed into @p counters, 0 for raw sums.
 */
void auditAggregateOrPanic(const char *what, const CounterSet &counters,
                           std::uint64_t slack);

} // namespace verify
} // namespace antsim

#endif // ANTSIM_VERIFY_AUDIT_HOOKS_HH
