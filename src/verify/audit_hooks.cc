#include "audit_hooks.hh"

#include "util/audit.hh"
#include "util/logging.hh"

namespace antsim {
namespace verify {

void
auditPeRunOrPanic(const char *model, const ProblemSpec &spec,
                  const std::vector<const CsrMatrix *> &kernels,
                  const CsrMatrix &image, const PeResult &result,
                  ProductSpace space)
{
    if (!audit::enabled())
        return;
    const InvariantAuditor auditor;
    const AuditReport report =
        auditor.auditPeRun(spec, kernels, image, result, space);
    if (!report.ok()) {
        ANT_PANIC("invariant audit failed for ", model, " on ",
                  spec.toString(), ":\n", report.toString(),
                  "counters:\n", result.counters.toString());
    }
}

void
auditAggregateOrPanic(const char *what, const CounterSet &counters,
                      std::uint64_t slack)
{
    if (!audit::enabled())
        return;
    const InvariantAuditor auditor;
    AuditScope scope;
    scope.space = ProductSpace::Mixed;
    scope.slack = slack;
    const AuditReport report = auditor.auditCounters(counters, scope);
    if (!report.ok()) {
        ANT_PANIC("invariant audit failed for ", what, ":\n",
                  report.toString(), "counters:\n", counters.toString());
    }
}

} // namespace verify
} // namespace antsim
