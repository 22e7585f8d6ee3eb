#include "invariant_auditor.hh"

#include <cmath>
#include <sstream>

namespace antsim {

namespace {

/** |a - b| for unsigned operands. */
std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

/** Record a violation of @p law with a streamed detail message. */
template <typename... Args>
void
flag(AuditReport &report, const char *law, Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    report.violations.push_back({law, oss.str()});
}

/** Check lhs == rhs up to @p slack and record @p law otherwise. */
void
requireEqual(AuditReport &report, const char *law, const char *lhs_name,
             std::uint64_t lhs, const char *rhs_name, std::uint64_t rhs,
             std::uint64_t slack)
{
    if (absDiff(lhs, rhs) > slack) {
        flag(report, law, lhs_name, " = ", lhs, " but ", rhs_name, " = ",
             rhs, (slack > 0 ? " (slack exceeded)" : ""));
    }
}

} // namespace

AuditReport &
AuditReport::operator+=(const AuditReport &other)
{
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
    return *this;
}

std::string
AuditReport::toString() const
{
    if (ok())
        return "all invariants hold";
    std::ostringstream oss;
    oss << violations.size() << " invariant violation"
        << (violations.size() == 1 ? "" : "s") << ":\n";
    for (const InvariantViolation &v : violations)
        oss << "  [" << v.law << "] " << v.detail << '\n';
    return oss.str();
}

AuditReport
InvariantAuditor::auditCounters(const CounterSet &counters,
                                const AuditScope &scope) const
{
    AuditReport report;

    const std::uint64_t executed = counters.get(Counter::MultsExecuted);
    const std::uint64_t valid = counters.get(Counter::MultsValid);
    const std::uint64_t rcp = counters.get(Counter::MultsRcp);
    const std::uint64_t avoided = counters.get(Counter::RcpsAvoided);

    // Sec. 6.1 counting rule: every executed multiply is either valid
    // or a (residual) RCP -- nothing may vanish from the census.
    requireEqual(report, "mults-split", "MultsExecuted", executed,
                 "MultsValid + MultsRcp", valid + rcp, scope.slack);

    // Each valid product accumulates exactly once (Sec. 6.1).
    requireEqual(report, "accum-valid", "AccumAdds",
                 counters.get(Counter::AccumAdds), "MultsValid", valid,
                 scope.slack);

    // Sec. 4 cycle model: a PE cycle is start-up, active issue, or an
    // idle scan advance -- the three phases partition the total.
    const std::uint64_t phase_sum = counters.get(Counter::StartupCycles) +
        counters.get(Counter::ActiveCycles) +
        counters.get(Counter::IdleScanCycles);
    requireEqual(report, "cycle-split",
                 "StartupCycles + ActiveCycles + IdleScanCycles",
                 phase_sum, "Cycles", counters.get(Counter::Cycles),
                 scope.slack);

    if (scope.space == ProductSpace::Cartesian) {
        // Outer-product machines compute one output index per executed
        // product (the accumulator is the final validity authority).
        requireEqual(report, "index-calcs", "OutputIndexCalcs",
                     counters.get(Counter::OutputIndexCalcs),
                     "MultsExecuted", executed, scope.slack);

        // Conservation of the trace's product space: executed plus
        // anticipated-away products reconstruct nnzK * nnzI exactly.
        if (scope.totalProducts) {
            requireEqual(report, "product-total",
                         "MultsExecuted + RcpsAvoided", executed + avoided,
                         "trace nonzero products", *scope.totalProducts,
                         scope.slack);
        }

        // RCPs (suffered or avoided) are a subset of the dense
        // cartesian product space.
        if (scope.denseProducts &&
            avoided + rcp > *scope.denseProducts + scope.slack) {
            flag(report, "rcp-bound", "RcpsAvoided + MultsRcp = ",
                 avoided + rcp, " exceeds dense cartesian products = ",
                 *scope.denseProducts);
        }
    } else if (scope.space == ProductSpace::InnerProduct) {
        // Inner-product machines map every MAC to its output: there is
        // no RCP to suffer or to avoid (Sec. 7.7).
        if (rcp != 0 || avoided != 0) {
            flag(report, "no-rcp-space", "inner-product model reports "
                 "MultsRcp = ", rcp, ", RcpsAvoided = ", avoided,
                 " (both must be zero)");
        }
    }

    // Energy attribution must be physical: finite and non-negative for
    // every component.
    const EnergyBreakdown energy = energy_.evaluate(counters);
    const double components[] = {energy.multiplyPj, energy.accumulatePj,
                                 energy.indexLogicPj, energy.sramPj};
    const char *component_names[] = {"multiply", "accumulate",
                                     "index-logic", "sram"};
    for (std::size_t i = 0; i < 4; ++i) {
        if (!std::isfinite(components[i]) || components[i] < 0.0) {
            flag(report, "energy", component_names[i],
                 " energy is non-physical: ", components[i], " pJ");
        }
    }

    return report;
}

AuditReport
InvariantAuditor::auditCsrArrays(std::uint32_t height, std::uint32_t width,
                                 std::span<const float> values,
                                 std::span<const std::uint32_t> columns,
                                 std::span<const std::uint32_t> row_ptr)
    const
{
    AuditReport report;

    if (row_ptr.size() != static_cast<std::size_t>(height) + 1) {
        flag(report, "csr-row-ptr", "row-pointer array has ",
             row_ptr.size(), " entries, want height + 1 = ", height + 1);
        return report; // The remaining checks index row_ptr.
    }
    if (row_ptr.front() != 0) {
        flag(report, "csr-row-ptr", "row_ptr[0] = ", row_ptr.front(),
             ", want 0");
    }
    for (std::uint32_t y = 0; y < height; ++y) {
        if (row_ptr[y + 1] < row_ptr[y]) {
            flag(report, "csr-row-ptr", "row_ptr decreases at row ", y,
                 ": ", row_ptr[y], " -> ", row_ptr[y + 1]);
        }
    }
    if (values.size() != columns.size()) {
        flag(report, "csr-nnz", "values has ", values.size(),
             " entries but columns has ", columns.size());
    }
    if (row_ptr.back() != values.size()) {
        flag(report, "csr-nnz", "row_ptr.back() = ", row_ptr.back(),
             " but values holds ", values.size(), " entries");
    }

    const std::size_t positions =
        std::min(values.size(),
                 static_cast<std::size_t>(row_ptr.back()));
    for (std::uint32_t y = 0; y < height; ++y) {
        const std::uint32_t begin = row_ptr[y];
        const std::uint32_t end =
            std::min<std::uint32_t>(row_ptr[y + 1],
                                    static_cast<std::uint32_t>(positions));
        for (std::uint32_t i = begin; i < end && i < columns.size(); ++i) {
            if (columns[i] >= width) {
                flag(report, "csr-columns", "row ", y, " stores column ",
                     columns[i], " outside width ", width);
            }
            if (i > begin && columns[i] <= columns[i - 1]) {
                flag(report, "csr-columns", "row ", y,
                     " columns not strictly increasing: ", columns[i - 1],
                     " then ", columns[i]);
            }
        }
    }
    return report;
}

AuditReport
InvariantAuditor::auditCsr(const CsrMatrix &matrix) const
{
    return auditCsrArrays(matrix.height(), matrix.width(), matrix.values(),
                          matrix.columns(), matrix.rowPtr());
}

AuditReport
InvariantAuditor::auditOutput(const ProblemSpec &spec,
                              const Dense2d<double> &output) const
{
    AuditReport report;
    if (output.height() != spec.outH() || output.width() != spec.outW()) {
        flag(report, "output-shape", "output plane is ", output.height(),
             "x", output.width(), ", spec wants ", spec.outH(), "x",
             spec.outW());
        return report;
    }
    for (std::size_t i = 0; i < output.data().size(); ++i) {
        if (!std::isfinite(output.data()[i])) {
            flag(report, "output-finite", "output element ", i, " is ",
                 output.data()[i]);
            return report; // One NaN implies many; report the first.
        }
    }
    return report;
}

AuditReport
InvariantAuditor::auditPeRun(const ProblemSpec &spec,
                             const std::vector<const CsrMatrix *> &kernels,
                             const CsrMatrix &image, const PeResult &result,
                             ProductSpace space) const
{
    AuditReport report;
    std::uint64_t kernel_nnz = 0;
    for (const CsrMatrix *kernel : kernels) {
        report += auditCsr(*kernel);
        kernel_nnz += kernel->nnz();
    }
    report += auditCsr(image);

    AuditScope scope;
    scope.space = space;
    if (space == ProductSpace::Cartesian) {
        scope.totalProducts = kernel_nnz * image.nnz();
        scope.denseProducts =
            spec.denseCartesianProducts() * kernels.size();
    }
    report += auditCounters(result.counters, scope);

    if (result.output.size() > 0)
        report += auditOutput(spec, result.output);
    return report;
}

} // namespace antsim
