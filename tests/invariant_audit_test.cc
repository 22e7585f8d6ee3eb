/**
 * @file
 * Tests for the invariant-audit subsystem (src/verify).
 *
 * Two directions: the auditor must catch seeded violations (corrupted
 * counter sets, malformed CSR arrays, NaN outputs), and it must pass
 * cleanly on everything the real models produce -- including the
 * paper-regression workloads, which run here with audits enabled.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "oracles/ant_pipeline.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/audit.hh"
#include "util/rng.hh"
#include "verify/audit_hooks.hh"
#include "verify/invariant_auditor.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

/** A consistent counter set satisfying every law. */
CounterSet
consistentCounters()
{
    CounterSet c;
    c.set(Counter::MultsExecuted, 100);
    c.set(Counter::MultsValid, 70);
    c.set(Counter::MultsRcp, 30);
    c.set(Counter::RcpsAvoided, 50);
    c.set(Counter::AccumAdds, 70);
    c.set(Counter::OutputIndexCalcs, 100);
    c.set(Counter::StartupCycles, 5);
    c.set(Counter::ActiveCycles, 40);
    c.set(Counter::IdleScanCycles, 12);
    c.set(Counter::Cycles, 57);
    return c;
}

AuditScope
cartesianScope()
{
    AuditScope scope;
    scope.space = ProductSpace::Cartesian;
    scope.totalProducts = 150; // 100 executed + 50 avoided
    scope.denseProducts = 400;
    return scope;
}

/** True when @p report flags @p law (possibly among others). */
bool
flags(const AuditReport &report, const std::string &law)
{
    for (const InvariantViolation &v : report.violations) {
        if (v.law == law)
            return true;
    }
    return false;
}

TEST(InvariantAuditor, ConsistentCountersPass)
{
    const InvariantAuditor auditor;
    const AuditReport report =
        auditor.auditCounters(consistentCounters(), cartesianScope());
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.toString(), "all invariants hold");
}

TEST(InvariantAuditor, CatchesCorruptedMultSplit)
{
    CounterSet c = consistentCounters();
    c.set(Counter::MultsValid, 71); // valid + rcp no longer == executed
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCounters(c, cartesianScope());
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(flags(report, "mults-split")) << report.toString();
    // AccumAdds == MultsValid also breaks: both laws must surface.
    EXPECT_TRUE(flags(report, "accum-valid")) << report.toString();
}

TEST(InvariantAuditor, CatchesLostProducts)
{
    CounterSet c = consistentCounters();
    c.set(Counter::RcpsAvoided, 49); // one product vanished
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCounters(c, cartesianScope());
    EXPECT_TRUE(flags(report, "product-total")) << report.toString();
}

TEST(InvariantAuditor, CatchesCycleLeak)
{
    CounterSet c = consistentCounters();
    c.set(Counter::Cycles, 60); // 3 cycles unaccounted for
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCounters(c, cartesianScope());
    EXPECT_TRUE(flags(report, "cycle-split")) << report.toString();
}

TEST(InvariantAuditor, CatchesRcpBoundViolation)
{
    CounterSet c = consistentCounters();
    AuditScope scope = cartesianScope();
    scope.denseProducts = 60; // avoided + rcp = 80 > 60
    scope.totalProducts.reset();
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCounters(c, scope);
    EXPECT_TRUE(flags(report, "rcp-bound")) << report.toString();
}

TEST(InvariantAuditor, InnerProductSpaceForbidsRcps)
{
    CounterSet c;
    c.set(Counter::MultsExecuted, 10);
    c.set(Counter::MultsValid, 10);
    c.set(Counter::AccumAdds, 10);
    c.set(Counter::MultsRcp, 1); // impossible for an inner product
    c.set(Counter::MultsExecuted, 11);
    AuditScope scope;
    scope.space = ProductSpace::InnerProduct;
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCounters(c, scope);
    EXPECT_TRUE(flags(report, "no-rcp-space")) << report.toString();
}

TEST(InvariantAuditor, SlackAbsorbsScalingRounding)
{
    CounterSet c = consistentCounters();
    c.scale(7, 3); // per-counter rounding perturbs the equalities
    AuditScope scope;
    scope.space = ProductSpace::Mixed;
    scope.slack = 2;
    const InvariantAuditor auditor;
    EXPECT_TRUE(auditor.auditCounters(c, scope).ok());
}

TEST(InvariantAuditor, MalformedCsrDecreasingRowPtr)
{
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCsrArrays(
        /*height=*/2, /*width=*/4, std::vector<float>{1.0f, 2.0f},
        std::vector<std::uint32_t>{0, 1}, std::vector<std::uint32_t>{0, 2, 1});
    EXPECT_TRUE(flags(report, "csr-row-ptr")) << report.toString();
}

TEST(InvariantAuditor, MalformedCsrUnsortedColumns)
{
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCsrArrays(
        /*height=*/1, /*width=*/4, std::vector<float>{1.0f, 2.0f},
        std::vector<std::uint32_t>{2, 1}, std::vector<std::uint32_t>{0, 2});
    EXPECT_TRUE(flags(report, "csr-columns")) << report.toString();
}

TEST(InvariantAuditor, MalformedCsrColumnOutOfRange)
{
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCsrArrays(
        /*height=*/1, /*width=*/2, std::vector<float>{1.0f},
        std::vector<std::uint32_t>{5}, std::vector<std::uint32_t>{0, 1});
    EXPECT_TRUE(flags(report, "csr-columns")) << report.toString();
}

TEST(InvariantAuditor, MalformedCsrNnzMismatch)
{
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditCsrArrays(
        /*height=*/1, /*width=*/4, std::vector<float>{1.0f, 2.0f},
        std::vector<std::uint32_t>{0, 1}, std::vector<std::uint32_t>{0, 1});
    EXPECT_TRUE(flags(report, "csr-nnz")) << report.toString();
}

TEST(InvariantAuditor, WellFormedCsrPasses)
{
    Rng rng(7);
    const CsrMatrix m =
        CsrMatrix::fromDense(bernoulliPlane(9, 9, 0.6, rng));
    const InvariantAuditor auditor;
    EXPECT_TRUE(auditor.auditCsr(m).ok());
}

TEST(InvariantAuditor, NonFiniteOutputCaught)
{
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 8, 8);
    Dense2d<double> out(spec.outH(), spec.outW());
    out.at(1, 1) = std::numeric_limits<double>::quiet_NaN();
    const InvariantAuditor auditor;
    const AuditReport report = auditor.auditOutput(spec, out);
    EXPECT_TRUE(flags(report, "output-finite")) << report.toString();
}

TEST(InvariantAuditor, WrongOutputShapeCaught)
{
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 8, 8);
    const Dense2d<double> out(2, 2);
    const InvariantAuditor auditor;
    EXPECT_TRUE(flags(auditor.auditOutput(spec, out), "output-shape"));
}

TEST(AuditHooks, PanicsOnCorruptedAggregate)
{
    ASSERT_TRUE(audit::enabled()); // forced on by audit_env.cc
    CounterSet c = consistentCounters();
    c.set(Counter::AccumAdds, 1); // != MultsValid
    EXPECT_DEATH(verify::auditAggregateOrPanic("test counters", c, 0),
                 "invariant audit failed.*accum-valid");
}

TEST(AuditHooks, SilentWhenDisabled)
{
    CounterSet c = consistentCounters();
    c.set(Counter::AccumAdds, 1);
    audit::setEnabled(false);
    verify::auditAggregateOrPanic("test counters", c, 0); // no panic
    audit::setEnabled(true);
    SUCCEED();
}

TEST(AuditHooks, PipelineCensusChecked)
{
    EXPECT_DEATH(verify::auditPipelineCountsOrPanic("test pipeline",
                                                    /*executed=*/10,
                                                    /*valid=*/5,
                                                    /*residual_rcps=*/4,
                                                    /*total_products=*/100),
                 "invariant audit failed.*mults-split");
}

/** Every real model passes its own audit on a representative pair. */
TEST(AuditHooks, RealModelsPassAudit)
{
    ASSERT_TRUE(audit::enabled());
    Rng rng(11);
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 12, 12);
    const CsrMatrix kernel =
        CsrMatrix::fromDense(bernoulliPlane(3, 3, 0.5, rng));
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(12, 12, 0.8, rng));

    ScnnPe scnn;
    AntPe ant;
    DenseInnerProductPe dense;
    TensorDashPe tdash;
    for (PeModel *pe :
         std::vector<PeModel *>{&scnn, &ant, &dense, &tdash}) {
        const PeResult r = pe->runPair(spec, kernel, image, true);
        EXPECT_GT(r.counters.get(Counter::Cycles), 0u) << pe->name();
    }
}

/** The paper-regression workload path runs clean under full audits. */
TEST(AuditHooks, RunnerWorkloadsPassAudit)
{
    ASSERT_TRUE(audit::enabled());
    RunConfig cfg;
    cfg.sampleCap = 2;
    ScnnPe scnn;
    AntPe ant;
    const auto profile = SparsityProfile::swat(0.9);
    const auto layers = resnet18Cifar();
    const auto s = runConvNetwork(scnn, layers, profile, cfg);
    const auto a = runConvNetwork(ant, layers, profile, cfg);
    EXPECT_GT(s.total.get(Counter::Cycles), a.total.get(Counter::Cycles));
}

} // namespace
} // namespace antsim
