/**
 * @file
 * Analytical estimation fast path (`--estimate`): predict, in
 * O(layers) with no per-nonzero work, the quantities the cycle-level
 * engine measures -- cycles, energy inputs, RCPs avoided, multiplier
 * utilization, and the per-layer stall split -- for all four PE models.
 *
 * The estimator models the plane *ensemble* a PlaneRecipe describes
 * (src/workload/tracegen.hh) instead of sampling instances: top-K
 * sparsification fixes the non-zero count exactly (topKKeep,
 * llround(h*w*(1-s)), workload/tracegen.hh), Bernoulli masking gives
 * its expectation, and expected valid-product counts factorize per
 * axis because ProblemSpec validity is separable in x/s and y/r
 * (conv/problem_spec.cc). Each PE's counter charges are mirrored in
 * closed form from the counting paths in scnn_pe.cc / ant_pe.cc /
 * inner_product.cc; the AntPe scan loop is modeled on a bounded,
 * deterministic sample of image groups (quantile positions), keeping
 * the whole estimate O(layers * constants).
 *
 * Conservation laws hold *by construction*: real-valued expectations
 * are rounded once, at the end, with dependent counters derived by
 * exact integer arithmetic (MultsExecuted = MultsValid + MultsRcp,
 * AccumAdds = MultsValid, Cycles = Startup + Active + IdleScan), so
 * the estimated NetworkStats pass verify::auditAggregateOrPanic with
 * zero slack. Accuracy against the cycle-level engine is gated by
 * tests/estimate_accuracy_test.cc; docs/MODEL.md Sec. 12 derives the
 * per-PE closed forms.
 */

#ifndef ANTSIM_ESTIMATE_ESTIMATE_HH
#define ANTSIM_ESTIMATE_ESTIMATE_HH

#include <optional>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"

namespace antsim {
namespace estimate {

/** Which analytical model to apply. */
enum class PeKind {
    Scnn,
    Ant,
    DenseInnerProduct,
    TensorDash,
};

/**
 * Analytical description of a PE: its kind plus the configuration the
 * matching model reads. Exactly one of the config members is
 * meaningful, selected by `kind`.
 */
struct PeDescriptor
{
    PeKind kind = PeKind::Scnn;
    ScnnPeConfig scnn;
    AntPeConfig ant;
    InnerProductConfig inner;

    static PeDescriptor
    of(const ScnnPeConfig &config)
    {
        PeDescriptor d;
        d.kind = PeKind::Scnn;
        d.scnn = config;
        return d;
    }

    static PeDescriptor
    of(const AntPeConfig &config)
    {
        PeDescriptor d;
        d.kind = PeKind::Ant;
        d.ant = config;
        return d;
    }

    static PeDescriptor
    ofDense(const InnerProductConfig &config)
    {
        PeDescriptor d;
        d.kind = PeKind::DenseInnerProduct;
        d.inner = config;
        return d;
    }

    static PeDescriptor
    ofTensorDash(const InnerProductConfig &config)
    {
        PeDescriptor d;
        d.kind = PeKind::TensorDash;
        d.inner = config;
        return d;
    }

    /** Display name matching the simulated PE (PeModel::name). */
    const char *name() const;

    /** Multipliers, matching PeModel::multiplierCount. */
    std::uint32_t multiplierCount() const;
};

/**
 * Describe a concrete PE model for estimation, or nullopt when no
 * analytical model exists for its dynamic type.
 */
std::optional<PeDescriptor> describePe(const PeModel &pe);

/**
 * Analytically estimate a conv network's training step: the estimated
 * counterpart of runConvNetwork, same RunConfig semantics (sampleCap
 * is irrelevant -- the estimate covers every plane pair exactly, so
 * pairsSimulated == pairsTotal), same NetworkStats shape, audited
 * under the aggregate conservation laws.
 */
NetworkStats estimateConvNetwork(const PeDescriptor &pe,
                                 const std::vector<ConvLayer> &layers,
                                 const SparsityProfile &profile,
                                 const RunConfig &config);

/** Estimated counterpart of runMatmulNetwork. */
NetworkStats estimateMatmulNetwork(const PeDescriptor &pe,
                                   const std::vector<MatmulLayer> &layers,
                                   double sparsity, SparsifyMethod method,
                                   const RunConfig &config);

} // namespace estimate
} // namespace antsim

#endif // ANTSIM_ESTIMATE_ESTIMATE_HH
