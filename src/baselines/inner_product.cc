#include "inner_product.hh"

#include <algorithm>
#include <cmath>

#include "conv/dense_conv.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/**
 * Per-axis count of valid kernel positions for each image coordinate:
 * positions[i] = #{k : (i - dil*k) >= 0, divisible by stride,
 *                     quotient < out_dim, k < kernel_dim}.
 */
std::vector<std::uint32_t>
axisPositionCounts(std::uint32_t image_dim, std::uint32_t kernel_dim,
                   std::uint32_t out_dim, std::uint32_t stride,
                   std::uint32_t dil)
{
    std::vector<std::uint32_t> counts(image_dim, 0);
    for (std::uint32_t k = 0; k < kernel_dim; ++k) {
        for (std::uint32_t o = 0; o < out_dim; ++o) {
            const std::uint64_t i =
                static_cast<std::uint64_t>(stride) * o +
                static_cast<std::uint64_t>(dil) * k;
            if (i < image_dim)
                ++counts[static_cast<std::size_t>(i)];
        }
    }
    return counts;
}

/** Charge dense-format SRAM traffic: 4 x 16-bit values per access. */
void
chargeDenseReads(std::uint64_t elements, CounterSet &counters)
{
    counters.add(Counter::SramValueReads, (elements + 3) / 4);
}

/** Sum a kernel stack into one dense plane (for functional checks). */
Dense2d<float>
sumKernels(const std::vector<const CsrMatrix *> &kernels)
{
    Dense2d<float> sum = kernels.front()->toDense();
    for (std::size_t i = 1; i < kernels.size(); ++i) {
        const Dense2d<float> d = kernels[i]->toDense();
        for (std::size_t j = 0; j < sum.data().size(); ++j)
            sum.data()[j] += d.data()[j];
    }
    return sum;
}

} // namespace

std::uint64_t
nonzeroImageMacs(const ProblemSpec &spec, const CsrMatrix &image)
{
    ANT_ASSERT(spec.kind() == ProblemSpec::Kind::Conv,
               "inner-product baselines model convolutions only");
    const auto x_counts =
        axisPositionCounts(spec.imageW(), spec.kernelW(), spec.outW(),
                           spec.stride(), spec.dilation());
    const auto y_counts =
        axisPositionCounts(spec.imageH(), spec.kernelH(), spec.outH(),
                           spec.stride(), spec.dilation());

    std::uint64_t macs = 0;
    const auto &row_ptr = image.rowPtr();
    const auto &columns = image.columns();
    for (std::uint32_t y = 0; y < image.height(); ++y) {
        const std::uint64_t yc = y_counts[y];
        if (yc == 0)
            continue;
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i)
            macs += yc * x_counts[columns[i]];
    }
    return macs;
}

DenseInnerProductPe::DenseInnerProductPe(const InnerProductConfig &config)
    : config_(config)
{
    ANT_ASSERT(config_.multipliers > 0, "tile needs multipliers");
}

PeResult
DenseInnerProductPe::runStack(const ProblemSpec &spec,
                              const std::vector<const CsrMatrix *> &kernels,
                              const CsrMatrix &image, bool collect_output)
{
    ANT_ASSERT(!kernels.empty(), "kernel stack must not be empty");
    PeResult result;
    CounterSet &c = result.counters;

    // The dense datapath executes every MAC of every kernel plane: all
    // of them are useful (inner products have no RCPs), but zero
    // operands are multiplied anyway.
    const std::uint64_t macs =
        spec.denseValidProducts() * kernels.size();
    c.add(Counter::MultsExecuted, macs);
    c.add(Counter::MultsValid, macs);
    c.add(Counter::AccumAdds, macs);

    // IM2COL-style streaming: each MAC reads one kernel and one image
    // element in dense format.
    chargeDenseReads(2 * macs, c);
    // One output write per output element per kernel plane.
    c.add(Counter::SramWrites,
          kernels.size() *
              ((static_cast<std::uint64_t>(spec.outH()) * spec.outW() +
                3) /
               4));

    const std::uint64_t cycles = config_.startupCycles +
        (macs + config_.multipliers - 1) / config_.multipliers;
    c.add(Counter::StartupCycles, config_.startupCycles);
    c.add(Counter::ActiveCycles, cycles - config_.startupCycles);
    c.set(Counter::Cycles, cycles);
    if (auto *rec = obs::recorder()) {
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);
        rec->advance(obs::SpanKind::Active, cycles - config_.startupCycles);
    }

    if (collect_output) {
        result.output =
            referenceExecute(spec, sumKernels(kernels), image.toDense());
    }
    verify::auditPeRunOrPanic("DaDianNao-like PE", spec, kernels, image,
                              result, ProductSpace::InnerProduct);
    return result;
}

TensorDashPe::TensorDashPe(const InnerProductConfig &config)
    : config_(config)
{
    ANT_ASSERT(config_.packWindow >= 1, "pack window must be at least 1");
    ANT_ASSERT(config_.packEfficiency > 0.0 &&
               config_.packEfficiency <= 1.0,
               "pack efficiency must be in (0, 1]");
}

PeResult
TensorDashPe::runStack(const ProblemSpec &spec,
                       const std::vector<const CsrMatrix *> &kernels,
                       const CsrMatrix &image, bool collect_output)
{
    ANT_ASSERT(!kernels.empty(), "kernel stack must not be empty");
    PeResult result;
    CounterSet &c = result.counters;

    const std::uint64_t dense_macs =
        spec.denseValidProducts() * kernels.size();
    const std::uint64_t nz_macs =
        nonzeroImageMacs(spec, image) * kernels.size();

    // Only the non-zero-image MACs execute; they are all useful.
    c.add(Counter::MultsExecuted, nz_macs);
    c.add(Counter::MultsValid, nz_macs);
    c.add(Counter::AccumAdds, nz_macs);
    c.set(Counter::RcpsAvoided, 0);

    // Packing model: compression is bounded by the visible window
    // depth, then derated by scheduler efficiency (see file header).
    const double m = static_cast<double>(config_.multipliers);
    const double window_bound =
        static_cast<double>(dense_macs) /
        (m * static_cast<double>(config_.packWindow));
    const double work_bound = static_cast<double>(nz_macs) / m;
    const double compute_cycles =
        std::max(window_bound, work_bound) / config_.packEfficiency;

    // Single rounding site: packEfficiency is a fractional model
    // parameter, so the cycle bound is inherently float-domain; it is
    // rounded to an integer exactly once here, and every counter below
    // derives from this value in integer arithmetic (previously the
    // ceil was taken independently at two sites).
    // antsim-lint: allow(counter-exactness) -- one documented rounding
    const std::uint64_t compute_cycle_count =
        static_cast<std::uint64_t>(std::ceil(compute_cycles));
    const std::uint64_t cycles =
        config_.startupCycles + compute_cycle_count;
    c.add(Counter::StartupCycles, config_.startupCycles);
    c.add(Counter::ActiveCycles, cycles - config_.startupCycles);
    c.set(Counter::Cycles, cycles);
    if (auto *rec = obs::recorder()) {
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);
        rec->advance(obs::SpanKind::Active, cycles - config_.startupCycles);
    }

    // Traffic: the sparse (image) side streams compressed value+index
    // pairs; the dense (kernel) side streams every scheduled slot.
    c.add(Counter::SramValueReads, (nz_macs + 1) / 2);
    c.add(Counter::SramIndexReads, (nz_macs + 1) / 2);
    chargeDenseReads(compute_cycle_count * config_.multipliers, c);
    c.add(Counter::SramWrites,
          kernels.size() *
              ((static_cast<std::uint64_t>(spec.outH()) * spec.outW() +
                3) /
               4));

    if (collect_output) {
        result.output =
            referenceExecute(spec, sumKernels(kernels), image.toDense());
    }
    verify::auditPeRunOrPanic("TensorDash-like PE", spec, kernels, image,
                              result, ProductSpace::InnerProduct);
    return result;
}

} // namespace antsim
