#include "estimate.hh"

#include <algorithm>
#include <cmath>

#include "conv/problem_spec.hh"
#include "util/logging.hh"
#include "verify/audit_hooks.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace estimate {

namespace {

/**
 * Deterministic group-quantile sample size per operand chunk. The
 * AntPe scan model evaluates this many representative image (or
 * kernel) groups per chunk instead of every group, bounding the whole
 * estimate at O(layers * kGroupSamples) regardless of density.
 */
constexpr std::uint32_t kGroupSamples = 64;

/** Real-domain ceil with a tolerance so exact integers stay exact. */
double
rceil(double v)
{
    return std::ceil(v - 1e-9);
}

/**
 * The estimator's float -> counter rounding primitive. All
 * expectations are carried in the real domain and each independent
 * component is rounded exactly once, at a sanctioned declaration in
 * toCounters; dependent counters (MultsExecuted, Cycles) are then
 * derived by exact integer arithmetic so the aggregate conservation
 * laws hold by construction.
 */
std::uint64_t
roundCount(double v)
{
    if (v <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(std::llround(v));
}

/** One plane ensemble: expected non-zeros plus embedded geometry. */
struct Ensemble
{
    /** Expected non-zeros (exact for top-K, mean for Bernoulli). */
    double nnz = 0.0;
    /** Unembedded (support) dims; entries live on the embedded grid. */
    std::uint32_t innerH = 0;
    std::uint32_t innerW = 0;
    /** Embedding border offset (both axes) and stride of support. */
    std::uint32_t offset = 0;
    std::uint32_t dilation = 1;

    /** Per-support-position inclusion probability. */
    double
    density() const
    {
        const double total =
            static_cast<double>(innerH) * static_cast<double>(innerW);
        return total > 0.0 ? nnz / total : 0.0;
    }
};

Ensemble
ensembleOf(const PlaneRecipe &recipe)
{
    Ensemble e;
    e.innerH = recipe.height;
    e.innerW = recipe.width;
    e.offset = recipe.offset;
    e.dilation = recipe.dilation;
    const double total = static_cast<double>(recipe.height) *
        static_cast<double>(recipe.width);
    const double kept = total * (1.0 - recipe.sparsity);
    // Top-K keeps exactly llround(total * (1 - sparsity)) entries
    // (tensor/sparsify.cc); Bernoulli keeps that many in expectation.
    e.nnz = recipe.method == SparsifyMethod::TopK
        ? static_cast<double>(std::llround(kept))
        : kept;
    return e;
}

/** Real-domain mirror of scnn_pe.cc's groupedAccesses. */
double
groupedAccessesReal(double elements, std::uint32_t n, std::uint32_t per)
{
    if (elements <= 0.0)
        return 0.0;
    const double full = std::floor(elements / n + 1e-9);
    const double rem = std::max(0.0, elements - full * n);
    return full * std::ceil(static_cast<double>(n) / per) +
        rceil(rem / per);
}

/** Real-domain mirror of ant_pe.cc's rowPtrAccesses. */
double
rowPtrWalk(double tables, double rows)
{
    return std::floor((tables * (rows + 1.0) + 3.0) / 4.0);
}

/** One operand chunk: entry-stream offset and expected size. */
struct Chunk
{
    double base;
    double entries;
};

/**
 * Mirror of sim/chunking.hh: slices of at most @p cap entries in
 * stream order; an empty operand still yields one (empty) chunk.
 */
std::vector<Chunk>
chunkSplit(double nnz, std::uint32_t cap)
{
    std::vector<Chunk> chunks;
    const double full = std::floor(std::max(0.0, nnz) / cap + 1e-9);
    for (double i = 0; i < full; i += 1.0)
        chunks.push_back({i * cap, static_cast<double>(cap)});
    const double rem = std::max(0.0, nnz - full * cap);
    if (rem > 1e-9 || chunks.empty())
        chunks.push_back({full * cap, rem});
    return chunks;
}

/**
 * Per-axis count of valid (image position, kernel position) pairs:
 * sum over embedded image coordinates i = off + emb_dil*u and kernel
 * coordinates c < kernel_dim of [ (i - dil*c) >= 0, divisible by
 * stride, quotient < out_dim ]. ProblemSpec validity is separable per
 * axis (problem_spec.cc), so the expected valid-product count of a
 * plane pair is density_i * density_k * X * Y with X/Y these sums.
 */
double
axisValidSum(std::uint32_t inner, std::uint32_t emb_off,
             std::uint32_t emb_dil, std::uint32_t kernel_dim,
             std::uint32_t spec_dil, std::uint32_t stride,
             std::uint32_t out_dim)
{
    double sum = 0.0;
    for (std::uint32_t u = 0; u < inner; ++u) {
        const std::int64_t i = static_cast<std::int64_t>(emb_off) +
            static_cast<std::int64_t>(emb_dil) * u;
        for (std::uint32_t c = 0; c < kernel_dim; ++c) {
            const std::int64_t d =
                i - static_cast<std::int64_t>(spec_dil) * c;
            if (d >= 0 && d % stride == 0 && d / stride < out_dim)
                sum += 1.0;
        }
    }
    return sum;
}

/** Expected valid products of one (kernel plane, image plane) pair. */
double
expectedValidPairs(const ProblemSpec &spec, const Ensemble &img,
                   const Ensemble &ker)
{
    if (spec.kind() == ProblemSpec::Kind::Matmul) {
        return img.density() * ker.density() *
            static_cast<double>(spec.denseValidProducts());
    }
    ANT_ASSERT(ker.innerH == spec.kernelH() && ker.innerW == spec.kernelW(),
               "kernel ensemble dims must match the problem spec");
    const double x_sum =
        axisValidSum(img.innerW, img.offset, img.dilation, ker.innerW,
                     spec.dilation(), spec.stride(), spec.outW());
    const double y_sum =
        axisValidSum(img.innerH, img.offset, img.dilation, ker.innerH,
                     spec.dilation(), spec.stride(), spec.outH());
    return img.density() * ker.density() * x_sum * y_sum;
}

/**
 * Real-valued expected counters of ONE stacked task (or matmul layer).
 * toCounters rounds once and derives the dependent counters exactly.
 */
struct TaskCost
{
    double startup = 0.0;
    double active = 0.0;
    double idleScan = 0.0;
    double executed = 0.0;
    double valid = 0.0;
    double compares = 0.0;
    double sramValue = 0.0;
    double sramIndex = 0.0;
    double sramRowPtr = 0.0;
    double sramWrites = 0.0;
    double rcpsAvoided = 0.0;
    double sramReadsAvoided = 0.0;
    double tasks = 0.0;
    /** Cartesian PEs compute one output index per executed product. */
    bool outputIndexPerExecuted = false;
    /** Cartesian PEs write the accumulator bank once per valid. */
    bool writesPerValid = false;
};

/**
 * Round a task expectation (scaled to all pairsTotal tasks) into a
 * CounterSet whose aggregate conservation laws hold exactly:
 * independent components are rounded once each, dependent ones are
 * derived in integer arithmetic (mults split, accumulate-valid, cycle
 * partition; see verify/invariant_auditor.cc).
 */
CounterSet
toCounters(const TaskCost &t, double scale)
{
    CounterSet c;
    // Each independent component is rounded exactly once below, and
    // every dependent counter (MultsExecuted, Cycles) is then derived
    // in exact integer arithmetic, so the aggregate conservation laws
    // hold by construction. Each rounding carries its own sanction.
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nValid = roundCount(t.valid * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nRcp =
        roundCount(std::max(0.0, t.executed - t.valid) * scale);
    const std::uint64_t nExecuted = nValid + nRcp;
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nStartup = roundCount(t.startup * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nActive = roundCount(t.active * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nIdle = roundCount(t.idleScan * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nSramWrites = roundCount(t.sramWrites * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nCompares = roundCount(t.compares * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nSramValue = roundCount(t.sramValue * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nSramIndex = roundCount(t.sramIndex * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nSramRowPtr = roundCount(t.sramRowPtr * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nRcpsAvoided = roundCount(t.rcpsAvoided * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nReadsAvoided =
        roundCount(t.sramReadsAvoided * scale);
    // antsim-lint: allow(counter-exactness) -- independent rounding
    const std::uint64_t nTasks = roundCount(t.tasks * scale);

    c.set(Counter::MultsExecuted, nExecuted);
    c.set(Counter::MultsValid, nValid);
    c.set(Counter::MultsRcp, nRcp);
    c.set(Counter::AccumAdds, nValid);
    c.set(Counter::OutputIndexCalcs,
          t.outputIndexPerExecuted ? nExecuted : 0);
    c.set(Counter::SramWrites, t.writesPerValid ? nValid : nSramWrites);
    c.set(Counter::StartupCycles, nStartup);
    c.set(Counter::ActiveCycles, nActive);
    c.set(Counter::IdleScanCycles, nIdle);
    c.set(Counter::Cycles, nStartup + nActive + nIdle);
    c.set(Counter::IndexCompares, nCompares);
    c.set(Counter::SramValueReads, nSramValue);
    c.set(Counter::SramIndexReads, nSramIndex);
    c.set(Counter::SramRowPtrReads, nSramRowPtr);
    c.set(Counter::RcpsAvoided, nRcpsAvoided);
    c.set(Counter::SramReadsAvoided, nReadsAvoided);
    c.set(Counter::TasksProcessed, nTasks);
    return c;
}

double
clampD(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

/**
 * SCNN-like stacked conv task: the closed-form counting path of
 * scnn_pe.cc evaluated on expectations, chunk by image chunk.
 */
void
scnnConvTask(const ScnnPeConfig &cfg, const ProblemSpec &spec,
             const Ensemble &img, const Ensemble &ker, double stack_size,
             std::uint32_t chunk_cap, TaskCost &t)
{
    const std::uint32_t n = cfg.n;
    const std::uint32_t value_per = cfg.buffer.elementsPerAccess();
    const std::uint32_t index_per = 2 * value_per;
    const double stack_nnz = stack_size * ker.nnz;
    const double kgroups = rceil(stack_nnz / n);
    for (const Chunk &chunk : chunkSplit(img.nnz, chunk_cap)) {
        const double igroups = rceil(chunk.entries / n);
        t.startup += cfg.startupCycles;
        t.active += igroups * kgroups;
        t.sramValue += groupedAccessesReal(chunk.entries, n, value_per) +
            igroups * groupedAccessesReal(stack_nnz, n, value_per);
        t.sramIndex += groupedAccessesReal(chunk.entries, n, index_per) +
            igroups * groupedAccessesReal(stack_nnz, n, index_per);
        t.tasks += 1.0;
    }
    t.executed = img.nnz * stack_nnz;
    t.valid =
        std::min(stack_size * expectedValidPairs(spec, img, ker),
                 t.executed);
    t.outputIndexPerExecuted = true;
    t.writesPerValid = true;
}

/** Embedded coordinate extremes of one operand group. */
struct GroupExtent
{
    std::uint32_t yMin;
    std::uint32_t yMax;
    std::uint32_t xMin;
    std::uint32_t xMax;
};

/**
 * Expected coordinate extremes of a CSR-order group of @p count
 * entries starting at stream position @p e0 of the plane ensemble.
 * Each entry is placed at its order-statistic quantile: entry i of m
 * uniform placements sits at stream position (i+1)*H/(m+1) in row
 * units, its integer part is the row and its fractional part, taken
 * as a uniform quantile of the full row width, the column.
 * The whole group is rigidly shifted by the tau-quantile of the
 * first entry's placement spread, so integrating tau across the
 * sample loop reproduces the per-group window mixture of a random
 * plane -- full here, clamped there. Placing entries individually
 * (O(group size), a config constant -- never per-nonzero work) makes
 * row-crossing groups span near-full columns automatically: the first
 * row contributes its suffix, the last row its prefix. Getting these
 * extremes right is what makes the anticipation windows -- and hence
 * RCPs avoided -- match the cycle-level engine.
 */
GroupExtent
groupExtent(const Ensemble &ens, double e0, double count, double tau)
{
    const double h = ens.innerH;
    const double w = ens.innerW;
    const double nnz = std::max(ens.nnz, 1e-9);
    const double u0 = (e0 + 1.0) / (nnz + 1.0);
    const auto entries = static_cast<std::uint32_t>(
        clampD(std::floor(count + 0.5), 1.0, 64.0));
    // Clamp the rigid shift once so edge groups slide inside the plane
    // keeping their span, instead of collapsing entry by entry onto
    // the border (which would fabricate degenerate one-cell windows).
    const double base_lo = (e0 + 1.0) * h / (nnz + 1.0);
    const double base_hi = (e0 + entries) * h / (nnz + 1.0);
    double spread = h *
        std::sqrt(12.0 * u0 * (1.0 - u0) / (nnz + 2.0)) *
        (tau - 0.5);
    const double shift_lo = -base_lo;
    const double shift_hi = (h - 1e-6) - base_hi;
    spread = shift_hi < shift_lo ? 0.5 * (shift_lo + shift_hi)
                                 : clampD(spread, shift_lo, shift_hi);
    double row_min = h;
    double row_max = 0.0;
    double col_min = w;
    double col_max = 0.0;
    for (std::uint32_t i = 0; i < entries; ++i) {
        const double v = clampD(
            (e0 + i + 1.0) * h / (nnz + 1.0) + spread, 0.0, h - 1e-6);
        const double row = std::floor(v);
        const double col =
            clampD(std::floor((v - row) * w), 0.0, w - 1.0);
        row_min = std::min(row_min, row);
        row_max = std::max(row_max, row);
        col_min = std::min(col_min, col);
        col_max = std::max(col_max, col);
    }
    GroupExtent ext;
    ext.yMin = ens.offset +
        ens.dilation * static_cast<std::uint32_t>(row_min);
    ext.yMax = ens.offset +
        ens.dilation * static_cast<std::uint32_t>(row_max);
    ext.xMin =
        ens.offset + ens.dilation * static_cast<std::uint32_t>(col_min);
    ext.xMax =
        ens.offset + ens.dilation * static_cast<std::uint32_t>(col_max);
    return ext;
}

/**
 * ANT image-stationary stacked conv task (ant_pe.cc runConvStack).
 * Image groups are modeled at deterministic quantile positions over
 * the entry stream; groupExtent maps each sampled group to expected
 * row/column extremes, the real sRange/rRange of the spec then give
 * the anticipation window the group sees, and the FNIR scan is a rate
 * model (n selections or k scans per cycle, whichever binds;
 * docs/MODEL.md Sec. 12).
 */
void
antConvImageStationaryTask(const AntPeConfig &cfg, const ProblemSpec &spec,
                           const Ensemble &img, const Ensemble &ker,
                           double stack_size, std::uint32_t chunk_cap,
                           TaskCost &t)
{
    const std::uint32_t n = cfg.n;
    const std::uint32_t k = cfg.k;
    const std::uint32_t value_per = cfg.buffer.elementsPerAccess();
    const std::uint32_t index_per = 2 * value_per;
    const double kh = spec.kernelH();
    const double kw = spec.kernelW();
    const double stack_nnz = stack_size * ker.nnz;
    const double rho =
        img.innerH > 0 ? img.nnz / img.innerH : 0.0;

    double executed = 0.0;
    double index_elements = 0.0;
    double value_elements = 0.0;
    double groups_total = 0.0;

    for (const Chunk &chunk : chunkSplit(img.nnz, chunk_cap)) {
        t.startup += cfg.startupCycles;
        t.tasks += 1.0;
        if (chunk.entries < 0.5 || rho <= 0.0)
            continue;
        const double groups = rceil(chunk.entries / n);
        groups_total += groups;
        // Always spend the full sample budget: with fewer groups than
        // samples the fractional part of g sweeps each group's
        // positional-spread quantile (see groupExtent).
        const std::uint32_t samples = kGroupSamples;
        const double weight = groups / samples;

        // Average group size; the tail group's deficit is spread so
        // the per-group products sum to the chunk totals.
        const double igroup = chunk.entries / groups;
        for (std::uint32_t j = 0; j < samples; ++j) {
            // Integer part indexes the group, fractional part doubles
            // as the positional-spread quantile (when samples exceed
            // groups it sweeps each group's placement distribution).
            const double g = (j + 0.5) * groups / samples;
            const double gi = std::floor(g);
            const double tau = g - gi;
            const double e0 = chunk.base + gi * igroup;

            // Stage 1: image group fetch + range-tree compares.
            t.sramValue += weight * rceil(igroup / value_per);
            t.sramIndex += weight * rceil(igroup / index_per);
            t.compares += weight * (2.0 * (igroup - 1.0) + 4.0);

            const GroupExtent ext = groupExtent(img, e0, igroup, tau);
            const IndexRange s_range = cfg.useSCondition
                ? spec.sRange(ext.xMin, ext.xMax)
                : IndexRange{0, static_cast<std::int64_t>(kw) - 1};
            const IndexRange r_range = cfg.useRCondition
                ? spec.rRange(ext.yMin, ext.yMax)
                : IndexRange{0, static_cast<std::int64_t>(kh) - 1};
            if (s_range.empty() || r_range.empty()) {
                t.idleScan += weight;
                continue;
            }

            const double win = static_cast<double>(r_range.count());
            const bool proper = win < kh;
            const double controller =
                proper ? rowPtrWalk(stack_size, win) : 0.0;
            t.sramRowPtr += weight * controller;

            // Expected candidates: the stack's entries are uniform
            // over the kernel rows, so a win-row window holds
            // win/kernelH of them.
            const double cand = stack_nnz * win / kh;
            if (cand < 1e-9) {
                t.idleScan += weight * std::max(controller, 1.0);
                continue;
            }

            const double p = cfg.useSCondition
                ? clampD(static_cast<double>(s_range.count()) / kw, 0.0,
                         1.0)
                : 1.0;
            const double selected = p * cand;
            // FNIR rate model: the scan consumes at most k candidates
            // per cycle (comparator width) and selects at most n per
            // cycle (ports); the feedback guarantees every in-range
            // candidate is selected exactly once. Scan cycles are an
            // integer per group in the engine, so each bound rounds
            // up before they compete.
            const double scan = std::max(
                {rceil(cand / k), rceil(selected / n), 1.0});
            double active = p * k >= n
                ? scan
                : scan * (1.0 - std::pow(1.0 - p, static_cast<int>(k)));
            active = clampD(active, selected > 0.0 ? selected / n : 0.0,
                            scan);

            t.active += weight * active;
            t.idleScan += weight * (scan - active);
            if (controller > scan)
                t.idleScan += weight * (controller - scan);
            t.compares += weight * scan * 2.0 * k;

            // Buffer traffic tracks the candidates actually streamed,
            // not the rounded-up scan slots.
            const double wlen = std::min<double>(k, cand);
            const double scan_flow =
                std::max({cand / k, selected / n, 1.0});
            t.sramIndex += weight * scan_flow * rceil(wlen / index_per);
            index_elements += weight * scan_flow * wlen;
            value_elements += weight * selected;
            const double sel_per_active =
                active > 1e-12 ? selected / active : 0.0;
            t.sramValue +=
                weight * active * rceil(sel_per_active / value_per);
            executed += weight * selected * igroup;
        }
    }

    const double all_products = img.nnz * stack_nnz;
    t.valid = std::min(stack_size * expectedValidPairs(spec, img, ker),
                       all_products);
    t.executed = clampD(executed, t.valid, all_products);
    t.rcpsAvoided = all_products - t.executed;
    t.sramReadsAvoided = std::max(
        0.0,
        2.0 * stack_nnz * groups_total - (index_elements + value_elements));
    t.outputIndexPerExecuted = true;
    t.writesPerValid = true;
}

/**
 * ANT kernel-stationary conv task (runConvStackKernelStationary):
 * the mirrored dataflow -- kernel groups stationary, the image chunk's
 * y-window rows stream through the FNIR screening x indices.
 */
void
antConvKernelStationaryTask(const AntPeConfig &cfg, const ProblemSpec &spec,
                            const Ensemble &img, const Ensemble &ker,
                            double stack_size, std::uint32_t chunk_cap,
                            TaskCost &t)
{
    const std::uint32_t n = cfg.n;
    const std::uint32_t k = cfg.k;
    const std::uint32_t value_per = cfg.buffer.elementsPerAccess();
    const std::uint32_t index_per = 2 * value_per;
    const double kh = spec.kernelH();
    const double kw = spec.kernelW();
    const double stack_nnz = stack_size * ker.nnz;
    const double rho = img.innerH > 0 ? img.nnz / img.innerH : 0.0;
    const double rho_k = ker.innerH > 0 ? ker.nnz / ker.innerH : 0.0;

    double executed = 0.0;
    double value_elements = 0.0;
    double image_elements_streamed = 0.0;

    for (const Chunk &chunk : chunkSplit(img.nnz, chunk_cap)) {
        t.startup += cfg.startupCycles;
        t.tasks += 1.0;
        if (stack_nnz < 0.5)
            continue;
        // Inner-row band this image chunk covers (CSR stream order).
        // The upper bound comes from the stream-end quantile: flooring
        // (entries-1)/rho would chop the plane's last row off whenever
        // nnz is not a row multiple.
        const double band_lo = rho > 0.0
            ? clampD(std::floor(chunk.base / rho), 0.0, img.innerH - 1.0)
            : 0.0;
        const double band_hi = rho > 0.0
            ? clampD(rceil((chunk.base + chunk.entries) / rho) - 1.0, 0.0,
                     img.innerH - 1.0)
            : -1.0;

        const double kgroups = rceil(stack_nnz / n);
        // Full budget even for few groups: frac(g) sweeps the
        // positional-spread quantile (see groupExtent).
        const std::uint32_t samples = kGroupSamples;
        const double weight = kgroups / samples;

        const double kgroup = stack_nnz / kgroups;
        for (std::uint32_t j = 0; j < samples; ++j) {
            const double g = (j + 0.5) * kgroups / samples;
            const double gi = std::floor(g);
            const double tau = g - gi;

            t.sramValue += weight * rceil(kgroup / value_per);
            t.sramIndex += weight * rceil(kgroup / index_per);
            t.compares += weight * (4.0 * (kgroup - 1.0) + 4.0);

            // Stationary group's (s, r) extremes: a group smaller than
            // one kernel plane sits inside it at order-statistic rows;
            // a group straddling the boundary between two planes of the
            // merged stream is the union of one plane's tail and the
            // next plane's head (near-full support, as in the engine);
            // a group spanning whole planes behaves as independent
            // uniform placements in a single plane, which the same
            // order-statistic machinery models with nnz set to the
            // group size. Getting the proper-window fraction of each
            // case right is what RCP avoidance and the controller
            // row-pointer traffic both hinge on.
            std::uint32_t r_min = 0;
            auto r_max = static_cast<std::uint32_t>(kh - 1.0);
            std::uint32_t s_min = 0;
            auto s_max = static_cast<std::uint32_t>(kw - 1.0);
            if (rho_k > 0.0 && kgroup < ker.nnz) {
                // Plane phase of the group start. Deriving it from the
                // group's stream offset (gi * kgroup) would alias with
                // the sample stride (and the real
                // stream's per-plane nnz variance decorrelates phases
                // anyway), so sweep it as its own low-discrepancy
                // quantile.
                const double local = ker.nnz *
                    std::fmod((j + 0.5) * 0.3819660112501051, 1.0);
                if (local > ker.nnz - kgroup + 1.0) {
                    const double tail = ker.nnz - local;
                    const GroupExtent a =
                        groupExtent(ker, local, tail, tau);
                    const GroupExtent b = groupExtent(
                        ker, 0.0, kgroup - tail,
                        std::fmod(tau + 0.6180339887498949, 1.0));
                    r_min = std::min(a.yMin, b.yMin);
                    r_max = std::max(a.yMax, b.yMax);
                    s_min = std::min(a.xMin, b.xMin);
                    s_max = std::max(a.xMax, b.xMax);
                } else {
                    const GroupExtent ext = groupExtent(
                        ker, clampD(local, 0.0, ker.nnz - kgroup),
                        kgroup, tau);
                    r_min = ext.yMin;
                    r_max = ext.yMax;
                    s_min = ext.xMin;
                    s_max = ext.xMax;
                }
            } else if (rho_k > 0.0) {
                const double m = clampD(std::floor(kgroup + 0.5), 1.0, 64.0);
                Ensemble flat = ker;
                flat.nnz = m;
                const GroupExtent ext = groupExtent(flat, 0.0, m, tau);
                r_min = ext.yMin;
                r_max = ext.yMax;
                s_min = ext.xMin;
                s_max = ext.xMax;
            }

            const IndexRange x_range = cfg.useSCondition
                ? spec.xRange(s_min, s_max)
                : IndexRange{0,
                             static_cast<std::int64_t>(spec.imageW()) - 1};
            const IndexRange y_window = cfg.useRCondition
                ? spec.yRange(r_min, r_max)
                : IndexRange{0,
                             static_cast<std::int64_t>(spec.imageH()) - 1};
            if (x_range.empty() || y_window.empty()) {
                t.idleScan += weight;
                continue;
            }

            const double ywin = static_cast<double>(y_window.count());
            const bool proper = ywin < spec.imageH();
            const double controller =
                proper ? rowPtrWalk(1.0, ywin) : 0.0;
            t.sramRowPtr += weight * controller;

            // Candidates: the chunk's entries on support rows whose
            // embedded y falls inside the window.
            const double v_lo = std::max(
                band_lo,
                rceil((y_window.lo - static_cast<double>(img.offset)) /
                      img.dilation));
            const double v_hi = std::min(
                band_hi,
                std::floor((y_window.hi -
                            static_cast<double>(img.offset)) /
                           img.dilation));
            const double rows_in = std::max(0.0, v_hi - v_lo + 1.0);
            const double cand = rho * rows_in;
            if (cand < 1e-9) {
                t.idleScan += weight * std::max(controller, 1.0);
                continue;
            }

            // In-x-window probability over the embedded support cols.
            double p = 1.0;
            if (cfg.useSCondition) {
                const double u_lo = rceil(
                    (x_range.lo - static_cast<double>(img.offset)) /
                    img.dilation);
                const double u_hi = std::floor(
                    (x_range.hi - static_cast<double>(img.offset)) /
                    img.dilation);
                const double cols_in = clampD(
                    std::min<double>(u_hi, img.innerW - 1.0) -
                        std::max(0.0, u_lo) + 1.0,
                    0.0, img.innerW);
                p = img.innerW > 0 ? cols_in / img.innerW : 0.0;
            }
            const double selected = p * cand;
            // Continuous scan rate: unlike the image-stationary loop
            // the per-group candidate count here swings between the
            // plane-crossing and interior cases (both modeled above),
            // so the integer rounding averages out across the mixture.
            const double scan = std::max(
                {cand / k, selected / n, 1.0});
            double active = p * k >= n
                ? scan
                : scan * (1.0 - std::pow(1.0 - p, static_cast<int>(k)));
            active = clampD(active, selected > 0.0 ? selected / n : 0.0,
                            scan);

            t.active += weight * active;
            t.idleScan += weight * (scan - active);
            if (controller > scan)
                t.idleScan += weight * (controller - scan);
            t.compares += weight * scan * 2.0 * k;

            const double wlen = std::min<double>(k, cand);
            const double scan_flow =
                std::max({cand / k, selected / n, 1.0});
            t.sramIndex += weight * scan_flow * rceil(wlen / index_per);
            value_elements += weight * selected;
            const double sel_per_active =
                active > 1e-12 ? selected / active : 0.0;
            t.sramValue +=
                weight * active * rceil(sel_per_active / value_per);
            executed += weight * selected * kgroup;
            image_elements_streamed += weight * 2.0 * chunk.entries;
        }
    }

    const double all_products = img.nnz * stack_nnz;
    t.valid = std::min(stack_size * expectedValidPairs(spec, img, ker),
                       all_products);
    t.executed = clampD(executed, t.valid, all_products);
    t.rcpsAvoided = all_products - t.executed;
    t.sramReadsAvoided =
        std::max(0.0, image_elements_streamed - value_elements);
    t.outputIndexPerExecuted = true;
    t.writesPerValid = true;
}

/**
 * Dense inner-product (DaDianNao-like) task: exact closed form --
 * every counter of inner_product.cc is already density-free.
 */
void
denseInnerProductTask(const InnerProductConfig &cfg, const ProblemSpec &spec,
                      double stack_size, TaskCost &t)
{
    const double macs =
        static_cast<double>(spec.denseValidProducts()) * stack_size;
    const double m = cfg.multipliers;
    t.executed = macs;
    t.valid = macs;
    t.startup = cfg.startupCycles;
    t.active = rceil(macs / m);
    t.sramValue = std::floor((2.0 * macs + 3.0) / 4.0);
    const double out_elems =
        static_cast<double>(spec.outH()) * spec.outW();
    t.sramWrites = stack_size * std::floor((out_elems + 3.0) / 4.0);
    t.tasks = 1.0;
}

/** TensorDash-like task (inner_product.cc's packing model). */
void
tensorDashTask(const InnerProductConfig &cfg, const ProblemSpec &spec,
               const Ensemble &img, const Ensemble &ker, double stack_size,
               TaskCost &t)
{
    ANT_ASSERT(spec.kind() == ProblemSpec::Kind::Conv,
               "inner-product baselines model convolutions only");
    (void)ker; // the kernel side is dense in the TensorDash model
    const double dense_macs =
        static_cast<double>(spec.denseValidProducts()) * stack_size;
    // E[nonzeroImageMacs]: the per-axis position-count sums factorize
    // over the embedded support exactly like the valid-pair count.
    const double x_sum =
        axisValidSum(img.innerW, img.offset, img.dilation, spec.kernelW(),
                     spec.dilation(), spec.stride(), spec.outW());
    const double y_sum =
        axisValidSum(img.innerH, img.offset, img.dilation, spec.kernelH(),
                     spec.dilation(), spec.stride(), spec.outH());
    const double nz_macs = img.density() * x_sum * y_sum * stack_size;

    const double m = cfg.multipliers;
    const double window_bound = dense_macs / (m * cfg.packWindow);
    const double work_bound = nz_macs / m;
    const double compute_cycles =
        rceil(std::max(window_bound, work_bound) / cfg.packEfficiency);

    t.executed = nz_macs;
    t.valid = nz_macs;
    t.startup = cfg.startupCycles;
    t.active = compute_cycles;
    t.sramValue = std::floor((nz_macs + 1.0) / 2.0) +
        std::floor((compute_cycles * m + 3.0) / 4.0);
    t.sramIndex = std::floor((nz_macs + 1.0) / 2.0);
    const double out_elems =
        static_cast<double>(spec.outH()) * spec.outW();
    t.sramWrites = stack_size * std::floor((out_elems + 3.0) / 4.0);
    t.tasks = 1.0;
}

/** SCNN matmul pair, chunked on both operands (runner's allChunkPairs). */
void
scnnMatmulTask(const ScnnPeConfig &cfg, const ProblemSpec &spec,
               const Ensemble &img, const Ensemble &ker,
               std::uint32_t chunk_cap, TaskCost &t)
{
    const std::uint32_t n = cfg.n;
    const std::uint32_t value_per = cfg.buffer.elementsPerAccess();
    const std::uint32_t index_per = 2 * value_per;
    const std::vector<Chunk> ichunks = chunkSplit(img.nnz, chunk_cap);
    const std::vector<Chunk> kchunks = chunkSplit(ker.nnz, chunk_cap);
    for (const Chunk &kc : kchunks) {
        for (const Chunk &ic : ichunks) {
            const double igroups = rceil(ic.entries / n);
            const double kgroups = rceil(kc.entries / n);
            t.startup += cfg.startupCycles;
            t.active += igroups * kgroups;
            t.sramValue +=
                groupedAccessesReal(ic.entries, n, value_per) +
                igroups * groupedAccessesReal(kc.entries, n, value_per);
            t.sramIndex +=
                groupedAccessesReal(ic.entries, n, index_per) +
                igroups * groupedAccessesReal(kc.entries, n, index_per);
            t.tasks += 1.0;
        }
    }
    t.executed = img.nnz * ker.nnz;
    t.valid =
        std::min(expectedValidPairs(spec, img, ker), t.executed);
    t.outputIndexPerExecuted = true;
    t.writesPerValid = true;
}

/**
 * ANT matmul pair (runMatmulPair): CSC image traversal, per-group
 * kernel-row window r in [x_0, x_{n-1}], candidates streamed n per
 * cycle with the FNIR bypassed. Both operands chunk; a kernel chunk
 * only holds candidates where the group's column window overlaps the
 * chunk's row band.
 */
void
antMatmulTask(const AntPeConfig &cfg, const ProblemSpec &spec,
              const Ensemble &img, const Ensemble &ker,
              std::uint32_t chunk_cap, TaskCost &t)
{
    const std::uint32_t n = cfg.n;
    const std::uint32_t value_per = cfg.buffer.elementsPerAccess();
    const std::uint32_t index_per = 2 * value_per;
    const double w_cols = spec.imageW();
    const double r_rows = spec.kernelH();
    const double rho_kr = r_rows > 0.0 ? ker.nnz / r_rows : 0.0;

    double executed = 0.0;

    const std::vector<Chunk> ichunks = chunkSplit(img.nnz, chunk_cap);
    const std::vector<Chunk> kchunks = chunkSplit(ker.nnz, chunk_cap);
    for (const Chunk &kc : kchunks) {
        const double kr_lo = rho_kr > 0.0
            ? clampD(std::floor(kc.base / rho_kr), 0.0, r_rows - 1.0)
            : 0.0;
        const double kr_hi = rho_kr > 0.0
            ? clampD(std::floor((kc.base + kc.entries - 1.0) / rho_kr),
                     0.0, r_rows - 1.0)
            : -1.0;
        const double kc_row_density = kr_hi >= kr_lo
            ? kc.entries / (kr_hi - kr_lo + 1.0)
            : 0.0;
        for (const Chunk &ic : ichunks) {
            t.startup += cfg.startupCycles;
            t.tasks += 1.0;
            if (ic.entries < 0.5)
                continue;
            const double groups = rceil(ic.entries / n);
            const double rho_col = ic.entries / w_cols;
            const auto samples = static_cast<std::uint32_t>(
                std::min<double>(kGroupSamples, std::max(1.0, groups)));
            const double weight = groups / samples;
            double elements_read = 0.0;

            for (std::uint32_t j = 0; j < samples; ++j) {
                const double g = (j + 0.5) * groups / samples;
                const double e0 = g * n;
                const double igroup = clampD(ic.entries - e0, 1.0, n);
                t.sramValue += weight * rceil(igroup / value_per);
                t.sramIndex += weight * rceil(igroup / index_per);
                t.compares += weight * 2.0;

                // Column window of the group in CSC order.
                const double x0 = rho_col > 0.0
                    ? clampD(std::floor(e0 / rho_col), 0.0, w_cols - 1.0)
                    : 0.0;
                const double x1 = rho_col > 0.0
                    ? clampD(std::floor((e0 + igroup - 1.0) / rho_col),
                             0.0, w_cols - 1.0)
                    : 0.0;
                const double win_lo = x0;
                const double win_hi = std::min(x1, r_rows - 1.0);
                if (win_hi >= win_lo) {
                    t.sramRowPtr +=
                        weight * rowPtrWalk(1.0, win_hi - win_lo + 1.0);
                }
                // Candidates: this kernel chunk's entries in the
                // window rows.
                const double o_lo = std::max(win_lo, kr_lo);
                const double o_hi = std::min(win_hi, kr_hi);
                const double cand = o_hi >= o_lo
                    ? kc_row_density * (o_hi - o_lo + 1.0)
                    : 0.0;
                if (cand < 1e-9) {
                    t.idleScan += weight;
                    continue;
                }
                const double kgroups = rceil(cand / n);
                t.active += weight * kgroups;
                t.sramValue +=
                    weight * groupedAccessesReal(cand, n, value_per);
                t.sramIndex +=
                    weight * groupedAccessesReal(cand, n, index_per);
                elements_read += weight * 2.0 * cand;
                executed += weight * cand * igroup;
            }
            t.sramReadsAvoided += std::max(
                0.0, 2.0 * kc.entries * groups - elements_read);
        }
    }

    const double all_products = img.nnz * ker.nnz;
    t.valid = std::min(expectedValidPairs(spec, img, ker), all_products);
    t.executed = clampD(executed, t.valid, all_products);
    t.rcpsAvoided = all_products - t.executed;
    t.outputIndexPerExecuted = true;
    t.writesPerValid = true;
}

/** Dispatch one conv stacked task to the model for @p pe. */
TaskCost
convTask(const PeDescriptor &pe, const ProblemSpec &spec,
         const Ensemble &img, const Ensemble &ker, double stack_size,
         std::uint32_t chunk_cap)
{
    TaskCost t;
    switch (pe.kind) {
      case PeKind::Scnn:
        scnnConvTask(pe.scnn, spec, img, ker, stack_size, chunk_cap, t);
        break;
      case PeKind::Ant:
        if (pe.ant.dataflow == AntDataflow::KernelStationary) {
            antConvKernelStationaryTask(pe.ant, spec, img, ker,
                                        stack_size, chunk_cap, t);
        } else {
            antConvImageStationaryTask(pe.ant, spec, img, ker, stack_size,
                                       chunk_cap, t);
        }
        break;
      case PeKind::DenseInnerProduct:
        denseInnerProductTask(pe.inner, spec, stack_size, t);
        break;
      case PeKind::TensorDash:
        tensorDashTask(pe.inner, spec, img, ker, stack_size, t);
        break;
    }
    return t;
}

} // namespace

const char *
PeDescriptor::name() const
{
    switch (kind) {
      case PeKind::Scnn:
        return "SCNN-like";
      case PeKind::Ant:
        return "ANT";
      case PeKind::DenseInnerProduct:
        return "DaDianNao-like";
      case PeKind::TensorDash:
        return "TensorDash-like";
    }
    ANT_PANIC("unknown PE kind");
}

std::uint32_t
PeDescriptor::multiplierCount() const
{
    switch (kind) {
      case PeKind::Scnn:
        return scnn.n * scnn.n;
      case PeKind::Ant:
        return ant.n * ant.n;
      case PeKind::DenseInnerProduct:
      case PeKind::TensorDash:
        return inner.multipliers;
    }
    ANT_PANIC("unknown PE kind");
}

std::optional<PeDescriptor>
describePe(const PeModel &pe)
{
    if (const auto *p = dynamic_cast<const ScnnPe *>(&pe))
        return PeDescriptor::of(p->config());
    if (const auto *p = dynamic_cast<const AntPe *>(&pe))
        return PeDescriptor::of(p->config());
    if (const auto *p = dynamic_cast<const DenseInnerProductPe *>(&pe))
        return PeDescriptor::ofDense(p->config());
    if (const auto *p = dynamic_cast<const TensorDashPe *>(&pe))
        return PeDescriptor::ofTensorDash(p->config());
    return std::nullopt;
}

NetworkStats
estimateConvNetwork(const PeDescriptor &pe,
                    const std::vector<ConvLayer> &layers,
                    const SparsityProfile &profile, const RunConfig &config)
{
    config.validate();
    NetworkStats stats;
    stats.layers.reserve(layers.size());

    for (const ConvLayer &layer : layers) {
        LayerStats ls;
        ls.name = layer.name;
        const PhaseSpecs specs = layer.phaseSpecs();
        for (std::uint32_t p = 0; p < 3; ++p) {
            if (!config.phases[p])
                continue;
            const auto phase = static_cast<TrainingPhase>(p);
            const ProblemSpec &spec = phase == TrainingPhase::Forward
                ? specs.forward
                : (phase == TrainingPhase::Backward ? specs.backward
                                                    : specs.update);
            const Ensemble img = ensembleOf(
                convImageRecipe(layer, phase, profile, specs));
            const Ensemble ker = ensembleOf(
                convKernelRecipe(layer, phase, profile, specs));
            const double stack_size = phase == TrainingPhase::Backward
                ? layer.inChannels
                : layer.outChannels;
            const std::uint64_t pairs_total = stackTaskCount(layer, phase);

            const TaskCost task = convTask(pe, spec, img, ker, stack_size,
                                           config.chunkCapacity);
            PhaseStats &ps = ls.phases[p];
            ps.counters =
                toCounters(task, static_cast<double>(pairs_total));
            ps.pairsTotal = pairs_total;
            ps.pairsSimulated = pairs_total;
            verify::auditAggregateOrPanic("estimated phase counters",
                                          ps.counters, 0);
            stats.total += ps.counters;
        }
        stats.layers.push_back(std::move(ls));
    }
    verify::auditAggregateOrPanic("estimated conv network totals",
                                  stats.total, 0);
    return stats;
}

NetworkStats
estimateMatmulNetwork(const PeDescriptor &pe,
                      const std::vector<MatmulLayer> &layers,
                      double sparsity, SparsifyMethod method,
                      const RunConfig &config)
{
    config.validate();
    NetworkStats stats;
    stats.layers.reserve(layers.size());

    for (const MatmulLayer &layer : layers) {
        LayerStats ls;
        ls.name = layer.name;
        const ProblemSpec spec = layer.spec();
        const Ensemble img = ensembleOf(PlaneRecipe::plain(
            layer.imageH, layer.imageW, sparsity, method));
        const Ensemble ker = ensembleOf(PlaneRecipe::plain(
            layer.kernelR, layer.kernelS, sparsity, method));

        TaskCost task;
        switch (pe.kind) {
          case PeKind::Scnn:
            scnnMatmulTask(pe.scnn, spec, img, ker, config.chunkCapacity,
                           task);
            break;
          case PeKind::Ant:
            antMatmulTask(pe.ant, spec, img, ker, config.chunkCapacity,
                          task);
            break;
          case PeKind::DenseInnerProduct:
            denseInnerProductTask(pe.inner, spec, 1.0, task);
            break;
          case PeKind::TensorDash:
            ANT_FATAL("the TensorDash baseline models convolutions only; "
                      "no matmul estimate exists (the cycle-level model "
                      "rejects matmuls too)");
        }

        PhaseStats &ps = ls.phases[0];
        ps.counters = toCounters(task, 1.0);
        ps.pairsTotal = 1;
        ps.pairsSimulated = 1;
        verify::auditAggregateOrPanic("estimated matmul layer counters",
                                      ps.counters, 0);
        stats.total += ps.counters;
        stats.layers.push_back(std::move(ls));
    }
    verify::auditAggregateOrPanic("estimated matmul network totals",
                                  stats.total, 0);
    return stats;
}

} // namespace estimate
} // namespace antsim
