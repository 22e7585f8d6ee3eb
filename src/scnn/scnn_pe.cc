#include "scnn_pe.hh"

#include <algorithm>
#include <vector>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "obs/trace.hh"
#include "sim/accumulator.hh"
#include "util/logging.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/** Total non-zeros across a kernel stack. */
std::uint64_t
stackNnz(const std::vector<const CsrMatrix *> &kernels)
{
    std::uint64_t total = 0;
    for (const CsrMatrix *k : kernels)
        total += k->nnz();
    return total;
}

/**
 * The merged kernel stream of a stack in structure-of-arrays form:
 * entry order identical to concatenating each plane's entries(), but
 * built with two bulk copies plus one row fill per plane row instead
 * of a per-entry cursor walk -- the image-stationary dataflow re-reads
 * this stream once per image group, so it is built exactly once.
 */
struct MergedStack
{
    std::vector<float> value;
    std::vector<std::uint32_t> x;
    std::vector<std::uint32_t> y;

    explicit MergedStack(const std::vector<const CsrMatrix *> &kernels)
    {
        const std::uint64_t total = stackNnz(kernels);
        value.reserve(total);
        x.reserve(total);
        y.reserve(total);
        for (const CsrMatrix *k : kernels) {
            value.insert(value.end(), k->values().begin(), k->values().end());
            x.insert(x.end(), k->columns().begin(), k->columns().end());
            const auto row_ptr = k->rowPtr();
            for (std::uint32_t r = 0; r < k->height(); ++r)
                y.insert(y.end(), row_ptr[r + 1] - row_ptr[r], r);
        }
    }

    std::size_t size() const { return value.size(); }
};

} // namespace

ScnnPe::ScnnPe(const ScnnPeConfig &config) : config_(config)
{
    ANT_ASSERT(config_.n > 0, "multiplier array dimension must be positive");
}

PeResult
ScnnPe::runStack(const ProblemSpec &spec,
                 const std::vector<const CsrMatrix *> &kernels,
                 const CsrMatrix &image, bool collect_output)
{
    ANT_ASSERT(!kernels.empty(), "kernel stack must not be empty");
    const PeResult result = collect_output
        ? runStackFunctional(spec, kernels, image)
        : runStackCounting(spec, kernels, image);
    verify::auditPeRunOrPanic("SCNN-like PE", spec, kernels, image, result,
                              ProductSpace::Cartesian);
    return result;
}

PeResult
ScnnPe::runStackFunctional(const ProblemSpec &spec,
                           const std::vector<const CsrMatrix *> &kernels,
                           const CsrMatrix &image)
{
    PeResult result;
    CounterSet &c = result.counters;

    SramConfig index_cfg = config_.buffer;
    index_cfg.elementBits = 8; // 8-bit indices (Table 4)
    SramBuffer image_values("image values", config_.buffer,
                            Counter::SramValueReads);
    SramBuffer image_indices("image indices", index_cfg,
                             Counter::SramIndexReads);
    SramBuffer kernel_values("kernel values", config_.buffer,
                             Counter::SramValueReads);
    SramBuffer kernel_indices("kernel indices", index_cfg,
                              Counter::SramIndexReads);
    image_values.fill(image.nnz());
    image_indices.fill(image.nnz());

    Accumulator accumulator(spec, config_.accumulatorBank);

    const std::uint32_t n = config_.n;
    const auto image_entries = image.entries();
    // The merged kernel stream is materialized once in SoA form;
    // groups may span plane boundaries, which flat iteration handles
    // for free.
    const MergedStack kernel_stream(kernels);

    std::uint64_t cycles = config_.startupCycles;
    c.add(Counter::StartupCycles, config_.startupCycles);
    if (auto *rec = obs::recorder())
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);

    for (std::size_t ib = 0; ib < image_entries.size(); ib += n) {
        const std::size_t ie = std::min(ib + n, image_entries.size());
        const auto igroup = static_cast<std::uint32_t>(ie - ib);

        // Image group is fetched once and held stationary.
        image_values.read(igroup, c);
        image_indices.read(igroup, c);

        // The kernel stream is re-fetched for every image group
        // (image-stationary dataflow).
        for (std::size_t kb = 0; kb < kernel_stream.size(); kb += n) {
            const std::size_t ke = std::min<std::size_t>(
                kb + n, kernel_stream.size());
            const auto kgroup = static_cast<std::uint32_t>(ke - kb);

            kernel_values.read(kgroup, c);
            kernel_indices.read(kgroup, c);

            // One multiplier-array cycle forms the full cartesian
            // product of the two groups.
            ++cycles;
            c.add(Counter::ActiveCycles);
            c.add(Counter::MultsExecuted,
                  static_cast<std::uint64_t>(igroup) * kgroup);

            accumulator.newIssueGroup();
            for (std::size_t i = ib; i < ie; ++i) {
                const auto &img = image_entries[i];
                for (std::size_t k = kb; k < ke; ++k) {
                    accumulator.offer(img.value, img.x, img.y,
                                      kernel_stream.value[k],
                                      kernel_stream.x[k],
                                      kernel_stream.y[k], c);
                }
            }
        }
    }

    // One bulk advance; span coalescing makes this identical to a
    // per-cycle advance in the loop, matching the counting path.
    if (auto *rec = obs::recorder())
        rec->advance(obs::SpanKind::Active, cycles - config_.startupCycles);

    c.set(Counter::Cycles, cycles);
    result.output = accumulator.output();
    return result;
}

PeResult
ScnnPe::runStackCounting(const ProblemSpec &spec,
                         const std::vector<const CsrMatrix *> &kernels,
                         const CsrMatrix &image)
{
    // Closed-form counting path, equivalent to the functional loop but
    // without per-product work (asserted equivalent by tests). The
    // full cartesian product of the merged streams executes, so all
    // per-product counters follow from nnz alone; the valid/RCP split
    // comes from the per-kernel product census.
    PeResult result;
    CounterSet &c = result.counters;

    // Enforce the image-buffer capacity (the kernel stream is
    // double-buffered and not capacity-limited as a whole).
    SramBuffer image_values("image values", config_.buffer,
                            Counter::SramValueReads);
    image_values.fill(image.nnz());

    const std::uint32_t n = config_.n;
    const std::uint64_t nnz_i = image.nnz();
    const std::uint64_t nnz_k = stackNnz(kernels);
    const std::uint64_t igroups = (nnz_i + n - 1) / n;
    const std::uint64_t kgroups = (nnz_k + n - 1) / n;
    const SramConfig &value_cfg = config_.buffer;
    SramConfig index_cfg = config_.buffer;
    index_cfg.elementBits = 8; // 8-bit indices (Table 4)

    // Image-side census tables are built once for the whole stack;
    // counting it is then O(nnz_k) (see conv/census.hh).
    const ProductCensus census =
        CensusContext(spec, image).countProducts(kernels);

    c.add(Counter::MultsExecuted, census.nonzeroProducts);
    c.add(Counter::MultsValid, census.validProducts);
    c.add(Counter::MultsRcp, census.rcpProducts);
    c.add(Counter::OutputIndexCalcs, census.nonzeroProducts);
    c.add(Counter::AccumAdds, census.validProducts);
    c.add(Counter::SramWrites, census.validProducts);

    // Image groups fetched once each; the merged kernel stream is
    // re-fetched per image group. Values and indices are separate
    // arrays.
    c.add(Counter::SramValueReads, value_cfg.groupedAccesses(nnz_i, n));
    c.add(Counter::SramIndexReads, index_cfg.groupedAccesses(nnz_i, n));
    c.add(Counter::SramValueReads,
          igroups * value_cfg.groupedAccesses(nnz_k, n));
    c.add(Counter::SramIndexReads,
          igroups * index_cfg.groupedAccesses(nnz_k, n));

    const std::uint64_t mult_cycles = igroups * kgroups;
    c.add(Counter::StartupCycles, config_.startupCycles);
    c.add(Counter::ActiveCycles, mult_cycles);
    c.set(Counter::Cycles, config_.startupCycles + mult_cycles);
    if (auto *rec = obs::recorder()) {
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);
        rec->advance(obs::SpanKind::Active, mult_cycles);
    }
    return result;
}

} // namespace antsim
