#include "ant_pe.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "conv/census.hh"
#include "obs/trace.hh"
#include "sim/accumulator.hh"
#include "util/logging.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/**
 * The windowed candidate stream in structure-of-arrays form: the FNIR
 * comparator bank reads column[] directly as one contiguous lane vector
 * (with unaligned loads, so no alignment beyond the element's). Only
 * runs that feed the accumulator fill value[] and row[]. clear() keeps
 * the capacity, so one stream serves every group of a run.
 */
struct CandidateStream
{
    std::vector<float> value;
    std::vector<std::uint32_t> column;
    std::vector<std::uint32_t> row;

    std::size_t size() const { return column.size(); }
    bool empty() const { return column.empty(); }

    void
    clear()
    {
        value.clear();
        column.clear();
        row.clear();
    }
};

/** The index buffers: the value buffer's geometry, 8-bit indices. */
SramConfig
indexConfig(const SramConfig &buffer)
{
    SramConfig index_cfg = buffer;
    index_cfg.elementBits = 8;
    return index_cfg;
}

/**
 * Row-pointer accesses the buffer controller needs to delimit the row
 * windows of a stack of streamed planes: rows+1 boundary pointers per
 * plane, packed contiguously four 16-bit pointers per 64-bit access.
 */
std::uint64_t
rowPtrAccesses(std::uint64_t planes, std::uint64_t rows)
{
    return (planes * (rows + 1) + 3) / 4;
}

/**
 * Append the rows of @p plane inside [row_lo, row_hi] to the candidate
 * stream the buffer controller would deliver (row-pointer access
 * accounting is the caller's job via rowPtrAccesses). The row window's
 * columns are one contiguous CSR segment, so each plane contributes one
 * bulk copy; with @p payload the values are copied and each entry's row
 * is filled in too.
 */
void
appendWindowedCandidatesSoA(const CsrMatrix &plane, std::int64_t row_lo,
                            std::int64_t row_hi, bool payload,
                            CandidateStream &out)
{
    if (row_lo > row_hi)
        return;
    const auto lo = static_cast<std::uint32_t>(row_lo);
    const auto hi = static_cast<std::uint32_t>(row_hi);

    const auto row_ptr = plane.rowPtr();
    const std::uint32_t begin = row_ptr[lo];
    const std::uint32_t count = row_ptr[hi + 1] - begin;
    const auto columns = plane.columns().subspan(begin, count);
    out.column.insert(out.column.end(), columns.begin(), columns.end());
    if (!payload)
        return;
    const auto values = plane.values().subspan(begin, count);
    out.value.insert(out.value.end(), values.begin(), values.end());
    for (std::uint32_t r = lo; r <= hi; ++r)
        out.row.insert(out.row.end(), row_ptr[r + 1] - row_ptr[r], r);
}

/** Total non-zeros across a stack of planes. */
std::uint64_t
stackNnz(const std::vector<const CsrMatrix *> &planes)
{
    std::uint64_t total = 0;
    for (const CsrMatrix *plane : planes)
        total += plane->nnz();
    return total;
}

/**
 * Valid products of a kernel stack against one image plane, from the
 * census. ANT never skips a valid product -- its ranges are
 * conservative and the FNIR feedback never passes over an in-range
 * candidate -- so this is also the valid share of what it executes.
 */
std::uint64_t
censusValidProducts(const ProblemSpec &spec,
                    const std::vector<const CsrMatrix *> &kernels,
                    const CsrMatrix &image)
{
    return CensusContext(spec, image).countProducts(kernels).validProducts;
}

/**
 * Charge a counting run's per-product counters, as the accumulator
 * would have product by product: every executed product computes an
 * output index; the valid ones take one add and one bank write, and
 * the rest are residual RCPs.
 */
void
chargeProducts(CounterSet &c, std::uint64_t executed, std::uint64_t valid)
{
    c.add(Counter::MultsExecuted, executed);
    c.add(Counter::MultsValid, valid);
    c.add(Counter::MultsRcp, executed - valid);
    c.add(Counter::OutputIndexCalcs, executed);
    c.add(Counter::AccumAdds, valid);
    c.add(Counter::SramWrites, valid);
}

/** What the FNIR scans of one PE call streamed and issued. */
struct ScanTotals
{
    /** Products issued to the multiplier array. */
    std::uint64_t executed = 0;
    /** Candidate indices read from the streaming index buffer. */
    std::uint64_t streamed = 0;
    /** Selected values read from the streaming value buffer. */
    std::uint64_t fetched = 0;
};

/**
 * The FNIR scans of a counting run, charged without enumerating
 * products. Each group's windowed stream goes through the comparator
 * bank once, into a bitset, and Fnir::window walks it with the window
 * rules of Fnir::evaluate. Each window costs what the functional loop
 * charges: ceil(width / 8) index reads, 2k compares, one Active or
 * IdleScan cycle, ceil(selected / 4) value reads and selected x group
 * products. The read costs come from the PE's tables of accesses(w),
 * w = 0..64, so a window divides nothing; a scan tallies in locals and
 * adds them to the members once, and the CounterSet sees one charge()
 * per call. A window that selects nothing starts a run of full idle
 * windows, which Fnir::idleWindows measures (the walk's one division)
 * and which is charged in one step; with a recorder attached it adds
 * one zero FnirValidPartners sample per window and one IdleScan span,
 * which the recorder's span merging makes identical to the functional
 * path's per-window trace. A stream whose candidates all lie in range
 * is neither compared nor walked: scanInRange charges its windows from
 * its length (Fnir::inRangeScan), looping only over the at most
 * ceil(k / n) windows narrower than k.
 */
class CountingScan
{
  public:
    CountingScan(const Fnir &fnir,
                 const std::array<std::uint64_t, 65> &index_cost,
                 const std::array<std::uint64_t, 65> &value_cost)
        : fnir_(fnir), rec_(obs::recorder()), indexCost_(index_cost),
          valueCost_(value_cost)
    {}

    /**
     * Scan one group's non-empty candidate @p stream against @p range,
     * every selection issuing against @p group stationary operands.
     * Returns the scan cycles (one per window).
     */
    std::uint64_t
    scan(std::span<const std::uint32_t> stream, const IndexRange &range,
         std::uint32_t group)
    {
        Fnir::compareStream(stream, range.lo, range.hi, bits_);
        const std::uint32_t k = fnir_.k();
        std::uint64_t windows = 0;
        std::uint64_t idle = 0;
        std::uint64_t streamed = 0;
        std::uint64_t fetched = 0;
        std::uint64_t index_accesses = 0;
        std::uint64_t value_accesses = 0;
        std::size_t pos = 0;
        while (pos < stream.size()) {
            const FnirWindow w = fnir_.window(bits_, pos);
            if (w.selected == 0 && w.width == k) {
                // A full idle window: the run of them from here on.
                const std::size_t run = fnir_.idleWindows(bits_, pos);
                windows += run;
                idle += run;
                streamed += run * k;
                index_accesses += run * indexCost_[k];
                pos += run * k;
                if (rec_ != nullptr) {
                    for (std::size_t i = 0; i < run; ++i)
                        rec_->hist(obs::HistId::FnirValidPartners, 0);
                    rec_->advance(obs::SpanKind::IdleScan, run);
                }
                continue;
            }
            ++windows;
            idle += w.selected == 0 ? 1 : 0;
            streamed += w.width;
            fetched += w.selected;
            index_accesses += indexCost_[w.width];
            value_accesses += valueCost_[w.selected];
            if (rec_ != nullptr) {
                rec_->hist(obs::HistId::FnirValidPartners, w.selected);
                rec_->advance(w.selected == 0 ? obs::SpanKind::IdleScan
                                              : obs::SpanKind::Active,
                              1);
            }
            pos = w.next;
        }
        windows_ += windows;
        idle_ += idle;
        totals_.streamed += streamed;
        totals_.fetched += fetched;
        totals_.executed += fetched * group;
        indexAccesses_ += index_accesses;
        valueAccesses_ += value_accesses;
        return windows;
    }

    /**
     * Scan one group's stream of @p length >= 1 candidates that all lie
     * in range, as scan() would, from the length alone: every candidate
     * is fetched, and every window but the last selects n.
     */
    std::uint64_t
    scanInRange(std::size_t length, std::uint32_t group)
    {
        const FnirInRangeScan s = fnir_.inRangeScan(length);
        std::uint64_t streamed =
            static_cast<std::uint64_t>(s.fullWindows) * s.k;
        std::uint64_t index_accesses = s.fullWindows * indexCost_[s.k];
        for (std::size_t t = s.fullWindows; t < s.windows; ++t) {
            const std::uint32_t width = s.width(t);
            streamed += width;
            index_accesses += indexCost_[width];
        }
        windows_ += s.windows;
        totals_.streamed += streamed;
        totals_.fetched += length;
        totals_.executed += static_cast<std::uint64_t>(length) * group;
        indexAccesses_ += index_accesses;
        valueAccesses_ += (s.windows - 1) * valueCost_[s.n] +
            valueCost_[s.selected(s.windows - 1)];
        if (rec_ != nullptr)
            s.record(*rec_);
        return s.windows;
    }

    /** Charge the scan costs tallied so far to @p c. */
    void
    charge(CounterSet &c) const
    {
        c.add(Counter::IndexCompares, 2ull * fnir_.k() * windows_);
        c.add(Counter::SramIndexReads, indexAccesses_);
        c.add(Counter::SramValueReads, valueAccesses_);
        c.add(Counter::ActiveCycles, windows_ - idle_);
        c.add(Counter::IdleScanCycles, idle_);
    }

    const ScanTotals &totals() const { return totals_; }

  private:
    const Fnir &fnir_;
    obs::UnitRecorder *rec_;
    const std::array<std::uint64_t, 65> &indexCost_;
    const std::array<std::uint64_t, 65> &valueCost_;
    FnirRangeBits bits_;
    ScanTotals totals_;
    std::uint64_t windows_ = 0;
    std::uint64_t idle_ = 0;
    std::uint64_t indexAccesses_ = 0;
    std::uint64_t valueAccesses_ = 0;
};

} // namespace

AntPe::AntPe(const AntPeConfig &config)
    : config_(config), fnir_(config.n, config.k)
{
    ANT_ASSERT(config_.n > 0, "multiplier array dimension must be positive");
    ANT_ASSERT(config_.k >= config_.n,
               "FNIR window k (", config_.k,
               ") should be at least the multiplier width n (", config_.n,
               ")");
    const SramConfig index_cfg = indexConfig(config_.buffer);
    for (std::uint32_t w = 0; w < indexCost_.size(); ++w) {
        indexCost_[w] = index_cfg.accesses(w);
        valueCost_[w] = config_.buffer.accesses(w);
    }
}

PeResult
AntPe::runStack(const ProblemSpec &spec,
                const std::vector<const CsrMatrix *> &kernels,
                const CsrMatrix &image, bool collect_output)
{
    ANT_ASSERT(!kernels.empty(), "kernel stack must not be empty");
    if (spec.kind() == ProblemSpec::Kind::Matmul) {
        ANT_ASSERT(kernels.size() == 1,
                   "kernel stacks are a convolution dataflow; a matmul "
                   "takes one kernel plane, not ", kernels.size());
        const PeResult result =
            runMatmulPair(spec, *kernels.front(), image, collect_output);
        verify::auditPeRunOrPanic("ANT PE (matmul)", spec, kernels, image,
                                  result, ProductSpace::Cartesian);
        return result;
    }
    const PeResult result =
        runConvStack(spec, kernels, image, collect_output);
    verify::auditPeRunOrPanic("ANT PE", spec, kernels, image, result,
                              ProductSpace::Cartesian);
    return result;
}

PeResult
AntPe::runConvStack(const ProblemSpec &spec,
                    const std::vector<const CsrMatrix *> &kernels,
                    const CsrMatrix &image, bool collect_output)
{
    PeResult result;
    CounterSet &c = result.counters;

    const SramConfig index_cfg = indexConfig(config_.buffer);
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

    // The Sec. 4.6 role swap, resolved once: the operand held
    // stationary in groups of n, the planes whose windowed rows stream
    // through the FNIR, and the range blocks that bound both. Image
    // stationary screens kernel s against [s_min, s_max] over kernel
    // rows [r_min, r_max]; kernel stationary swaps the buffers and
    // screens image x against [x_min, x_max] over image rows
    // [y_min, y_max]. Nothing below depends on the dataflow except the
    // order of the accumulator's operands.
    const bool kernel_stationary =
        config_.dataflow == AntDataflow::KernelStationary;
    std::vector<SparseEntry> stationary;
    if (kernel_stationary) {
        stationary.reserve(stackNnz(kernels));
        for (const CsrMatrix *kernel : kernels) {
            const std::vector<SparseEntry> entries = kernel->entries();
            stationary.insert(stationary.end(), entries.begin(),
                              entries.end());
        }
    } else {
        stationary = image.entries();
    }
    const std::vector<const CsrMatrix *> image_plane{&image};
    const std::vector<const CsrMatrix *> &streamed =
        kernel_stationary ? image_plane : kernels;
    const std::uint32_t streamed_rows =
        kernel_stationary ? spec.imageH() : spec.kernelH();
    using RangeBlock =
        IndexRange (ProblemSpec::*)(std::uint32_t, std::uint32_t) const;
    const RangeBlock screen_block =
        kernel_stationary ? &ProblemSpec::xRange : &ProblemSpec::sRange;
    const RangeBlock row_block =
        kernel_stationary ? &ProblemSpec::yRange : &ProblemSpec::rRange;
    // y is monotonic in an image's CSR order, so an image group's y
    // extremes are its first and last entries (Eq. 12) and only x needs
    // a min/max tree (Eq. 11); a kernel group may straddle two planes
    // of the stack, so both axes need one.
    const std::uint64_t tree_axes = kernel_stationary ? 2 : 1;
    const SramBuffer &stationary_values =
        kernel_stationary ? kernel_values : image_values;
    const SramBuffer &stationary_indices =
        kernel_stationary ? kernel_indices : image_indices;
    const SramBuffer &streamed_values =
        kernel_stationary ? image_values : kernel_values;
    const SramBuffer &streamed_indices =
        kernel_stationary ? image_indices : kernel_indices;

    // Functional runs issue every selected product to the accumulator
    // through the bit-level FNIR; counting runs scan with CountingScan
    // and take the valid count from the census.
    std::unique_ptr<Accumulator> accumulator;
    if (collect_output)
        accumulator = std::make_unique<Accumulator>(spec,
                                                    config_.accumulatorBank);
    CountingScan counting(fnir_, indexCost_, valueCost_);
    ScanTotals functional;

    const std::uint32_t n = config_.n;
    const std::uint32_t k = config_.k;
    const std::uint64_t all_products =
        stackNnz(kernels) * static_cast<std::uint64_t>(image.nnz());

    obs::UnitRecorder *rec = obs::recorder();

    std::uint64_t cycles = config_.startupCycles;
    c.add(Counter::StartupCycles, config_.startupCycles);
    if (rec)
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);

    std::uint64_t groups = 0;
    CandidateStream candidates;
    // Consecutive groups mostly share one row window (image groups
    // advance monotonically in y; a kernel plane holds few rows):
    // memoize the last candidate stream instead of re-walking the
    // streamed planes per group. Counter-neutral -- the row-pointer
    // walk is still charged per group below.
    std::int64_t cached_lo = 0;
    std::int64_t cached_hi = 0;
    bool cache_filled = false;
    // A CSR column lies below its plane's width, so a counting group
    // whose screen spans [0, width - 1] passes every candidate, and its
    // scan follows from its stream length alone: the entries of the
    // streamed planes in rows [lo, hi], which rows_before (entries in
    // rows below r, summed over the stack; built on first use) gives
    // without copying the stream.
    std::int64_t streamed_width = 0;
    for (const CsrMatrix *plane : streamed)
        streamed_width =
            std::max<std::int64_t>(streamed_width, plane->width());
    std::vector<std::uint64_t> rows_before;

    for (std::size_t gb = 0; gb < stationary.size(); gb += n) {
        const std::size_t ge = std::min(gb + n, stationary.size());
        const auto group = static_cast<std::uint32_t>(ge - gb);
        ++groups;

        // Stage 1: fetch the group (held stationary).
        stationary_values.read(group, c);
        stationary_indices.read(group, c);

        // Stages 2-3: range computation from the group's extremes;
        // 2(group-1) compares per min/max tree, plus the four range
        // bound additions.
        std::uint32_t x_min = stationary[gb].x;
        std::uint32_t x_max = x_min;
        std::uint32_t y_min = stationary[gb].y;
        std::uint32_t y_max = y_min;
        for (std::size_t i = gb + 1; i < ge; ++i) {
            x_min = std::min(x_min, stationary[i].x);
            x_max = std::max(x_max, stationary[i].x);
            y_min = std::min(y_min, stationary[i].y);
            y_max = std::max(y_max, stationary[i].y);
        }
        c.add(Counter::IndexCompares, 2 * tree_axes * (group - 1) + 4);

        const IndexRange screen = config_.useSCondition
            ? (spec.*screen_block)(x_min, x_max)
            : IndexRange{std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()};
        const IndexRange rows = config_.useRCondition
            ? (spec.*row_block)(y_min, y_max)
            : IndexRange{0, static_cast<std::int64_t>(streamed_rows) - 1};

        if (screen.empty() || rows.empty()) {
            // The ranges rule out every streamed plane; the group still
            // occupies the pipeline for one cycle.
            ++cycles;
            c.add(Counter::IdleScanCycles);
            if (rec)
                rec->advance(obs::SpanKind::IdleScan, 1);
            continue;
        }

        // The buffer controller streams only the rows inside the row
        // window (Sec. 4.3), across the streamed planes back to back,
        // at one row-pointer SRAM access per cycle; for long stacks of
        // small kernels this walk, not the FNIR, bounds the group. A
        // *proper* row window (fewer rows than a streamed plane)
        // requires the pointer walk; a full window degenerates to
        // sequential streaming where the row structure arrives inline
        // with the index stream (as in the SCNN baseline), costing
        // nothing extra. This also covers the r-condition-off ablation.
        const bool proper_window =
            rows.count() < static_cast<std::int64_t>(streamed_rows);
        const std::uint64_t controller_cycles = proper_window
            ? rowPtrAccesses(streamed.size(),
                             static_cast<std::uint64_t>(rows.count()))
            : 0;
        c.add(Counter::SramRowPtrReads, controller_cycles);

        // A counting group whose screen passes every streamed column
        // needs only its stream's length; any other group reads the
        // memoized candidate stream.
        const bool in_range = !accumulator && screen.lo <= 0 &&
            screen.hi >= streamed_width - 1;
        std::size_t stream_length = 0;
        if (in_range) {
            if (rows_before.empty()) {
                rows_before.assign(streamed_rows + 1, 0);
                for (const CsrMatrix *plane : streamed) {
                    const auto row_ptr = plane->rowPtr();
                    for (std::uint32_t r = 0; r <= streamed_rows; ++r)
                        rows_before[r] += row_ptr[r];
                }
            }
            stream_length =
                rows_before[static_cast<std::size_t>(rows.hi) + 1] -
                rows_before[static_cast<std::size_t>(rows.lo)];
        } else {
            if (!cache_filled || cached_lo != rows.lo ||
                cached_hi != rows.hi) {
                candidates.clear();
                for (const CsrMatrix *plane : streamed) {
                    appendWindowedCandidatesSoA(*plane, rows.lo, rows.hi,
                                                collect_output, candidates);
                }
                cached_lo = rows.lo;
                cached_hi = rows.hi;
                cache_filled = true;
            }
            stream_length = candidates.size();
        }

        if (stream_length == 0) {
            // The windowed rows hold no non-zeros: the group costs the
            // controller walk, with the FNIR idle throughout.
            const std::uint64_t walk =
                std::max<std::uint64_t>(controller_cycles, 1);
            cycles += walk;
            c.add(Counter::IdleScanCycles, walk);
            if (rec)
                rec->advance(obs::SpanKind::IdleScan, walk);
            continue;
        }

        // Stages 4-5: FNIR scan with the n+1-st-index feedback.
        std::uint64_t scan_cycles = 0;
        if (in_range) {
            scan_cycles = counting.scanInRange(stream_length, group);
        } else if (!accumulator) {
            scan_cycles = counting.scan(
                std::span<const std::uint32_t>(candidates.column.data(),
                                               candidates.size()),
                screen, group);
        } else {
            // Each window is a contiguous slice of the SoA column[]
            // array, handed to the bit-level FNIR without a copy.
            std::size_t pos = 0;
            while (pos < candidates.size()) {
                const std::size_t wend =
                    std::min(pos + k, candidates.size());
                const auto wlen = static_cast<std::uint32_t>(wend - pos);

                // The buffer delivers k column indices per cycle.
                streamed_indices.read(wlen, c);
                functional.streamed += wlen;

                const FnirResult fnir = fnir_.evaluate(
                    std::span<const std::uint32_t>(
                        candidates.column.data() + pos, wlen),
                    screen.lo, screen.hi, c);

                ++scan_cycles;
                const std::uint32_t selected = fnir.selectedCount();
                if (rec) {
                    rec->hist(obs::HistId::FnirValidPartners, selected);
                    rec->advance(selected == 0 ? obs::SpanKind::IdleScan
                                               : obs::SpanKind::Active,
                                 1);
                }
                if (selected == 0) {
                    c.add(Counter::IdleScanCycles);
                } else {
                    c.add(Counter::ActiveCycles);
                    // Stage 5-6: fetch the selected values and issue
                    // the outer product against the stationary group.
                    streamed_values.read(selected, c);
                    functional.fetched += selected;
                    functional.executed +=
                        static_cast<std::uint64_t>(selected) * group;

                    accumulator->newIssueGroup();
                    for (std::uint32_t port = 0; port < selected;
                         ++port) {
                        const std::size_t cand =
                            pos + fnir.ports[port].position;
                        const float value = candidates.value[cand];
                        const std::uint32_t col = candidates.column[cand];
                        const std::uint32_t row = candidates.row[cand];
                        for (std::size_t i = gb; i < ge; ++i) {
                            const SparseEntry &held = stationary[i];
                            // The accumulator takes the image operand
                            // first.
                            if (kernel_stationary) {
                                accumulator->offer(value, col, row,
                                                   held.value, held.x,
                                                   held.y, c);
                            } else {
                                accumulator->offer(held.value, held.x,
                                                   held.y, value, col,
                                                   row, c);
                            }
                        }
                    }
                }

                // Feedback: resume at the n+1-st valid index when it
                // exists, otherwise skip the whole window.
                if (fnir.feedback().valid)
                    pos += fnir.feedback().position;
                else
                    pos = wend;
            }
        }

        // The group takes whichever of the two serial streams is
        // longer; controller-bound groups idle the FNIR.
        const std::uint64_t group_cycles =
            std::max(scan_cycles, controller_cycles);
        cycles += group_cycles;
        if (group_cycles > scan_cycles) {
            c.add(Counter::IdleScanCycles, group_cycles - scan_cycles);
            if (rec) {
                rec->advance(obs::SpanKind::IdleScan,
                             group_cycles - scan_cycles);
            }
        }
    }

    // The functional path's accumulator recorded the product split
    // itself.
    const ScanTotals &totals = accumulator ? functional : counting.totals();
    if (accumulator) {
        c.add(Counter::MultsExecuted, totals.executed);
    } else {
        counting.charge(c);
        chargeProducts(c, totals.executed,
                       censusValidProducts(spec, kernels, image));
    }

    // SRAM traffic avoided relative to streaming every streamed plane
    // whole (values + indices) once per stationary group, as the SCNN
    // PE does; ANT reads the windowed indices the FNIR screens plus the
    // values it selects (Sec. 4.3).
    const std::uint64_t scnn_elements = 2ull * stackNnz(streamed) * groups;
    const std::uint64_t ant_elements = totals.streamed + totals.fetched;
    c.set(Counter::SramReadsAvoided,
          scnn_elements > ant_elements ? scnn_elements - ant_elements : 0);

    c.set(Counter::RcpsAvoided, all_products - totals.executed);
    c.set(Counter::Cycles, cycles);
    if (accumulator)
        result.output = accumulator->output();
    return result;
}

PeResult
AntPe::runMatmulPair(const ProblemSpec &spec, const CsrMatrix &kernel,
                     const CsrMatrix &image, bool collect_output)
{
    PeResult result;
    CounterSet &c = result.counters;

    const SramConfig index_cfg = indexConfig(config_.buffer);
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

    obs::UnitRecorder *rec = obs::recorder();

    // The accumulator routes every executed product to its bank, which
    // is also where the bank-conflict instants of a traced run come
    // from; counting runs without a recorder need neither, and charge
    // each image group in closed form instead.
    std::unique_ptr<Accumulator> accumulator;
    if (collect_output || rec)
        accumulator = std::make_unique<Accumulator>(spec,
                                                    config_.accumulatorBank);

    const std::uint32_t n = config_.n;
    // CSC traversal: a group of n consecutive entries shares one (or a
    // few adjacent) column(s), so the kernel-row window [x_0, x_{n-1}]
    // is tight (Sec. 5, Eq. 15). The image's CSC is the CSR of its
    // transpose: row x holds column x's entries in row order.
    const CsrMatrix csc = image.transposed();
    const auto col_ptr = csc.rowPtr();
    std::vector<SparseEntry> image_entries;
    image_entries.reserve(csc.nnz());
    for (std::uint32_t x = 0; x < csc.height(); ++x) {
        for (std::uint32_t i = col_ptr[x]; i < col_ptr[x + 1]; ++i)
            image_entries.push_back(
                {csc.values()[i], x, csc.columns()[i]});
    }

    const std::uint64_t all_products =
        static_cast<std::uint64_t>(kernel.nnz()) *
        static_cast<std::uint64_t>(image.nnz());
    const auto kernel_row_ptr = kernel.rowPtr();

    std::uint64_t cycles = config_.startupCycles;
    c.add(Counter::StartupCycles, config_.startupCycles);
    if (rec)
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);
    std::uint64_t executed = 0;
    std::uint64_t elements_read = 0;
    std::uint64_t groups = 0;
    // Closed-form charges of counting runs, added up over the groups.
    std::uint64_t active_cycles = 0;
    std::uint64_t index_accesses = 0;
    std::uint64_t value_accesses = 0;
    CandidateStream candidates;
    // The CSC x sequence is monotonic, so consecutive groups mostly
    // share one row window: memoize the windowed kernel stream.
    std::int64_t cached_lo = 0;
    std::int64_t cached_hi = 0;
    bool cache_filled = false;

    for (std::size_t ib = 0; ib < image_entries.size(); ib += n) {
        const std::size_t ie = std::min(ib + n, image_entries.size());
        const auto igroup = static_cast<std::uint32_t>(ie - ib);
        ++groups;

        image_values.read(igroup, c);
        image_indices.read(igroup, c);

        // Row window from the group's column extremes (Eq. 15). The x
        // sequence is monotonic in CSC order.
        const IndexRange row_window = spec.matmulRowRange(
            image_entries[ib].x, image_entries[ie - 1].x);
        c.add(Counter::IndexCompares, 2);

        // Kernel entries inside the window, one contiguous CSR segment.
        std::uint64_t windowed = 0;
        if (!row_window.empty()) {
            windowed = kernel_row_ptr[row_window.hi + 1] -
                kernel_row_ptr[row_window.lo];
            c.add(Counter::SramRowPtrReads,
                  rowPtrAccesses(1, static_cast<std::uint64_t>(
                                        row_window.hi - row_window.lo +
                                        1)));
        }
        if (windowed == 0) {
            ++cycles;
            c.add(Counter::IdleScanCycles);
            if (rec)
                rec->advance(obs::SpanKind::IdleScan, 1);
            continue;
        }

        if (!accumulator) {
            // FNIR bypassed: the buffer streams the windowed entries n
            // per cycle, each group of them against the whole image
            // group.
            const std::uint64_t issue_cycles = (windowed + n - 1) / n;
            cycles += issue_cycles;
            active_cycles += issue_cycles;
            index_accesses += index_cfg.groupedAccesses(windowed, n);
            value_accesses += config_.buffer.groupedAccesses(windowed, n);
            elements_read += 2 * windowed;
            executed += windowed * igroup;
            continue;
        }

        if (!cache_filled || cached_lo != row_window.lo ||
            cached_hi != row_window.hi) {
            candidates.clear();
            appendWindowedCandidatesSoA(kernel, row_window.lo,
                                        row_window.hi, true, candidates);
            cached_lo = row_window.lo;
            cached_hi = row_window.hi;
            cache_filled = true;
        }
        for (std::size_t kb = 0; kb < candidates.size(); kb += n) {
            const std::size_t ke = std::min(kb + n, candidates.size());
            const auto kgroup = static_cast<std::uint32_t>(ke - kb);
            kernel_indices.read(kgroup, c);
            kernel_values.read(kgroup, c);
            elements_read += 2ull * kgroup;

            ++cycles;
            c.add(Counter::ActiveCycles);
            if (rec)
                rec->advance(obs::SpanKind::Active, 1);
            c.add(Counter::MultsExecuted,
                  static_cast<std::uint64_t>(kgroup) * igroup);
            executed += static_cast<std::uint64_t>(kgroup) * igroup;

            accumulator->newIssueGroup();
            for (std::size_t kk = kb; kk < ke; ++kk) {
                for (std::size_t i = ib; i < ie; ++i) {
                    const auto &img = image_entries[i];
                    accumulator->offer(img.value, img.x, img.y,
                                       candidates.value[kk],
                                       candidates.column[kk],
                                       candidates.row[kk], c);
                }
            }
        }
    }

    if (!accumulator) {
        c.add(Counter::ActiveCycles, active_cycles);
        c.add(Counter::SramIndexReads, index_accesses);
        c.add(Counter::SramValueReads, value_accesses);
        chargeProducts(c, executed,
                       censusValidProducts(spec, {&kernel}, image));
    }

    const std::uint64_t scnn_elements = 2ull * kernel.nnz() * groups;
    c.set(Counter::SramReadsAvoided,
          scnn_elements > elements_read ? scnn_elements - elements_read
                                        : 0);
    c.set(Counter::RcpsAvoided, all_products - executed);
    c.set(Counter::Cycles, cycles);
    if (collect_output)
        result.output = accumulator->output();
    return result;
}

} // namespace antsim
