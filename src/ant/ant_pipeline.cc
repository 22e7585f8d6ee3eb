#include "ant_pipeline.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "ant/fnir.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/clock.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/** One kernel candidate with coordinates. */
struct Cand
{
    float value;
    std::uint32_t s;
    std::uint32_t r;
};

/** Work travelling down the pipe: selected candidates x image group. */
struct IssueBundle
{
    std::uint32_t group = 0;
    std::vector<Cand> selected;
};

/** Pre-resolved per-image-group scan state. */
struct GroupPlan
{
    std::size_t image_begin = 0;
    std::size_t image_end = 0;
    IndexRange sRange{0, -1};
    std::vector<Cand> candidates;
};

/**
 * Scanner stage: one FNIR window per cycle, n+1-st-index feedback,
 * seamless roll-over between image groups.
 */
class Scanner : public Module
{
  public:
    Scanner(const std::vector<GroupPlan> &plans, const Fnir &fnir,
            PipeReg<IssueBundle> &out, CounterSet &counters)
        : plans_(plans), fnir_(fnir), out_(out), counters_(counters)
    {}

    bool
    done() const
    {
        return group_ >= plans_.size();
    }

    std::uint64_t evaluations() const { return evaluations_; }

    void
    evaluate() override
    {
        if (done()) {
            out_.clearNext();
            return;
        }
        const GroupPlan &plan = plans_[group_];
        if (plan.candidates.empty() || plan.sRange.empty()) {
            // Empty group: consumes this cycle discovering the empty
            // window, issues nothing.
            out_.clearNext();
            advanceGroup();
            return;
        }

        const std::size_t wend =
            std::min(pos_ + fnir_.k(), plan.candidates.size());
        std::vector<std::int64_t> window;
        window.reserve(wend - pos_);
        for (std::size_t i = pos_; i < wend; ++i)
            window.push_back(plan.candidates[i].s);
        const FnirResult result = fnir_.evaluate(
            window, plan.sRange.lo, plan.sRange.hi, counters_);
        ++evaluations_;

        IssueBundle bundle;
        bundle.group = static_cast<std::uint32_t>(group_);
        for (std::uint32_t port = 0; port < result.selectedCount(); ++port)
            bundle.selected.push_back(
                plan.candidates[pos_ + result.ports[port].position]);
        if (!bundle.selected.empty())
            out_.setNext(bundle);
        else
            out_.clearNext();

        if (result.feedback().valid)
            pos_ += result.feedback().position;
        else
            pos_ = wend;
        if (pos_ >= plan.candidates.size())
            advanceGroup();
    }

    void commit() override { out_.latch(); }

  private:
    void
    advanceGroup()
    {
        ++group_;
        pos_ = 0;
    }

    const std::vector<GroupPlan> &plans_;
    const Fnir &fnir_;
    PipeReg<IssueBundle> &out_;
    CounterSet &counters_;
    std::size_t group_ = 0;
    std::size_t pos_ = 0;
    std::uint64_t evaluations_ = 0;
};

/** A pass-through pipeline stage with one cycle of latency. */
class LatencyStage : public Module
{
  public:
    LatencyStage(PipeReg<IssueBundle> &in, PipeReg<IssueBundle> &out)
        : in_(in), out_(out)
    {}

    void
    evaluate() override
    {
        if (in_.valid())
            out_.setNext(in_.value());
        else
            out_.clearNext();
    }

    void commit() override { out_.latch(); }

    bool busy() const { return in_.valid(); }

  private:
    PipeReg<IssueBundle> &in_;
    PipeReg<IssueBundle> &out_;
};

/** Retire stage: output-index computation and classification. */
class RetireStage : public Module
{
  public:
    RetireStage(PipeReg<IssueBundle> &in, const ProblemSpec &spec,
                const std::vector<SparseEntry> &image_entries,
                const std::vector<GroupPlan> &plans,
                PipelineRunResult &result)
        : in_(in), spec_(spec), imageEntries_(image_entries),
          plans_(plans), result_(result)
    {}

    void
    evaluate() override
    {
        if (!in_.valid())
            return;
        const IssueBundle &bundle = in_.value();
        const GroupPlan &plan = plans_[bundle.group];
        for (const Cand &cand : bundle.selected) {
            for (std::size_t i = plan.image_begin; i < plan.image_end;
                 ++i) {
                const SparseEntry &img = imageEntries_[i];
                ++result_.executed;
                if (spec_.isValid(img.x, img.y, cand.s, cand.r))
                    ++result_.valid;
                else
                    ++result_.residualRcps;
            }
        }
    }

    void commit() override {}

    bool busy() const { return in_.valid(); }

  private:
    PipeReg<IssueBundle> &in_;
    const ProblemSpec &spec_;
    const std::vector<SparseEntry> &imageEntries_;
    const std::vector<GroupPlan> &plans_;
    PipelineRunResult &result_;
};

} // namespace

AntPipelineModel::AntPipelineModel(const AntPeConfig &config)
    : config_(config)
{
    ANT_ASSERT(config_.dataflow == AntDataflow::ImageStationary,
               "the tick-accurate model covers the image-stationary "
               "dataflow");
}

PipelineRunResult
AntPipelineModel::run(const ProblemSpec &spec, const CsrMatrix &kernel,
                      const CsrMatrix &image,
                      std::uint32_t num_threads) const
{
    ANT_ASSERT(spec.kind() == ProblemSpec::Kind::Conv,
               "the tick-accurate model covers convolutions");

    const auto image_entries = image.entries();
    const std::uint32_t n = config_.n;

    // Pre-resolve the per-group plans (ranges + windowed candidates),
    // exactly the work stages 1-3 of the pipeline perform; the tick
    // simulation then exercises the scan/fetch/multiply/retire flow.
    // Plans are independent per group, so they are built in parallel;
    // each lands in its own slot and the serial tick loop below reads
    // them in group order, keeping the run bit-identical for every
    // thread count.
    const std::size_t group_count = (image_entries.size() + n - 1) / n;
    std::vector<GroupPlan> plans(group_count);
    std::optional<obs::metrics::ScopedTimer> plan_timer(
        std::in_place, obs::metrics::Stage::PlanBuild);
    ThreadPool plan_pool(num_threads);
    plan_pool.parallelFor(
        0, group_count, /*grain=*/8,
        // antsim-lint: allow(parallel-capture-discipline) -- per-slot
        // discipline: each task writes only plans[g] (its own
        // group-indexed slot); every other capture is read-only
        // (trace_determinism_test proves thread-count invariance).
        [&](std::uint64_t g, std::uint32_t) {
        const std::size_t ib = static_cast<std::size_t>(g) * n;
        GroupPlan plan;
        plan.image_begin = ib;
        plan.image_end = std::min(ib + n, image_entries.size());

        std::uint32_t x_min = image_entries[ib].x;
        std::uint32_t x_max = x_min;
        for (std::size_t i = ib + 1; i < plan.image_end; ++i) {
            x_min = std::min(x_min, image_entries[i].x);
            x_max = std::max(x_max, image_entries[i].x);
        }
        const std::uint32_t y_min = image_entries[ib].y;
        const std::uint32_t y_max = image_entries[plan.image_end - 1].y;

        plan.sRange = config_.useSCondition
            ? spec.sRange(x_min, x_max)
            : IndexRange{std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()};
        const IndexRange r_range = config_.useRCondition
            ? spec.rRange(y_min, y_max)
            : IndexRange{0, static_cast<std::int64_t>(spec.kernelH()) - 1};

        if (!r_range.empty()) {
            const auto lo = static_cast<std::uint32_t>(r_range.lo);
            const auto hi = static_cast<std::uint32_t>(r_range.hi);
            for (std::uint32_t r = lo; r <= hi; ++r) {
                for (std::uint32_t i = kernel.rowPtr()[r];
                     i < kernel.rowPtr()[r + 1]; ++i) {
                    plan.candidates.push_back({kernel.values()[i],
                                               kernel.columns()[i], r});
                }
            }
        }
        plans[g] = std::move(plan);
    });
    plan_timer.reset();

    PipelineRunResult result;
    CounterSet scratch;
    const Fnir fnir(config_.n, config_.k);

    PipeReg<IssueBundle> p1;
    PipeReg<IssueBundle> p2;
    PipeReg<IssueBundle> p3;
    Scanner scanner(plans, fnir, p1, scratch);
    LatencyStage fetch(p1, p2);
    LatencyStage multiply(p2, p3);
    RetireStage retire(p3, spec, image_entries, plans, result);

    Simulator sim;
    sim.add(&scanner);
    sim.add(&fetch);
    sim.add(&multiply);
    sim.add(&retire);

    // Start-up: the paper's 5-cycle fill for a new matrix pair.
    std::uint64_t cycles = config_.startupCycles;
    obs::UnitRecorder *rec = obs::recorder();
    if (rec)
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);

    // Advance until the scanner is done and the pipe has drained.
    const std::uint64_t safety_limit = 1ull << 40;
    while (!scanner.done() || p1.valid() || p2.valid() || p3.valid()) {
        // A tick retires work (multipliers busy) iff the last pipe
        // register holds a bundle when the tick starts.
        if (rec) {
            rec->advance(p3.valid() ? obs::SpanKind::Active
                                    : obs::SpanKind::IdleScan,
                         1);
        }
        sim.tick();
        ++cycles;
        ANT_ASSERT(cycles < safety_limit, "pipeline failed to drain");
    }

    result.cycles = cycles;
    result.fnirEvaluations = scanner.evaluations();
    verify::auditPipelineCountsOrPanic(
        "ANT pipeline model", result.executed, result.valid,
        result.residualRcps,
        static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    return result;
}

} // namespace antsim
