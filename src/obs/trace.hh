/**
 * @file
 * Deterministic simulated-time tracing for the accelerator models.
 *
 * The stage timers (src/obs/metrics.hh) answer "where did the *host*
 * spend wall-clock time"; this layer answers "where did the *modeled
 * hardware* spend cycles". PE models mirror their cycle accounting
 * into a per-unit UnitRecorder as run-length-coded spans (startup /
 * active / idle-scan), mark instants (accumulator-bank conflicts),
 * and record distribution samples
 * (src/obs/histogram.hh). The runner wraps every simulated (layer,
 * phase, sample) unit in a ScopedUnitTrace, so each unit's buffer is
 * filled on whichever worker runs it and then filed into the
 * TraceSink's slot for that unit index.
 *
 * Determinism: unit content is a pure function of the seed hierarchy
 * (DESIGN.md), buffers land in preallocated task-index slots, and the
 * exporter walks runs and units in index order -- so the emitted
 * Chrome trace JSON is byte-identical for every --threads value
 * (trace_determinism_test).
 *
 * Overhead: when tracing is off (the default), every instrumentation
 * site reduces to one thread-local pointer load and branch --
 * obs::recorder() returns nullptr -- so the hot simulation loops keep
 * their perf-smoke budgets (obs_overhead_test asserts NetworkStats is
 * bit-identical with tracing on and off).
 *
 * Export format: Chrome trace-event JSON (chrome://tracing, Perfetto's
 * "Open trace file"). Timestamps are modeled cycles in the `ts`
 * microsecond field; each PE lane of the reconstructed schedule is a
 * `tid`. See docs/OBSERVABILITY.md for the event taxonomy.
 */

#ifndef ANTSIM_OBS_TRACE_HH
#define ANTSIM_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hh"

namespace antsim {
namespace obs {

/** Cycle-span classes a PE timeline decomposes into. */
enum class SpanKind : unsigned {
    /** Pipeline start-up on a new matrix pair (Sec. 6.1). */
    Startup = 0,
    /** The multiplier array was issued at least one product. */
    Active,
    /** Scan/controller logic advanced without issuing products. */
    IdleScan,
    NumKinds
};

/** Number of span kinds. */
constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::NumKinds);

/** Stable snake_case name of a span kind (trace event name). */
const char *spanKindName(SpanKind kind);

/** Point-event classes. */
enum class InstantKind : unsigned {
    /** Two same-cycle valid products mapped to one accumulator bank. */
    AccumBankConflict = 0,
    /** The unit exceeded the span budget; later spans were dropped. */
    SpanBudgetExceeded,
    NumKinds
};

/** One recorded cycle interval, relative to the unit's own cycle 0. */
struct Span
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    SpanKind kind = SpanKind::Active;
};

/** One chunk-pair task interval within a unit. */
struct TaskSpan
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/** One point event within a unit. */
struct Instant
{
    std::uint64_t at = 0;
    InstantKind kind = InstantKind::AccumBankConflict;
};

/**
 * Per-unit event buffer. Instrumentation sites obtain the current
 * thread's recorder via obs::recorder() (nullptr when tracing is off)
 * and append; the owning ScopedUnitTrace files the buffer into the
 * sink when the unit finishes.
 */
class UnitRecorder
{
  public:
    /** Spans kept per unit before the tail is dropped (marked). */
    static constexpr std::size_t kMaxSpans = 1u << 16;

    /**
     * Advance the unit's cycle cursor by @p cycles of class @p kind.
     * Adjacent same-kind spans coalesce, so a per-cycle caller and a
     * closed-form caller produce identical traces.
     */
    void
    advance(SpanKind kind, std::uint64_t cycles)
    {
        if (cycles == 0)
            return;
        if (!spans_.empty() && spans_.back().kind == kind &&
            spans_.back().end == cursor_) {
            spans_.back().end += cycles;
        } else if (spans_.size() < kMaxSpans) {
            spans_.push_back({cursor_, cursor_ + cycles, kind});
        } else if (!truncated_) {
            truncated_ = true;
            instants_.push_back(
                {cursor_, InstantKind::SpanBudgetExceeded});
        }
        cursor_ += cycles;
    }

    /** Record a point event at the current cursor. */
    void
    instant(InstantKind kind)
    {
        instants_.push_back({cursor_, kind});
    }

    /** Open a chunk-pair task span at the current cursor. */
    void
    beginTask()
    {
        taskBegin_ = cursor_;
    }

    /**
     * Close the open task span; its duration (in modeled cycles, as
     * accumulated by advance) feeds the task-cycles histogram.
     */
    void
    endTask()
    {
        tasks_.push_back({taskBegin_, cursor_});
        hists_.add(HistId::TaskCycles, cursor_ - taskBegin_);
    }

    /** Record a distribution sample. */
    void
    hist(HistId id, std::uint64_t value)
    {
        hists_.add(id, value);
    }

    /** Cycles recorded so far (the unit's local clock). */
    std::uint64_t cursor() const { return cursor_; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<TaskSpan> &tasks() const { return tasks_; }
    const std::vector<Instant> &instants() const { return instants_; }
    const HistogramRegistry &histograms() const { return hists_; }

    /** Display label ("layer/phase#sample"), set by ScopedUnitTrace. */
    const std::string &label() const { return label_; }
    void setLabel(std::string label) { label_ = std::move(label); }

  private:
    std::vector<Span> spans_;
    std::vector<TaskSpan> tasks_;
    std::vector<Instant> instants_;
    HistogramRegistry hists_;
    std::uint64_t cursor_ = 0;
    std::uint64_t taskBegin_ = 0;
    std::string label_;
    bool truncated_ = false;
};

namespace detail {
// constinit: guarantees constant initialization, so cross-TU access
// compiles to a direct TLS load instead of going through the compiler
// generated init-on-first-use wrapper (which gcc's UBSan null check
// flags, and which would put a function call on the tracing-off fast
// path).
extern thread_local constinit UnitRecorder *t_recorder;
} // namespace detail

/** The calling thread's live recorder; nullptr when tracing is off. */
inline UnitRecorder *
recorder()
{
    return detail::t_recorder;
}

/**
 * Process-wide collector of per-unit buffers, grouped into runs (one
 * run per PE model of each runConvNetwork / runMatmulNetwork call,
 * registered in model order). beginRun is
 * called from the orchestrating thread before workers start; submit
 * is thread-safe and slot-addressed, so arrival order cannot affect
 * the exported document.
 */
class TraceSink
{
  public:
    /** Register a run of @p unit_count units; returns its run id. */
    std::size_t beginRun(std::string name, std::size_t unit_count);

    /** File the finished buffer of unit @p unit_index of run @p run. */
    void submit(std::size_t run, std::size_t unit_index, UnitRecorder rec);

    /** Runs registered so far. */
    std::size_t runCount() const;

    /** Histograms of every submitted unit, merged. */
    HistogramRegistry mergedHistograms() const;

    /**
     * Serialize everything as Chrome trace-event JSON with one thread
     * lane per PE of the reconstructed @p num_pes-PE schedule.
     * Deterministic: byte-identical for identical submitted content.
     */
    std::string toChromeJson(std::uint32_t num_pes) const;

    /** Write toChromeJson to @p path (fatal on I/O failure). */
    void writeChromeJson(const std::string &path,
                         std::uint32_t num_pes) const;

    /** Drop all recorded runs (tests, multi-run binaries). */
    void clear();

  private:
    struct Run
    {
        std::string name;
        std::vector<UnitRecorder> units;
        std::vector<char> present;
    };

    mutable std::mutex mutex_;
    std::vector<Run> runs_;
};

/**
 * Enable or disable tracing process-wide. Enabling installs the
 * global sink (creating it on first use); disabling detaches it
 * without clearing recorded content.
 */
void setEnabled(bool enabled);

/** Whether tracing is enabled. */
bool enabled();

/** The global sink when tracing is enabled, nullptr otherwise. */
TraceSink *traceSink();

/** The global sink regardless of the enabled flag (export, tests). */
TraceSink &globalSink();

/**
 * RAII scope for one simulated unit: installs a fresh thread-local
 * recorder on construction (when @p sink is non-null) and submits the
 * buffer into (run, unit_index) on destruction. With a null sink the
 * scope is a no-op, so call sites need no branching.
 */
class ScopedUnitTrace
{
  public:
    ScopedUnitTrace(TraceSink *sink, std::size_t run,
                    std::size_t unit_index, std::string label);
    ~ScopedUnitTrace();

    ScopedUnitTrace(const ScopedUnitTrace &) = delete;
    ScopedUnitTrace &operator=(const ScopedUnitTrace &) = delete;

  private:
    TraceSink *sink_;
    std::size_t run_;
    std::size_t unit_;
    UnitRecorder rec_;
    UnitRecorder *prev_ = nullptr;
};

} // namespace obs
} // namespace antsim

#endif // ANTSIM_OBS_TRACE_HH
