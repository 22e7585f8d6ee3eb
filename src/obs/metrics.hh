/**
 * @file
 * Host-side metrics registry: the one place the simulator counts its
 * *own* execution -- stage wall-clock, host work counts, thread-pool
 * utilization, arena high-water marks -- the complement of
 * src/obs/trace.hh, which records the *modeled hardware's* cycles.
 * Nothing here ever enters a modeled CounterSet.
 *
 * Two families share the registry:
 *  - Profile cells (Stage timings via ScopedTimer, ProfileCount
 *    tallies) are always recorded, because every report carries a
 *    profile section. Each thread attaches its own ProfileCells block
 *    on its first record.
 *  - Everything else (Counter, WorkerCounter, Gauge, Hist) is opt-in
 *    (--metrics-out) and lives in a per-thread MetricShard that
 *    threadAttach installs only while enabled.
 *
 * Layering: the producer API below is entirely header-inline (C++17
 * inline variables hold the registry state), so ant_util and ant_conv
 * code -- the thread pool, the arena, the census engine -- can record
 * without linking ant_obs, which itself links ant_util. Consumer-side
 * code (snapshot, Prometheus exposition, reset) lives in metrics.cc
 * and is only called from bench/report/test code, all of which links
 * ant_obs.
 *
 * Sharding and determinism: every cell is a relaxed atomic in a block
 * owned by one recording thread, so the hot path is uncontended and
 * TSan-clean even while another thread snapshots a live heartbeat. A
 * snapshot merges blocks by summation (counters, histogram bins) --
 * associative and commutative, the same merge discipline as the
 * simulated-time HistogramRegistry -- so the merged totals of a
 * deterministic workload are independent of worker count and
 * scheduling (tests/metrics_test.cc, report_test's profile tests).
 *
 * Overhead: when metrics are off (the default), every opt-in site
 * reduces to one thread-local pointer load and branch --
 * detail::t_shard stays nullptr because threadAttach refuses to
 * install a shard while disabled. tests/obs_overhead_test.cc asserts
 * stats, report JSON, and simulated-time trace bytes are identical
 * with metrics on and off; host wall-clock readings live only here
 * and in host_trace.hh (antsim-lint whitelist), never in model code.
 */

#ifndef ANTSIM_OBS_METRICS_HH
#define ANTSIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/host_trace.hh"

namespace antsim {
namespace obs {
namespace metrics {

/** Process-wide monotonic counters. */
enum class Counter : unsigned {
    /** parallelFor jobs issued. */
    PoolParallelFors = 0,
    /** Work items scheduled across all parallelFor jobs. */
    PoolItems,
    /** Arena slabs allocated (one per Arena with room). */
    ArenaSlabs,
    /** Slab bytes allocated by those Arenas. */
    ArenaSlabBytes,
    /** Model runs: one per PE model of each runner call. */
    RunnerRuns,
    /**
     * Generated (layer, phase, sample) units completed; each is
     * simulated on every model of its call.
     */
    RunnerUnits,
    NumCounters
};

constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::NumCounters);

/** Per-worker counters (label: pool-relative worker id). */
enum class WorkerCounter : unsigned {
    /** Nanoseconds spent executing claimed chunks. */
    BusyNs = 0,
    /** Nanoseconds spent parked on the pool's wake condition. */
    IdleNs,
    /** Chunks claimed from the shared cursor. */
    Chunks,
    /** Work items executed. */
    Items,
    NumWorkerCounters
};

constexpr std::size_t kNumWorkerCounters =
    static_cast<std::size_t>(WorkerCounter::NumWorkerCounters);

/** Worker ids at or beyond this are folded into the last label. */
constexpr std::size_t kMaxWorkers = 64;

/** Process-wide gauges (live value + tracked peak). */
enum class Gauge : unsigned {
    /** Largest parallelFor item count seen (queue-depth proxy: the
     *  pool runs one job at a time, so pending depth == job items). */
    PoolMaxJobItems = 0,
    /** Largest pool worker count seen. */
    PoolWorkers,
    /** Largest arena slab capacity seen. */
    ArenaHighWaterBytes,
    NumGauges
};

constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::NumGauges);

/** Host-side distributions. */
enum class Hist : unsigned {
    /**
     * Wall nanoseconds of one generated unit: trace generation,
     * chunking, and its simulation on every model of the call.
     */
    UnitWallNs = 0,
    /** Item count of each parallelFor job. */
    PoolJobItems,
    NumHists
};

constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::NumHists);

/** Log2 bucket count of every host histogram (last bin = overflow). */
constexpr std::size_t kHistBins = 40;

/**
 * Log2 bucket of @p value: bucket 0 holds {0}, bucket i >= 1 holds
 * [2^(i-1), 2^i), the last bucket absorbs the overflow tail -- the
 * same layout discipline as obs::Histogram's Log2 kind, so merged
 * bins stay exact integers.
 */
constexpr std::uint32_t
histBucket(std::uint64_t value)
{
    if (value == 0)
        return 0;
    std::uint32_t bit = 0;
    while (value >>= 1)
        ++bit;
    const std::uint32_t bucket = bit + 1;
    return bucket < kHistBins ? bucket
                              : static_cast<std::uint32_t>(kHistBins - 1);
}

/** Coarse host stages of one simulated run (profile.stages order). */
enum class Stage : unsigned {
    /** Sparse-trace generation (makeConvPhaseTask / makeMatmulPair). */
    TraceGen = 0,
    /** Plan construction: chunking and pipeline group pre-resolution. */
    PlanBuild,
    /** PE model execution over generated operands. */
    PeSim,
    /** Ordered reduction of per-unit counters into NetworkStats. */
    Reduce,
    NumStages
};

constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::NumStages);

/**
 * Stable snake_case stage names: report keys, host-trace span names
 * and the Prometheus stage label. Header-inline so ScopedTimer can
 * name its span without linking ant_obs.
 */
inline constexpr std::array<const char *, kNumStages> kStageNames = {
    "trace_generation", // TraceGen
    "plan_construction", // PlanBuild
    "pe_simulation", // PeSim
    "reduction", // Reduce
};

inline const char *
stageName(Stage stage)
{
    return kStageNames[static_cast<std::size_t>(stage)];
}

/** Host work counts every report carries in profile.census. */
enum class ProfileCount : unsigned {
    /** Census summed-area/histogram tables built (conv/census.hh). */
    CensusTablesBuilt = 0,
    /** O(1) census rectangle/histogram queries answered. */
    CensusRectQueries,
    /** Planes the task and pair builders generated (tracegen.hh). */
    TracePlanesGenerated,
    NumProfileCounts
};

constexpr std::size_t kNumProfileCounts =
    static_cast<std::size_t>(ProfileCount::NumProfileCounts);

/**
 * One thread's always-on profile cells. Same relaxed-atomic,
 * single-writer, cache-line-aligned discipline as MetricShard below,
 * but attached on the thread's first record whether or not metrics
 * are enabled.
 */
struct alignas(64) ProfileCells
{
    std::array<std::atomic<std::uint64_t>, kNumStages> stageNs{};
    std::array<std::atomic<std::uint64_t>, kNumStages> stageCalls{};
    std::array<std::atomic<std::uint64_t>, kNumProfileCounts> counts{};
};

/**
 * One thread's slice of the registry. All cells are relaxed atomics:
 * the owning thread is the only writer, but a heartbeat or snapshot
 * may read concurrently, and relaxed uncontended atomics cost the
 * same as plain loads/stores on every target this simulator runs on.
 * Cache-line aligned, so no other thread's data shares its lines.
 */
struct alignas(64) MetricShard
{
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kNumWorkerCounters>,
               kMaxWorkers>
        workers{};
    struct HistCells
    {
        std::array<std::atomic<std::uint64_t>, kHistBins> bins{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> min{~0ull};
        std::atomic<std::uint64_t> max{0};
    };
    std::array<HistCells, kNumHists> hists{};
};

namespace detail {

/**
 * constinit thread-local pointer: the one branch every hot site pays
 * when metrics are off (same pattern -- and same rationale -- as
 * obs::detail::t_recorder in trace.hh). C++17 inline variables give
 * exactly one instance per process without an ant_obs symbol.
 */
inline thread_local constinit MetricShard *t_shard = nullptr;

/** The calling thread's profile cells; nullptr until its first record. */
inline thread_local constinit ProfileCells *t_profile = nullptr;

inline std::atomic<bool> g_enabled{false};

/**
 * Shard and profile-cell lists plus the registry-global gauges.
 * Cache-line aligned: every metered arena slab reads the gauges, so a
 * hot atomic of another module placed on their line would turn each
 * slab into a cache miss under parallel load.
 */
struct alignas(64) Registry
{
    std::mutex mutex;
    /** Shards live for the process lifetime: a detached thread's
     *  totals must survive it, and t_shard pointers must never
     *  dangle. reset() zeroes cells instead of freeing shards. */
    std::vector<std::unique_ptr<MetricShard>> shards;
    /** Same lifetime rule as shards. */
    std::vector<std::unique_ptr<ProfileCells>> profiles;
    std::array<std::atomic<std::int64_t>, kNumGauges> gaugeValue{};
    std::array<std::atomic<std::int64_t>, kNumGauges> gaugePeak{};
};

inline Registry &
registry()
{
    static Registry r;
    return r;
}

/** Raise @p cell to at least @p v (relaxed CAS max; uncontended). */
inline void
raiseTo(std::atomic<std::int64_t> &cell, std::int64_t v)
{
    std::int64_t cur = cell.load(std::memory_order_relaxed);
    while (cur < v &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

inline void
raiseToU(std::atomic<std::uint64_t> &cell, std::uint64_t v)
{
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (cur < v &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

inline void
lowerToU(std::atomic<std::uint64_t> &cell, std::uint64_t v)
{
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (cur > v &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** The calling thread's profile cells, attached on first use. */
inline ProfileCells &
profileCells()
{
    if (ProfileCells *cells = t_profile)
        return *cells;
    Registry &reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.profiles.push_back(std::make_unique<ProfileCells>());
    t_profile = reg.profiles.back().get();
    return *t_profile;
}

} // namespace detail

/** Whether the registry is collecting. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn collection on or off process-wide. Threads attach lazily via
 * threadAttach; disabling stops new attachments but leaves existing
 * shards in place (their totals remain snapshot-visible).
 */
inline void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

/** The calling thread's shard; nullptr when it never attached. */
inline MetricShard *
shard()
{
    return detail::t_shard;
}

/**
 * Install a shard for the calling thread (no-op when disabled or
 * already attached). Called at the known thread entry points -- bench
 * parseOptions (main thread), ThreadPool workerLoop / parallelFor --
 * so hot recording sites stay a single pointer branch.
 */
inline void
threadAttach()
{
    if (!enabled() || detail::t_shard != nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(std::make_unique<MetricShard>());
    detail::t_shard = reg.shards.back().get();
}

/** Bump counter @p c by @p delta. */
inline void
count(Counter c, std::uint64_t delta = 1)
{
    if (MetricShard *s = detail::t_shard) {
        s->counters[static_cast<std::size_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }
}

/** Bump per-worker counter @p c of worker @p worker by @p delta. */
inline void
workerCount(std::uint32_t worker, WorkerCounter c, std::uint64_t delta)
{
    if (MetricShard *s = detail::t_shard) {
        const std::size_t w =
            worker < kMaxWorkers ? worker : kMaxWorkers - 1;
        s->workers[w][static_cast<std::size_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }
}

/** Raise gauge @p g to at least @p value (max-watermark semantics). */
inline void
gaugeMax(Gauge g, std::int64_t value)
{
    if (detail::t_shard == nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::size_t i = static_cast<std::size_t>(g);
    detail::raiseTo(reg.gaugeValue[i], value);
    detail::raiseTo(reg.gaugePeak[i], value);
}

/** Record one sample into host histogram @p h. */
inline void
histRecord(Hist h, std::uint64_t value)
{
    if (MetricShard *s = detail::t_shard) {
        MetricShard::HistCells &cells =
            s->hists[static_cast<std::size_t>(h)];
        cells.bins[histBucket(value)].fetch_add(
            1, std::memory_order_relaxed);
        cells.count.fetch_add(1, std::memory_order_relaxed);
        cells.sum.fetch_add(value, std::memory_order_relaxed);
        detail::lowerToU(cells.min, value);
        detail::raiseToU(cells.max, value);
    }
}

/** Add one timed region of @p stage (always recorded). */
inline void
stageAdd(Stage stage, std::uint64_t nanos)
{
    ProfileCells &cells = detail::profileCells();
    const auto i = static_cast<std::size_t>(stage);
    cells.stageNs[i].fetch_add(nanos, std::memory_order_relaxed);
    cells.stageCalls[i].fetch_add(1, std::memory_order_relaxed);
}

/** Bump profile count @p c by @p delta (always recorded). */
inline void
profileCount(ProfileCount c, std::uint64_t delta)
{
    detail::profileCells().counts[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
}

/**
 * Host wall-clock in nanoseconds (steady, epoch = clock's own).
 * Confined to this whitelisted header so instrumented code never
 * names a clock type itself (antsim-lint no-wall-clock-in-sim).
 */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Times one stage region into the profile cells on destruction, and
 * mirrors it as a `stage` span when a host trace is being collected.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Stage stage) : stage_(stage), start_(nowNs()) {}

    ~ScopedTimer()
    {
        const std::uint64_t end = nowNs();
        stageAdd(stage_, end - start_);
        if (host::buf() != nullptr)
            host::emitSpan("stage", stageName(stage_), start_, end);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Stage stage_;
    std::uint64_t start_;
};

// ------------------------------------------------------------------
// Consumer API (metrics.cc, ant_obs): snapshot/merge, name catalog,
// Prometheus text exposition, reset. Callers link ant_obs.

/**
 * Order-independent merge of every shard and profile block, plus the
 * global gauges.
 */
struct Snapshot
{
    std::array<std::uint64_t, kNumCounters> counters{};
    std::array<std::array<std::uint64_t, kNumWorkerCounters>, kMaxWorkers>
        workers{};
    /** Highest worker label with any activity, plus one. */
    std::uint32_t workersUsed = 0;
    std::array<std::uint64_t, kNumStages> stageNs{};
    std::array<std::uint64_t, kNumStages> stageCalls{};
    std::array<std::uint64_t, kNumProfileCounts> profileCounts{};
    std::array<std::int64_t, kNumGauges> gaugeValue{};
    std::array<std::int64_t, kNumGauges> gaugePeak{};
    struct HistData
    {
        std::array<std::uint64_t, kHistBins> bins{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        /** 0 when empty (same convention as obs::Histogram). */
        std::uint64_t min = 0;
        std::uint64_t max = 0;
    };
    std::array<HistData, kNumHists> hists{};
};

/** Stable snake_case metric names (exposition / report keys). */
const char *counterName(Counter c);
const char *gaugeName(Gauge g);
const char *histName(Hist h);
const char *profileCountName(ProfileCount c);

/** Merge every block into one Snapshot (sum; order-independent). */
Snapshot snapshot();

/**
 * Serialize @p snap in the Prometheus text exposition format
 * (# HELP/# TYPE + samples; counters end in _total, histograms emit
 * cumulative _bucket/_sum/_count). Deterministic: fixed catalog
 * order, exact integers only.
 */
std::string toPrometheus(const Snapshot &snap);

/** Write toPrometheus(snapshot()) to @p path (fatal on I/O error). */
void writePrometheus(const std::string &path);

/** Zero every cell and gauge; blocks stay attached (tests). */
void reset();

} // namespace metrics
} // namespace obs
} // namespace antsim

#endif // ANTSIM_OBS_METRICS_HH
