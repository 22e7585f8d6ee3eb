#include "metrics.hh"

#include <algorithm>
#include <fstream>

#include "util/logging.hh"

namespace antsim {
namespace obs {
namespace metrics {

namespace {

/** Bare snake_case names; the exposition prefixes antsim_ and, for
 *  counters, suffixes _total. Stable schema keys -- extend, never
 *  rename (docs/OBSERVABILITY.md catalog). */
constexpr const char *kCounterNames[kNumCounters] = {
    "pool_parallel_fors",
    "pool_items",
    "arena_slabs",
    "arena_slab_bytes",
    "aligned_vec_grows",
    "aligned_vec_grow_bytes",
    "runner_runs",
    "runner_units",
};

constexpr const char *kCounterHelp[kNumCounters] = {
    "parallelFor jobs issued by the thread pool",
    "work items scheduled across all parallelFor jobs",
    "slabs (re)allocated by Arena::reset",
    "slab bytes allocated by Arena::reset",
    "AlignedVec growth reallocations",
    "bytes allocated by AlignedVec growths",
    "model runs, one per PE model of each runner call",
    "generated units completed, each simulated on every model of its call",
};

constexpr const char *kWorkerCounterNames[kNumWorkerCounters] = {
    "pool_worker_busy_ns",
    "pool_worker_idle_ns",
    "pool_worker_chunks",
    "pool_worker_items",
};

constexpr const char *kWorkerCounterHelp[kNumWorkerCounters] = {
    "nanoseconds the worker spent executing claimed chunks",
    "nanoseconds the worker spent parked on the wake condition",
    "chunks the worker claimed from the shared cursor",
    "work items the worker executed",
};

constexpr const char *kGaugeNames[kNumGauges] = {
    "pool_max_job_items",
    "pool_workers",
    "arena_highwater_bytes",
    "aligned_vec_highwater_bytes",
};

constexpr const char *kGaugeHelp[kNumGauges] = {
    "largest parallelFor item count seen (pending-depth proxy)",
    "largest pool worker count seen",
    "largest arena slab capacity in bytes seen",
    "largest AlignedVec capacity in bytes seen across all vectors",
};

constexpr const char *kHistNames[kNumHists] = {
    "unit_wall_ns",
    "pool_job_items",
};

constexpr const char *kHistHelp[kNumHists] = {
    "host wall nanoseconds per generated unit, all models included",
    "item count per parallelFor job",
};

constexpr const char *kProfileCountNames[kNumProfileCounts] = {
    "census_tables_built",
    "census_rect_queries",
    "trace_planes_generated",
};

constexpr const char *kProfileCountHelp[kNumProfileCounts] = {
    "census summed-area and histogram tables built",
    "census rectangle and histogram queries answered",
    "planes generated by the trace task and pair builders",
};

void
appendSample(std::string &out, const std::string &series, std::uint64_t v)
{
    out += series;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

void
appendSampleI(std::string &out, const std::string &series, std::int64_t v)
{
    out += series;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

void
appendFamilyHeader(std::string &out, const std::string &family,
                   const char *help, const char *type)
{
    out += "# HELP ";
    out += family;
    out += ' ';
    out += help;
    out += '\n';
    out += "# TYPE ";
    out += family;
    out += ' ';
    out += type;
    out += '\n';
}

} // namespace

const char *
counterName(Counter c)
{
    const auto i = static_cast<std::size_t>(c);
    ANT_ASSERT(i < kNumCounters, "counter id out of range");
    return kCounterNames[i];
}

const char *
workerCounterName(WorkerCounter c)
{
    const auto i = static_cast<std::size_t>(c);
    ANT_ASSERT(i < kNumWorkerCounters, "worker counter id out of range");
    return kWorkerCounterNames[i];
}

const char *
gaugeName(Gauge g)
{
    const auto i = static_cast<std::size_t>(g);
    ANT_ASSERT(i < kNumGauges, "gauge id out of range");
    return kGaugeNames[i];
}

const char *
histName(Hist h)
{
    const auto i = static_cast<std::size_t>(h);
    ANT_ASSERT(i < kNumHists, "histogram id out of range");
    return kHistNames[i];
}

const char *
profileCountName(ProfileCount c)
{
    const auto i = static_cast<std::size_t>(c);
    ANT_ASSERT(i < kNumProfileCounts, "profile count id out of range");
    return kProfileCountNames[i];
}

Snapshot
snapshot()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    Snapshot snap;

    // Block merge: plain summation of relaxed-atomic cells, so the
    // result is independent of block (thread) order -- the same
    // order-independent discipline HistogramRegistry::operator+= gives
    // the simulated-time histograms.
    for (const auto &shard : reg.shards) {
        for (std::size_t c = 0; c < kNumCounters; ++c) {
            snap.counters[c] +=
                shard->counters[c].load(std::memory_order_relaxed);
        }
        for (std::size_t w = 0; w < kMaxWorkers; ++w) {
            for (std::size_t c = 0; c < kNumWorkerCounters; ++c) {
                snap.workers[w][c] +=
                    shard->workers[w][c].load(std::memory_order_relaxed);
            }
        }
        for (std::size_t h = 0; h < kNumHists; ++h) {
            const MetricShard::HistCells &cells = shard->hists[h];
            Snapshot::HistData &data = snap.hists[h];
            for (std::size_t b = 0; b < kHistBins; ++b) {
                data.bins[b] +=
                    cells.bins[b].load(std::memory_order_relaxed);
            }
            const std::uint64_t count =
                cells.count.load(std::memory_order_relaxed);
            if (count > 0) {
                const std::uint64_t lo =
                    cells.min.load(std::memory_order_relaxed);
                const std::uint64_t hi =
                    cells.max.load(std::memory_order_relaxed);
                data.min = data.count == 0 ? lo : std::min(data.min, lo);
                data.max = std::max(data.max, hi);
            }
            data.count += count;
            data.sum += cells.sum.load(std::memory_order_relaxed);
        }
    }
    for (const auto &cells : reg.profiles) {
        for (std::size_t s = 0; s < kNumStages; ++s) {
            snap.stageNs[s] +=
                cells->stageNs[s].load(std::memory_order_relaxed);
            snap.stageCalls[s] +=
                cells->stageCalls[s].load(std::memory_order_relaxed);
        }
        for (std::size_t c = 0; c < kNumProfileCounts; ++c) {
            snap.profileCounts[c] +=
                cells->counts[c].load(std::memory_order_relaxed);
        }
    }
    for (std::size_t g = 0; g < kNumGauges; ++g) {
        snap.gaugeValue[g] =
            reg.gaugeValue[g].load(std::memory_order_relaxed);
        snap.gaugePeak[g] =
            reg.gaugePeak[g].load(std::memory_order_relaxed);
    }
    for (std::size_t w = kMaxWorkers; w-- > 0;) {
        for (std::size_t c = 0; c < kNumWorkerCounters; ++c) {
            if (snap.workers[w][c] != 0) {
                snap.workersUsed = static_cast<std::uint32_t>(w + 1);
                break;
            }
        }
        if (snap.workersUsed != 0)
            break;
    }
    return snap;
}

std::string
toPrometheus(const Snapshot &snap)
{
    std::string out;
    out.reserve(1u << 14);

    for (std::size_t c = 0; c < kNumCounters; ++c) {
        const std::string family =
            std::string("antsim_") + kCounterNames[c] + "_total";
        appendFamilyHeader(out, family, kCounterHelp[c], "counter");
        appendSample(out, family, snap.counters[c]);
    }

    for (std::size_t c = 0; c < kNumWorkerCounters; ++c) {
        const std::string family =
            std::string("antsim_") + kWorkerCounterNames[c] + "_total";
        appendFamilyHeader(out, family, kWorkerCounterHelp[c], "counter");
        for (std::uint32_t w = 0; w < snap.workersUsed; ++w) {
            appendSample(out,
                         family + "{worker=\"" + std::to_string(w) + "\"}",
                         snap.workers[w][c]);
        }
    }

    for (std::size_t g = 0; g < kNumGauges; ++g) {
        const std::string family =
            std::string("antsim_") + kGaugeNames[g];
        appendFamilyHeader(out, family, kGaugeHelp[g], "gauge");
        appendSampleI(out, family, snap.gaugeValue[g]);
        const std::string peak = family + "_peak";
        appendFamilyHeader(out, peak,
                           (std::string(kGaugeHelp[g]) + " (peak)").c_str(),
                           "gauge");
        appendSampleI(out, peak, snap.gaugePeak[g]);
    }

    {
        const std::string ns_family = "antsim_stage_ns_total";
        appendFamilyHeader(out, ns_family,
                           "host wall nanoseconds per profiled stage",
                           "counter");
        for (std::size_t s = 0; s < kNumStages; ++s) {
            appendSample(out,
                         ns_family + "{stage=\"" + kStageNames[s] + "\"}",
                         snap.stageNs[s]);
        }
        const std::string calls_family = "antsim_stage_calls_total";
        appendFamilyHeader(out, calls_family,
                           "profiled regions entered per stage",
                           "counter");
        for (std::size_t s = 0; s < kNumStages; ++s) {
            appendSample(
                out,
                calls_family + "{stage=\"" + kStageNames[s] + "\"}",
                snap.stageCalls[s]);
        }
    }

    for (std::size_t c = 0; c < kNumProfileCounts; ++c) {
        const std::string family =
            std::string("antsim_") + kProfileCountNames[c] + "_total";
        appendFamilyHeader(out, family, kProfileCountHelp[c], "counter");
        appendSample(out, family, snap.profileCounts[c]);
    }

    for (std::size_t h = 0; h < kNumHists; ++h) {
        const std::string family =
            std::string("antsim_") + kHistNames[h];
        appendFamilyHeader(out, family, kHistHelp[h], "histogram");
        const Snapshot::HistData &data = snap.hists[h];
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < kHistBins - 1; ++b) {
            cumulative += data.bins[b];
            // Bucket b holds values <= 2^b - 1 (log2 layout, exact
            // integer upper bounds -- no floating point anywhere).
            const std::uint64_t le = (1ull << b) - 1;
            appendSample(out,
                         family + "_bucket{le=\"" + std::to_string(le) +
                             "\"}",
                         cumulative);
        }
        appendSample(out, family + "_bucket{le=\"+Inf\"}", data.count);
        appendSample(out, family + "_sum", data.sum);
        appendSample(out, family + "_count", data.count);
    }
    return out;
}

void
writePrometheus(const std::string &path)
{
    const std::string doc = toPrometheus(snapshot());
    std::ofstream out(path, std::ios::binary);
    if (!out)
        ANT_FATAL("cannot open metrics output file '", path, "'");
    out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    out.flush();
    if (!out)
        ANT_FATAL("failed writing metrics output file '", path, "'");
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &shard : reg.shards) {
        for (auto &cell : shard->counters)
            cell.store(0, std::memory_order_relaxed);
        for (auto &worker : shard->workers) {
            for (auto &cell : worker)
                cell.store(0, std::memory_order_relaxed);
        }
        for (auto &hist : shard->hists) {
            for (auto &cell : hist.bins)
                cell.store(0, std::memory_order_relaxed);
            hist.count.store(0, std::memory_order_relaxed);
            hist.sum.store(0, std::memory_order_relaxed);
            hist.min.store(~0ull, std::memory_order_relaxed);
            hist.max.store(0, std::memory_order_relaxed);
        }
    }
    for (const auto &cells : reg.profiles) {
        for (auto &cell : cells->stageNs)
            cell.store(0, std::memory_order_relaxed);
        for (auto &cell : cells->stageCalls)
            cell.store(0, std::memory_order_relaxed);
        for (auto &cell : cells->counts)
            cell.store(0, std::memory_order_relaxed);
    }
    for (auto &cell : reg.gaugeValue)
        cell.store(0, std::memory_order_relaxed);
    for (auto &cell : reg.gaugePeak)
        cell.store(0, std::memory_order_relaxed);
}

} // namespace metrics
} // namespace obs
} // namespace antsim
