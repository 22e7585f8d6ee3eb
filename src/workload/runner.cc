#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>

#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/chunking.hh"
#include "sim/sram.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

using obs::metrics::ScopedTimer;
using obs::metrics::Stage;

namespace {

/** Short phase names for trace labels and the progress heartbeat. */
constexpr const char *kPhaseNames[3] = {"fwd", "bwd", "upd"};

/** Record the per-row non-zero distribution of a task's image plane. */
void
recordImageRowHist(obs::UnitRecorder &rec, const CsrMatrix &image)
{
    const auto &row_ptr = image.rowPtr();
    for (std::size_t y = 0; y + 1 < row_ptr.size(); ++y)
        rec.hist(obs::HistId::ImageRowNnz, row_ptr[y + 1] - row_ptr[y]);
}

/** Record the residual-RCP permille of one finished chunk task. */
void
recordRcpHist(obs::UnitRecorder &rec, const CounterSet &c)
{
    const std::uint64_t executed = c.get(Counter::MultsExecuted);
    if (executed > 0) {
        rec.hist(obs::HistId::RcpPermille,
                 c.get(Counter::MultsRcp) * 1000 / executed);
    }
}

/**
 * Run one chunk task (@p run returns its PeResult), bracket it in the
 * unit's simulated-time trace, and add its counters to @p total.
 */
template <typename Run>
void
simulateTask(CounterSet &total, const Run &run)
{
    obs::UnitRecorder *rec = obs::recorder();
    if (rec)
        rec->beginTask();
    const PeResult r = run();
    if (rec) {
        rec->endTask();
        recordRcpHist(*rec, r.counters);
    }
    total += r.counters;
    total.add(Counter::TasksProcessed);
}

/**
 * One generated operand and its split into buffer-capacity chunks, made
 * on first request. Dense-tiled baselines must not have their MAC
 * stream split by the sparse buffer capacity, so they -- like every
 * model when the operand fits -- stream the whole operand, uncopied.
 */
class ChunkedOperand
{
  public:
    ChunkedOperand(const CsrMatrix &matrix, std::uint32_t capacity)
        : whole_(&matrix), capacity_(capacity)
    {}

    /** The chunks @p pe streams, in storage order. */
    std::span<const CsrMatrix>
    chunksFor(const PeModel &pe)
    {
        const ScopedTimer timer(Stage::PlanBuild);
        if (!pe.usesCompressedOperands() || whole_->nnz() <= capacity_)
            return {whole_, 1};
        if (chunks_.empty())
            chunks_ = chunkByCapacity(*whole_, capacity_);
        return chunks_;
    }

  private:
    const CsrMatrix *whole_;
    std::uint32_t capacity_;
    std::vector<CsrMatrix> chunks_;
};

/**
 * Per-worker PE replicas for the parallel engine. Worker 0 is the
 * calling thread and keeps the caller's PE (so a 1-thread run
 * simulates on the exact object it was handed); every other worker
 * owns a clone() with no shared mutable state.
 */
class WorkerPes
{
  public:
    WorkerPes(PeModel &pe, std::uint32_t worker_count) : pes_(worker_count)
    {
        pes_[0] = &pe;
        clones_.reserve(worker_count - 1);
        for (std::uint32_t w = 1; w < worker_count; ++w) {
            clones_.push_back(pe.clone());
            pes_[w] = clones_.back().get();
        }
    }

    PeModel &operator[](std::uint32_t worker) const { return *pes_[worker]; }

  private:
    std::vector<PeModel *> pes_;
    std::vector<std::unique_ptr<PeModel>> clones_;
};

/**
 * The unit executor both network runners share. It simulates
 * @p unit_count units on every model of @p models: a pool worker
 * generates unit i's operands once, then simulates them on its own
 * replica of each model in list order. Each (model, unit) gets its own
 * simulated-time trace scope and host `unit` span, and its counters
 * land in that model's slot i, so each model's slots equal those of a
 * call of its own at every thread count.
 *
 * @p label_of(i) names unit i in the traces and the heartbeat.
 * @p run_unit(i, for_each_model) generates unit i and then calls
 * for_each_model(simulate) once; simulate(pe) runs one model's replica
 * on the generated operands and returns its counters.
 *
 * Returns the counters per model, each in unit (task-index) order.
 */
template <typename LabelOf, typename RunUnit>
std::vector<std::vector<CounterSet>>
runUnits(const std::vector<ModelRun> &models, const RunConfig &config,
         const char *generic_label, std::size_t unit_count,
         const LabelOf &label_of, const RunUnit &run_unit)
{
    config.validate();
    ANT_ASSERT(!models.empty(), "a network run needs at least one model");

    // Register one trace run per model in list order before any worker
    // starts, so run indices match one call per model.
    obs::TraceSink *const sink = obs::traceSink();
    std::vector<std::string> labels;
    std::vector<std::size_t> trace_runs;
    std::string call_label;
    for (const ModelRun &model : models) {
        labels.push_back(model.label.empty() ? generic_label : model.label);
        trace_runs.push_back(sink ? sink->beginRun(labels.back(), unit_count)
                                  : 0);
        call_label += (call_label.empty() ? "" : " + ") + labels.back();
    }
    obs::metrics::threadAttach();
    obs::metrics::count(obs::metrics::Counter::RunnerRuns, models.size());
    const obs::host::ScopedSpan host_run_span("run", call_label);

    // Progress heartbeat: ~8 info-level lines per call, counted with a
    // relaxed atomic so it never perturbs simulation results.
    const std::uint64_t heartbeat_step =
        std::max<std::uint64_t>(1, unit_count / 8);
    std::atomic<std::uint64_t> units_done{0};

    std::vector<std::vector<CounterSet>> unit_counters(
        models.size(), std::vector<CounterSet>(unit_count));
    ThreadPool pool(effectiveWorkerCount(config.numThreads));
    std::vector<WorkerPes> replicas;
    replicas.reserve(models.size());
    for (const ModelRun &model : models)
        replicas.emplace_back(*model.pe, pool.threadCount());
    pool.parallelFor(
        0, unit_count, /*grain=*/1,
        // antsim-lint: allow(parallel-capture-discipline) -- per-slot
        // discipline: each task writes only unit_counters[m][i] (its
        // own task-indexed slot of each model) plus relaxed atomics;
        // all other captures are read-only, and each worker simulates
        // on its private replicas[m][worker] clones
        // (parallel_determinism_test).
        [&](std::uint64_t i, std::uint32_t worker) {
            // The label feeds both traces; host unit spans carry
            // {run, unit} args to cross-link with the simulated-time
            // trace's unit events.
            const bool host_on = obs::host::buf() != nullptr;
            const std::string label =
                sink != nullptr || host_on ? label_of(i) : std::string();
            const std::uint64_t unit_start =
                obs::metrics::shard() != nullptr ? obs::metrics::nowNs()
                                                 : 0;
            const auto for_each_model = [&](const auto &simulate) {
                for (std::size_t m = 0; m < models.size(); ++m) {
                    const obs::ScopedUnitTrace trace(
                        sink, trace_runs[m], i,
                        sink ? label : std::string());
                    const obs::host::ScopedSpan host_span(
                        "unit", host_on ? label : std::string(),
                        host_on ? "{\"run\":\"" + labels[m] +
                                "\",\"unit\":" + std::to_string(i) + "}"
                                : std::string());
                    unit_counters[m][i] = simulate(replicas[m][worker]);
                }
            };
            run_unit(i, for_each_model);
            if (obs::metrics::shard() != nullptr) {
                obs::metrics::count(obs::metrics::Counter::RunnerUnits);
                obs::metrics::histRecord(
                    obs::metrics::Hist::UnitWallNs,
                    obs::metrics::nowNs() - unit_start);
            }
            const std::uint64_t done =
                units_done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (logLevel() >= LogLevel::Info &&
                (done % heartbeat_step == 0 || done == unit_count)) {
                ANT_INFORM(call_label, ": ", done, "/", unit_count,
                           " units simulated (last: ", label_of(i), ")");
            }
        });
    return unit_counters;
}

/** One simulated (layer, phase, sample) unit of a conv network run. */
struct ConvUnit
{
    std::uint32_t layer = 0;
    std::uint32_t phase = 0;
    /** Channel index the sample maps to (seeds the unit's trace). */
    std::uint64_t taskIndex = 0;
};

} // namespace

std::uint32_t
effectiveWorkerCount(std::uint32_t requested)
{
    // The engine's results are thread-count-invariant by construction
    // (parallel_determinism_test), so oversubscribing the machine buys
    // nothing and costs context switches and cache churn in the
    // CPU-bound unit loop -- clamp the request to the hardware.
    const std::uint32_t resolved = ThreadPool::resolveThreadCount(requested);
    return std::min(resolved, ThreadPool::resolveThreadCount(0));
}

void
RunConfig::validate() const
{
    // A worker count beyond any plausible machine is almost always a
    // negative flag value wrapped by an unsigned conversion.
    constexpr std::uint32_t kMaxThreads = 4096;
    if (numThreads > kMaxThreads)
        ANT_FATAL("numThreads = ", numThreads, " is not a sane worker ",
                  "count (max ", kMaxThreads,
                  "); was a negative value converted to unsigned?");
    if (sampleCap == 0)
        ANT_FATAL("sampleCap must be positive");
    if (numPes == 0)
        ANT_FATAL("numPes must be positive");
    if (chunkCapacity == 0)
        ANT_FATAL("chunkCapacity must be positive");
    // A chunk is what one PE buffer holds: past the value buffer's
    // capacity every worker would die mid-run on the SRAM check.
    const std::uint32_t buffer = SramConfig::values().capacityElements();
    if (chunkCapacity > buffer)
        ANT_FATAL("chunkCapacity = ", chunkCapacity, " exceeds the PE ",
                  "value buffer of ", buffer, " elements (Table 4: ",
                  "8 KB of 16-bit values)");
}

double
NetworkStats::rcpAvoidedFraction() const
{
    const std::uint64_t avoided = total.get(Counter::RcpsAvoided);
    const std::uint64_t suffered = total.get(Counter::MultsRcp);
    const std::uint64_t all = avoided + suffered;
    return all == 0 ? 1.0
                    : static_cast<double>(avoided) /
            static_cast<double>(all);
}

double
NetworkStats::validMultFraction() const
{
    const std::uint64_t executed = total.get(Counter::MultsExecuted);
    return executed == 0 ? 1.0
                         : static_cast<double>(
                               total.get(Counter::MultsValid)) /
            static_cast<double>(executed);
}

std::vector<NetworkStats>
runConvNetwork(const std::vector<ModelRun> &models,
               const std::vector<ConvLayer> &layers,
               const SparsityProfile &profile, const RunConfig &config)
{
    // Flatten the simulated units so the pool can schedule them freely;
    // the per-layer/phase skeleton is laid down up front.
    NetworkStats skeleton;
    std::vector<ConvUnit> units;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const ConvLayer &layer = layers[li];
        LayerStats layer_stats;
        layer_stats.name = layer.name;
        for (unsigned pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            const auto phase = static_cast<TrainingPhase>(pi);
            PhaseStats &ps = layer_stats.phases[pi];
            // One channel-batched task per image channel (forward,
            // update) or gradient channel (backward); the kernel stack
            // covers the other channel axis in full.
            ps.pairsTotal = stackTaskCount(layer, phase);
            ps.pairsSimulated = std::min<std::uint64_t>(
                ps.pairsTotal, config.sampleCap);
            for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s) {
                // Spread samples evenly across the channel axis.
                units.push_back({static_cast<std::uint32_t>(li), pi,
                                 s * ps.pairsTotal / ps.pairsSimulated});
            }
        }
        skeleton.layers.push_back(std::move(layer_stats));
    }

    const auto label_of = [&](std::uint64_t i) {
        const ConvUnit &unit = units[i];
        return layers[unit.layer].name + "/" + kPhaseNames[unit.phase] +
            "#" + std::to_string(unit.taskIndex);
    };
    // A unit is a pure function of (config, profile, layer, unit): all
    // randomness descends from mixSeed, so the result is independent of
    // which worker runs it and in what order.
    const auto run_unit = [&](std::uint64_t i, const auto &for_each_model) {
        const ConvUnit &unit = units[i];
        Rng rng(mixSeed(config.seed, unit.layer, unit.phase, unit.taskIndex));
        const StackTask task = [&] {
            const ScopedTimer timer(Stage::TraceGen);
            return makeConvPhaseTask(layers[unit.layer],
                                     static_cast<TrainingPhase>(unit.phase),
                                     profile, rng);
        }();
        const auto kernel_ptrs = task.kernelPtrs();
        // Image chunking: the stationary image must fit the 8 KB
        // buffer; each image chunk reloads the PE (its own start-up)
        // and re-streams the kernel stack.
        ChunkedOperand image(*task.image, config.chunkCapacity);
        for_each_model([&](PeModel &pe) {
            const std::span<const CsrMatrix> image_chunks =
                image.chunksFor(pe);
            if (obs::UnitRecorder *rec = obs::recorder())
                recordImageRowHist(*rec, *task.image);
            const ScopedTimer timer(Stage::PeSim);
            CounterSet counters;
            for (const CsrMatrix &chunk : image_chunks) {
                simulateTask(counters, [&] {
                    return pe.runStack(task.spec, kernel_ptrs, chunk,
                                       /*collect_output=*/false);
                });
            }
            return counters;
        });
    };
    const std::vector<std::vector<CounterSet>> unit_counters = runUnits(
        models, config, "conv_network", units.size(), label_of, run_unit);

    // Ordered reduction, per model: fold the per-unit counters back
    // into the (layer, phase) skeleton in task-index order -- the exact
    // order the serial loop accumulated them -- then scale and audit
    // each phase. Bit-identical for every thread count.
    const ScopedTimer reduce_timer(Stage::Reduce);
    std::vector<NetworkStats> results;
    for (const std::vector<CounterSet> &counters : unit_counters) {
        NetworkStats stats = skeleton;
        std::uint64_t scaled_sets = 0;
        std::size_t next_unit = 0;
        for (LayerStats &layer_stats : stats.layers) {
            for (unsigned pi = 0; pi < 3; ++pi) {
                if (!config.phases[pi])
                    continue;
                PhaseStats &ps = layer_stats.phases[pi];
                for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s)
                    ps.counters += counters[next_unit++];
                ps.counters.scale(ps.pairsTotal, ps.pairsSimulated);
                // Rational scaling rounds each counter independently,
                // so the additive laws hold only up to a couple of
                // counts.
                verify::auditAggregateOrPanic("scaled phase counters",
                                              ps.counters, /*slack=*/2);
                ++scaled_sets;
                stats.total += ps.counters;
            }
        }
        ANT_ASSERT(next_unit == units.size(),
                   "parallel reduction consumed every unit exactly once");
        verify::auditAggregateOrPanic("conv network totals", stats.total,
                                      2 * scaled_sets);
        results.push_back(std::move(stats));
    }
    return results;
}

std::vector<NetworkStats>
runMatmulNetwork(const std::vector<ModelRun> &models,
                 const std::vector<MatmulLayer> &layers, double sparsity,
                 SparsifyMethod method, const RunConfig &config)
{
    const auto label_of = [&](std::uint64_t li) { return layers[li].name; };
    const auto run_unit = [&](std::uint64_t li, const auto &for_each_model) {
        Rng rng(mixSeed(config.seed, li, 0, 0));
        const PlanePair pair = [&] {
            const ScopedTimer timer(Stage::TraceGen);
            return makeMatmulPair(layers[li], sparsity, method, rng);
        }();
        ChunkedOperand kernel(pair.kernel, config.chunkCapacity);
        ChunkedOperand image(pair.image, config.chunkCapacity);
        for_each_model([&](PeModel &pe) {
            const std::vector<ChunkPair> tasks =
                allChunkPairs(kernel.chunksFor(pe), image.chunksFor(pe));
            if (obs::UnitRecorder *rec = obs::recorder())
                recordImageRowHist(*rec, pair.image);
            const ScopedTimer timer(Stage::PeSim);
            CounterSet counters;
            for (const ChunkPair &task : tasks) {
                simulateTask(counters, [&] {
                    return pe.runPair(pair.spec, *task.kernel, *task.image,
                                      /*collect_output=*/false);
                });
            }
            return counters;
        });
    };
    const std::vector<std::vector<CounterSet>> unit_counters = runUnits(
        models, config, "matmul_network", layers.size(), label_of, run_unit);

    const ScopedTimer reduce_timer(Stage::Reduce);
    std::vector<NetworkStats> results;
    for (const std::vector<CounterSet> &counters : unit_counters) {
        NetworkStats stats;
        for (std::size_t li = 0; li < layers.size(); ++li) {
            LayerStats layer_stats;
            layer_stats.name = layers[li].name;
            PhaseStats &ps = layer_stats.phases[0];
            ps.pairsTotal = 1;
            ps.pairsSimulated = 1;
            ps.counters += counters[li];
            stats.total += ps.counters;
            stats.layers.push_back(std::move(layer_stats));
        }
        verify::auditAggregateOrPanic("matmul network totals", stats.total,
                                      /*slack=*/0);
        results.push_back(std::move(stats));
    }
    return results;
}

NetworkStats
runConvNetwork(PeModel &pe, const std::vector<ConvLayer> &layers,
               const SparsityProfile &profile, const RunConfig &config)
{
    return std::move(
        runConvNetwork({{pe}}, layers, profile, config).front());
}

NetworkStats
runMatmulNetwork(PeModel &pe, const std::vector<MatmulLayer> &layers,
                 double sparsity, SparsifyMethod method,
                 const RunConfig &config)
{
    return std::move(
        runMatmulNetwork({{pe}}, layers, sparsity, method, config).front());
}

double
speedupOf(const NetworkStats &slow, const NetworkStats &fast)
{
    const auto fast_cycles =
        static_cast<double>(fast.total.get(Counter::Cycles));
    const auto slow_cycles =
        static_cast<double>(slow.total.get(Counter::Cycles));
    ANT_ASSERT(fast_cycles > 0.0, "fast run has zero cycles");
    return slow_cycles / fast_cycles;
}

double
energyRatioOf(const NetworkStats &slow, const NetworkStats &fast,
              const EnergyModel &model)
{
    const double fast_pj = fast.energyPj(model);
    const double slow_pj = slow.energyPj(model);
    ANT_ASSERT(fast_pj > 0.0, "fast run has zero energy");
    return slow_pj / fast_pj;
}

} // namespace antsim
