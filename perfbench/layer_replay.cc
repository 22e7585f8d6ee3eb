/**
 * @file
 * Per-layer replay program for the host-time benchmark (run.py --trace 1).
 *
 * Usage:
 *   layer_replay --workload fig9_cnn90|fig10_resprop|sec78_matmul
 *                --seed S --threads N [--samples 16 --pes 64 --chunk 4096]
 *
 * Two phases, printed as one JSON object on stdout:
 *
 *  1. Runner phase: the same runConvNetwork / runMatmulNetwork calls, in
 *     the same order and with the same RunConfig, as the workload's bench
 *     binary makes. Each call is timed (wall, process CPU) and the RSS is
 *     read before the first and after the last call.
 *  2. Replay phase: every sampled unit of every call is replayed on one
 *     thread through the layers the runner composes -- tracegen
 *     (makeConvPhaseTask / makeMatmulPair), chunking (chunkByCapacity /
 *     allChunkPairs) and the PE (runStack / runPair) -- timing each call.
 *     The replay scales its counters the way the runner does and must
 *     equal the runner's NetworkStats::total counter for counter, which
 *     shows the per-layer figures describe exactly the measured work.
 *
 * Exits 1 when a replay differs from its runner call.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ant/ant_pe.hh"
#include "scnn/scnn_pe.hh"
#include "sim/chunking.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/networks.hh"
#include "workload/runner.hh"
#include "workload/tracegen.hh"

using namespace antsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Resident set size now, in MiB (/proc/self/statm). */
double
residentMib()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** One runner call of a workload, as its bench binary makes it. */
struct RunnerCall
{
    PeModel *pe = nullptr;
    bool isAnt = false;
    /** Conv calls: layers and profile. */
    const std::vector<ConvLayer> *convLayers = nullptr;
    SparsityProfile profile;
    /** Matmul calls: layers, sparsity, method. */
    const std::vector<MatmulLayer> *matmulLayers = nullptr;
    double sparsity = 0.0;
    SparsifyMethod method = SparsifyMethod::TopK;
};

/** Busy time and work of the replayed layers. */
struct Ledger
{
    double tracegenS = 0.0;
    std::uint64_t planes = 0;
    double chunkingS = 0.0;
    std::uint64_t chunks = 0;
    /** Index 0: SCNN+, 1: ANT. */
    double peS[2] = {0.0, 0.0};
    std::uint64_t peMults[2] = {0, 0};
};

/** Time @p fn and add the elapsed seconds to @p sink. */
template <typename Fn>
auto
timed(double &sink, Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    auto result = fn();
    sink += secondsSince(start);
    return result;
}

std::uint32_t
capacityFor(const PeModel &pe, std::uint32_t capacity)
{
    return pe.usesCompressedOperands()
        ? capacity
        : std::numeric_limits<std::uint32_t>::max();
}

/** Replay one runConvNetwork call unit by unit; returns the scaled total. */
CounterSet
replayConv(const RunnerCall &call, const RunConfig &config, Ledger &ledger)
{
    PeModel &pe = *call.pe;
    const int which = call.isAnt ? 1 : 0;
    const std::uint32_t capacity = capacityFor(pe, config.chunkCapacity);
    CounterSet total;
    const std::vector<ConvLayer> &layers = *call.convLayers;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        for (unsigned pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            const auto phase = static_cast<TrainingPhase>(pi);
            const std::uint64_t pairs = stackTaskCount(layers[li], phase);
            const std::uint64_t sampled =
                std::min<std::uint64_t>(pairs, config.sampleCap);
            CounterSet phase_counters;
            for (std::uint64_t s = 0; s < sampled; ++s) {
                Rng rng(mixSeed(config.seed, li, pi, s * pairs / sampled));
                const StackTask task = timed(ledger.tracegenS, [&] {
                    return makeConvPhaseTask(layers[li], phase, call.profile,
                                             rng);
                });
                ledger.planes += 1 + task.kernels.size();
                const std::vector<CsrMatrix> image_chunks =
                    timed(ledger.chunkingS, [&] {
                        return chunkByCapacity(*task.image, capacity);
                    });
                ledger.chunks += image_chunks.size();
                const auto kernel_ptrs = task.kernelPtrs();
                for (const CsrMatrix &chunk : image_chunks) {
                    const PeResult r = timed(ledger.peS[which], [&] {
                        return pe.runStack(task.spec, kernel_ptrs, chunk,
                                           /*collect_output=*/false);
                    });
                    ledger.peMults[which] +=
                        r.counters.get(Counter::MultsExecuted);
                    phase_counters += r.counters;
                    phase_counters.add(Counter::TasksProcessed);
                }
            }
            phase_counters.scale(pairs, sampled);
            total += phase_counters;
        }
    }
    return total;
}

/** Replay one runMatmulNetwork call layer by layer. */
CounterSet
replayMatmul(const RunnerCall &call, const RunConfig &config, Ledger &ledger)
{
    PeModel &pe = *call.pe;
    const int which = call.isAnt ? 1 : 0;
    const std::uint32_t capacity = capacityFor(pe, config.chunkCapacity);
    CounterSet total;
    const std::vector<MatmulLayer> &layers = *call.matmulLayers;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        Rng rng(mixSeed(config.seed, li, 0, 0));
        const PlanePair pair = timed(ledger.tracegenS, [&] {
            return makeMatmulPair(layers[li], call.sparsity, call.method,
                                  rng);
        });
        ledger.planes += 2;
        std::vector<CsrMatrix> kernel_chunks;
        std::vector<CsrMatrix> image_chunks;
        const std::vector<ChunkPair> tasks = timed(ledger.chunkingS, [&] {
            kernel_chunks = chunkByCapacity(pair.kernel, capacity);
            image_chunks = chunkByCapacity(pair.image, capacity);
            return allChunkPairs(kernel_chunks, image_chunks);
        });
        ledger.chunks += kernel_chunks.size() + image_chunks.size();
        for (const ChunkPair &task : tasks) {
            const PeResult r = timed(ledger.peS[which], [&] {
                return pe.runPair(pair.spec, *task.kernel, *task.image,
                                  /*collect_output=*/false);
            });
            ledger.peMults[which] += r.counters.get(Counter::MultsExecuted);
            total += r.counters;
            total.add(Counter::TasksProcessed);
        }
    }
    return total;
}

bool
sameCounters(const CounterSet &a, const CounterSet &b)
{
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        if (a.get(static_cast<Counter>(c)) != b.get(static_cast<Counter>(c)))
            return false;
    }
    return true;
}

std::uint32_t
flagCount(const Cli &cli, const std::string &name, std::int64_t fallback)
{
    const std::int64_t v = cli.getInt(name, fallback);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max())
        ANT_FATAL("flag --", name, " out of range: ", v);
    return static_cast<std::uint32_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"workload", "seed", "threads", "samples", "pes", "chunk"});
    const std::string workload = cli.get("workload");
    RunConfig config;
    config.seed = flagCount(cli, "seed", 42);
    config.numThreads = flagCount(cli, "threads", 0);
    config.sampleCap = flagCount(cli, "samples", 16);
    config.numPes = flagCount(cli, "pes", 64);
    config.chunkCapacity = flagCount(cli, "chunk", 4096);
    config.validate();

    ScnnPe scnn;
    AntPe ant;

    // The calls each bench binary makes, in its order (bench/*.cc).
    std::vector<NamedNetwork> networks;
    std::vector<ConvLayer> resnet18;
    std::vector<std::vector<MatmulLayer>> matmul_suites;
    std::vector<RunnerCall> calls;
    auto conv = [&](PeModel &pe, bool is_ant,
                    const std::vector<ConvLayer> &layers,
                    SparsityProfile profile) {
        RunnerCall call;
        call.pe = &pe;
        call.isAnt = is_ant;
        call.convLayers = &layers;
        call.profile = profile;
        calls.push_back(call);
    };
    if (workload == "fig9_cnn90") {
        networks = figure9Networks();
        for (const NamedNetwork &network : networks) {
            const SparsityProfile profile = network.syntheticTopK
                ? SparsityProfile::topK(0.9)
                : SparsityProfile::swat(0.9);
            conv(scnn, false, network.layers, profile);
            conv(ant, true, network.layers, profile);
        }
    } else if (workload == "fig10_resprop") {
        resnet18 = resnet18Cifar();
        conv(scnn, false, resnet18, SparsityProfile::dense());
        const std::pair<double, double> points[] = {
            {0.30, 0.80}, {0.42, 0.85}, {0.50, 0.86}, {0.70, 0.88},
            {0.80, 0.90}, {0.90, 0.91}, {0.95, 0.92}};
        for (const auto &[grad_sp, act_sp] : points)
            conv(ant, true, resnet18,
                 SparsityProfile::resprop(grad_sp, act_sp));
    } else if (workload == "sec78_matmul") {
        matmul_suites = {transformerLayers(), rnnLayers()};
        for (const std::vector<MatmulLayer> &layers : matmul_suites) {
            for (double sparsity : {0.0, 0.5, 0.9}) {
                for (const bool is_ant : {true, false}) {
                    RunnerCall call;
                    call.pe = is_ant ? static_cast<PeModel *>(&ant) : &scnn;
                    call.isAnt = is_ant;
                    call.matmulLayers = &layers;
                    call.sparsity = sparsity;
                    calls.push_back(call);
                }
            }
        }
    } else {
        ANT_FATAL("unknown --workload '", workload,
                  "'; expected fig9_cnn90, fig10_resprop or sec78_matmul");
    }

    // Phase 1: the runner, exactly as the bench binary calls it.
    std::vector<NetworkStats> runner_stats;
    double runner_wall = 0.0;
    const double rss_before = residentMib();
    const double cpu_before = processCpuSeconds();
    for (const RunnerCall &call : calls) {
        runner_stats.push_back(timed(runner_wall, [&] {
            return call.convLayers != nullptr
                ? runConvNetwork(*call.pe, *call.convLayers, call.profile,
                                 config)
                : runMatmulNetwork(*call.pe, *call.matmulLayers,
                                   call.sparsity, call.method, config);
        }));
    }
    const double runner_cpu = processCpuSeconds() - cpu_before;
    const double retained = residentMib() - rss_before;

    // Phase 2: single-threaded replay through each layer.
    Ledger ledger;
    bool matches = true;
    std::uint64_t cycles[2] = {0, 0};
    CounterSet pe_totals[2];
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const RunnerCall &call = calls[i];
        const CounterSet replayed = call.convLayers != nullptr
            ? replayConv(call, config, ledger)
            : replayMatmul(call, config, ledger);
        if (!sameCounters(replayed, runner_stats[i].total)) {
            std::fprintf(stderr, "layer_replay: replay of call %zu (%s) "
                                 "differs from the runner's totals\n",
                         i, call.pe->name().c_str());
            matches = false;
        }
        const int which = call.isAnt ? 1 : 0;
        cycles[which] += runner_stats[i].total.get(Counter::Cycles);
        pe_totals[which] += runner_stats[i].total;
    }

    std::printf(
        "{\"workload\": \"%s\", \"calls\": %zu, \"threads\": %u, "
        "\"replay_matches\": %s, "
        "\"runner_wall_s\": %.9f, \"runner_cpu_s\": %.9f, "
        "\"runner_retained_mib\": %.6f, "
        "\"tracegen_s\": %.9f, \"planes\": %llu, "
        "\"chunking_s\": %.9f, \"chunks\": %llu, "
        "\"scnn_s\": %.9f, \"scnn_mults\": %llu, \"scnn_cycles\": %llu, "
        "\"scnn_mults_valid\": %llu, \"scnn_mults_executed\": %llu, "
        "\"ant_s\": %.9f, \"ant_mults\": %llu, \"ant_cycles\": %llu, "
        "\"ant_rcps_avoided\": %llu, \"ant_mults_rcp\": %llu}\n",
        workload.c_str(), calls.size(), effectiveWorkerCount(config.numThreads),
        matches ? "true" : "false", runner_wall, runner_cpu, retained,
        ledger.tracegenS, static_cast<unsigned long long>(ledger.planes),
        ledger.chunkingS, static_cast<unsigned long long>(ledger.chunks),
        ledger.peS[0], static_cast<unsigned long long>(ledger.peMults[0]),
        static_cast<unsigned long long>(cycles[0]),
        static_cast<unsigned long long>(
            pe_totals[0].get(Counter::MultsValid)),
        static_cast<unsigned long long>(
            pe_totals[0].get(Counter::MultsExecuted)),
        ledger.peS[1], static_cast<unsigned long long>(ledger.peMults[1]),
        static_cast<unsigned long long>(cycles[1]),
        static_cast<unsigned long long>(
            pe_totals[1].get(Counter::RcpsAvoided)),
        static_cast<unsigned long long>(pe_totals[1].get(Counter::MultsRcp)));
    return matches ? 0 : 1;
}
