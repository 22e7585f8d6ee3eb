/**
 * @file
 * Experiment runner: simulate a network's training convolutions on one
 * or more accelerator models and aggregate counters.
 *
 * A conv layer phase expands into stackTaskCount() channel-batched
 * stack tasks: one stationary image plane plus the kernel stack that
 * streams against it (tracegen.hh StackTask). The runner simulates a
 * deterministic sample of those tasks (counters are linear in the task
 * count, so scaling the sampled counters by pairsTotal/pairsSimulated
 * is unbiased; see DESIGN.md) and accumulates per-phase, per-layer,
 * and network totals. A matmul layer is one (kernel, image) plane pair.
 *
 * Accelerator-level cycles follow the paper's perfect-load-balance
 * assumption (Sec. 6.1): accelCycles = ceil(sum of PE task cycles /
 * numPes). Speedup and relative energy between two runs are therefore
 * ratios of summed PE cycles / energies.
 *
 * Execution is parallel when RunConfig::numThreads != 1: the sampled
 * (layer, phase, sample) units are scheduled across a ThreadPool,
 * each worker simulates on its own PeModel::clone(), and the per-unit
 * CounterSets are reduced in task-index order -- so NetworkStats is
 * bit-identical for every thread count (parallel_determinism_test).
 *
 * Multi-model calls (the ModelRun overloads) generate each unit's
 * trace once and simulate it on every model in list order. All models
 * share the call's RunConfig; each keeps its own worker clones,
 * per-unit slots, chunk capacity, ordered reduction and audits, and
 * its own simulated-time trace run, registered in list order. So model
 * m's NetworkStats and trace bytes equal those of a single-model call
 * for model m alone, made after the calls for models 0..m-1.
 */

#ifndef ANTSIM_WORKLOAD_RUNNER_HH
#define ANTSIM_WORKLOAD_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/energy.hh"
#include "sim/pe_model.hh"
#include "workload/networks.hh"
#include "workload/tracegen.hh"

namespace antsim {

/** Runner parameters. */
struct RunConfig
{
    /** Max plane pairs sampled per (layer, phase). */
    std::uint32_t sampleCap = 24;
    /** Root seed of the deterministic trace hierarchy. */
    std::uint64_t seed = 42;
    /** PEs for accelerator-cycle reduction (Table 4: 64). */
    std::uint32_t numPes = 64;
    /**
     * Operand chunk capacity in non-zeros (8 KB / 16-bit values);
     * validate() rejects anything the PE value buffer cannot hold.
     */
    std::uint32_t chunkCapacity = 4096;
    /** Which phases to simulate (Forward, Backward, Update). */
    std::array<bool, 3> phases = {true, true, true};
    /**
     * Worker threads for the parallel engine: 0 selects
     * hardware_concurrency, 1 (the default) runs inline on the calling
     * thread. Results are bit-identical for every value -- each
     * simulated (layer, phase, sample) unit is a pure function of the
     * seed hierarchy, each worker runs on a private PeModel::clone(),
     * and per-unit counters are reduced in task-index order (see
     * DESIGN.md "Parallel execution model").
     */
    std::uint32_t numThreads = 1;

    /**
     * Fatal (user-error) check of the configuration. The runners call
     * it on entry so a nonsensical value -- e.g. a negative --threads
     * wrapped to four billion by an unsigned conversion -- fails with
     * a clear message instead of an allocation explosion.
     */
    void validate() const;
};

/** Aggregated statistics of one (layer, phase). */
struct PhaseStats
{
    CounterSet counters;
    std::uint64_t pairsTotal = 0;
    std::uint64_t pairsSimulated = 0;
};

/** Per-layer statistics. */
struct LayerStats
{
    std::string name;
    std::array<PhaseStats, 3> phases;
};

/** Whole-network run outcome. */
struct NetworkStats
{
    std::vector<LayerStats> layers;
    /** Scaled totals across layers and phases. */
    CounterSet total;

    /** Accelerator cycles under perfect load balance. */
    std::uint64_t
    acceleratorCycles(std::uint32_t num_pes) const
    {
        const std::uint64_t pe_cycles = total.get(Counter::Cycles);
        return (pe_cycles + num_pes - 1) / num_pes;
    }

    /** Total energy in picojoules under @p model. */
    double
    energyPj(const EnergyModel &model) const
    {
        return model.totalPj(total);
    }

    /** Fraction of all RCPs that were avoided (1.0 when no RCPs). */
    double rcpAvoidedFraction() const;

    /** Fraction of executed multiplies that were valid. */
    double validMultFraction() const;
};

/**
 * Worker count a run with RunConfig::numThreads = @p requested will
 * actually use: 0 resolves to hardware_concurrency, and any request is
 * clamped to the hardware (oversubscription buys nothing in the
 * CPU-bound unit loop). Exposed so reports can record the effective
 * count next to the requested one -- without it, a --threads 64 run on
 * an 8-way machine is indistinguishable from --threads 8.
 */
std::uint32_t effectiveWorkerCount(std::uint32_t requested);

/** One PE model of a multi-model runner call. */
struct ModelRun
{
    ModelRun(PeModel &model, std::string run_label = std::string())
        : pe(&model), label(std::move(run_label))
    {}

    /** Simulated on directly by the calling thread, cloned for others. */
    PeModel *pe;
    /**
     * This model's run label in the traces and the heartbeat; empty
     * picks a generic name. Never influences simulation results.
     */
    std::string label;
};

/**
 * Simulate a conv network's training step on every model of @p models,
 * generating each unit's trace once. Returns one NetworkStats per
 * model, in list order.
 */
std::vector<NetworkStats>
runConvNetwork(const std::vector<ModelRun> &models,
               const std::vector<ConvLayer> &layers,
               const SparsityProfile &profile, const RunConfig &config);

/** Single-model form, labelled generically in the traces. */
NetworkStats runConvNetwork(PeModel &pe,
                            const std::vector<ConvLayer> &layers,
                            const SparsityProfile &profile,
                            const RunConfig &config);

/**
 * Simulate a matmul workload (all layers, single pairs) on every model
 * of @p models, generating each layer's pair once. Returns one
 * NetworkStats per model, in list order.
 */
std::vector<NetworkStats>
runMatmulNetwork(const std::vector<ModelRun> &models,
                 const std::vector<MatmulLayer> &layers, double sparsity,
                 SparsifyMethod method, const RunConfig &config);

/** Single-model form, labelled generically in the traces. */
NetworkStats runMatmulNetwork(PeModel &pe,
                              const std::vector<MatmulLayer> &layers,
                              double sparsity, SparsifyMethod method,
                              const RunConfig &config);

/** Speedup of @p fast over @p slow (ratio of summed PE cycles). */
double speedupOf(const NetworkStats &slow, const NetworkStats &fast);

/** Energy ratio slow/fast (how many times less energy fast uses). */
double energyRatioOf(const NetworkStats &slow, const NetworkStats &fast,
                     const EnergyModel &model = EnergyModel{});

} // namespace antsim

#endif // ANTSIM_WORKLOAD_RUNNER_HH
