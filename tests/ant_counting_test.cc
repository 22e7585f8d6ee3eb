/**
 * @file
 * The ANT PE's counting runs (collect_output = false) count without
 * enumerating products: a comparator pass into a bitset and a popcount
 * window walk for convolutions, a closed form per image group for
 * matmuls, and census valid counts for both. The functional runs --
 * bit-level FNIR per window, one accumulator offer per product -- are
 * the oracle:
 *
 *  - every counter of a counting run equals the functional run's, over
 *    random conv recipes (1x1, 3x3 and 7x7 kernel stacks of 1-64
 *    planes, empty planes included; forward, rotated zero-dilated
 *    backward and dilated cropped update shapes; stride 1-2; sparsity
 *    0-0.99), five (n, k) geometries, the r/s ablation switches and
 *    both dataflows, over the recipes whose groups take the in-range
 *    closed form (dense weights, the s-condition-off ablation), and
 *    over random matmul pairs and their capacity slices;
 *  - a counting run with a recorder attached traces what the per-window
 *    loop traced: equal spans and FnirValidPartners histogram to the
 *    functional run, and pinned trace digests for one conv unit in
 *    both dataflows and one matmul unit;
 *  - all 17 counters of that conv unit are pinned in both dataflows,
 *    for counting and functional runs, so a change made to both paths
 *    at once shows too.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ant/ant_pe.hh"
#include "obs/trace.hh"
#include "sim/chunking.hh"
#include "util/rng.hh"
#include "workload/layer.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/**
 * FNIR geometries: the n+1-st feedback fires when a window holds more
 * than n in-range lanes, so it can fire for (4,16), (8,9) and (2,64)
 * and never fires for k == n.
 */
constexpr std::uint32_t kGeometries[][2] = {
    {4, 16}, {4, 4}, {8, 9}, {16, 16}, {2, 64}};

void
expectCountersEqual(const PeResult &counting, const PeResult &functional,
                    const std::string &context)
{
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const auto counter = static_cast<Counter>(i);
        EXPECT_EQ(counting.counters.get(counter),
                  functional.counters.get(counter))
            << counterName(counter) << " in " << context;
    }
}

/** A random conv layer with a 1x1, 3x3 or 7x7 kernel. */
ConvLayer
randomLayer(Rng &rng)
{
    constexpr std::uint32_t kernels[] = {1, 3, 7};
    const std::uint32_t kernel = kernels[rng.range(0, 2)];
    const auto channels = static_cast<std::uint32_t>(rng.range(1, 64));
    return {"random",
            channels,
            channels,
            static_cast<std::uint32_t>(rng.range(kernel, kernel + 9)),
            static_cast<std::uint32_t>(rng.range(kernel, kernel + 9)),
            kernel,
            static_cast<std::uint32_t>(rng.range(1, 2)),
            static_cast<std::uint32_t>(rng.range(0, kernel / 2))};
}

/** Each tensor sparsity anywhere in [0, 0.99], dense and near-empty. */
double
randomSparsity(Rng &rng)
{
    switch (rng.range(0, 3)) {
      case 0:
        return 0.0;
      case 1:
        return 0.99;
      default:
        return rng.uniform() * 0.99;
    }
}

/** A random ANT configuration: geometry, ablations and dataflow. */
AntPeConfig
randomConfig(Rng &rng)
{
    const auto &geometry = kGeometries[rng.range(0, 4)];
    AntPeConfig config;
    config.n = geometry[0];
    config.k = geometry[1];
    config.useRCondition = rng.bernoulli(0.8);
    config.useSCondition = rng.bernoulli(0.8);
    config.dataflow = rng.bernoulli(0.5) ? AntDataflow::KernelStationary
                                         : AntDataflow::ImageStationary;
    return config;
}

std::string
describe(const ConvLayer &layer, TrainingPhase phase,
         const AntPeConfig &config, int trial)
{
    return "trial " + std::to_string(trial) + " " +
        std::to_string(layer.kernel) + "x" + std::to_string(layer.kernel) +
        " on " + std::to_string(layer.inH) + "x" +
        std::to_string(layer.inW) + " stride " +
        std::to_string(layer.stride) + " pad " + std::to_string(layer.pad) +
        " phase " + phaseName(phase) + " n " + std::to_string(config.n) +
        " k " + std::to_string(config.k) + " r " +
        std::to_string(config.useRCondition) + " s " +
        std::to_string(config.useSCondition) + " " +
        (config.dataflow == AntDataflow::KernelStationary ? "kernel"
                                                          : "image") +
        "-stationary";
}

TEST(AntCounting, ConvCountersMatchFunctionalOverRandomRecipes)
{
    constexpr TrainingPhase phases[] = {TrainingPhase::Forward,
                                        TrainingPhase::Backward,
                                        TrainingPhase::Update};
    Rng rng(2026);
    for (int trial = 0; trial < 400; ++trial) {
        const ConvLayer layer = randomLayer(rng);
        const TrainingPhase phase = phases[rng.range(0, 2)];
        const SparsityProfile profile{randomSparsity(rng),
                                      randomSparsity(rng),
                                      randomSparsity(rng),
                                      SparsifyMethod::Bernoulli};
        const StackTask task = makeConvPhaseTask(layer, phase, profile, rng);
        std::vector<const CsrMatrix *> kernels = task.kernelPtrs();
        // An all-zero plane somewhere in the stack.
        const CsrMatrix empty(task.spec.kernelH(), task.spec.kernelW());
        if (rng.bernoulli(0.3)) {
            kernels.insert(kernels.begin() +
                               rng.range(0, static_cast<std::int64_t>(
                                                kernels.size())),
                           &empty);
        }
        const AntPeConfig config = randomConfig(rng);
        AntPe pe(config);
        const PeResult functional =
            pe.runStack(task.spec, kernels, *task.image, true);
        const PeResult counting =
            pe.runStack(task.spec, kernels, *task.image, false);
        expectCountersEqual(counting, functional,
                            describe(layer, phase, config, trial));
        if (HasFailure())
            return;
    }
}

/**
 * The recipes whose groups have a screen covering every streamed
 * column, so that counting runs take the closed form of the FNIR
 * scan: dense weights (the ReSprop profile, as fig10 runs it), whose
 * forward and backward groups mostly qualify, and the s-condition-off
 * ablation, whose groups all do. Both dataflows, every phase and
 * geometry, with the r condition on and off.
 */
TEST(AntCounting, InRangeRecipesMatchFunctional)
{
    constexpr TrainingPhase phases[] = {TrainingPhase::Forward,
                                        TrainingPhase::Backward,
                                        TrainingPhase::Update};
    Rng rng(2028);
    for (int trial = 0; trial < 120; ++trial) {
        const ConvLayer layer = randomLayer(rng);
        const TrainingPhase phase = phases[rng.range(0, 2)];
        const SparsityProfile profile = SparsityProfile::resprop(
            randomSparsity(rng), randomSparsity(rng));
        const StackTask task = makeConvPhaseTask(layer, phase, profile, rng);
        const auto &geometry = kGeometries[rng.range(0, 4)];
        const bool r_condition = rng.bernoulli(0.8);
        for (const AntDataflow dataflow : {AntDataflow::ImageStationary,
                                           AntDataflow::KernelStationary}) {
            for (const bool s_condition : {true, false}) {
                AntPeConfig config;
                config.n = geometry[0];
                config.k = geometry[1];
                config.useRCondition = r_condition;
                config.useSCondition = s_condition;
                config.dataflow = dataflow;
                AntPe pe(config);
                const PeResult functional = pe.runStack(
                    task.spec, task.kernelPtrs(), *task.image, true);
                const PeResult counting = pe.runStack(
                    task.spec, task.kernelPtrs(), *task.image, false);
                expectCountersEqual(counting, functional,
                                    describe(layer, phase, config, trial));
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(AntCounting, MatmulCountersMatchFunctionalOverChunkPairs)
{
    Rng rng(2027);
    for (int trial = 0; trial < 150; ++trial) {
        const auto image_h = static_cast<std::uint32_t>(rng.range(1, 40));
        const auto inner = static_cast<std::uint32_t>(rng.range(1, 70));
        const auto kernel_s = static_cast<std::uint32_t>(rng.range(1, 40));
        const MatmulLayer layer{"random", image_h, inner, inner, kernel_s};
        const SparsifyMethod method = rng.bernoulli(0.5)
            ? SparsifyMethod::TopK
            : SparsifyMethod::Bernoulli;
        const PlanePair pair =
            makeMatmulPair(layer, randomSparsity(rng), method, rng);

        // Whole operands, then up to five capacity slices of each.
        const std::vector<CsrMatrix> kernel_chunks = chunkByCapacity(
            pair.kernel,
            1 + pair.kernel.nnz() /
                    static_cast<std::uint32_t>(rng.range(1, 5)));
        const std::vector<CsrMatrix> image_chunks = chunkByCapacity(
            pair.image,
            1 + pair.image.nnz() /
                    static_cast<std::uint32_t>(rng.range(1, 5)));
        std::vector<ChunkPair> units = {{&pair.kernel, &pair.image}};
        for (const ChunkPair &unit :
             allChunkPairs(kernel_chunks, image_chunks))
            units.push_back(unit);

        const AntPeConfig config = randomConfig(rng);
        AntPe pe(config);
        for (std::size_t u = 0; u < units.size(); ++u) {
            const PeResult functional = pe.runPair(
                pair.spec, *units[u].kernel, *units[u].image, true);
            const PeResult counting = pe.runPair(
                pair.spec, *units[u].kernel, *units[u].image, false);
            expectCountersEqual(
                counting, functional,
                "trial " + std::to_string(trial) + " unit " +
                    std::to_string(u) + " " + pair.spec.toString() +
                    " n " + std::to_string(config.n));
            if (HasFailure())
                return;
        }
    }
}

/** One PE run's simulated-time trace, recorded as a single unit. */
struct TracedUnit
{
    std::string chromeJson;
    obs::HistogramRegistry histograms;
};

template <typename Run>
TracedUnit
traceUnit(Run &&run)
{
    obs::TraceSink sink;
    const std::size_t id = sink.beginRun("ant", 1);
    {
        const obs::ScopedUnitTrace scope(&sink, id, 0, "unit");
        run();
        EXPECT_NE(obs::recorder(), nullptr);
    }
    TracedUnit traced;
    traced.chromeJson = sink.toChromeJson(1);
    traced.histograms = sink.mergedHistograms();
    return traced;
}

/**
 * The exported events other than bank-conflict instants, one per line
 * without the separating commas.
 */
std::vector<std::string>
withoutBankConflicts(const std::string &chrome_json)
{
    std::vector<std::string> events;
    std::size_t begin = 0;
    while (begin < chrome_json.size()) {
        std::size_t end = chrome_json.find('\n', begin);
        if (end == std::string::npos)
            end = chrome_json.size();
        std::string line = chrome_json.substr(begin, end - begin);
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        if (line.find("accum_bank_conflict") == std::string::npos)
            events.push_back(line);
        begin = end + 1;
    }
    return events;
}

/** 64-bit FNV-1a: a stable digest of an exported trace. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * An update unit: 8 sparse 14x14 gradient planes stream against one
 * dense activation plane. Each image group spans a few columns, so its
 * s range is narrow and many windows select nothing: the timeline
 * alternates between active and idle-scan spans.
 */
StackTask
convUnit()
{
    const ConvLayer layer{"conv", 4, 8, 14, 14, 3, 1, 1};
    Rng rng(11);
    return makeConvPhaseTask(layer, TrainingPhase::Update,
                             SparsityProfile::resprop(0.9, 0.0), rng);
}

/**
 * A forward unit: 8 dense 3x3 weight planes stream against a sparse
 * activation plane, so most image groups' screens cover every weight
 * column and their scans take the closed form.
 */
StackTask
denseWeightUnit()
{
    const ConvLayer layer{"conv", 4, 8, 14, 14, 3, 1, 1};
    Rng rng(13);
    return makeConvPhaseTask(layer, TrainingPhase::Forward,
                             SparsityProfile::resprop(0.9, 0.5), rng);
}

/** The traced PE: small enough windows to idle, with feedback. */
AntPeConfig
tracedConfig()
{
    AntPeConfig config;
    config.n = 2;
    config.k = 8;
    return config;
}

/** A small sec78-like matmul pair at 90% top-K sparsity. */
PlanePair
matmulUnit()
{
    const MatmulLayer layer{"matmul", 24, 40, 40, 32};
    Rng rng(12);
    return makeMatmulPair(layer, 0.9, SparsifyMethod::TopK, rng);
}

TEST(AntCounting, TracedConvCountingMatchesFunctionalTimeline)
{
    // The update unit walks its scans; most of the forward unit's take
    // the closed form.
    for (StackTask (*unit)() : {convUnit, denseWeightUnit}) {
        const StackTask task = unit();
        for (const AntDataflow dataflow : {AntDataflow::ImageStationary,
                                           AntDataflow::KernelStationary}) {
            AntPeConfig config = tracedConfig();
            config.dataflow = dataflow;
            AntPe pe(config);
            const TracedUnit counting = traceUnit([&] {
                pe.runStack(task.spec, task.kernelPtrs(), *task.image,
                            false);
            });
            const TracedUnit functional = traceUnit([&] {
                pe.runStack(task.spec, task.kernelPtrs(), *task.image, true);
            });
            // The functional run also marks bank conflicts, which a
            // counting run never routes; spans and samples are the same.
            EXPECT_EQ(withoutBankConflicts(counting.chromeJson),
                      withoutBankConflicts(functional.chromeJson));
            EXPECT_EQ(counting.histograms, functional.histograms);
            EXPECT_GT(
                counting.histograms.get(obs::HistId::FnirValidPartners)
                    .count(),
                0u);
        }
    }
}

TEST(AntCounting, TracedCountingRunsKeepTheirTraceBytes)
{
    // Pinned digests of these units' traces, as the per-window
    // functional scan rules produce them; the bitset walk and the
    // matmul loop must reproduce every span, instant and sample.
    const StackTask conv = convUnit();
    AntPe pe(tracedConfig());
    const TracedUnit conv_trace = traceUnit([&] {
        pe.runStack(conv.spec, conv.kernelPtrs(), *conv.image, false);
    });
    const auto &conv_hist =
        conv_trace.histograms.get(obs::HistId::FnirValidPartners);
    EXPECT_EQ(conv_trace.chromeJson.size(), 15765u);
    EXPECT_EQ(fnv1a(conv_trace.chromeJson), 0x4c760918042a6fbcull);
    EXPECT_EQ(conv_hist.bins(),
              (std::vector<std::uint64_t>{45, 112, 392, 0, 0, 0, 0, 0, 0, 0,
                                          0, 0, 0, 0, 0, 0, 0}));

    AntPeConfig kernel_stationary = tracedConfig();
    kernel_stationary.dataflow = AntDataflow::KernelStationary;
    AntPe ks_pe(kernel_stationary);
    const TracedUnit ks_trace = traceUnit([&] {
        ks_pe.runStack(conv.spec, conv.kernelPtrs(), *conv.image, false);
    });
    const auto &ks_hist =
        ks_trace.histograms.get(obs::HistId::FnirValidPartners);
    EXPECT_EQ(ks_trace.chromeJson.size(), 3928u);
    EXPECT_EQ(fnv1a(ks_trace.chromeJson), 0xf50b5d1cb0ce573cull);
    EXPECT_EQ(ks_hist.bins(),
              (std::vector<std::uint64_t>{26, 104, 1345, 0, 0, 0, 0, 0, 0,
                                          0, 0, 0, 0, 0, 0, 0, 0}));

    const PlanePair matmul = matmulUnit();
    const TracedUnit matmul_trace = traceUnit([&] {
        pe.runPair(matmul.spec, matmul.kernel, matmul.image, false);
    });
    EXPECT_EQ(matmul_trace.chromeJson.size(), 11373u);
    EXPECT_EQ(fnv1a(matmul_trace.chromeJson), 0xe6ab0304027d5142ull);
}

/** Every counter of one PE run, in Counter order. */
using CounterValues = std::array<std::uint64_t, kNumCounters>;

TEST(AntCounting, ConvUnitKeepsItsCounters)
{
    // All 17 counters of the traced conv unit in both dataflows, pinned
    // for counting and functional runs alike: the counting-vs-
    // functional tests cannot see a change made to both paths at once.
    // SramReadsAvoided follows one rule in both dataflows:
    // 2 x streamed nnz x groups - (streamed indices + fetched values).
    const StackTask conv = convUnit();
    const std::pair<AntDataflow, CounterValues> pinned[] = {
        {AntDataflow::ImageStationary,
         {1792, 1379, 413, 30940, 1379, 1792, 9372, 602, 647, 756, 1379,
          27835, 5, 504, 253, 762, 0}},
        {AntDataflow::KernelStationary,
         {5582, 1379, 4203, 27150, 1379, 5582, 24268, 1533, 1559, 127,
          1379, 18928, 5, 1449, 26, 1480, 0}},
    };
    for (const auto &[dataflow, want] : pinned) {
        AntPeConfig config = tracedConfig();
        config.dataflow = dataflow;
        AntPe pe(config);
        for (const bool collect_output : {false, true}) {
            const PeResult got = pe.runStack(conv.spec, conv.kernelPtrs(),
                                             *conv.image, collect_output);
            for (std::size_t i = 0; i < kNumCounters; ++i) {
                const auto counter = static_cast<Counter>(i);
                EXPECT_EQ(got.counters.get(counter), want[i])
                    << counterName(counter) << ", "
                    << (dataflow == AntDataflow::KernelStationary
                            ? "kernel"
                            : "image")
                    << "-stationary, collect_output " << collect_output;
            }
        }
    }
}

} // namespace
} // namespace antsim
