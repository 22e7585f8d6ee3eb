/**
 * @file
 * Extension bench: parallel-engine scaling (speedup vs threads).
 *
 * Runs the ANT and SCNN+ ResNet18 sweeps (SWAT 90%, all phases) at
 * thread counts 1, 2, 4, ... up to --threads (0 = every hardware
 * thread) and reports the wall-clock speedup over the 1-thread run.
 * Because the engine is deterministic (clone-per-worker + ordered
 * reduction, DESIGN.md), the bench also asserts that every thread
 * count reproduces the 1-thread cycle and multiply totals bit for bit
 * -- a live end-to-end check of the guarantee the test tier pins.
 *
 * antsim-lint: allow-file(no-wall-clock-in-sim) -- this bench measures
 * host wall-clock scaling of the thread pool by design; no simulated
 * statistic derives from the timings (the bit-identity assert proves
 * it).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "scnn/scnn_pe.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace antsim;

namespace {

/** Thread counts to sweep: powers of two up to @p limit, plus limit. */
std::vector<std::uint32_t>
sweepPoints(std::uint32_t limit)
{
    std::vector<std::uint32_t> points;
    for (std::uint32_t t = 1; t <= limit; t *= 2)
        points.push_back(t);
    if (points.back() != limit)
        points.push_back(limit);
    return points;
}

/** Wall-clock seconds of one full run at @p threads workers. */
double
timedRun(PeModel &pe, const RunConfig &base, std::uint32_t threads,
         NetworkStats &stats_out)
{
    RunConfig config = base;
    config.numThreads = threads;
    const auto start = std::chrono::steady_clock::now();
    stats_out = runConvNetwork(pe, resnet18Cifar(),
                               SparsityProfile::swat(0.9), config);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Extension: parallel-engine scaling (ResNet18 SWAT 90%)",
        "deterministic clone-per-worker engine: identical counters at "
        "every thread count, wall-clock scaling with cores");

    const std::uint32_t limit =
        ThreadPool::resolveThreadCount(options.run.numThreads);
    std::printf("sweeping 1..%u threads (%u hardware threads)\n\n", limit,
                ThreadPool::resolveThreadCount(0));

    Table table({"Model", "Threads", "Wall (s)", "Speedup", "Efficiency",
                 "Cycles"});
    ScnnPe scnn;
    AntPe ant;
    const std::pair<const char *, PeModel *> models[] = {{"SCNN+", &scnn},
                                                         {"ANT", &ant}};
    for (const auto &[name, pe] : models) {
        double serial_wall = 0.0;
        NetworkStats serial_stats;
        for (const std::uint32_t threads : sweepPoints(limit)) {
            NetworkStats stats;
            const double wall = timedRun(*pe, options.run, threads, stats);
            if (threads == 1) {
                serial_wall = wall;
                serial_stats = stats;
            } else {
                // The determinism guarantee, checked live: the
                // parallel run must reproduce the serial totals
                // bit for bit.
                for (std::size_t c = 0; c < kNumCounters; ++c) {
                    const auto counter = static_cast<Counter>(c);
                    ANT_ASSERT(stats.total.get(counter) ==
                                   serial_stats.total.get(counter),
                               name, " at ", threads,
                               " threads diverged on ",
                               counterName(counter));
                }
            }
            const double speedup = serial_wall / wall;
            char wall_str[32];
            std::snprintf(wall_str, sizeof(wall_str), "%.3f", wall);
            table.addRow({name, std::to_string(threads), wall_str,
                          Table::times(speedup),
                          Table::percent(speedup / threads, 1),
                          std::to_string(
                              stats.total.get(Counter::Cycles))});
            const std::string prefix =
                std::string(name) + ".t" + std::to_string(threads);
            bench::reportMetric(prefix + ".wall_seconds", wall);
            bench::reportMetric(prefix + ".speedup", speedup);
        }
        bench::reportNetwork(std::string(name) + "/resnet18",
                             serial_stats, *pe, options);
    }
    bench::emitTable(table, options);

    std::printf("note: counters are bit-identical at every point by "
                "construction; wall-clock speedup tracks physical "
                "cores.\n");
    return bench::finish(options);
}
