/**
 * @file
 * Reproduces Sec. 7.8: ANT on the matmul implementation of a text
 * translation transformer and an IMDB text-classification RNN.
 *
 * Expected (paper): ANT anticipates and eliminates >= 99% of the RCPs
 * at 0%, 50%, and 90% sparsity.
 */

#include <cstdio>
#include <sstream>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "scnn/scnn_pe.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Sec. 7.8: transformer/RNN matmuls (ANT matmul mode)",
        ">= 99% of RCPs anticipated and eliminated at 0%, 50% and 90% "
        "sparsity");

    AntPe ant;
    ScnnPe scnn;
    const EnergyModel energy;

    struct Workload
    {
        const char *name;
        std::vector<MatmulLayer> layers;
    };
    const Workload workloads[] = {
        {"transformer", transformerLayers()},
        {"RNN (IMDB)", rnnLayers()},
    };

    Table table({"Workload", "Sparsity", "RCPs avoided",
                 "Speedup vs SCNN+", "Energy reduction"});
    for (const auto &workload : workloads) {
        for (double sparsity : {0.0, 0.5, 0.9}) {
            const auto stats =
                bench::runMatmul({&ant, &scnn}, workload.layers, sparsity,
                                 SparsifyMethod::TopK, options);
            const NetworkStats &ant_stats = stats[0];
            const NetworkStats &scnn_stats = stats[1];
            std::ostringstream sp;
            sp << static_cast<int>(sparsity * 100) << "%";
            table.addRow(
                {workload.name, sp.str(),
                 Table::percent(ant_stats.rcpAvoidedFraction(), 2),
                 Table::times(speedupOf(scnn_stats, ant_stats)),
                 Table::times(energyRatioOf(scnn_stats, ant_stats,
                                            energy))});
            // Record both runs with their PE so the matmul suites show
            // up in --json networks and the --csv-path
            // stall-attribution tables like every conv suite does.
            const std::string run = std::string(workload.name) + "@" +
                sp.str();
            bench::reportNetwork("ant/" + run, ant_stats, ant, options);
            bench::reportNetwork("scnn/" + run, scnn_stats, scnn,
                                 options);
        }
    }
    bench::emitTable(table, options);
    return bench::finish(options);
}
