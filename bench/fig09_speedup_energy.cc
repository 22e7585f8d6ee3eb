/**
 * @file
 * Reproduces Figure 9: ANT speedup and relative energy vs SCNN+ on
 * DenseNet-121, ResNet18, VGG16, WRN-16-8 (CIFAR, SWAT-style 90%) and
 * ResNet50 (ImageNet, synthetic top-K 90%).
 *
 * Expected (paper): geometric-mean speedup 3.71x and 4.40x lower
 * energy; per-network speedups vary with the fraction of RCPs avoided
 * (Table 5).
 */

#include <cstdio>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "report/rollup.hh"
#include "scnn/scnn_pe.hh"
#include "sim/energy.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Figure 9: ANT vs SCNN+ at 90% target sparsity",
        "geomean 3.71x speedup, 4.40x lower energy across the five "
        "networks");

    ScnnPe scnn;
    AntPe ant;
    const EnergyModel energy;

    Table table({"Network", "Speedup", "Energy reduction",
                 "ANT RCPs avoided"});
    Rollup rollup;

    for (const auto &network :
         bench::selectNetworks(figure9Networks(), options)) {
        const auto stats =
            bench::runNetwork({&scnn, &ant}, network, 0.9, options);
        const NetworkStats &scnn_stats = stats[0];
        const NetworkStats &ant_stats = stats[1];
        const auto row =
            compareNetworks(network.name, scnn_stats, ant_stats, energy);
        table.addRow({row.label, Table::times(row.speedup),
                      Table::times(row.energyReduction),
                      Table::percent(row.rcpAvoidedFraction, 1)});
        rollup.add(row);
        bench::reportNetwork("scnn/" + network.name, scnn_stats, scnn,
                             options);
        bench::reportNetwork("ant/" + network.name, ant_stats, ant, options);
    }
    rollup.recordMetrics(bench::report());
    table.addRow({"geomean", Table::times(rollup.speedupGeomean()),
                  Table::times(rollup.energyReductionGeomean()), "-"});
    bench::emitTable(table, options);

    std::printf("paper reference: geomean 3.71x speedup / 4.40x energy; "
                "per-network RCP avoidance 74.9-98.0%%.\n");
    return bench::finish(options);
}
