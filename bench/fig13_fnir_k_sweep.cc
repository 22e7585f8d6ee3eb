/**
 * @file
 * Reproduces Figure 13: effect of the FNIR input-window width k on
 * ANT's speedup and energy vs SCNN+ (4x4 multiplier array, ResNet18
 * SWAT 90%).
 *
 * Expected (paper): ANT outperforms SCNN+ for k >= 8; at k = 4 the
 * FNIR has no excess scan capability over the 4x4 multiplier and
 * becomes the throughput bottleneck.
 */

#include <cstdio>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "scnn/scnn_pe.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Figure 13: FNIR window width (k) sweep (ResNet18 SWAT 90%)",
        "speedup saturates for k >= 8; k = 4 makes the FNIR the "
        "bottleneck");

    const auto layers = resnet18Cifar();
    const auto profile = SparsityProfile::swat(0.9);
    const EnergyModel energy;

    // SCNN+ and every k on one generated trace.
    ScnnPe scnn;
    std::vector<AntPe> ants;
    std::vector<PeModel *> pes = {&scnn};
    for (const std::uint32_t k : {4u, 8u, 16u, 32u}) {
        AntPeConfig acfg;
        acfg.k = k;
        ants.emplace_back(acfg);
    }
    for (AntPe &ant : ants)
        pes.push_back(&ant);
    const auto stats = bench::runConv(pes, layers, profile, options);
    const NetworkStats &scnn_stats = stats[0];

    Table table({"FNIR inputs (k)", "Speedup vs SCNN+",
                 "Energy reduction"});
    for (std::size_t i = 0; i < ants.size(); ++i) {
        const NetworkStats &ant_stats = stats[i + 1];
        table.addRow(
            {std::to_string(ants[i].config().k),
             Table::times(speedupOf(scnn_stats, ant_stats)),
             Table::times(energyRatioOf(scnn_stats, ant_stats, energy))});
    }
    bench::emitTable(table, options);
    return bench::finish(options);
}
