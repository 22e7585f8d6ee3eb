/**
 * @file
 * Reproduces Figure 12: effect of the multiplier-array size (n x n)
 * on ANT's speedup and energy vs SCNN+ with the same array size.
 * Workload: ResNet18 with SWAT-style 90% sparsity.
 *
 * Expected (paper): ANT outperforms SCNN+ at 4x4, 6x6, and 8x8 -- the
 * benefit persists across a wide range of multiplier configurations
 * (though relative gains shrink as bigger arrays get harder to fill).
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
        "Figure 12: multiplier-array size sweep (ResNet18 SWAT 90%)",
        "ANT beats SCNN+ at 4x4, 6x6 and 8x8 multiplier arrays");

    const auto layers = resnet18Cifar();
    const auto profile = SparsityProfile::swat(0.9);
    const EnergyModel energy;

    Table table({"Multiplier array", "Speedup", "Energy reduction"});
    for (std::uint32_t n : {4u, 6u, 8u}) {
        ScnnPeConfig scfg;
        scfg.n = n;
        ScnnPe scnn(scfg);
        AntPeConfig acfg;
        acfg.n = n;
        acfg.k = 4 * n; // keep the FNIR window proportionally sized
        AntPe ant(acfg);
        const auto stats =
            bench::runConv({&scnn, &ant}, layers, profile, options);
        const NetworkStats &scnn_stats = stats[0];
        const NetworkStats &ant_stats = stats[1];
        std::ostringstream label;
        label << n << "x" << n;
        table.addRow(
            {label.str(), Table::times(speedupOf(scnn_stats, ant_stats)),
             Table::times(energyRatioOf(scnn_stats, ant_stats, energy))});
    }
    bench::emitTable(table, options);
    return bench::finish(options);
}
