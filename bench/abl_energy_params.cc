/**
 * @file
 * Extension bench: sensitivity of the Fig. 9-style energy conclusion
 * to the per-op energy calibration.
 *
 * The absolute pJ constants in sim/energy.hh are order-of-magnitude
 * figures (the paper's own are taken from TPU measurements we cannot
 * reproduce). This ablation sweeps the two dominant ratios -- SRAM
 * access cost vs multiply cost, and index-op cost vs multiply cost --
 * and shows that "ANT uses several times less energy than SCNN+"
 * holds across the plausible range, i.e. the headline does not hinge
 * on the calibration.
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
        "Extension: energy-parameter sensitivity (ResNet18 SWAT 90%)",
        "the ANT-vs-SCNN+ energy win is robust to the per-op energy "
        "calibration");

    const auto layers = resnet18Cifar();
    const auto profile = SparsityProfile::swat(0.9);
    ScnnPe scnn;
    AntPe ant;
    // Counters are independent of the energy table: run once.
    const auto stats =
        bench::runConv({&scnn, &ant}, layers, profile, options);
    const NetworkStats &scnn_stats = stats[0];
    const NetworkStats &ant_stats = stats[1];

    Table table({"SRAM read (pJ)", "index op (pJ)", "SCNN+ energy (uJ)",
                 "ANT energy (uJ)", "Energy reduction"});
    for (double sram : {1.0, 2.2, 5.4}) {
        for (double index_op : {0.05, 0.10, 0.20}) {
            EnergyParams params;
            params.sramRead64Pj = sram;
            params.sramRowPtrPj = sram;
            params.addInt32Pj = index_op;
            const EnergyModel model(params);
            const double s = scnn_stats.energyPj(model) / 1e6;
            const double a = ant_stats.energyPj(model) / 1e6;
            table.addRow({Table::num(sram, 2), Table::num(index_op, 2),
                          Table::num(s, 1), Table::num(a, 1),
                          Table::times(s / a)});
        }
    }
    bench::emitTable(table, options);
    std::printf("counters are energy-table-independent; only the "
                "attribution changes across rows.\n");
    return bench::finish(options);
}
