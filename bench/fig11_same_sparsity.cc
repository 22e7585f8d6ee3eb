/**
 * @file
 * Reproduces Figure 11: ANT vs SCNN+ at the *same* sparsity level, on
 * CIFAR/ResNet18 with ReSprop-style sparsity pairs.
 *
 * Expected (paper): ANT is 1.9x-2.6x faster and uses 2.6x-4.4x less
 * energy at every operating point -- the gain comes purely from
 * avoiding RCPs and their SRAM accesses.
 */

#include <cstdio>
#include <sstream>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "report/rollup.hh"
#include "scnn/scnn_pe.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Figure 11: ANT vs SCNN+ at matched sparsity (CIFAR/ResNet18)",
        "1.9x-2.6x speedup and 2.6x-4.4x energy reduction across all "
        "sparsity levels");

    const auto layers = resnet18Cifar();
    ScnnPe scnn;
    AntPe ant;
    const EnergyModel energy;

    // ReSprop-style operating points (G_A sparsity / A sparsity): the
    // activation sparsity is naturally high (ReLU) and creeps up as the
    // gradient reuse threshold rises; the paper highlights 42%/85%.
    const std::pair<double, double> points[] = {
        {0.30, 0.80}, {0.42, 0.85}, {0.50, 0.86}, {0.70, 0.88},
        {0.80, 0.90}, {0.90, 0.91}, {0.95, 0.92}};

    Table table({"G_A/A sparsity", "Speedup", "Energy reduction",
                 "RCPs avoided"});
    Rollup rollup;
    for (const auto &[grad_sp, act_sp] : points) {
        const auto profile = SparsityProfile::resprop(grad_sp, act_sp);
        const auto stats =
            bench::runConv({&scnn, &ant}, layers, profile, options);
        const NetworkStats &scnn_stats = stats[0];
        const NetworkStats &ant_stats = stats[1];
        std::ostringstream label;
        label << static_cast<int>(grad_sp * 100) << "%/"
              << static_cast<int>(act_sp * 100) << "%";
        const auto row =
            compareNetworks(label.str(), scnn_stats, ant_stats, energy);
        table.addRow({row.label, Table::times(row.speedup),
                      Table::times(row.energyReduction),
                      Table::percent(row.rcpAvoidedFraction, 1)});
        rollup.add(row);
    }
    rollup.recordMetrics(bench::report(), /*with_rcp=*/true);
    bench::emitTable(table, options);
    return bench::finish(options);
}
