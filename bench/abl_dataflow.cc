/**
 * @file
 * Extension bench (Sec. 4.6): ANT under the image-stationary and the
 * kernel-stationary dataflows. The paper states ANT is dataflow-
 * agnostic -- kernel-stationary swaps the operand buffers and replaces
 * the s/r range computations with x/y ranges. Both should beat SCNN+,
 * with the better choice depending on which operand is denser.
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
        "Sec. 4.6 extension: image- vs kernel-stationary ANT dataflow "
        "(ResNet18)",
        "ANT is dataflow-agnostic: RCP anticipation helps either way");

    const auto layers = resnet18Cifar();
    const EnergyModel energy;
    ScnnPe scnn;

    Table table({"Sparsity", "image-stationary speedup",
                 "kernel-stationary speedup", "img-stat energy red.",
                 "ker-stat energy red."});
    for (double sparsity : {0.5, 0.9}) {
        const auto profile = SparsityProfile::swat(sparsity);
        AntPeConfig img_cfg;
        AntPe img_pe(img_cfg);
        AntPeConfig ker_cfg;
        ker_cfg.dataflow = AntDataflow::KernelStationary;
        AntPe ker_pe(ker_cfg);

        const auto stats = bench::runConv({&scnn, &img_pe, &ker_pe}, layers,
                                          profile, options);
        const NetworkStats &scnn_stats = stats[0];
        const NetworkStats &img_stats = stats[1];
        const NetworkStats &ker_stats = stats[2];
        char label[16];
        std::snprintf(label, sizeof(label), "%.0f%%", sparsity * 100);
        table.addRow({label,
                      Table::times(speedupOf(scnn_stats, img_stats)),
                      Table::times(speedupOf(scnn_stats, ker_stats)),
                      Table::times(energyRatioOf(scnn_stats, img_stats,
                                                 energy)),
                      Table::times(energyRatioOf(scnn_stats, ker_stats,
                                                 energy))});
    }
    bench::emitTable(table, options);
    return bench::finish(options);
}
