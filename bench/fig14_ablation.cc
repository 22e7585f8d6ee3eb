/**
 * @file
 * Reproduces Figure 14: ablation of the two anticipation conditions --
 * r-condition only (Eq. 9), s-condition only (Eq. 10), and both --
 * on ResNet18 SWAT 90%.
 *
 * Expected (paper): each condition alone already yields speedup and
 * energy savings over SCNN+; combining both adds ~1.06x over r-only
 * (the individually eliminated RCP sets overlap heavily).
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
        "Figure 14: r/s condition ablation (ResNet18 SWAT 90%)",
        "either condition alone wins over SCNN+; both together add "
        "~1.06x over r-only");

    const auto layers = resnet18Cifar();
    const auto profile = SparsityProfile::swat(0.9);
    const EnergyModel energy;

    struct Variant
    {
        const char *name;
        bool use_r;
        bool use_s;
    };
    const Variant variants[] = {{"r condition only", true, false},
                                {"s condition only", false, true},
                                {"both conditions", true, true}};

    // SCNN+ and every variant on one generated trace.
    ScnnPe scnn;
    std::vector<AntPe> ants;
    std::vector<PeModel *> pes = {&scnn};
    for (const auto &variant : variants) {
        AntPeConfig acfg;
        acfg.useRCondition = variant.use_r;
        acfg.useSCondition = variant.use_s;
        ants.emplace_back(acfg);
    }
    for (AntPe &ant : ants)
        pes.push_back(&ant);
    const auto stats = bench::runConv(pes, layers, profile, options);
    const NetworkStats &scnn_stats = stats[0];

    Table table({"Variant", "Speedup vs SCNN+", "Energy reduction",
                 "RCPs avoided"});
    double r_only_speedup = 0.0;
    double both_speedup = 0.0;
    for (std::size_t i = 0; i < ants.size(); ++i) {
        const Variant &variant = variants[i];
        const NetworkStats &ant_stats = stats[i + 1];
        const double speedup = speedupOf(scnn_stats, ant_stats);
        if (variant.use_r && !variant.use_s)
            r_only_speedup = speedup;
        if (variant.use_r && variant.use_s)
            both_speedup = speedup;
        table.addRow(
            {variant.name, Table::times(speedup),
             Table::times(energyRatioOf(scnn_stats, ant_stats, energy)),
             Table::percent(ant_stats.rcpAvoidedFraction(), 1)});
    }
    bench::emitTable(table, options);
    std::printf("both-vs-r-only improvement: %.2fx (paper: ~1.06x)\n",
                both_speedup / r_only_speedup);
    return bench::finish(options);
}
