/**
 * @file
 * Simulate one full sparse-training step of ResNet18 (all three
 * Backprop phases of every convolution layer) on ANT and on the
 * SCNN-like baseline, and print a per-layer report.
 *
 * Flags: --sparsity S (target, default 0.9), --samples N, --seed S,
 *        --imagenet (use the ImageNet-resolution variant)
 */

#include <cstdio>

#include "ant/ant_pe.hh"
#include "scnn/scnn_pe.hh"
#include "sim/energy.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workload/runner.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"sparsity", "samples", "seed", "imagenet"});
    const double sparsity = cli.getDouble("sparsity", 0.9);
    RunConfig config;
    config.sampleCap = static_cast<std::uint32_t>(cli.getInt("samples", 8));
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));

    const auto layers =
        cli.getBool("imagenet") ? resnet18Imagenet() : resnet18Cifar();
    const auto profile = SparsityProfile::swat(sparsity);

    std::printf("simulating one training step of ResNet18 (%s, %zu conv "
                "layers) at %.0f%% target sparsity...\n\n",
                cli.getBool("imagenet") ? "ImageNet" : "CIFAR",
                layers.size(), sparsity * 100.0);

    ScnnPe scnn;
    AntPe ant;
    const EnergyModel energy;
    const auto stats =
        runConvNetwork({{scnn}, {ant}}, layers, profile, config);
    const NetworkStats &scnn_stats = stats[0];
    const NetworkStats &ant_stats = stats[1];

    Table table({"Layer", "SCNN+ PE cycles", "ANT PE cycles", "Speedup",
                 "ANT RCPs avoided"});
    for (std::size_t li = 0; li < scnn_stats.layers.size(); ++li) {
        CounterSet scnn_layer;
        CounterSet ant_layer;
        std::uint64_t avoided = 0;
        std::uint64_t suffered = 0;
        for (unsigned pi = 0; pi < 3; ++pi) {
            scnn_layer += scnn_stats.layers[li].phases[pi].counters;
            ant_layer += ant_stats.layers[li].phases[pi].counters;
            avoided += ant_stats.layers[li].phases[pi].counters.get(
                Counter::RcpsAvoided);
            suffered += ant_stats.layers[li].phases[pi].counters.get(
                Counter::MultsRcp);
        }
        const auto sc = scnn_layer.get(Counter::Cycles);
        const auto ac = ant_layer.get(Counter::Cycles);
        table.addRow(
            {scnn_stats.layers[li].name, std::to_string(sc),
             std::to_string(ac),
             Table::times(static_cast<double>(sc) /
                          static_cast<double>(ac)),
             avoided + suffered == 0
                 ? std::string("-")
                 : Table::percent(static_cast<double>(avoided) /
                                      static_cast<double>(avoided +
                                                          suffered),
                                  1)});
    }
    table.print();

    std::printf("\naccelerator cycles (64 PEs, perfect balance): SCNN+ "
                "%llu, ANT %llu\n",
                static_cast<unsigned long long>(
                    scnn_stats.acceleratorCycles(64)),
                static_cast<unsigned long long>(
                    ant_stats.acceleratorCycles(64)));
    std::printf("speedup %.2fx, energy reduction %.2fx, RCPs avoided "
                "%.1f%%\n",
                speedupOf(scnn_stats, ant_stats),
                energyRatioOf(scnn_stats, ant_stats, energy),
                ant_stats.rcpAvoidedFraction() * 100.0);
    return 0;
}
