/**
 * @file
 * Per-phase diagnostics: simulate a network on ANT and SCNN+ and print
 * cycles/energy/mult counters broken down by training phase. This is
 * the tool for understanding *where* ANT's gains come from (the G_A*A
 * update phase) and where its overheads sit (small dense kernels).
 *
 * Flags: --network resnet18|vgg16|densenet121|wrn|resnet50
 *        --wsp/--asp/--gsp  per-tensor sparsities [default SWAT 90%]
 *        --samples N, --seed S
 */

#include <cstdio>
#include <string>

#include "ant/ant_pe.hh"
#include "scnn/scnn_pe.hh"
#include "sim/energy.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workload/runner.hh"

using namespace antsim;

namespace {

std::vector<ConvLayer>
pickNetwork(const std::string &name)
{
    if (name == "resnet18")
        return resnet18Cifar();
    if (name == "resnet18-imagenet")
        return resnet18Imagenet();
    if (name == "vgg16")
        return vgg16Cifar();
    if (name == "densenet121")
        return densenet121Cifar();
    if (name == "wrn")
        return wrn16x8Cifar();
    if (name == "resnet50")
        return resnet50Imagenet();
    ANT_FATAL("unknown network '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"network", "wsp", "asp", "gsp", "samples",
                               "seed"});
    const auto layers = pickNetwork(cli.get("network", "resnet18"));
    SparsityProfile profile = SparsityProfile::swat(0.9);
    profile.weight = cli.getDouble("wsp", profile.weight);
    profile.act = cli.getDouble("asp", profile.act);
    profile.grad = cli.getDouble("gsp", profile.grad);

    RunConfig config;
    config.sampleCap =
        static_cast<std::uint32_t>(cli.getInt("samples", 16));
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));

    std::printf("sparsities: W %.0f%% / A %.0f%% / G_A %.0f%%\n\n",
                profile.weight * 100, profile.act * 100,
                profile.grad * 100);

    ScnnPe scnn;
    AntPe ant;
    const EnergyModel energy;
    const auto stats =
        runConvNetwork({{scnn}, {ant}}, layers, profile, config);
    const NetworkStats &scnn_stats = stats[0];
    const NetworkStats &ant_stats = stats[1];

    Table table({"Phase", "Model", "PE cycles", "mults", "valid", "RCP",
                 "avoided", "energy (uJ)"});
    const std::pair<const char *, const NetworkStats *> models[] = {
        {"SCNN+", &scnn_stats}, {"ANT", &ant_stats}};
    for (unsigned pi = 0; pi < 3; ++pi) {
        for (const auto &[model_name, stats] : models) {
            CounterSet phase_total;
            for (const auto &layer : stats->layers)
                phase_total += layer.phases[pi].counters;
            table.addRow(
                {phaseName(static_cast<TrainingPhase>(pi)), model_name,
                 std::to_string(phase_total.get(Counter::Cycles)),
                 std::to_string(phase_total.get(Counter::MultsExecuted)),
                 std::to_string(phase_total.get(Counter::MultsValid)),
                 std::to_string(phase_total.get(Counter::MultsRcp)),
                 std::to_string(phase_total.get(Counter::RcpsAvoided)),
                 Table::num(energy.totalPj(phase_total) / 1e6, 2)});
        }
    }
    table.print();

    std::printf("\nenergy breakdown (uJ):\n");
    for (const auto &[model_name, stats] : models) {
        const EnergyBreakdown b = energy.evaluate(stats->total);
        std::printf("  %-6s mult %8.1f  accum %8.1f  index %8.1f  sram "
                    "%8.1f  total %8.1f\n",
                    model_name, b.multiplyPj / 1e6, b.accumulatePj / 1e6,
                    b.indexLogicPj / 1e6, b.sramPj / 1e6,
                    b.totalPj() / 1e6);
        std::printf("         sram detail: value %llu idx %llu rowptr "
                    "%llu writes %llu (64-bit accesses)\n",
                    static_cast<unsigned long long>(
                        stats->total.get(Counter::SramValueReads)),
                    static_cast<unsigned long long>(
                        stats->total.get(Counter::SramIndexReads)),
                    static_cast<unsigned long long>(
                        stats->total.get(Counter::SramRowPtrReads)),
                    static_cast<unsigned long long>(
                        stats->total.get(Counter::SramWrites)));
    }

    std::printf("\noverall: speedup %.2fx, energy reduction %.2fx, RCPs "
                "avoided %.1f%%\n",
                speedupOf(scnn_stats, ant_stats),
                energyRatioOf(scnn_stats, ant_stats, energy),
                ant_stats.rcpAvoidedFraction() * 100.0);
    return 0;
}
