/**
 * @file
 * Design-space exploration: sweep the ANT PE's (n, k) parameters and
 * the load-balancing policy on one network, reporting speedup, energy,
 * and the FNIR's area cost (Sec. 7.3, 7.5-7.6 combined).
 *
 * Flags: --sparsity S (default 0.9), --samples N, --seed S
 */

#include <cstdio>
#include <sstream>

#include "ant/ant_pe.hh"
#include "ant/area_model.hh"
#include "scnn/scnn_pe.hh"
#include "sim/energy.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workload/runner.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv, {"sparsity", "samples", "seed"});
    const double sparsity = cli.getDouble("sparsity", 0.9);
    RunConfig config;
    config.sampleCap = static_cast<std::uint32_t>(cli.getInt("samples", 8));
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));

    const auto layers = resnet18Cifar();
    const auto profile = SparsityProfile::swat(sparsity);

    std::printf("ANT design-space sweep on ResNet18 at %.0f%% sparsity\n\n",
                sparsity * 100.0);

    Table table({"n", "k", "Speedup vs SCNN+(n)", "Energy reduction",
                 "FNIR area (mm^2)", "FNIR critical path"});
    for (std::uint32_t n : {2u, 4u, 8u}) {
        ScnnPeConfig scfg;
        scfg.n = n;
        ScnnPe scnn(scfg);
        // SCNN+(n) and every ANT (n, k) point on one generated trace.
        std::vector<AntPe> ants;
        for (std::uint32_t k : {8u, 16u, 32u}) {
            if (k < n)
                continue;
            AntPeConfig acfg;
            acfg.n = n;
            acfg.k = k;
            ants.emplace_back(acfg);
        }
        std::vector<ModelRun> models = {{scnn}};
        for (AntPe &ant : ants)
            models.emplace_back(ant);
        const auto stats = runConvNetwork(models, layers, profile, config);
        const NetworkStats &scnn_stats = stats[0];
        for (std::size_t i = 0; i < ants.size(); ++i) {
            const std::uint32_t k = ants[i].config().k;
            const NetworkStats &ant_stats = stats[i + 1];
            const auto area = estimateFnirArea(n, k);
            std::ostringstream area_str;
            area_str.precision(4);
            area_str << area.areaMm2;
            table.addRow(
                {std::to_string(n), std::to_string(k),
                 Table::times(speedupOf(scnn_stats, ant_stats)),
                 Table::times(energyRatioOf(scnn_stats, ant_stats)),
                 area_str.str(),
                 std::to_string(area.criticalPathGates) + " gates"});
        }
    }
    table.print();

    std::printf("\ntakeaway (Sec. 7.6): area and critical path grow with "
                "n and k while the speedup saturates -- beyond the "
                "default 4x4/k=16 point it is better to add PEs than to "
                "grow the PE.\n");
    return 0;
}
