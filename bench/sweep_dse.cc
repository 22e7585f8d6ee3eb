/**
 * @file
 * Extension bench: design-space sweep over the ANT configuration grid
 * (multiplier array n x n, FNIR window k, workload density), every
 * point simulated on the cycle-level engine.
 *
 * The grid is n in {2,4,8}, k in {8,16,32} and 12 density points: 108
 * designs, all of ResNet18's training phases each. Each density is one
 * runner call that carries the nine AntPe configurations, so every
 * trace plane is generated once and simulated on all nine
 * (workload/runner.hh). The bench then marks the per-density Pareto
 * frontier on (cycles, energy) and prints it.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "sim/energy.hh"

using namespace antsim;

namespace {

/** One (n, k, density) grid point and its simulated cost. */
struct DesignPoint
{
    std::uint32_t n = 0;
    std::uint32_t k = 0;
    double sparsity = 0.0;
    std::uint64_t cycles = 0;
    double energyPj = 0.0;
    bool onFrontier = false;

    double
    density() const
    {
        return 1.0 - sparsity;
    }

    std::string
    label() const
    {
        std::ostringstream out;
        out << n << "x" << n << "/k" << k << "/d"
            << static_cast<int>(density() * 100 + 0.5) << "%";
        return out.str();
    }
};

/**
 * Mark the Pareto frontier within each density slice: a design is kept
 * when no other design at the *same* workload density has both fewer
 * cycles and less energy (densities are workload scenarios, not design
 * choices, so designs only compete at equal density -- a global
 * frontier would collapse onto the sparsest workloads).
 */
void
markFrontier(std::vector<DesignPoint> &grid)
{
    for (DesignPoint &p : grid) {
        bool dominated = false;
        for (const DesignPoint &q : grid) {
            if (q.sparsity != p.sparsity)
                continue;
            if (q.cycles <= p.cycles && q.energyPj <= p.energyPj &&
                (q.cycles < p.cycles || q.energyPj < p.energyPj)) {
                dominated = true;
                break;
            }
        }
        p.onFrontier = !dominated;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Design-space sweep: n x n array, FNIR k, density (ResNet18 SWAT)",
        "n and k are chosen from cycle-level simulation (Figs. 12-13, "
        "Sec. 7.6)");

    const auto layers = resnet18Cifar();
    const EnergyModel energy;
    const double sparsities[] = {0.0,  0.1, 0.2, 0.3,   0.4,  0.5,
                                 0.6,  0.7, 0.8, 0.875, 0.9,  0.95};

    // The nine (n, k) designs share each density's generated trace.
    std::vector<AntPe> designs;
    for (const std::uint32_t n : {2u, 4u, 8u}) {
        for (const std::uint32_t k : {8u, 16u, 32u}) {
            AntPeConfig cfg;
            cfg.n = n;
            cfg.k = k;
            designs.emplace_back(cfg);
        }
    }
    std::vector<PeModel *> pes;
    for (AntPe &design : designs)
        pes.push_back(&design);

    std::vector<DesignPoint> grid;
    for (const double sparsity : sparsities) {
        const std::vector<NetworkStats> stats = bench::runConv(
            pes, layers, SparsityProfile::swat(sparsity), options);
        for (std::size_t i = 0; i < designs.size(); ++i) {
            DesignPoint point;
            point.n = designs[i].config().n;
            point.k = designs[i].config().k;
            point.sparsity = sparsity;
            point.cycles = stats[i].total.get(Counter::Cycles);
            point.energyPj = energy.totalPj(stats[i].total);
            grid.push_back(point);
        }
    }
    markFrontier(grid);

    Table table({"Design", "cycles", "energy (uJ)"});
    std::size_t frontier_points = 0;
    for (const DesignPoint &point : grid) {
        if (!point.onFrontier)
            continue;
        ++frontier_points;
        table.addRow({point.label(), std::to_string(point.cycles),
                      Table::num(point.energyPj / 1e6, 2)});
    }
    bench::emitTable(table, options);
    std::printf("grid: %zu points simulated, %zu on the per-density "
                "Pareto frontier\n",
                grid.size(), frontier_points);

    bench::reportMetric("grid_points",
                        static_cast<std::uint64_t>(grid.size()));
    bench::reportMetric("frontier_points",
                        static_cast<std::uint64_t>(frontier_points));
    return bench::finish(options);
}
