/**
 * @file
 * Reproduces Sec. 7.7: relative performance of DaDianNao (dense IP),
 * TensorDash (one-sided sparse IP), SCNN+, and ANT on the 90%-sparse
 * networks.
 *
 * Expected (paper): TensorDash ~2.25x over dense (vs 1.95x reported by
 * its authors); ANT ~8.9x over TensorDash -- the value of two-sided
 * dynamic sparsity.
 */

#include <cstdio>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "bench_common.hh"
#include "scnn/scnn_pe.hh"
#include "util/stats.hh"

using namespace antsim;

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv);
    bench::printHeader(
        "Sec. 7.7: inner-product baselines vs outer-product (90% "
        "sparsity)",
        "TensorDash ~2.25x over dense; ANT ~8.9x over TensorDash");

    DenseInnerProductPe dense;
    TensorDashPe tensordash;
    ScnnPe scnn;
    AntPe ant;

    Table table({"Network", "TensorDash vs dense", "SCNN+ vs dense",
                 "ANT vs dense", "ANT vs TensorDash"});
    std::vector<double> td_over_dense;
    std::vector<double> ant_over_td;
    for (const auto &network :
         bench::selectNetworks(figure9Networks(), options)) {
        const auto stats = bench::runNetwork(
            {&dense, &tensordash, &scnn, &ant}, network, 0.9, options);
        const NetworkStats &dense_stats = stats[0];
        const NetworkStats &td_stats = stats[1];
        const NetworkStats &scnn_stats = stats[2];
        const NetworkStats &ant_stats = stats[3];

        const double td_speedup = speedupOf(dense_stats, td_stats);
        const double ant_td = speedupOf(td_stats, ant_stats);
        td_over_dense.push_back(td_speedup);
        ant_over_td.push_back(ant_td);
        table.addRow({network.name, Table::times(td_speedup),
                      Table::times(speedupOf(dense_stats, scnn_stats)),
                      Table::times(speedupOf(dense_stats, ant_stats)),
                      Table::times(ant_td)});
    }
    table.addRow({"geomean", Table::times(geomean(td_over_dense)), "-",
                  "-", Table::times(geomean(ant_over_td))});
    bench::emitTable(table, options);
    return bench::finish(options);
}
