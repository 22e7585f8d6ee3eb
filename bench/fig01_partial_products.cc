/**
 * @file
 * Reproduces Figure 1: partial-product breakdown of the three training
 * phases on ImageNet/ResNet18 convolutions mapped to an SCNN-like
 * outer-product accelerator.
 *
 * Expected (paper): in W*A and W*G_A, useful products form a large
 * fraction of the non-zero products; in G_A*A under sparse training,
 * RCPs consume up to 96% of the non-zero computation -- useful work is
 * "vanishingly small".
 */

#include <cstdio>

#include "bench_common.hh"
#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "workload/networks.hh"
#include "workload/tracegen.hh"

using namespace antsim;

namespace {

/** Aggregate the product census of one phase over sampled pairs. */
ProductCensus
phaseCensus(const std::vector<ConvLayer> &layers, TrainingPhase phase,
            const SparsityProfile &profile, const RunConfig &config)
{
    ProductCensus total;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const ConvLayer &layer = layers[li];
        const std::uint64_t pairs_total = layer.planePairs();
        const std::uint64_t samples =
            std::min<std::uint64_t>(pairs_total, config.sampleCap);
        ProductCensus layer_census;
        for (std::uint64_t s = 0; s < samples; ++s) {
            const std::uint64_t pair_index = s * pairs_total / samples;
            Rng rng(mixSeed(config.seed, li,
                            static_cast<std::uint64_t>(phase), pair_index));
            const PlanePair pair =
                makeConvPhasePair(layer, phase, profile, rng);
            layer_census += CensusContext(pair.spec, pair.image)
                                .countProducts({&pair.kernel});
        }
        // Scale the sampled census to the full layer.
        const double scale = static_cast<double>(pairs_total) /
            static_cast<double>(samples);
        total.denseProducts += static_cast<std::uint64_t>(
            static_cast<double>(layer_census.denseProducts) * scale);
        total.nonzeroProducts += static_cast<std::uint64_t>(
            static_cast<double>(layer_census.nonzeroProducts) * scale);
        total.validProducts += static_cast<std::uint64_t>(
            static_cast<double>(layer_census.validProducts) * scale);
        total.rcpProducts += static_cast<std::uint64_t>(
            static_cast<double>(layer_census.rcpProducts) * scale);
    }
    return total;
}

void
addRow(Table &table, const char *scenario, const char *phase,
       const ProductCensus &census)
{
    const double dense = static_cast<double>(census.denseProducts);
    const double zero_products =
        dense - static_cast<double>(census.nonzeroProducts);
    table.addRow(
        {scenario, phase, Table::percent(zero_products / dense),
         Table::percent(static_cast<double>(census.rcpProducts) / dense),
         Table::percent(static_cast<double>(census.validProducts) / dense),
         Table::percent(census.rcpFraction())});
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = bench::parseOptions(argc, argv);
    // The census is cheap but ImageNet planes are big; a modest sample
    // cap keeps this fast while covering all layers.
    options.run.sampleCap = std::min(options.run.sampleCap, 8u);
    bench::printHeader(
        "Figure 1: partial products on an SCNN-like accelerator "
        "(ImageNet/ResNet18)",
        "RCPs are a large share of non-zero products, and sparse "
        "training pushes the G_A*A phase to ~90%+ RCPs (useful work "
        "vanishingly small)");

    const auto layers = resnet18Imagenet();
    // (a,b) natural sparsity: dense-ish weights, ReLU-sparse A / G_A.
    const SparsityProfile natural{0.1, 0.5, 0.5,
                                  SparsifyMethod::Bernoulli};
    // (c) sparse training at 90% targets.
    const SparsityProfile sparse_training{0.9, 0.9, 0.9,
                                          SparsifyMethod::Bernoulli};

    Table table({"Scenario", "Phase", "zero-operand %", "RCP %",
                 "useful %", "RCP share of non-zero"});
    for (const auto phase :
         {TrainingPhase::Forward, TrainingPhase::Backward,
          TrainingPhase::Update}) {
        const auto census =
            phaseCensus(layers, phase, natural, options.run);
        addRow(table, "natural", phaseName(phase), census);
    }
    for (const auto phase :
         {TrainingPhase::Forward, TrainingPhase::Backward,
          TrainingPhase::Update}) {
        const auto census =
            phaseCensus(layers, phase, sparse_training, options.run);
        addRow(table, "sparse-90%", phaseName(phase), census);
    }
    bench::emitTable(table, options);

    std::printf("takeaway: the G_A*A rows' 'RCP share of non-zero' is the "
                "paper's headline (up to 96%%).\n");
    return bench::finish(options);
}
