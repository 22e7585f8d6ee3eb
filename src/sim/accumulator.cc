#include "accumulator.hh"

#include "obs/trace.hh"

namespace antsim {

Accumulator::Accumulator(const ProblemSpec &spec,
                         const SramConfig &bank_config)
    : spec_(spec), output_(spec.outH(), spec.outW()),
      bank_("accumulator bank", bank_config, Counter::SramWrites)
{}

bool
Accumulator::offer(float image_value, std::uint32_t x, std::uint32_t y,
                   float kernel_value, std::uint32_t s, std::uint32_t r,
                   CounterSet &counters)
{
    counters.add(Counter::OutputIndexCalcs);
    const auto out = spec_.outputIndex(x, y, s, r);
    if (!out) {
        counters.add(Counter::MultsRcp);
        return false;
    }
    counters.add(Counter::MultsValid);
    counters.add(Counter::AccumAdds);
    if (auto *rec = obs::recorder()) {
        const std::uint32_t bank =
            (out->y * output_.width() + out->x) % kBanks;
        const std::uint32_t bit = 1u << bank;
        if (groupBanks_ & bit)
            rec->instant(obs::InstantKind::AccumBankConflict);
        groupBanks_ |= bit;
    }
    bank_.write(1, counters);
    output_.at(out->x, out->y) +=
        static_cast<double>(image_value) * static_cast<double>(kernel_value);
    return true;
}

} // namespace antsim
