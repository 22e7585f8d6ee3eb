#include "oracles/clock.hh"

namespace antsim {

void
Simulator::tick()
{
    for (Module *m : modules_)
        m->evaluate();
    for (Module *m : modules_)
        m->commit();
    ++cycle_;
}

void
Simulator::run(std::uint64_t cycles)
{
    for (std::uint64_t i = 0; i < cycles; ++i)
        tick();
}

} // namespace antsim
