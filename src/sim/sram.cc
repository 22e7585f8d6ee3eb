#include "sram.hh"

#include "util/logging.hh"

namespace antsim {

SramBuffer::SramBuffer(std::string name, const SramConfig &config,
                       Counter counter)
    : name_(std::move(name)), config_(config), counter_(counter)
{
    ANT_ASSERT(config_.elementBits > 0 && config_.accessBits > 0 &&
               config_.accessBits % config_.elementBits == 0,
               "access width must be a multiple of the element width");
}

void
SramBuffer::fill(std::uint32_t elements)
{
    if (elements > config_.capacityElements()) {
        ANT_FATAL("SRAM buffer '", name_, "' over capacity: ", elements,
                  " elements > ", config_.capacityElements(),
                  " (callers must chunk the working set)");
    }
    occupancy_ = elements;
}

void
SramBuffer::read(std::uint32_t elements, CounterSet &counters) const
{
    counters.add(counter_, config_.accesses(elements));
}

void
SramBuffer::write(std::uint32_t elements, CounterSet &counters) const
{
    counters.add(Counter::SramWrites, config_.accesses(elements));
}

} // namespace antsim
