/**
 * @file
 * SRAM buffer model for the PE's value/index storage.
 *
 * The paper caps each buffer at 8 KB to guarantee single-cycle access
 * (Table 4) and stores sparse elements as 16-bit values + 16-bit
 * indices, so one 64-bit SRAM access fetches 2 elements (Sec. 6.3).
 * This model enforces the capacity (the chunking in the accelerators
 * exists precisely to respect it) and counts accesses for the energy
 * model; it does not store data -- the functional arrays live in the
 * CSR structures.
 */

#ifndef ANTSIM_SIM_SRAM_HH
#define ANTSIM_SIM_SRAM_HH

#include <cstdint>
#include <string>

#include "util/counters.hh"

namespace antsim {

/** Static parameters of one SRAM buffer. */
struct SramConfig
{
    /** Capacity in bytes (Table 4: 8 KB max for single-cycle access). */
    std::uint32_t capacityBytes = 8 * 1024;
    /** Bits per stored element (16-bit value or 16-bit index). */
    std::uint32_t elementBits = 16;
    /** Access word width in bits (64-bit accesses, 2 elements each). */
    std::uint32_t accessBits = 64;

    /** Elements that fit in the buffer. */
    std::uint32_t
    capacityElements() const
    {
        return capacityBytes * 8 / elementBits;
    }

    /** Elements delivered per access word. */
    std::uint32_t
    elementsPerAccess() const
    {
        return accessBits / elementBits;
    }

    /**
     * Word accesses that move @p elements sequential elements in one
     * request: ceil(elements / elementsPerAccess).
     */
    std::uint64_t
    accesses(std::uint64_t elements) const
    {
        const std::uint32_t per = elementsPerAccess();
        return (elements + per - 1) / per;
    }

    /**
     * Word accesses that move @p elements as consecutive requests of
     * @p group elements each, the last request taking the remainder:
     * the sum of accesses() over the requests.
     */
    std::uint64_t
    groupedAccesses(std::uint64_t elements, std::uint64_t group) const
    {
        return elements / group * accesses(group) +
            accesses(elements % group);
    }

    /** Geometry of a value buffer (16-bit bf16 elements, Table 4). */
    static SramConfig
    values()
    {
        return SramConfig{};
    }

    /** Geometry of an index buffer (8-bit indices, Table 4). */
    static SramConfig
    indices()
    {
        SramConfig cfg;
        cfg.elementBits = 8;
        return cfg;
    }

    /** Geometry of an accumulator bank (64 KB of 16-bit partial sums). */
    static SramConfig
    accumulatorBank()
    {
        SramConfig cfg;
        cfg.capacityBytes = 64 * 1024;
        return cfg;
    }
};

/** Access-counting SRAM buffer. */
class SramBuffer
{
  public:
    /**
     * @param name     Label for diagnostics ("kernel values", ...).
     * @param config   Geometry.
     * @param counter  Which CounterSet slot read accesses charge to.
     */
    SramBuffer(std::string name, const SramConfig &config, Counter counter);

    /** Buffer geometry. */
    const SramConfig &config() const { return config_; }

    /**
     * Declare the working set loaded into the buffer. Fatal if it
     * exceeds capacity -- callers must chunk (Sec. 6.1 / SCNN+).
     */
    void fill(std::uint32_t elements);

    /** Elements currently resident. */
    std::uint32_t occupancy() const { return occupancy_; }

    /**
     * Record a read of @p elements sequential elements, charging
     * config().accesses(elements) word accesses to @p counters.
     */
    void read(std::uint32_t elements, CounterSet &counters) const;

    /** Record a write of @p elements elements (accumulator banks). */
    void write(std::uint32_t elements, CounterSet &counters) const;

  private:
    std::string name_;
    SramConfig config_;
    Counter counter_;
    std::uint32_t occupancy_ = 0;
};

} // namespace antsim

#endif // ANTSIM_SIM_SRAM_HH
