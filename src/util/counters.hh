/**
 * @file
 * Named operation counters used throughout the simulator.
 *
 * Every accelerator model records its activity (multiplies, SRAM
 * accesses, comparator operations, ...) in a CounterSet; the energy
 * model (src/sim/energy.hh) and the benchmark harnesses consume these.
 * Counter identity is a compile-time enum so that hot loops pay only an
 * array increment.
 */

#ifndef ANTSIM_UTIL_COUNTERS_HH
#define ANTSIM_UTIL_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>

namespace antsim {

/** Identity of each tracked operation class. */
enum class Counter : unsigned {
    /** Multiplies actually executed by the multiplier array. */
    MultsExecuted = 0,
    /** Executed multiplies whose product maps to a valid output. */
    MultsValid,
    /** Executed multiplies that were Redundant Cartesian Products. */
    MultsRcp,
    /** RCP multiplies avoided by anticipation (never executed). */
    RcpsAvoided,
    /** Accumulator additions (one per valid product). */
    AccumAdds,
    /** Output-index computations (one per executed product). */
    OutputIndexCalcs,
    /** Index comparisons (range tests, FNIR comparators). */
    IndexCompares,
    /** SRAM reads of value elements. */
    SramValueReads,
    /** SRAM reads of index elements (columns array). */
    SramIndexReads,
    /** SRAM reads of row-pointer entries. */
    SramRowPtrReads,
    /** SRAM writes (accumulator buffer bank writes). */
    SramWrites,
    /** Value/index SRAM reads avoided by CSR range skipping. */
    SramReadsAvoided,
    /** Pipeline start-up cycles spent (5 per new matrix pair). */
    StartupCycles,
    /** Cycles the multiplier array was issued at least one product. */
    ActiveCycles,
    /** Cycles the FNIR/scan logic advanced without issuing products. */
    IdleScanCycles,
    /** Total cycles of the processing element or accelerator. */
    Cycles,
    /** Number of (kernel, image) chunk pairs (tasks) processed. */
    TasksProcessed,
    /** Census summed-area/histogram tables built (conv/census.hh). */
    CensusTablesBuilt,
    /** O(1) census rectangle/histogram queries answered. */
    CensusRectQueries,
    /** Sparse planes generated and CSR-compressed. */
    TracePlanesGenerated,
    NumCounters
};

/** Number of distinct counters. */
constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::NumCounters);

/** Human-readable name of a counter. */
const char *counterName(Counter c);

/** A fixed-size set of named 64-bit counters. */
class CounterSet
{
  public:
    CounterSet() { values_.fill(0); }

    /** Add @p delta to counter @p c. */
    void
    add(Counter c, std::uint64_t delta = 1)
    {
        values_[static_cast<std::size_t>(c)] += delta;
    }

    /** Current value of counter @p c. */
    std::uint64_t
    get(Counter c) const
    {
        return values_[static_cast<std::size_t>(c)];
    }

    /** Set counter @p c to an absolute value. */
    void
    set(Counter c, std::uint64_t value)
    {
        values_[static_cast<std::size_t>(c)] = value;
    }

    /** Reset every counter to zero. */
    void reset() { values_.fill(0); }

    /** Element-wise accumulate another counter set into this one. */
    CounterSet &operator+=(const CounterSet &other);

    /** Element-wise scale all counters by a rational factor. */
    void scale(std::uint64_t num, std::uint64_t den);

    /** Multi-line human-readable dump (non-zero counters only). */
    std::string toString() const;

  private:
    std::array<std::uint64_t, kNumCounters> values_;
};

} // namespace antsim

#endif // ANTSIM_UTIL_COUNTERS_HH
