#include "counters.hh"

#include <limits>
#include <sstream>

#include "logging.hh"

namespace antsim {

namespace {

/**
 * Name table indexed by the Counter enum. The array size is pinned to
 * kNumCounters by the type, so adding an enumerator without a name (or
 * vice versa) fails to compile; the static_asserts below keep the
 * entries non-empty even if someone pads with nullptr or "".
 */
constexpr std::array<const char *, kNumCounters> kCounterNames = {
    "mults_executed",     // MultsExecuted
    "mults_valid",        // MultsValid
    "mults_rcp",          // MultsRcp
    "rcps_avoided",       // RcpsAvoided
    "accum_adds",         // AccumAdds
    "output_index_calcs", // OutputIndexCalcs
    "index_compares",     // IndexCompares
    "sram_value_reads",   // SramValueReads
    "sram_index_reads",   // SramIndexReads
    "sram_rowptr_reads",  // SramRowPtrReads
    "sram_writes",        // SramWrites
    "sram_reads_avoided", // SramReadsAvoided
    "startup_cycles",     // StartupCycles
    "active_cycles",      // ActiveCycles
    "idle_scan_cycles",   // IdleScanCycles
    "cycles",             // Cycles
    "tasks_processed",    // TasksProcessed
};

static_assert(kCounterNames.size() == kNumCounters,
              "counter name table out of sync with the Counter enum");

constexpr bool
allNamesNonEmpty()
{
    for (const char *name : kCounterNames) {
        if (name == nullptr || name[0] == '\0')
            return false;
    }
    return true;
}

static_assert(allNamesNonEmpty(), "every counter needs a non-empty name");

} // namespace

const char *
counterName(Counter c)
{
    const auto index = static_cast<std::size_t>(c);
    ANT_ASSERT(index < kNumCounters, "unknown counter id ", index);
    return kCounterNames[index];
}

CounterSet &
CounterSet::operator+=(const CounterSet &other)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        values_[i] += other.values_[i];
    return *this;
}

void
CounterSet::scale(std::uint64_t num, std::uint64_t den)
{
    ANT_ASSERT(den > 0, "scale denominator must be positive");
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (auto &v : values_) {
        // Exact rational scaling with round-half-up in 128-bit
        // intermediates: v * num cannot wrap, and a result that does
        // not fit 64 bits is a hard error rather than a silent wrap.
        const unsigned __int128 scaled =
            (static_cast<unsigned __int128>(v) * num + den / 2) / den;
        ANT_ASSERT(scaled <= kMax, "counter overflow scaling ", v, " by ",
                   num, "/", den);
        v = static_cast<std::uint64_t>(scaled);
    }
}

std::string
CounterSet::toString() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        if (values_[i] == 0)
            continue;
        oss << counterName(static_cast<Counter>(i)) << " = " << values_[i]
            << '\n';
    }
    return oss.str();
}

} // namespace antsim
