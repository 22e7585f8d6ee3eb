#include "accelerator.hh"

#include <algorithm>
#include <functional>

#include "util/logging.hh"

namespace antsim {

std::uint64_t
scheduleCycles(const std::vector<std::uint64_t> &task_cycles,
               std::uint32_t num_pes, LoadBalance policy)
{
    ANT_ASSERT(num_pes > 0, "need at least one PE");
    if (task_cycles.empty())
        return 0;

    if (policy == LoadBalance::Perfect) {
        std::uint64_t total = 0;
        for (std::uint64_t c : task_cycles)
            total += c;
        return (total + num_pes - 1) / num_pes;
    }

    // Greedy LPT: sort descending, place each task on the least-loaded
    // PE, report the makespan.
    std::vector<std::uint64_t> sorted = task_cycles;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    std::vector<std::uint64_t> load(num_pes, 0);
    for (std::uint64_t c : sorted) {
        auto it = std::min_element(load.begin(), load.end());
        *it += c;
    }
    return *std::max_element(load.begin(), load.end());
}

} // namespace antsim
