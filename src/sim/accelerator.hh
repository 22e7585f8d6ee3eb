/**
 * @file
 * Multi-PE load balance: reduce per-task PE cycles to accelerator
 * cycles.
 *
 * Per the paper's methodology (Sec. 6.1) the default is a *perfect*
 * load balancer -- accelerator cycles are the ceiling of total PE
 * cycles over the PE count -- which isolates the PE-level contribution
 * of RCP anticipation from dataflow/load-balance effects. The runner
 * reports that figure (NetworkStats::acceleratorCycles). A greedy
 * longest-processing-time balancer is also provided to quantify how
 * far reality can sit from the perfect-balance assumption
 * (bench/abl_load_balance).
 */

#ifndef ANTSIM_SIM_ACCELERATOR_HH
#define ANTSIM_SIM_ACCELERATOR_HH

#include <cstdint>
#include <vector>

namespace antsim {

/** Task scheduling policy across PEs. */
enum class LoadBalance {
    /** cycles = ceil(sum of task cycles / numPes) (paper assumption). */
    Perfect,
    /** Greedy longest-processing-time assignment; cycles = max PE load. */
    GreedyLpt,
};

/**
 * Reduce per-task cycle counts to accelerator cycles under a policy:
 * perfect balance = ceil(sum / numPes); greedy LPT = the makespan of a
 * longest-processing-time-first assignment.
 */
std::uint64_t scheduleCycles(const std::vector<std::uint64_t> &task_cycles,
                             std::uint32_t num_pes, LoadBalance policy);

} // namespace antsim

#endif // ANTSIM_SIM_ACCELERATOR_HH
