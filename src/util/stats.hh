/**
 * @file
 * Small statistics helpers used by the benchmark harnesses.
 */

#ifndef ANTSIM_UTIL_STATS_HH
#define ANTSIM_UTIL_STATS_HH

#include <vector>

namespace antsim {

/** Arithmetic mean; returns 0 for an empty input. */
double mean(const std::vector<double> &xs);

/**
 * Geometric mean; requires all inputs strictly positive.
 * This is how the paper aggregates per-network speedups (Sec. 7.1).
 */
double geomean(const std::vector<double> &xs);

} // namespace antsim

#endif // ANTSIM_UTIL_STATS_HH
