#include "stats.hh"

#include <cmath>

#include "logging.hh"

namespace antsim {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    ANT_ASSERT(!xs.empty(), "geomean of empty set");
    double log_sum = 0.0;
    for (double x : xs) {
        ANT_ASSERT(x > 0.0, "geomean requires positive values, got ", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace antsim
