#include "sparsify.hh"

#include "util/logging.hh"

namespace antsim {

Dense2d<float>
bernoulliPlane(std::uint32_t height, std::uint32_t width, double sparsity,
               Rng &rng)
{
    ANT_ASSERT(sparsity >= 0.0 && sparsity <= 1.0, "sparsity must be in ",
               "[0,1], got ", sparsity);
    const std::uint64_t keep = Rng::bernoulliThreshold(1.0 - sparsity);
    Dense2d<float> plane(height, width);
    for (auto &v : plane.data()) {
        const std::uint64_t r = rng.next();
        if ((r >> 11) < keep)
            v = bernoulliValue(static_cast<std::uint32_t>(r & 0xffu));
    }
    return plane;
}

} // namespace antsim
