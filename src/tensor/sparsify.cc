#include "sparsify.hh"

#include "util/logging.hh"

namespace antsim {

Dense2d<float>
bernoulliPlane(std::uint32_t height, std::uint32_t width, double sparsity,
               Rng &rng)
{
    ANT_ASSERT(sparsity >= 0.0 && sparsity <= 1.0, "sparsity must be in ",
               "[0,1], got ", sparsity);
    Dense2d<float> plane(height, width);
    for (auto &v : plane.data()) {
        if (rng.bernoulli(1.0 - sparsity)) {
            float f = static_cast<float>(rng.normal());
            if (f == 0.0f)
                f = 1e-6f;
            v = f;
        }
    }
    return plane;
}

} // namespace antsim
