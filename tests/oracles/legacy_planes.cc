#include "oracles/legacy_planes.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "tensor/sparsify.hh"
#include "util/bfloat16.hh"
#include "util/logging.hh"

namespace antsim {

Dense2d<float>
randomDensePlane(std::uint32_t height, std::uint32_t width, Rng &rng)
{
    Dense2d<float> plane(height, width);
    for (auto &v : plane.data()) {
        float f = static_cast<float>(rng.normal());
        // Exact zeros would silently change nnz; nudge them.
        if (f == 0.0f)
            f = 1e-6f;
        v = f;
    }
    return plane;
}

Dense2d<float>
topKSparsify(const Dense2d<float> &plane, double sparsity)
{
    ANT_ASSERT(sparsity >= 0.0 && sparsity <= 1.0, "sparsity must be in ",
               "[0,1], got ", sparsity);
    const std::size_t total = plane.size();
    const auto keep = static_cast<std::size_t>(
        std::llround(static_cast<double>(total) * (1.0 - sparsity)));
    if (keep >= total)
        return plane;

    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), 0);
    const auto &data = plane.data();
    std::nth_element(order.begin(), order.begin() + keep, order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const float ma = std::fabs(data[a]);
                         const float mb = std::fabs(data[b]);
                         // Deterministic tie-break by position.
                         return ma != mb ? ma > mb : a < b;
                     });

    Dense2d<float> out(plane.height(), plane.width());
    for (std::size_t i = 0; i < keep; ++i)
        out.data()[order[i]] = data[order[i]];
    return out;
}

Dense2d<float>
generatePlane(std::uint32_t height, std::uint32_t width, double sparsity,
              SparsifyMethod method, Rng &rng)
{
    Dense2d<float> plane = method == SparsifyMethod::Bernoulli
        ? bernoulliPlane(height, width, sparsity, rng)
        : topKSparsify(randomDensePlane(height, width, rng), sparsity);
    // The datapath stores Bfloat16 values (Table 4); quantize here so
    // the whole simulation sees exactly what the hardware would.
    for (float &v : plane.data())
        v = bf16Round(v);
    return plane;
}

Dense2d<float>
embedPlane(const Dense2d<float> &inner, std::uint32_t out_height,
           std::uint32_t out_width, std::uint32_t offset,
           std::uint32_t dilation)
{
    ANT_ASSERT(dilation >= 1, "dilation must be at least 1");
    ANT_ASSERT(offset + dilation * (inner.height() - 1) < out_height &&
               offset + dilation * (inner.width() - 1) < out_width,
               "embedded plane does not fit: inner ", inner.height(), "x",
               inner.width(), " offset ", offset, " dilation ", dilation,
               " into ", out_height, "x", out_width);

    Dense2d<float> out(out_height, out_width);
    for (std::uint32_t y = 0; y < inner.height(); ++y)
        for (std::uint32_t x = 0; x < inner.width(); ++x)
            out.at(offset + dilation * x, offset + dilation * y) =
                inner.at(x, y);
    return out;
}

} // namespace antsim
