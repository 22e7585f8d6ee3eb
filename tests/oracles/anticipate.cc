#include "oracles/anticipate.hh"

#include <algorithm>

#include "util/logging.hh"

namespace antsim {

AnticipateResult
idealAnticipation(const ProblemSpec &spec, const CsrMatrix &kernel,
                  const CsrMatrix &image)
{
    AnticipateResult result{Dense2d<double>(spec.outH(), spec.outW()),
                            0, 0, 0, 0};

    const auto kernel_entries = kernel.entries();
    const auto image_entries = image.entries();
    const std::uint64_t all_products =
        static_cast<std::uint64_t>(kernel.nnz()) *
        static_cast<std::uint64_t>(image.nnz());

    for (const auto &img : image_entries) {
        for (const auto &ker : kernel_entries) {
            // Per-element conditions (Eqs. 7-8 generalized): the s/r
            // ideal ranges plus stride divisibility via outputIndex.
            const auto out = spec.outputIndex(img.x, img.y, ker.x, ker.y);
            if (out) {
                ++result.executedProducts;
                ++result.validProducts;
                result.output.at(out->x, out->y) +=
                    static_cast<double>(img.value) *
                    static_cast<double>(ker.value);
            }
        }
    }
    result.skippedRcps = all_products - result.executedProducts;
    return result;
}

AnticipateResult
blockAnticipation(const ProblemSpec &spec, const CsrMatrix &kernel,
                  const CsrMatrix &image, std::uint32_t n,
                  bool use_r_condition, bool use_s_condition)
{
    ANT_ASSERT(n > 0, "group width must be positive");
    AnticipateResult result{Dense2d<double>(spec.outH(), spec.outW()),
                            0, 0, 0, 0};

    const auto kernel_entries = kernel.entries();
    const auto image_entries = image.entries();
    const std::uint64_t all_products =
        static_cast<std::uint64_t>(kernel.nnz()) *
        static_cast<std::uint64_t>(image.nnz());

    for (std::size_t base = 0; base < image_entries.size(); base += n) {
        const std::size_t group_end =
            std::min(base + n, image_entries.size());

        // Group index extremes (Algorithm 2 lls. 2-5). CSR order makes
        // y monotonic, but x is not, so min/max over both.
        std::uint32_t x_min = image_entries[base].x;
        std::uint32_t x_max = x_min;
        std::uint32_t y_min = image_entries[base].y;
        std::uint32_t y_max = y_min;
        for (std::size_t i = base + 1; i < group_end; ++i) {
            x_min = std::min(x_min, image_entries[i].x);
            x_max = std::max(x_max, image_entries[i].x);
            y_min = std::min(y_min, image_entries[i].y);
            y_max = std::max(y_max, image_entries[i].y);
        }
        const IndexRange s_range = spec.sRange(x_min, x_max);
        const IndexRange r_range = spec.rRange(y_min, y_max);

        for (const auto &ker : kernel_entries) {
            const bool valid_r =
                !use_r_condition || r_range.contains(ker.y);
            const bool valid_s =
                !use_s_condition || s_range.contains(ker.x);
            if (!(valid_r && valid_s))
                continue;

            // Kernel element survives the screen: multiply it with the
            // whole image group (Algorithm 2 lls. 10-15).
            for (std::size_t i = base; i < group_end; ++i) {
                const auto &img = image_entries[i];
                const auto out =
                    spec.outputIndex(img.x, img.y, ker.x, ker.y);
                ++result.executedProducts;
                if (out) {
                    ++result.validProducts;
                    result.output.at(out->x, out->y) +=
                        static_cast<double>(img.value) *
                        static_cast<double>(ker.value);
                } else {
                    ++result.residualRcps;
                }
            }
        }
    }
    result.skippedRcps = all_products - result.executedProducts;
    return result;
}

} // namespace antsim
