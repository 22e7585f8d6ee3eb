/**
 * @file
 * Shared census engine: O(nnz_k) product counting per kernel plane.
 *
 * The brute-force countProducts (outer_product.hh) walks every image
 * non-zero against every kernel row in range -- O(nnz_i * R * S) per
 * kernel -- and the SCNN counting path repeats that walk for each of
 * the up to 512 kernels of a stack, rebuilding the same image-side
 * structure every time. The simulator thus performs exactly the kind
 * of redundant computation the paper's accelerator eliminates.
 *
 * A CensusContext precomputes the image side once per (spec, image):
 *
 *  - Convolution: the validity test of outputIndex factorizes per
 *    axis. A product image(x, y) * kernel(s, r) is valid iff
 *        x ≡ dil*s (mod stride)  and  dil*s <= x <= dil*s + stride*(outW-1)
 *    and the same along y. Partitioning the image into the stride^2
 *    residue classes (x mod stride, y mod stride) and building one 2-D
 *    prefix-sum (summed-area) table of non-zero occupancy per class
 *    turns each kernel entry's valid-partner count into a single O(1)
 *    rectangle query on the class (dil*s mod stride, dil*r mod stride).
 *    The R*S per-entry counts are materialized up front, so counting a
 *    kernel is one table lookup per stored entry: O(nnz_k), and a full
 *    kernel plane (nnz = R*S) adds their precomputed sum instead.
 *
 *  - Matmul: valid partners of kernel entry (s, r) are the image
 *    entries of column r (Eq. 14); a per-column nnz histogram built
 *    once answers every kernel of the stack.
 *
 * countProducts(kernels) counts a whole kernel stack (one plane is a
 * stack of one) in one loop, and equals the sum of the brute-force
 * census over its planes (tests/census_property_test.cc cross-checks
 * randomized geometries and stacks). The SCNN+ and ANT counting paths
 * both take their valid-product counts from it. Tables built and
 * queries answered are tallied in the host metrics registry
 * (obs/metrics.hh ProfileCount) and surface in the run report's
 * profile section.
 */

#ifndef ANTSIM_CONV_CENSUS_HH
#define ANTSIM_CONV_CENSUS_HH

#include <cstdint>
#include <vector>

#include "conv/outer_product.hh"
#include "conv/problem_spec.hh"
#include "tensor/csr.hh"

namespace antsim {

/** Image-side census tables shared by every kernel of a stack. */
class CensusContext
{
  public:
    /** Build the tables for one (spec, image plane) pair. */
    CensusContext(const ProblemSpec &spec, const CsrMatrix &image);

    /**
     * Valid-partner count of kernel entry (s, r): the number of image
     * non-zeros whose product with the entry maps to a valid output.
     * O(1) table lookup.
     */
    std::uint64_t
    validCount(std::uint32_t s, std::uint32_t r) const
    {
        return entryCounts_[static_cast<std::size_t>(r) * kernelW_ + s];
    }

    /**
     * Census of a kernel stack against the image: counter for counter
     * the sum of the brute-force countProducts(spec, kernel, image)
     * over @p kernels, in O(nnz) of the stack.
     */
    ProductCensus
    countProducts(const std::vector<const CsrMatrix *> &kernels) const;

    /** The spec the tables were built for. */
    const ProblemSpec &spec() const { return spec_; }

  private:
    ProblemSpec spec_;
    std::uint32_t kernelW_ = 0;
    std::uint64_t imageNnz_ = 0;
    /** Valid-partner count per kernel coordinate, R*S row-major. */
    std::vector<std::uint64_t> entryCounts_;
    /** Valid products of a full kernel plane: every entry's count. */
    std::uint64_t fullPlaneValid_ = 0;
};

} // namespace antsim

#endif // ANTSIM_CONV_CENSUS_HH
