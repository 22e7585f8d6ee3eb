#include "census.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace antsim {

using obs::metrics::ProfileCount;

namespace {

/**
 * One summed-area-table integration row: out[u] = prev[u] + prefix(u)
 * where prefix is the running sum of the row itself.
 */
void
satIntegrateRow(std::uint32_t *row, const std::uint32_t *prev,
                std::size_t n)
{
    std::uint32_t row_sum = 0;
    for (std::size_t u = 0; u < n; ++u) {
        row_sum += row[u];
        row[u] = prev[u] + row_sum;
    }
}

} // namespace

CensusContext::CensusContext(const ProblemSpec &spec, const CsrMatrix &image)
    : spec_(spec), kernelW_(spec.kernelW()), imageNnz_(image.nnz())
{
    ANT_ASSERT(image.height() == spec.imageH() &&
                   image.width() == spec.imageW(),
               "census image plane ", image.height(), "x", image.width(),
               " does not match spec ", spec.toString());

    if (spec.kind() == ProblemSpec::Kind::Matmul) {
        // Valid partners of kernel entry (s, r) are the image entries
        // of column r (Eq. 14): one histogram answers every kernel.
        entryCounts_.assign(spec.kernelH(), 0);
        for (std::uint32_t c : image.columns())
            ++entryCounts_[c];
        // A full kernel's row r holds all S columns.
        fullPlaneValid_ = imageNnz_ * spec.kernelW();
        obs::metrics::profileCount(ProfileCount::CensusTablesBuilt, 1);
        return;
    }

    const std::uint32_t stride = spec.stride();
    const std::uint64_t dil = spec.dilation();
    const std::uint32_t img_w = spec.imageW();
    const std::uint32_t img_h = spec.imageH();

    // Residue-class grid geometry: class (p, q) holds the image cells
    // with x % stride == p, y % stride == q, downsampled to
    // (u, v) = (x / stride, y / stride). nu[p] / nv[q] count the grid
    // columns / rows of each class.
    std::vector<std::uint32_t> nu(stride), nv(stride);
    for (std::uint32_t p = 0; p < stride; ++p)
        nu[p] = p < img_w ? (img_w - p + stride - 1) / stride : 0;
    for (std::uint32_t q = 0; q < stride; ++q)
        nv[q] = q < img_h ? (img_h - q + stride - 1) / stride : 0;

    // One flat buffer holds the stride^2 summed-area tables, each with
    // a zero border row/column so rectangle queries need no branches:
    // sat[(v+1) * (nu+1) + (u+1)] = non-zeros with coords <= (u, v).
    std::vector<std::size_t> offset(static_cast<std::size_t>(stride) *
                                        stride +
                                    1);
    for (std::uint32_t q = 0; q < stride; ++q) {
        for (std::uint32_t p = 0; p < stride; ++p) {
            const std::size_t cells =
                static_cast<std::size_t>(nv[q] + 1) * (nu[p] + 1);
            offset[static_cast<std::size_t>(q) * stride + p + 1] =
                offset[static_cast<std::size_t>(q) * stride + p] + cells;
        }
    }
    std::vector<std::uint32_t> sat(offset.back(), 0);

    // Scatter the image occupancy into the class grids...
    const auto row_ptr = image.rowPtr();
    const auto columns = image.columns();
    for (std::uint32_t y = 0; y < img_h; ++y) {
        const std::uint32_t q = y % stride;
        const std::uint32_t v = y / stride;
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            const std::uint32_t x = columns[i];
            const std::uint32_t p = x % stride;
            const std::uint32_t u = x / stride;
            sat[offset[static_cast<std::size_t>(q) * stride + p] +
                static_cast<std::size_t>(v + 1) * (nu[p] + 1) + (u + 1)] +=
                1;
        }
    }
    // ...and integrate each class into its summed-area table, one
    // prefix-sum-and-add row at a time.
    for (std::uint32_t q = 0; q < stride; ++q) {
        for (std::uint32_t p = 0; p < stride; ++p) {
            std::uint32_t *t =
                sat.data() + offset[static_cast<std::size_t>(q) * stride + p];
            const std::size_t cols = nu[p] + 1;
            for (std::uint32_t v = 1; v <= nv[q]; ++v) {
                satIntegrateRow(t + v * cols + 1, t + (v - 1) * cols + 1,
                                nu[p]);
            }
        }
    }
    obs::metrics::profileCount(ProfileCount::CensusTablesBuilt,
                               static_cast<std::uint64_t>(stride) * stride);

    // Materialize the R*S per-entry counts: one rectangle query each,
    // shared by every kernel of the stack. Kernel entry (s, r) pairs
    // with image x iff x >= dil*s, x ≡ dil*s (mod stride), and
    // (x - dil*s) / stride < outW -- i.e. u in [u0, u0 + outW - 1] on
    // class column p = dil*s % stride -- and likewise along y.
    const std::uint32_t kernel_h = spec.kernelH();
    const std::uint32_t kernel_w = spec.kernelW();
    entryCounts_.assign(static_cast<std::size_t>(kernel_h) * kernel_w, 0);
    for (std::uint32_t r = 0; r < kernel_h; ++r) {
        const std::uint64_t ys = dil * r;
        const auto q = static_cast<std::uint32_t>(ys % stride);
        const auto v0 = static_cast<std::uint32_t>(ys / stride);
        if (v0 >= nv[q])
            continue;
        const std::uint32_t v1 =
            std::min<std::uint64_t>(v0 + spec.outH() - 1, nv[q] - 1);
        for (std::uint32_t s = 0; s < kernel_w; ++s) {
            const std::uint64_t xs = dil * s;
            const auto p = static_cast<std::uint32_t>(xs % stride);
            const auto u0 = static_cast<std::uint32_t>(xs / stride);
            if (u0 >= nu[p])
                continue;
            const std::uint32_t u1 =
                std::min<std::uint64_t>(u0 + spec.outW() - 1, nu[p] - 1);
            const std::uint32_t *t =
                sat.data() +
                offset[static_cast<std::size_t>(q) * stride + p];
            const std::size_t cols = nu[p] + 1;
            // Inclusive rectangle [u0..u1] x [v0..v1] via the four
            // border-padded corners.
            const std::uint64_t count =
                static_cast<std::uint64_t>(
                    t[static_cast<std::size_t>(v1 + 1) * cols + (u1 + 1)]) -
                t[static_cast<std::size_t>(v0) * cols + (u1 + 1)] -
                t[static_cast<std::size_t>(v1 + 1) * cols + u0] +
                t[static_cast<std::size_t>(v0) * cols + u0];
            entryCounts_[static_cast<std::size_t>(r) * kernel_w + s] = count;
            fullPlaneValid_ += count;
        }
    }
    obs::metrics::profileCount(ProfileCount::CensusRectQueries,
                               static_cast<std::uint64_t>(kernel_h) *
                                   kernel_w);
}

ProductCensus
CensusContext::countProducts(
    const std::vector<const CsrMatrix *> &kernels) const
{
    const std::uint64_t full_nnz =
        static_cast<std::uint64_t>(spec_.kernelH()) * kernelW_;
    const bool matmul = spec_.kind() == ProblemSpec::Kind::Matmul;
    std::uint64_t nnz = 0;
    std::uint64_t valid = 0;
    for (const CsrMatrix *kernel : kernels) {
        nnz += kernel->nnz();
        if (kernel->nnz() == full_nnz) {
            valid += fullPlaneValid_;
            continue;
        }
        const auto row_ptr = kernel->rowPtr();
        if (matmul) {
            // Row r contributes rowNnz(r) * colNnz(r) valid products; s
            // is unconstrained (Sec. 5).
            for (std::uint32_t r = 0; r < kernel->height(); ++r) {
                valid +=
                    static_cast<std::uint64_t>(row_ptr[r + 1] - row_ptr[r]) *
                    entryCounts_[r];
            }
            continue;
        }
        const auto columns = kernel->columns();
        for (std::uint32_t r = 0; r < kernel->height(); ++r) {
            const std::uint64_t *row_counts =
                entryCounts_.data() + static_cast<std::size_t>(r) * kernelW_;
            for (std::uint32_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
                valid += row_counts[columns[i]];
        }
    }

    ProductCensus census;
    census.denseProducts = kernels.size() * spec_.denseCartesianProducts();
    census.nonzeroProducts = nnz * imageNnz_;
    census.validProducts = valid;
    census.rcpProducts = census.nonzeroProducts - valid;
    obs::metrics::profileCount(ProfileCount::CensusRectQueries, nnz);
    return census;
}

} // namespace antsim
