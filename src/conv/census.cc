#include "census.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/simd.hh"

#if defined(__x86_64__)
#define ANTSIM_X86_SIMD 1
#include <immintrin.h>
#endif

namespace antsim {

using obs::metrics::ProfileCount;

namespace {

/**
 * One summed-area-table integration row: out[u] = prev[u] + prefix(u)
 * where prefix is the running sum of the row itself. Scalar ground
 * truth; the AVX2 form computes the identical uint32 (mod 2^32) sums.
 */
void
satIntegrateRowScalar(std::uint32_t *row, const std::uint32_t *prev,
                      std::size_t n)
{
    std::uint32_t row_sum = 0;
    for (std::size_t u = 0; u < n; ++u) {
        row_sum += row[u];
        row[u] = prev[u] + row_sum;
    }
}

/** Ground-truth gather-accumulate: sum of table[idx[i]]. */
std::uint64_t
gatherSumScalar(const std::uint64_t *table, const std::uint32_t *idx,
                std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += table[idx[i]];
    return sum;
}

#ifdef ANTSIM_X86_SIMD

/**
 * Inclusive 8-wide prefix sum: shift-add within each 128-bit lane,
 * then propagate the low lane's total into the high lane.
 */
__attribute__((target("avx2"))) inline __m256i
prefix8Avx2(__m256i x)
{
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    const __m256i low_total = _mm256_blend_epi32(
        _mm256_setzero_si256(),
        _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(3)), 0xF0);
    return _mm256_add_epi32(x, low_total);
}

__attribute__((target("avx2"))) void
satIntegrateRowAvx2(std::uint32_t *row, const std::uint32_t *prev,
                    std::size_t n)
{
    // The running sum is the loop-carried critical path, so the carry
    // never leaves the vector domain: the only chain per iteration is
    // one add plus one lane-7 broadcast (~4 cycles per 8 elements,
    // vs 8 serial adds scalar). The local 8-wide prefix sum is
    // computed off-chain. uint32 addition is associative mod 2^32, so
    // the result is bit-identical to the scalar running sum.
    const __m256i lane7 = _mm256_set1_epi32(7);
    __m256i carry = _mm256_setzero_si256(); // lane-broadcast running sum

    std::size_t u = 0;
    // Two vectors per iteration: both local prefixes and the a-to-b
    // join are off the carry chain, so the chain costs one add plus
    // one lane-7 broadcast per 16 elements.
    for (; u + 16 <= n; u += 16) {
        __m256i a = prefix8Avx2(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + u)));
        __m256i b = prefix8Avx2(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + u + 8)));
        b = _mm256_add_epi32(b, _mm256_permutevar8x32_epi32(a, lane7));
        a = _mm256_add_epi32(a, carry);
        b = _mm256_add_epi32(b, carry);
        carry = _mm256_permutevar8x32_epi32(b, lane7);
        const __m256i pa = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + u));
        const __m256i pb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + u + 8));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + u),
                            _mm256_add_epi32(a, pa));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + u + 8),
                            _mm256_add_epi32(b, pb));
    }
    for (; u + 8 <= n; u += 8) {
        __m256i x = prefix8Avx2(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + u)));
        x = _mm256_add_epi32(x, carry);
        carry = _mm256_permutevar8x32_epi32(x, lane7);
        const __m256i p = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + u));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + u),
                            _mm256_add_epi32(x, p));
    }
    std::uint32_t tail_carry =
        static_cast<std::uint32_t>(_mm256_extract_epi32(carry, 0));
    for (; u < n; ++u) {
        tail_carry += row[u];
        row[u] = prev[u] + tail_carry;
    }
}

__attribute__((target("avx2"))) std::uint64_t
gatherSumAvx2(const std::uint64_t *table, const std::uint32_t *idx,
              std::size_t n)
{
    // Four independent gather/accumulate streams keep several gathers
    // in flight at once; u64 addition wraps associatively, so any
    // accumulation order is exact.
    const auto *tbl = reinterpret_cast<const long long *>(table);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i lanes0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i));
        const __m128i lanes1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i + 4));
        const __m128i lanes2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i + 8));
        const __m128i lanes3 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i + 12));
        acc0 = _mm256_add_epi64(acc0,
                                _mm256_i32gather_epi64(tbl, lanes0, 8));
        acc1 = _mm256_add_epi64(acc1,
                                _mm256_i32gather_epi64(tbl, lanes1, 8));
        acc2 = _mm256_add_epi64(acc2,
                                _mm256_i32gather_epi64(tbl, lanes2, 8));
        acc3 = _mm256_add_epi64(acc3,
                                _mm256_i32gather_epi64(tbl, lanes3, 8));
    }
    __m256i acc = _mm256_add_epi64(_mm256_add_epi64(acc0, acc1),
                                   _mm256_add_epi64(acc2, acc3));
    for (; i + 4 <= n; i += 4) {
        const __m128i lanes = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i));
        acc = _mm256_add_epi64(
            acc, _mm256_i32gather_epi64(
                     reinterpret_cast<const long long *>(table), lanes,
                     8));
    }
    alignas(32) std::uint64_t parts[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(parts), acc);
    std::uint64_t sum = parts[0] + parts[1] + parts[2] + parts[3];
    for (; i < n; ++i)
        sum += table[idx[i]];
    return sum;
}

#endif // ANTSIM_X86_SIMD

void
satIntegrateRow(std::uint32_t *row, const std::uint32_t *prev,
                std::size_t n)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled()) {
        satIntegrateRowAvx2(row, prev, n);
        return;
    }
#endif
    satIntegrateRowScalar(row, prev, n);
}

std::uint64_t
gatherSum(const std::uint64_t *table, const std::uint32_t *idx,
          std::size_t n)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled())
        return gatherSumAvx2(table, idx, n);
#endif
    return gatherSumScalar(table, idx, n);
}

} // namespace

namespace census_kernels {

// Qualified calls so lookup finds the file-local dispatch wrappers,
// not these same-named exported shims.

void
satIntegrateRow(std::uint32_t *row, const std::uint32_t *prev, std::size_t n)
{
    antsim::satIntegrateRow(row, prev, n);
}

std::uint64_t
gatherSum(const std::uint64_t *table, const std::uint32_t *idx,
          std::size_t n)
{
    return antsim::gatherSum(table, idx, n);
}

} // namespace census_kernels

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
    // vectorizable prefix-sum-and-add row at a time.
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
        }
    }
    obs::metrics::profileCount(ProfileCount::CensusRectQueries,
                               static_cast<std::uint64_t>(kernel_h) *
                                   kernel_w);
}

ProductCensus
CensusContext::countProducts(const CsrMatrix &kernel) const
{
    ProductCensus census;
    census.denseProducts = spec_.denseCartesianProducts();
    census.nonzeroProducts =
        static_cast<std::uint64_t>(kernel.nnz()) * imageNnz_;

    const auto row_ptr = kernel.rowPtr();
    if (spec_.kind() == ProblemSpec::Kind::Matmul) {
        // Row r contributes rowNnz(r) * colNnz(r) valid products; s is
        // unconstrained (Sec. 5).
        for (std::uint32_t r = 0; r < kernel.height(); ++r) {
            census.validProducts +=
                static_cast<std::uint64_t>(row_ptr[r + 1] - row_ptr[r]) *
                entryCounts_[r];
        }
    } else {
        const auto columns = kernel.columns();
        for (std::uint32_t r = 0; r < kernel.height(); ++r) {
            const std::uint64_t *row_counts =
                entryCounts_.data() +
                static_cast<std::size_t>(r) * kernelW_;
            census.validProducts +=
                gatherSum(row_counts, columns.data() + row_ptr[r],
                          row_ptr[r + 1] - row_ptr[r]);
        }
    }
    census.rcpProducts = census.nonzeroProducts - census.validProducts;
    obs::metrics::profileCount(ProfileCount::CensusRectQueries,
                               kernel.nnz());
    return census;
}

} // namespace antsim
