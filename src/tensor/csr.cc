#include "csr.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/audit.hh"
#include "util/simd.hh"

#if defined(__x86_64__)
#define ANTSIM_X86_SIMD 1
#include <immintrin.h>
#endif

namespace antsim {

namespace {

/**
 * Count the non-zeros of one row-major float buffer. Ground-truth
 * scalar form; the AVX2 form below must agree bit for bit (a float is
 * counted iff v != 0.0f, which keeps NaNs like the scalar compare).
 */
std::size_t
countNonzerosScalar(const float *data, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] != 0.0f ? 1 : 0;
    return count;
}

/**
 * Compress one dense row: append the non-zero values and their column
 * indices at @p out_values / @p out_columns, returning how many were
 * written. Scalar ground truth for the AVX2 left-pack kernel.
 */
std::uint32_t
compressRowScalar(const float *row, std::uint32_t n, float *out_values,
                  std::uint32_t *out_columns)
{
    std::uint32_t cur = 0;
    for (std::uint32_t x = 0; x < n; ++x) {
        if (row[x] != 0.0f) {
            out_values[cur] = row[x];
            out_columns[cur] = x;
            ++cur;
        }
    }
    return cur;
}

#ifdef ANTSIM_X86_SIMD

/**
 * Left-pack permutation LUT: perm[mask] lists the set-bit positions of
 * the 8-bit @p mask in ascending order (slack lanes repeat 0; their
 * stores land in the tail pad and are overwritten or ignored).
 */
struct PackLut
{
    alignas(32) std::uint32_t perm[256][8];
};

const PackLut &
packLut()
{
    static const PackLut lut = [] {
        PackLut l{};
        for (int mask = 0; mask < 256; ++mask) {
            int k = 0;
            for (int bit = 0; bit < 8; ++bit) {
                if (mask & (1 << bit))
                    l.perm[mask][k++] = static_cast<std::uint32_t>(bit);
            }
            for (; k < 8; ++k)
                l.perm[mask][k] = 0;
        }
        return l;
    }();
    return lut;
}

__attribute__((target("avx2"))) std::size_t
countNonzerosAvx2(const float *data, std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(data + i);
        // NEQ_UQ: true for NaN operands, exactly like scalar v != 0.
        const int mask =
            _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ));
        count += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(mask)));
    }
    for (; i < n; ++i)
        count += data[i] != 0.0f ? 1 : 0;
    return count;
}

__attribute__((target("avx2"))) std::uint32_t
compressRowAvx2(const float *row, std::uint32_t n, float *out_values,
                std::uint32_t *out_columns)
{
    const PackLut &lut = packLut();
    const __m256 zero = _mm256_setzero_ps();
    std::uint32_t cur = 0;
    std::uint32_t x = 0;
    for (; x + 8 <= n; x += 8) {
        const __m256 v = _mm256_loadu_ps(row + x);
        const int mask =
            _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ));
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(lut.perm[mask]));
        // Full-vector stores; the lanes beyond popcount(mask) land in
        // the tail pad allocateStorage reserves and are overwritten by
        // the next iteration or ignored.
        _mm256_storeu_ps(out_values + cur,
                         _mm256_permutevar8x32_ps(v, perm));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out_columns + cur),
            _mm256_add_epi32(perm, _mm256_set1_epi32(
                                       static_cast<int>(x))));
        cur += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(mask)));
    }
    for (; x < n; ++x) {
        if (row[x] != 0.0f) {
            out_values[cur] = row[x];
            out_columns[cur] = x;
            ++cur;
        }
    }
    return cur;
}

#endif // ANTSIM_X86_SIMD

std::size_t
countNonzeros(const float *data, std::size_t n)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled())
        return countNonzerosAvx2(data, n);
#endif
    return countNonzerosScalar(data, n);
}

std::uint32_t
compressRow(const float *row, std::uint32_t n, float *out_values,
            std::uint32_t *out_columns)
{
#ifdef ANTSIM_X86_SIMD
    if (simd::avx2Enabled())
        return compressRowAvx2(row, n, out_values, out_columns);
#endif
    return compressRowScalar(row, n, out_values, out_columns);
}

/**
 * Scatter @p csr into the compressed arrays of its transpose: each
 * column's entries in row order with their row index, and the
 * width()+1 column pointers (which must arrive zeroed, as fresh arena
 * blocks do). CsrMatrix::transposed and CscMatrix::fromCsr both fill
 * their own slab with it.
 */
void
transposeInto(const CsrMatrix &csr, float *out_values,
              std::uint32_t *out_indices, std::uint32_t *out_ptr)
{
    const auto row_ptr = csr.rowPtr();
    const auto cols = csr.columns();
    const auto vals = csr.values();
    // Count entries per column, prefix-sum into the pointers.
    for (std::uint32_t c : cols)
        ++out_ptr[c + 1];
    for (std::uint32_t c = 0; c < csr.width(); ++c)
        out_ptr[c + 1] += out_ptr[c];
    std::vector<std::uint32_t> cursor(out_ptr, out_ptr + csr.width());
    for (std::uint32_t y = 0; y < csr.height(); ++y) {
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            const std::uint32_t c = cols[i];
            out_values[cursor[c]] = vals[i];
            out_indices[cursor[c]] = y;
            ++cursor[c];
        }
    }
}

} // namespace

std::uint32_t
narrowNnz(std::size_t nnz)
{
    ANT_ASSERT(nnz <= std::numeric_limits<std::uint32_t>::max(),
               "sparse matrix nnz ", nnz,
               " overflows the uint32 CSR index arrays");
    return static_cast<std::uint32_t>(nnz);
}

void
CsrMatrix::allocateStorage(std::size_t nnz)
{
    nnz_ = narrowNnz(nnz);
    // 8 elements of tail slack behind the values and columns blocks:
    // the AVX2 compress kernels store full 8-lane vectors and advance
    // the cursor by the pack count, so the final store of a row may
    // spill up to 7 lanes past the data.
    const std::size_t padded = nnz + 8;
    const std::size_t rows = static_cast<std::size_t>(height_) + 1;
    arena_.reset(Arena::aligned(padded * sizeof(float)) +
                 Arena::aligned(padded * sizeof(std::uint32_t)) +
                 Arena::aligned(rows * sizeof(std::uint32_t)));
    values_ = arena_.ptr<float>(arena_.alloc<float>(padded));
    columns_ = arena_.ptr<std::uint32_t>(arena_.alloc<std::uint32_t>(padded));
    rowPtr_ = arena_.ptr<std::uint32_t>(arena_.alloc<std::uint32_t>(rows));
}

void
CsrMatrix::maybeValidate() const
{
    if (audit::enabled())
        validate();
}

CsrMatrix::CsrMatrix(std::uint32_t height, std::uint32_t width)
    : height_(height), width_(width)
{
    allocateStorage(0);
}

CsrMatrix::CsrMatrix(const CsrMatrix &o)
    : height_(o.height_), width_(o.width_)
{
    allocateStorage(o.nnz_);
    if (nnz_ > 0) {
        std::memcpy(values_, o.values_, nnz_ * sizeof(float));
        std::memcpy(columns_, o.columns_, nnz_ * sizeof(std::uint32_t));
    }
    std::memcpy(rowPtr_, o.rowPtr_,
                (static_cast<std::size_t>(height_) + 1) *
                    sizeof(std::uint32_t));
}

CsrMatrix &
CsrMatrix::operator=(const CsrMatrix &o)
{
    if (this != &o)
        *this = CsrMatrix(o);
    return *this;
}

CsrMatrix
CsrMatrix::fromDense(const Dense2d<float> &dense)
{
    CsrMatrix csr(dense.height(), dense.width(), Unallocated{});
    const float *data = dense.data().data();
    const std::size_t cells = dense.data().size();
    csr.allocateStorage(countNonzeros(data, cells));

    float *values = csr.values_;
    std::uint32_t *columns = csr.columns_;
    std::uint32_t *row_ptr = csr.rowPtr_;
    std::uint32_t cur = 0;
    for (std::uint32_t y = 0; y < dense.height(); ++y) {
        cur += compressRow(data + static_cast<std::size_t>(y) *
                               dense.width(),
                           dense.width(), values + cur, columns + cur);
        row_ptr[y + 1] = cur;
    }
    ANT_ASSERT(cur == csr.nnz_, "fromDense fill wrote ", cur,
               " entries but the counting pass saw ", csr.nnz_);
    csr.maybeValidate();
    return csr;
}

CsrMatrix
CsrMatrix::fromRaw(std::uint32_t height, std::uint32_t width,
                   std::span<const float> values,
                   std::span<const std::uint32_t> columns,
                   std::span<const std::uint32_t> row_ptr)
{
    ANT_ASSERT(row_ptr.size() == static_cast<std::size_t>(height) + 1,
               "rowPtr size ", row_ptr.size(), " != height+1 ", height + 1);
    ANT_ASSERT(values.size() == columns.size(),
               "values/columns size mismatch");
    CsrMatrix csr(height, width, Unallocated{});
    csr.allocateStorage(values.size());
    if (!values.empty()) {
        std::memcpy(csr.values_, values.data(),
                    values.size() * sizeof(float));
        std::memcpy(csr.columns_, columns.data(),
                    columns.size() * sizeof(std::uint32_t));
    }
    std::memcpy(csr.rowPtr_, row_ptr.data(),
                row_ptr.size() * sizeof(std::uint32_t));
    csr.validate();
    return csr;
}

CsrMatrix
CsrMatrix::fromCoo(std::uint32_t height, std::uint32_t width,
                   std::vector<SparseEntry> entries)
{
    for (const auto &e : entries) {
        ANT_ASSERT(e.x < width && e.y < height, "COO entry (", e.x, ",",
                   e.y, ") outside ", width, "x", height);
    }
    std::sort(entries.begin(), entries.end(),
              [](const SparseEntry &a, const SparseEntry &b) {
                  return a.y != b.y ? a.y < b.y : a.x < b.x;
              });

    // Counting pass: distinct (y, x) pairs after duplicate folding.
    std::size_t unique = 0;
    for (std::size_t i = 0; i < entries.size(); ++unique) {
        const std::size_t first = i;
        for (++i; i < entries.size() && entries[i].y == entries[first].y &&
             entries[i].x == entries[first].x;
             ++i) {
        }
    }

    CsrMatrix csr(height, width, Unallocated{});
    csr.allocateStorage(unique);
    float *values = csr.values_;
    std::uint32_t *columns = csr.columns_;
    std::uint32_t *row_ptr = csr.rowPtr_;
    std::uint32_t cur = 0;
    for (std::size_t i = 0; i < entries.size();) {
        float v = entries[i].value;
        const std::uint32_t x = entries[i].x;
        const std::uint32_t y = entries[i].y;
        for (++i;
             i < entries.size() && entries[i].y == y && entries[i].x == x;
             ++i) {
            v += entries[i].value;
        }
        values[cur] = v;
        columns[cur] = x;
        ++cur;
        ++row_ptr[y + 1];
    }
    for (std::uint32_t y = 0; y < height; ++y)
        row_ptr[y + 1] += row_ptr[y];
    csr.maybeValidate();
    return csr;
}

double
CsrMatrix::sparsity() const
{
    const std::size_t total =
        static_cast<std::size_t>(height_) * static_cast<std::size_t>(width_);
    if (total == 0)
        return 1.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

std::uint32_t
CsrMatrix::rowOfPosition(std::uint32_t pos) const
{
    ANT_ASSERT(pos < nnz(), "position ", pos, " beyond nnz ", nnz());
    // Binary search in rowPtr for the containing row.
    const auto row_ptr = rowPtr();
    const auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), pos);
    return static_cast<std::uint32_t>(it - row_ptr.begin()) - 1;
}

SparseEntry
CsrMatrix::entry(std::uint32_t pos) const
{
    return {values()[pos], columns()[pos], rowOfPosition(pos)};
}

Dense2d<float>
CsrMatrix::toDense() const
{
    Dense2d<float> dense(height_, width_);
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    for (std::uint32_t y = 0; y < height_; ++y)
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i)
            dense.at(cols[i], y) = vals[i];
    return dense;
}

std::vector<SparseEntry>
CsrMatrix::entries() const
{
    std::vector<SparseEntry> out;
    out.reserve(nnz());
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    for (std::uint32_t y = 0; y < height_; ++y)
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i)
            out.push_back({vals[i], cols[i], y});
    return out;
}

CsrMatrix
CsrMatrix::slice(std::uint32_t begin, std::uint32_t end) const
{
    ANT_ASSERT(begin <= end && end <= nnz(), "slice [", begin, ", ", end,
               ") outside the ", nnz(), " stored entries");
    CsrMatrix out(height_, width_, Unallocated{});
    out.allocateStorage(end - begin);
    if (end > begin) {
        std::memcpy(out.values_, values().data() + begin,
                    (end - begin) * sizeof(float));
        std::memcpy(out.columns_, columns().data() + begin,
                    (end - begin) * sizeof(std::uint32_t));
    }
    // Each row keeps the part of its range that falls inside the slice.
    const auto row_ptr = rowPtr();
    std::uint32_t *out_row_ptr = out.rowPtr_;
    for (std::uint32_t y = 0; y < height_; ++y)
        out_row_ptr[y + 1] = std::clamp(row_ptr[y + 1], begin, end) - begin;
    out.maybeValidate();
    return out;
}

CsrMatrix
CsrMatrix::rotated180() const
{
    // Algorithm 3: remap indices only; the Values array contents do not
    // change (their order does, to restore row-major ordering).
    CsrMatrix out(height_, width_, Unallocated{});
    out.allocateStorage(nnz());
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    float *out_values = out.values_;
    std::uint32_t *out_columns = out.columns_;
    std::uint32_t *out_row_ptr = out.rowPtr_;
    std::uint32_t cur = 0;
    // The rotated row H-1-y enumerates source rows in reverse; within a
    // row, rotated columns W-1-x reverse the column order.
    for (std::uint32_t y_rot = 0; y_rot < height_; ++y_rot) {
        const std::uint32_t y = height_ - 1 - y_rot;
        const std::uint32_t begin = row_ptr[y];
        const std::uint32_t end = row_ptr[y + 1];
        for (std::uint32_t i = end; i > begin; --i) {
            out_values[cur] = vals[i - 1];
            out_columns[cur] = width_ - 1 - cols[i - 1];
            ++cur;
        }
        out_row_ptr[y_rot + 1] = cur;
    }
    out.maybeValidate();
    return out;
}

CsrMatrix
CsrMatrix::transposed() const
{
    CsrMatrix out(width_, height_, Unallocated{});
    out.allocateStorage(nnz());
    transposeInto(*this, out.values_, out.columns_, out.rowPtr_);
    out.maybeValidate();
    return out;
}

void
CsrMatrix::validate() const
{
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    ANT_ASSERT(row_ptr.size() == static_cast<std::size_t>(height_) + 1,
               "rowPtr size ", row_ptr.size(), " != height+1 ", height_ + 1);
    ANT_ASSERT(row_ptr.front() == 0, "rowPtr[0] must be 0");
    ANT_ASSERT(row_ptr.back() == nnz(),
               "rowPtr back ", row_ptr.back(), " != values size ", nnz());
    // Check the row-pointer structure completely before dereferencing
    // columns through it.
    for (std::uint32_t y = 0; y < height_; ++y) {
        ANT_ASSERT(row_ptr[y] <= row_ptr[y + 1],
                   "rowPtr must be non-decreasing at row ", y);
        ANT_ASSERT(row_ptr[y + 1] <= nnz(),
                   "rowPtr exceeds storage at row ", y);
    }
    for (std::uint32_t y = 0; y < height_; ++y) {
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            ANT_ASSERT(cols[i] < width_, "column ", cols[i],
                       " out of width ", width_);
            if (i > row_ptr[y]) {
                ANT_ASSERT(cols[i - 1] < cols[i],
                           "columns must be strictly increasing in row ", y);
            }
        }
    }
}

bool
CsrMatrix::operator==(const CsrMatrix &o) const
{
    return height_ == o.height_ && width_ == o.width_ && nnz_ == o.nnz_ &&
        std::equal(values().begin(), values().end(), o.values().begin()) &&
        std::equal(columns().begin(), columns().end(),
                   o.columns().begin()) &&
        std::equal(rowPtr().begin(), rowPtr().end(), o.rowPtr().begin());
}

CsrStack::CsrStack(std::uint32_t count, std::uint32_t height,
                   std::uint32_t width, std::size_t entry_slots)
    : count_(count), height_(height), width_(width),
      rowSlots_(paddedEntries(static_cast<std::size_t>(height) + 1))
{
    planes_.reserve(count);
    carve(entry_slots);
}

void
CsrStack::carve(std::size_t entry_slots)
{
    entrySlots_ = paddedEntries(entry_slots);
    const std::size_t row_slots = count_ * rowSlots_;
    slab_.reset((row_slots + 2 * entrySlots_) * sizeof(std::uint32_t));
    // Only the row pointers need zeros: the generator writes every
    // entry it counts but only the rows that hold entries.
    rowPtrs_ = slab_.ptr<std::uint32_t>(
        slab_.alloc<std::uint32_t>(row_slots));
    values_ = slab_.ptr<float>(slab_.allocUninitialized<float>(entrySlots_));
    columns_ = slab_.ptr<std::uint32_t>(
        slab_.allocUninitialized<std::uint32_t>(entrySlots_));
}

void
CsrStack::grow(std::size_t entry_slots)
{
    Arena old = std::move(slab_);
    const std::uint32_t *old_row_ptrs = rowPtrs_;
    const float *old_values = values_;
    const std::uint32_t *old_columns = columns_;
    carve(entry_slots);
    std::memcpy(rowPtrs_, old_row_ptrs,
                count_ * rowSlots_ * sizeof(std::uint32_t));
    std::memcpy(values_, old_values, used_ * sizeof(float));
    std::memcpy(columns_, old_columns, used_ * sizeof(std::uint32_t));
    for (CsrMatrix &plane : planes_) {
        plane.values_ = values_ + (plane.values_ - old_values);
        plane.columns_ = columns_ + (plane.columns_ - old_columns);
        plane.rowPtr_ = rowPtrs_ + (plane.rowPtr_ - old_row_ptrs);
    }
}

CsrStack::PlaneSlot
CsrStack::beginPlane(std::size_t max_nnz)
{
    ANT_ASSERT(!planeOpen_ && planes_.size() < count_,
               "beginPlane past the stack's ", count_, " planes");
    if (entrySlots_ - used_ < max_nnz)
        grow(std::max(2 * entrySlots_, used_ + max_nnz));
    planeOpen_ = true;
    open_ = max_nnz;
    return {values_ + used_, columns_ + used_,
            rowPtrs_ + planes_.size() * rowSlots_};
}

void
CsrStack::endPlane(std::size_t nnz)
{
    ANT_ASSERT(planeOpen_ && nnz <= open_, "endPlane of ", nnz,
               " entries into room for ", open_);
    planeOpen_ = false;
    planes_.push_back(CsrMatrix(height_, width_, narrowNnz(nnz),
                                values_ + used_, columns_ + used_,
                                rowPtrs_ + planes_.size() * rowSlots_));
    used_ += paddedEntries(nnz);
}

void
CsrStack::validate() const
{
    ANT_ASSERT(!planeOpen_ && planes_.size() == count_, "stack holds ",
               planes_.size(), " of its ", count_, " planes");
    for (const CsrMatrix &plane : planes_)
        plane.validate();
}

void
CscMatrix::allocateStorage(std::size_t nnz)
{
    nnz_ = narrowNnz(nnz);
    const std::size_t padded = nnz + 8;
    const std::size_t cols = static_cast<std::size_t>(width_) + 1;
    arena_.reset(Arena::aligned(padded * sizeof(float)) +
                 Arena::aligned(padded * sizeof(std::uint32_t)) +
                 Arena::aligned(cols * sizeof(std::uint32_t)));
    valuesOff_ = arena_.alloc<float>(padded);
    rowsOff_ = arena_.alloc<std::uint32_t>(padded);
    colPtrOff_ = arena_.alloc<std::uint32_t>(cols);
}

CscMatrix
CscMatrix::fromDense(const Dense2d<float> &dense)
{
    CscMatrix csc(dense.height(), dense.width());
    csc.allocateStorage(countNonzerosScalar(dense.data().data(),
                                            dense.data().size()));
    float *values = csc.valuesData();
    std::uint32_t *rows = csc.rowsData();
    std::uint32_t *col_ptr = csc.colPtrData();
    std::uint32_t cur = 0;
    for (std::uint32_t x = 0; x < dense.width(); ++x) {
        for (std::uint32_t y = 0; y < dense.height(); ++y) {
            const float v = dense.at(x, y);
            if (v != 0.0f) {
                values[cur] = v;
                rows[cur] = y;
                ++cur;
            }
        }
        col_ptr[x + 1] = cur;
    }
    return csc;
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    // The CSC arrays are the CSR arrays of the transpose.
    CscMatrix csc(csr.height(), csr.width());
    csc.allocateStorage(csr.nnz());
    transposeInto(csr, csc.valuesData(), csc.rowsData(), csc.colPtrData());
    return csc;
}

std::uint32_t
CscMatrix::colOfPosition(std::uint32_t pos) const
{
    ANT_ASSERT(pos < nnz(), "position ", pos, " beyond nnz ", nnz());
    const auto col_ptr = colPtr();
    const auto it = std::upper_bound(col_ptr.begin(), col_ptr.end(), pos);
    return static_cast<std::uint32_t>(it - col_ptr.begin()) - 1;
}

SparseEntry
CscMatrix::entry(std::uint32_t pos) const
{
    return {values()[pos], colOfPosition(pos), rows()[pos]};
}

Dense2d<float>
CscMatrix::toDense() const
{
    Dense2d<float> dense(height_, width_);
    const auto col_ptr = colPtr();
    const auto row_idx = rows();
    const auto vals = values();
    for (std::uint32_t x = 0; x < width_; ++x)
        for (std::uint32_t i = col_ptr[x]; i < col_ptr[x + 1]; ++i)
            dense.at(x, row_idx[i]) = vals[i];
    return dense;
}

} // namespace antsim
