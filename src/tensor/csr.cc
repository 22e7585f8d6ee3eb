#include "csr.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/audit.hh"

namespace antsim {

namespace {

/**
 * Count the non-zeros of one row-major float buffer (a float counts
 * iff v != 0.0f, so NaNs count).
 */
std::size_t
countNonzeros(const float *data, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] != 0.0f ? 1 : 0;
    return count;
}

/**
 * Compress one dense row: append the non-zero values and their column
 * indices at @p out_values / @p out_columns, returning how many were
 * written.
 */
std::uint32_t
compressRow(const float *row, std::uint32_t n, float *out_values,
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

/**
 * Whether @p plane satisfies CsrMatrix::validate's invariants, tested
 * in flat loops with no per-row inner loop: the row pointers run from
 * 0 to nnz without decreasing; every column is below the width; and a
 * column descent (cols[i - 1] >= cols[i]) falls only on the first
 * entry of a non-empty row. Non-empty rows start at distinct
 * positions, so the last holds iff the descents at row starts number
 * all the descents.
 */
bool
meetsCsrInvariants(const CsrMatrix &plane)
{
    const auto row_ptr = plane.rowPtr();
    const auto cols = plane.columns();
    const std::uint32_t nnz = plane.nnz();
    const std::uint32_t width = plane.width();
    bool rows_ok = row_ptr.front() == 0 && row_ptr.back() == nnz;
    for (std::size_t y = 1; y < row_ptr.size(); ++y)
        rows_ok &= row_ptr[y - 1] <= row_ptr[y];
    if (!rows_ok)
        return false;

    std::uint32_t wide = 0;
    for (std::uint32_t i = 0; i < nnz; ++i)
        wide += cols[i] >= width ? 1 : 0;
    std::uint32_t descents = 0;
    for (std::uint32_t i = 1; i < nnz; ++i)
        descents += cols[i - 1] >= cols[i] ? 1 : 0;
    std::uint32_t row_start_descents = 0;
    for (std::size_t y = 0; y + 1 < row_ptr.size(); ++y) {
        const std::uint32_t start = row_ptr[y];
        if (start > 0 && start < row_ptr[y + 1] &&
            cols[start - 1] >= cols[start])
            ++row_start_descents;
    }
    return wide == 0 && descents == row_start_descents;
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
    const std::size_t rows = static_cast<std::size_t>(height_) + 1;
    arena_ = Arena(rows * sizeof(std::uint32_t) +
                   nnz * (sizeof(float) + sizeof(std::uint32_t)));
    // Every factory writes all nnz values and columns, but relies on
    // zeroed row pointers: rowPtr[0], and the per-row counts fromCoo
    // and transposed accumulate.
    rowPtr_ = arena_.alloc<std::uint32_t>(rows);
    values_ = arena_.allocUninitialized<float>(nnz);
    columns_ = arena_.allocUninitialized<std::uint32_t>(nnz);
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
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    // Count entries per column into the (zeroed) row pointers of the
    // transpose and prefix-sum them; then scatter each column's entries
    // in row order, with their row index as the new column.
    std::uint32_t *out_row_ptr = out.rowPtr_;
    for (std::uint32_t c : cols)
        ++out_row_ptr[c + 1];
    for (std::uint32_t c = 0; c < width_; ++c)
        out_row_ptr[c + 1] += out_row_ptr[c];
    std::vector<std::uint32_t> cursor(out_row_ptr, out_row_ptr + width_);
    for (std::uint32_t y = 0; y < height_; ++y) {
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            const std::uint32_t c = cols[i];
            out.values_[cursor[c]] = vals[i];
            out.columns_[cursor[c]] = y;
            ++cursor[c];
        }
    }
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
    : count_(count), height_(height), width_(width)
{
    planes_.reserve(count);
    carve(entry_slots);
}

void
CsrStack::carve(std::size_t entry_slots)
{
    entrySlots_ = entry_slots;
    const std::size_t row_ptrs =
        count_ * (static_cast<std::size_t>(height_) + 1);
    slab_ = Arena(row_ptrs * sizeof(std::uint32_t) +
                  entry_slots * (sizeof(float) + sizeof(std::uint32_t)));
    // Only the row pointers need zeros: the generator writes every
    // entry it counts but only the rows that hold entries.
    rowPtrs_ = slab_.alloc<std::uint32_t>(row_ptrs);
    values_ = slab_.allocUninitialized<float>(entry_slots);
    columns_ = slab_.allocUninitialized<std::uint32_t>(entry_slots);
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
                planes_.size() * (static_cast<std::size_t>(height_) + 1) *
                    sizeof(std::uint32_t));
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
    return {values_ + used_, columns_ + used_, rowPtrOf(planes_.size())};
}

void
CsrStack::endPlane(std::size_t nnz)
{
    ANT_ASSERT(planeOpen_ && nnz <= open_, "endPlane of ", nnz,
               " entries into room for ", open_);
    planeOpen_ = false;
    planes_.push_back(CsrMatrix(height_, width_, narrowNnz(nnz),
                                values_ + used_, columns_ + used_,
                                rowPtrOf(planes_.size())));
    used_ += nnz;
}

void
CsrStack::validate() const
{
    ANT_ASSERT(!planeOpen_ && planes_.size() == count_, "stack holds ",
               planes_.size(), " of its ", count_, " planes");
    for (std::size_t i = 0; i < planes_.size(); ++i) {
        if (meetsCsrInvariants(planes_[i]))
            continue;
        // The detailed check names the broken invariant.
        planes_[i].validate();
        ANT_PANIC("stack plane ", i, " fails the flat CSR check but "
                  "passes validate()");
    }
}

} // namespace antsim
