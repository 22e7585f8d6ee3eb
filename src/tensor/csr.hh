/**
 * @file
 * Compressed sparse matrix formats (CSR and CSC) per Sec. 4.1.
 *
 * CSR represents a matrix with three arrays: Values (the non-zero
 * elements in row-major order), Columns (the column index of each
 * stored value), and Row-pointers (the offset of each row's first
 * stored value). CSC is the dual, obtained as the CSR of the
 * transposed matrix; the accelerator's matmul mode (Sec. 5) holds the
 * image plane in CSC so that a group of n consecutive entries shares
 * one column.
 *
 * The accelerator models stream these arrays exactly as the hardware's
 * Image/Kernel Values and Indices Buffers would, so iteration order
 * here *is* the hardware's element order.
 *
 * Storage layout: the three arrays are a structure-of-arrays carved
 * out of one 64-byte-aligned Arena slab (util/arena.hh), sized exactly
 * from the nnz counted before filling. Every factory allocates exactly
 * one slab. Accessors hand out read-only spans; the SIMD construction
 * kernels (docs/MODEL.md Sec. 11) rely on the alignment, and the exact
 * pre-sizing removes the push_back reallocation churn of the old
 * vector-backed layout.
 */

#ifndef ANTSIM_TENSOR_CSR_HH
#define ANTSIM_TENSOR_CSR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hh"
#include "util/arena.hh"

namespace antsim {

/** One stored non-zero: value plus its (x, y) plane coordinates. */
struct SparseEntry
{
    float value;
    std::uint32_t x; //!< column index (s for kernels)
    std::uint32_t y; //!< row index (r for kernels)
};

/**
 * Narrow a size_t non-zero count to the uint32 the CSR arrays store.
 * Panics instead of silently truncating: nnz >= 2^32 would corrupt
 * every row pointer downstream. Every narrowing site in the builders
 * goes through here.
 */
std::uint32_t narrowNnz(std::size_t nnz);

/**
 * Compressed Sparse Row matrix of float values.
 *
 * Invariants (checked by validate(); every construction path validates
 * when the ANTSIM_AUDIT runtime switch is on, fromRaw unconditionally):
 *  - rowPtr has height()+1 entries, rowPtr[0] == 0, non-decreasing;
 *  - columns within each row are strictly increasing and < width();
 *  - values.size() == columns.size() == rowPtr.back().
 */
class CsrMatrix
{
  public:
    /** Construct an empty matrix of the given shape. */
    CsrMatrix(std::uint32_t height, std::uint32_t width);

    /** Compress a dense plane (drops exact zeros). */
    static CsrMatrix fromDense(const Dense2d<float> &dense);

    /**
     * Build directly from raw arrays (copied into the matrix's slab).
     * Panics if the arrays violate the CSR invariants.
     */
    static CsrMatrix fromRaw(std::uint32_t height, std::uint32_t width,
                             const std::vector<float> &values,
                             const std::vector<std::uint32_t> &columns,
                             const std::vector<std::uint32_t> &row_ptr);

    /**
     * Build from an unsorted coordinate list (duplicates are summed,
     * resulting zeros kept -- callers that need exact-zero dropping
     * should compress from dense).
     */
    static CsrMatrix fromCoo(std::uint32_t height, std::uint32_t width,
                             std::vector<SparseEntry> entries);

    /** Number of rows. */
    std::uint32_t height() const { return height_; }

    /** Number of columns. */
    std::uint32_t width() const { return width_; }

    /** Number of stored non-zeros. */
    std::uint32_t nnz() const { return nnz_; }

    /** Fraction of elements that are zero (1.0 for an empty shape). */
    double sparsity() const;

    /** Values array (non-zeros in row-major order). */
    std::span<const float>
    values() const
    {
        return {arena_.ptr<float>(valuesOff_), nnz_};
    }

    /** Columns array (column index per stored value). */
    std::span<const std::uint32_t>
    columns() const
    {
        return {arena_.ptr<std::uint32_t>(columnsOff_), nnz_};
    }

    /** Row-pointers array (height()+1 entries). */
    std::span<const std::uint32_t>
    rowPtr() const
    {
        return {arena_.ptr<std::uint32_t>(rowPtrOff_),
                static_cast<std::size_t>(height_) + 1};
    }

    /** Row index of the stored element at flat position @p pos. */
    std::uint32_t rowOfPosition(std::uint32_t pos) const;

    /** The stored entry at flat position @p pos as (value, x, y). */
    SparseEntry entry(std::uint32_t pos) const;

    /** Decompress back to a dense plane. */
    Dense2d<float> toDense() const;

    /** All stored entries in storage order. */
    std::vector<SparseEntry> entries() const;

    /**
     * The matrix holding only stored entries [@p begin, @p end) in
     * storage order, with the same dims (a buffer-capacity chunk).
     */
    CsrMatrix slice(std::uint32_t begin, std::uint32_t end) const;

    /**
     * Rotate the matrix by 180 degrees (Algorithm 3):
     * y' = H - y - 1, x' = W - x - 1. Values are unchanged; only the
     * index arrays are remapped, as in the ANT ROTATE-flag hardware
     * (Sec. 4.5).
     */
    CsrMatrix rotated180() const;

    /** Transpose (used to derive the CSC view). */
    CsrMatrix transposed() const;

    /** Panics if the structural invariants are violated. */
    void validate() const;

    bool operator==(const CsrMatrix &o) const;

  private:
    /** Tag of the constructor that leaves the slab unallocated. */
    struct Unallocated
    {};

    /** Shape only; the factory then calls allocateStorage once. */
    CsrMatrix(std::uint32_t height, std::uint32_t width, Unallocated)
        : height_(height), width_(width)
    {}

    /**
     * Size the arena for exactly @p nnz stored entries (guarding the
     * uint32 narrowing) plus the row-pointer array, and carve the
     * three SoA blocks. Row pointers start zeroed.
     */
    void allocateStorage(std::size_t nnz);

    /** Validate when the ANTSIM_AUDIT runtime switch is on. */
    void maybeValidate() const;

    float *valuesData() { return arena_.ptr<float>(valuesOff_); }
    std::uint32_t *columnsData()
    {
        return arena_.ptr<std::uint32_t>(columnsOff_);
    }
    std::uint32_t *rowPtrData()
    {
        return arena_.ptr<std::uint32_t>(rowPtrOff_);
    }

    std::uint32_t height_;
    std::uint32_t width_;
    std::uint32_t nnz_ = 0;
    std::size_t valuesOff_ = 0;
    std::size_t columnsOff_ = 0;
    std::size_t rowPtrOff_ = 0;
    Arena arena_;
};

/**
 * Compressed Sparse Column view: the CSR of the transposed matrix,
 * re-labelled. rows() plays the role of the Columns array (it stores
 * row indices) and colPtr() the role of Row-pointers. Same SoA arena
 * layout as CsrMatrix.
 */
class CscMatrix
{
  public:
    /** Compress a dense plane column-major. */
    static CscMatrix fromDense(const Dense2d<float> &dense);

    /** Convert from CSR. */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    /** Number of rows of the logical matrix. */
    std::uint32_t height() const { return height_; }

    /** Number of columns of the logical matrix. */
    std::uint32_t width() const { return width_; }

    /** Number of stored non-zeros. */
    std::uint32_t nnz() const { return nnz_; }

    /** Values in column-major order. */
    std::span<const float>
    values() const
    {
        return {arena_.ptr<float>(valuesOff_), nnz_};
    }

    /** Row index of each stored value. */
    std::span<const std::uint32_t>
    rows() const
    {
        return {arena_.ptr<std::uint32_t>(rowsOff_), nnz_};
    }

    /** Column-pointer array (width()+1 entries). */
    std::span<const std::uint32_t>
    colPtr() const
    {
        return {arena_.ptr<std::uint32_t>(colPtrOff_),
                static_cast<std::size_t>(width_) + 1};
    }

    /** Column index of the stored element at flat position @p pos. */
    std::uint32_t colOfPosition(std::uint32_t pos) const;

    /** The stored entry at flat position @p pos as (value, x, y). */
    SparseEntry entry(std::uint32_t pos) const;

    /** Decompress to dense. */
    Dense2d<float> toDense() const;

  private:
    CscMatrix(std::uint32_t height, std::uint32_t width)
        : height_(height), width_(width)
    {}

    /** Arena sizing, as CsrMatrix::allocateStorage. */
    void allocateStorage(std::size_t nnz);

    float *valuesData() { return arena_.ptr<float>(valuesOff_); }
    std::uint32_t *rowsData() { return arena_.ptr<std::uint32_t>(rowsOff_); }
    std::uint32_t *colPtrData()
    {
        return arena_.ptr<std::uint32_t>(colPtrOff_);
    }

    std::uint32_t height_;
    std::uint32_t width_;
    std::uint32_t nnz_ = 0;
    std::size_t valuesOff_ = 0;
    std::size_t rowsOff_ = 0;
    std::size_t colPtrOff_ = 0;
    Arena arena_;
};

} // namespace antsim

#endif // ANTSIM_TENSOR_CSR_HH
