/**
 * @file
 * Compressed sparse row matrices per Sec. 4.1.
 *
 * CSR represents a matrix with three arrays: Values (the non-zero
 * elements in row-major order), Columns (the column index of each
 * stored value), and Row-pointers (the offset of each row's first
 * stored value). CSC is the dual, the CSR of the transposed matrix
 * (transposed()); the accelerator's matmul mode (Sec. 5) holds the
 * image plane in CSC so that a group of n consecutive entries shares
 * one column.
 *
 * The accelerator models stream these arrays exactly as the hardware's
 * Image/Kernel Values and Indices Buffers would, so iteration order
 * here *is* the hardware's element order.
 *
 * Storage layout: the three arrays are a structure-of-arrays packed
 * back to back in one Arena slab (util/arena.hh) at their natural
 * 4-byte alignment, sized exactly from the nnz counted before filling:
 * a matrix's slab is its height()+1 row pointers plus nnz values and
 * nnz columns, nothing more. Every factory allocates exactly one slab,
 * and so does a copy. A CsrStack holds a whole stack of planes in one
 * slab, and its planes borrow their arrays from it. The exact
 * pre-sizing removes the push_back reallocation churn of the old
 * vector-backed layout. Accessors hand out read-only spans. No writer
 * may store past an array's last entry.
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

class CsrStack;

/**
 * Compressed Sparse Row matrix of float values.
 *
 * A matrix owns its slab, except a CsrStack plane, whose arrays borrow
 * the stack's slab; copying either gives a compact matrix that owns
 * its memory.
 *
 * Invariants (checked by validate(); every construction path validates
 * when the ANTSIM_AUDIT runtime switch is on, fromRaw and CsrStack
 * unconditionally):
 *  - rowPtr has height()+1 entries, rowPtr[0] == 0, non-decreasing;
 *  - columns within each row are strictly increasing and < width();
 *  - values.size() == columns.size() == rowPtr.back().
 */
class CsrMatrix
{
  public:
    /** Construct an empty matrix of the given shape. */
    CsrMatrix(std::uint32_t height, std::uint32_t width);

    /** A compact copy in a slab of its own (also of a stack plane). */
    CsrMatrix(const CsrMatrix &o);
    CsrMatrix &operator=(const CsrMatrix &o);
    CsrMatrix(CsrMatrix &&) noexcept = default;
    CsrMatrix &operator=(CsrMatrix &&) noexcept = default;

    /** Compress a dense plane (drops exact zeros). */
    static CsrMatrix fromDense(const Dense2d<float> &dense);

    /**
     * Build directly from raw arrays (copied into the matrix's slab);
     * the spans may be prefixes of larger scratch arrays. Panics if the
     * arrays violate the CSR invariants.
     */
    static CsrMatrix fromRaw(std::uint32_t height, std::uint32_t width,
                             std::span<const float> values,
                             std::span<const std::uint32_t> columns,
                             std::span<const std::uint32_t> row_ptr);

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
        return {values_, nnz_};
    }

    /** Columns array (column index per stored value). */
    std::span<const std::uint32_t>
    columns() const
    {
        return {columns_, nnz_};
    }

    /** Row-pointers array (height()+1 entries). */
    std::span<const std::uint32_t>
    rowPtr() const
    {
        return {rowPtr_, static_cast<std::size_t>(height_) + 1};
    }

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

    /**
     * Transpose: its row pointers and columns are this matrix's CSC
     * column pointers and rows.
     */
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

    /** A CsrStack plane over arrays in the stack's slab. */
    CsrMatrix(std::uint32_t height, std::uint32_t width, std::uint32_t nnz,
              float *values, std::uint32_t *columns, std::uint32_t *row_ptr)
        : height_(height), width_(width), nnz_(nnz), values_(values),
          columns_(columns), rowPtr_(row_ptr)
    {}

    friend class CsrStack;

    /**
     * Size the arena for exactly the row-pointer array plus @p nnz
     * stored entries (guarding the uint32 narrowing), and carve the
     * three SoA blocks. Row pointers start zeroed.
     */
    void allocateStorage(std::size_t nnz);

    /** Validate when the ANTSIM_AUDIT runtime switch is on. */
    void maybeValidate() const;

    std::uint32_t height_;
    std::uint32_t width_;
    std::uint32_t nnz_ = 0;
    float *values_ = nullptr;
    std::uint32_t *columns_ = nullptr;
    std::uint32_t *rowPtr_ = nullptr;
    /** The arrays' slab; empty for a stack plane, which borrows. */
    Arena arena_;
};

/**
 * A stack of same-shape CSR planes in one slab: the kernel stack a PE
 * streams back to back from one buffer (Sec. 4.3). The slab holds
 * every plane's row pointers, then every plane's values, then every
 * plane's columns, each region packed: plane i's row pointers start at
 * i x (height + 1), and its values and columns start where plane
 * i - 1's end. A plane is reachable only as a const CsrMatrix &
 * that borrows the slab: a copy of it is a compact matrix that owns
 * its memory, and no plane can be moved out of the stack or outlive
 * it. Moving the stack moves neither the slab nor its planes.
 *
 * A generator fills the planes in order. beginPlane hands out the next
 * plane's arrays with room for a stated number of entries, growing the
 * slab geometrically when the caller's sizing fell short; the
 * generator writes the entries and prefix-summed row pointers, and
 * endPlane closes the plane. validate() then checks every plane, each
 * in flat loops.
 */
class CsrStack
{
  public:
    /** The arrays of the plane being filled. */
    struct PlaneSlot
    {
        float *values;
        std::uint32_t *columns;
        /** height + 1 row pointers, zeroed. */
        std::uint32_t *rowPtr;
    };

    /**
     * A stack of @p count planes of @p height x @p width, none filled
     * yet, in one slab with @p entry_slots values and columns slots
     * (each plane takes one slot per entry).
     */
    CsrStack(std::uint32_t count, std::uint32_t height, std::uint32_t width,
             std::size_t entry_slots);

    CsrStack(CsrStack &&) noexcept = default;
    CsrStack &operator=(CsrStack &&) noexcept = default;
    CsrStack(const CsrStack &) = delete;
    CsrStack &operator=(const CsrStack &) = delete;

    /**
     * The arrays of the next plane, with room for @p max_nnz entries.
     * When the slab lacks that room it is reallocated at twice its
     * entry slots (at least enough), the planes so far copied over.
     */
    PlaneSlot beginPlane(std::size_t max_nnz);

    /** Close the plane beginPlane opened, which stored @p nnz entries. */
    void endPlane(std::size_t nnz);

    /**
     * Panics unless every plane is filled and satisfies
     * CsrMatrix::validate's invariants. Each plane is tested in flat
     * loops, without per-row inner loops; only a plane that fails runs
     * validate(), whose panic names the broken invariant.
     */
    void validate() const;

    /** Planes filled so far (all of them once validated). */
    std::size_t size() const { return planes_.size(); }

    /** Plane @p i, borrowing the slab. */
    const CsrMatrix &operator[](std::size_t i) const { return planes_[i]; }

    std::vector<CsrMatrix>::const_iterator
    begin() const
    {
        return planes_.cbegin();
    }

    std::vector<CsrMatrix>::const_iterator
    end() const
    {
        return planes_.cend();
    }

  private:
    /** Move the slab to one with @p entry_slots values/columns slots. */
    void grow(std::size_t entry_slots);

    /** Carve the row-pointer, values and columns regions of slab_. */
    void carve(std::size_t entry_slots);

    /** Plane @p i's row pointers in the row-pointer region. */
    std::uint32_t *
    rowPtrOf(std::size_t i) const
    {
        return rowPtrs_ + i * (static_cast<std::size_t>(height_) + 1);
    }

    std::uint32_t count_;
    std::uint32_t height_;
    std::uint32_t width_;
    /** Values (and columns) slots in the slab. */
    std::size_t entrySlots_ = 0;
    /** Values slots the closed planes take. */
    std::size_t used_ = 0;
    /** Room beginPlane promised the open plane. */
    std::size_t open_ = 0;
    bool planeOpen_ = false;
    std::uint32_t *rowPtrs_ = nullptr;
    float *values_ = nullptr;
    std::uint32_t *columns_ = nullptr;
    Arena slab_;
    std::vector<CsrMatrix> planes_;
};

} // namespace antsim

#endif // ANTSIM_TENSOR_CSR_HH
