/**
 * @file
 * 64-byte-aligned arena (bump) allocator for SoA tensor storage.
 *
 * The CSR/CSC matrices and the census/plan structures keep their
 * values/columns/row-pointer arrays as separate structure-of-arrays
 * buffers carved out of one Arena slab. Every buffer starts on a
 * 64-byte boundary (one cache line, and the widest vector register
 * this simulator targets), so the SIMD kernels (util/simd.hh) can use
 * aligned loads and never straddle an allocation boundary.
 *
 * The arena is sized exactly once, up front, from the known element
 * counts -- construction paths count first and fill second, which is
 * also what removes the push_back reallocation churn the profile used
 * to show. Blocks are never freed individually; the whole slab goes
 * at once. Copying an Arena deep-copies the slab, so objects that
 * store byte offsets (never raw pointers) into their arena can use
 * defaulted copy/move semantics.
 */

#ifndef ANTSIM_UTIL_ARENA_HH
#define ANTSIM_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

// Slab accounting (counts, bytes, largest slab). Header-inline
// producer API only: one thread-local pointer branch when metrics are
// off, no ant_obs link dependency.
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace antsim {

/** Fixed-capacity bump allocator; every block is 64-byte aligned. */
class Arena
{
  public:
    /** Alignment of the slab and of every block carved from it. */
    static constexpr std::size_t kAlignment = 64;

    /** Round @p bytes up to the block alignment. */
    static constexpr std::size_t
    aligned(std::size_t bytes)
    {
        return (bytes + kAlignment - 1) & ~(kAlignment - 1);
    }

    /** An empty arena; alloc() panics until reset() gives it capacity. */
    Arena() = default;

    /** An arena with room for @p bytes (rounded up to the alignment). */
    explicit Arena(std::size_t bytes) { reset(bytes); }

    Arena(const Arena &o) { copyFrom(o); }

    Arena &
    operator=(const Arena &o)
    {
        if (this != &o) {
            release();
            copyFrom(o);
        }
        return *this;
    }

    Arena(Arena &&o) noexcept
        : slab_(o.slab_), capacity_(o.capacity_), used_(o.used_)
    {
        o.slab_ = nullptr;
        o.capacity_ = 0;
        o.used_ = 0;
    }

    Arena &
    operator=(Arena &&o) noexcept
    {
        if (this != &o) {
            release();
            slab_ = o.slab_;
            capacity_ = o.capacity_;
            used_ = o.used_;
            o.slab_ = nullptr;
            o.capacity_ = 0;
            o.used_ = 0;
        }
        return *this;
    }

    ~Arena() { release(); }

    /** Drop the slab and reallocate with room for @p bytes. */
    void
    reset(std::size_t bytes)
    {
        release();
        capacity_ = aligned(bytes);
        if (capacity_ > 0) {
            slab_ = static_cast<std::byte *>(::operator new(
                capacity_, std::align_val_t{kAlignment}));
            // Metered per slab, not per block: a slab is the one
            // allocation a CSR/CSC matrix makes.
            if (obs::metrics::shard() != nullptr) {
                obs::metrics::count(obs::metrics::Counter::ArenaSlabs);
                obs::metrics::count(obs::metrics::Counter::ArenaSlabBytes,
                                    capacity_);
                obs::metrics::gaugeMax(
                    obs::metrics::Gauge::ArenaHighWaterBytes,
                    static_cast<std::int64_t>(capacity_));
            }
        }
    }

    /**
     * Carve a 64-byte-aligned block of @p count objects of type T and
     * return its byte offset into the slab (offsets stay valid across
     * copies and moves; raw pointers do not). The block is
     * zero-initialized: the CSR builders rely on fresh row-pointer
     * arrays starting at zero.
     */
    template <typename T>
    std::size_t
    alloc(std::size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena blocks hold trivially copyable data only");
        static_assert(alignof(T) <= kAlignment);
        const std::size_t offset = used_;
        const std::size_t bytes = aligned(count * sizeof(T));
        ANT_ASSERT(bytes <= capacity_ - used_, "arena overflow: block of ",
                   bytes, " bytes does not fit in ", capacity_ - used_,
                   " remaining of ", capacity_);
        if (count > 0)
            std::memset(slab_ + offset, 0, count * sizeof(T));
        used_ += bytes;
        return offset;
    }

    /** Pointer to the block at byte offset @p offset. */
    template <typename T>
    T *
    ptr(std::size_t offset)
    {
        return reinterpret_cast<T *>(slab_ + offset);
    }

    template <typename T>
    const T *
    ptr(std::size_t offset) const
    {
        return reinterpret_cast<const T *>(slab_ + offset);
    }

    /** Bytes handed out so far (all blocks, with padding). */
    std::size_t used() const { return used_; }

    /** Slab capacity in bytes. */
    std::size_t capacity() const { return capacity_; }

  private:
    void
    release()
    {
        if (slab_ != nullptr) {
            ::operator delete(slab_, std::align_val_t{kAlignment});
            slab_ = nullptr;
        }
        capacity_ = 0;
        used_ = 0;
    }

    void
    copyFrom(const Arena &o)
    {
        capacity_ = o.capacity_;
        used_ = o.used_;
        if (capacity_ > 0) {
            slab_ = static_cast<std::byte *>(::operator new(
                capacity_, std::align_val_t{kAlignment}));
            if (used_ > 0)
                std::memcpy(slab_, o.slab_, used_);
        }
    }

    std::byte *slab_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t used_ = 0;
};

/**
 * Minimal growable array with 64-byte-aligned storage, for the PE
 * scratch buffers (candidate streams, merged kernel stacks) that the
 * SIMD kernels read. Holds trivially copyable types only; growth
 * copies with memcpy and never shrinks, matching how the PEs reuse one
 * scratch vector across thousands of groups.
 */
template <typename T>
class AlignedVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "AlignedVec holds trivially copyable data only");

  public:
    AlignedVec() = default;

    AlignedVec(const AlignedVec &) = delete;
    AlignedVec &operator=(const AlignedVec &) = delete;

    ~AlignedVec()
    {
        if (data_ != nullptr)
            ::operator delete(data_, std::align_val_t{Arena::kAlignment});
    }

    /** Grow to at least @p count elements (contents preserved). */
    void
    reserve(std::size_t count)
    {
        if (count <= capacity_)
            return;
        std::size_t want = capacity_ == 0 ? 64 : capacity_ * 2;
        if (want < count)
            want = count;
        T *grown = static_cast<T *>(::operator new(
            Arena::aligned(want * sizeof(T)),
            std::align_val_t{Arena::kAlignment}));
        if (size_ > 0)
            std::memcpy(grown, data_, size_ * sizeof(T));
        if (data_ != nullptr)
            ::operator delete(data_, std::align_val_t{Arena::kAlignment});
        data_ = grown;
        capacity_ = want;
        if (obs::metrics::shard() != nullptr) {
            const std::size_t bytes = Arena::aligned(want * sizeof(T));
            obs::metrics::count(obs::metrics::Counter::AlignedVecGrows);
            obs::metrics::count(
                obs::metrics::Counter::AlignedVecGrowBytes, bytes);
            obs::metrics::gaugeMax(
                obs::metrics::Gauge::AlignedVecHighWaterBytes,
                static_cast<std::int64_t>(bytes));
        }
    }

    /** Resize without initializing new elements beyond size(). */
    void
    resize(std::size_t count)
    {
        reserve(count);
        size_ = count;
    }

    void
    push_back(const T &v)
    {
        reserve(size_ + 1);
        data_[size_++] = v;
    }

    /** Append @p count elements copied from @p src (bulk vector copy). */
    void
    append(const T *src, std::size_t count)
    {
        reserve(size_ + count);
        if (count > 0)
            std::memcpy(data_ + size_, src, count * sizeof(T));
        size_ += count;
    }

    /** Append @p count copies of @p v (run-length fill). */
    void
    appendFill(const T &v, std::size_t count)
    {
        reserve(size_ + count);
        for (std::size_t i = 0; i < count; ++i)
            data_[size_ + i] = v;
        size_ += count;
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }

    T *data() { return data_; }
    const T *data() const { return data_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace antsim

#endif // ANTSIM_UTIL_ARENA_HH
