/**
 * @file
 * One metered slab carved into typed blocks, for SoA tensor storage.
 *
 * A CSR matrix keeps its row-pointer, values and columns arrays as
 * structure-of-arrays blocks of one Arena slab, and a CsrStack keeps a
 * whole kernel stack in one. Blocks are packed back to back, each at
 * its element type's natural alignment, so a matrix's slab is exactly
 * its payload plus its metadata. No writer may store past a block's
 * last entry.
 *
 * The arena is sized once, up front, from the known element counts --
 * construction paths count first and fill second, which is also what
 * removes the push_back reallocation churn the profile used to show (a
 * CsrStack sized from an estimate moves to a larger slab on overflow).
 * Blocks are never freed individually; the whole slab goes at once.
 * An Arena is move-only: an owner that copies allocates a slab of its
 * own (CsrMatrix's copy is compact).
 */

#ifndef ANTSIM_UTIL_ARENA_HH
#define ANTSIM_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

// Slab accounting (counts, bytes, largest slab). Header-inline
// producer API only: one thread-local pointer branch when metrics are
// off, no ant_obs link dependency.
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace antsim {

/** Fixed-capacity bump allocator over one slab. */
class Arena
{
  public:
    /** An empty arena; alloc() panics on any block that is not empty. */
    Arena() = default;

    /** An arena with one slab of exactly @p bytes (none for 0). */
    explicit Arena(std::size_t bytes) : capacity_(bytes)
    {
        if (bytes == 0)
            return;
        slab_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
        // Metered per slab, not per block: a slab is the one
        // allocation a CSR matrix, or a whole CsrStack, makes.
        if (obs::metrics::shard() != nullptr) {
            obs::metrics::count(obs::metrics::Counter::ArenaSlabs);
            obs::metrics::count(obs::metrics::Counter::ArenaSlabBytes,
                                bytes);
            obs::metrics::gaugeMax(obs::metrics::Gauge::ArenaHighWaterBytes,
                                   static_cast<std::int64_t>(bytes));
        }
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    Arena(Arena &&o) noexcept
        : slab_(std::move(o.slab_)), capacity_(std::exchange(o.capacity_, 0)),
          used_(std::exchange(o.used_, 0))
    {}

    Arena &
    operator=(Arena &&o) noexcept
    {
        slab_ = std::move(o.slab_);
        capacity_ = std::exchange(o.capacity_, 0);
        used_ = std::exchange(o.used_, 0);
        return *this;
    }

    /**
     * The next @p count objects of type T, right after the previous
     * block, zero-initialized: the CSR builders rely on fresh
     * row-pointer arrays starting at zero.
     */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        T *block = allocUninitialized<T>(count);
        if (count > 0)
            std::memset(block, 0, count * sizeof(T));
        return block;
    }

    /**
     * alloc without the zero fill, for a block the caller writes before
     * it reads it (values and columns).
     */
    template <typename T>
    T *
    allocUninitialized(std::size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena blocks hold trivially copyable data only");
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        ANT_ASSERT(used_ % alignof(T) == 0, "arena block at byte ", used_,
                   " is misaligned for its ", alignof(T),
                   "-byte element type");
        const std::size_t bytes = count * sizeof(T);
        ANT_ASSERT(bytes <= capacity_ - used_, "arena overflow: block of ",
                   bytes, " bytes does not fit in ", capacity_ - used_,
                   " remaining of ", capacity_);
        T *block = reinterpret_cast<T *>(slab_.get() + used_);
        used_ += bytes;
        return block;
    }

    /** Slab capacity in bytes. */
    std::size_t capacity() const { return capacity_; }

  private:
    std::unique_ptr<std::byte[]> slab_;
    std::size_t capacity_ = 0;
    std::size_t used_ = 0;
};

} // namespace antsim

#endif // ANTSIM_UTIL_ARENA_HH
