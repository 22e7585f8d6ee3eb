#include "fnir.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace antsim {

namespace {

/**
 * The comparator bank: one verdict bit per candidate into the
 * ceil(count / 64) words at @p bits. Both Fnir::evaluate (one window)
 * and Fnir::compareStream (a whole stream) run it.
 */
void
rangeBits(const std::uint32_t *s_indices, std::size_t count,
          std::int64_t min, std::int64_t max, std::uint64_t *bits)
{
#if defined(__x86_64__)
    if (Fnir::hasAvx2Bank()) {
        Fnir::rangeBitsAvx2(s_indices, count, min, max, bits);
        return;
    }
#endif
    Fnir::rangeBitsScalar(s_indices, count, min, max, bits);
}

} // namespace

void
Fnir::rangeBitsScalar(const std::uint32_t *s_indices, std::size_t count,
                      std::int64_t min, std::int64_t max, std::uint64_t *bits)
{
    for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, count - base);
        std::uint64_t word = 0;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const auto s = static_cast<std::int64_t>(s_indices[base + lane]);
            if (s >= min && s <= max)
                word |= 1ull << lane;
        }
        bits[base / 64] = word;
    }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void
Fnir::rangeBitsAvx2(const std::uint32_t *s_indices, std::size_t count,
                    std::int64_t min, std::int64_t max, std::uint64_t *bits)
{
    // Clamp the int64 bounds into the uint32 index domain; an empty
    // clamped interval means no lane can match.
    constexpr std::int64_t u32_max =
        std::numeric_limits<std::uint32_t>::max();
    if (max < 0 || min > u32_max || min > max) {
        std::fill(bits, bits + (count + 63) / 64, 0);
        return;
    }
    const auto lo = static_cast<std::uint32_t>(min < 0 ? 0 : min);
    const auto hi = static_cast<std::uint32_t>(max > u32_max ? u32_max
                                                             : max);
    const __m256i lov = _mm256_set1_epi32(static_cast<int>(lo));
    const __m256i hiv = _mm256_set1_epi32(static_cast<int>(hi));
    for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t lanes = std::min<std::size_t>(64, count - base);
        const std::uint32_t *s = s_indices + base;
        std::uint64_t word = 0;
        std::size_t lane = 0;
        for (; lane + 8 <= lanes; lane += 8) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(s + lane));
            // Unsigned compares via min/max: v >= lo iff max(v, lo) == v,
            // v <= hi iff min(v, hi) == v.
            const __m256i ge =
                _mm256_cmpeq_epi32(_mm256_max_epu32(v, lov), v);
            const __m256i le =
                _mm256_cmpeq_epi32(_mm256_min_epu32(v, hiv), v);
            const int lane_bits = _mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_and_si256(ge, le)));
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned>(lane_bits))
                << lane;
        }
        for (; lane < lanes; ++lane) {
            if (s[lane] >= lo && s[lane] <= hi)
                word |= 1ull << lane;
        }
        bits[base / 64] = word;
    }
}

#endif // __x86_64__

bool
Fnir::hasAvx2Bank()
{
#if defined(__x86_64__)
    static const bool avx2 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return avx2;
#else
    return false;
#endif
}

Fnir::Fnir(std::uint32_t n, std::uint32_t k) : n_(n), k_(k)
{
    ANT_ASSERT(n_ > 0, "FNIR needs at least one multiplier port");
    ANT_ASSERT(k_ > 0 && k_ <= 64,
               "FNIR window width must be in [1, 64], got ", k_);
}

std::uint64_t
Fnir::arbiterSelect(std::uint64_t request, std::uint32_t &position,
                    bool &valid)
{
    if (request == 0) {
        position = 0;
        valid = false;
        return request;
    }
    // Fixed-priority arbiter: the one-hot grant vector is the lowest
    // set bit, g = request AND (-request).
    const std::uint64_t grant = request & (~request + 1);
    position = static_cast<std::uint32_t>(__builtin_ctzll(grant));
    valid = true;
    // Forward the input with the granted bit cleared.
    return request & ~grant;
}

FnirResult
Fnir::selectFromMask(std::uint64_t mask) const
{
    // First n+1 priority encoder: n+1 serial Arbiter Select stages.
    FnirResult result;
    result.ports.resize(n_ + 1);
    std::uint64_t remaining = mask;
    for (std::uint32_t stage = 0; stage <= n_; ++stage) {
        remaining = arbiterSelect(remaining, result.ports[stage].position,
                                  result.ports[stage].valid);
    }
    return result;
}

FnirResult
Fnir::evaluate(std::span<const std::uint32_t> s_indices, std::int64_t min,
               std::int64_t max, CounterSet &counters) const
{
    ANT_ASSERT(s_indices.size() <= k_, "window of ", s_indices.size(),
               " exceeds FNIR width ", k_);

    // Comparator bank: 2 integer comparisons per lane per evaluation
    // (>= min and <= max); all k lanes switch every cycle.
    counters.add(Counter::IndexCompares, 2ull * k_);

    std::uint64_t mask = 0;
    rangeBits(s_indices.data(), s_indices.size(), min, max, &mask);
    return selectFromMask(mask);
}

void
Fnir::compareStream(std::span<const std::uint32_t> s_indices,
                    std::int64_t min, std::int64_t max, FnirRangeBits &bits)
{
    bits.size = s_indices.size();
    bits.words.assign((bits.size + 63) / 64 + 1, 0);
    rangeBits(s_indices.data(), s_indices.size(), min, max,
              bits.words.data());
}

FnirInRangeScan
Fnir::inRangeScan(std::size_t length) const
{
    ANT_ASSERT(length > 0 && k_ >= n_, "an in-range scan needs a "
               "candidate and k >= n, got ", length, " candidates at n ",
               n_, " k ", k_);
    // Window t is k wide while the L - t n lanes left reach k.
    const std::size_t full = length >= k_ ? (length - k_) / n_ + 1 : 0;
    return {length, n_, k_, (length + n_ - 1) / n_, full};
}

std::size_t
Fnir::idleWindows(const FnirRangeBits &bits, std::size_t pos) const
{
    // Distance to the next in-range lane (or the stream end), in whole
    // windows.
    std::size_t word = pos / 64;
    std::uint64_t lanes = bits.words[word] & (~0ull << (pos % 64));
    const std::size_t used = (bits.size + 63) / 64;
    while (lanes == 0 && ++word < used)
        lanes = bits.words[word];
    const std::size_t next = lanes != 0
        ? word * 64 + static_cast<std::size_t>(std::countr_zero(lanes))
        : bits.size;
    return (next - pos) / k_;
}

} // namespace antsim
