#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace antsim {

namespace {

/** SplitMix64 step used for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    ANT_ASSERT(bound > 0, "Rng::below requires a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    ANT_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::normal()
{
    return boxMuller(drawNormal());
}

double
Rng::boxMuller(const NormalDraw &draw)
{
    const double two_pi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(draw.u1)) * std::cos(two_pi * draw.u2);
}

std::vector<std::uint32_t>
Rng::sampleWithoutReplacement(std::uint32_t n, std::uint32_t count)
{
    ANT_ASSERT(count <= n, "cannot sample ", count, " items from ", n);
    // Floyd's algorithm, deterministic given state; the seen check
    // scans result, so the work is O(count^2).
    std::vector<std::uint32_t> result;
    result.reserve(count);
    for (std::uint32_t j = n - count; j < n; ++j) {
        const auto t = static_cast<std::uint32_t>(below(j + 1));
        bool seen = false;
        for (auto v : result) {
            if (v == t) {
                seen = true;
                break;
            }
        }
        result.push_back(seen ? j : t);
    }
    return result;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefull);
}

std::array<std::uint64_t, 4>
Rng::state() const
{
    return {s_[0], s_[1], s_[2], s_[3]};
}

} // namespace antsim
