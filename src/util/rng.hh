/**
 * @file
 * Deterministic pseudo-random number generation for trace synthesis.
 *
 * ANTSim experiments must be exactly reproducible across runs and
 * platforms, so we implement xoshiro256** ourselves rather than relying
 * on implementation-defined std::default_random_engine behaviour, and we
 * provide distribution helpers with fully specified algorithms.
 */

#ifndef ANTSIM_UTIL_RNG_HH
#define ANTSIM_UTIL_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace antsim {

/**
 * xoshiro256** generator (public-domain algorithm by Blackman & Vigna).
 *
 * Seeded through SplitMix64 so that any 64-bit seed produces a
 * well-mixed state. next, uniform, the Bernoulli trials and drawNormal
 * are defined inline: the trace generator calls them once or more per
 * plane cell, and on a local copy of the generator the state then
 * stays in registers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using rejection sampling. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * The integer form of bernoulli(@p p): bernoulliBelow of this
     * threshold returns what bernoulli(p) would, draw for draw. The
     * draw m = next() >> 11 is a 53-bit integer and uniform() is
     * m * 2^-53, so uniform() < p iff m < p * 2^53 (scaling by a power
     * of two is exact in double) iff m < ceil(p * 2^53). The threshold
     * is 0 for p <= 0 (or NaN) and 2^53 for p >= 1.
     */
    static std::uint64_t
    bernoulliThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return 1ull << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /**
     * Bernoulli trial against a bernoulliThreshold: one draw, an
     * integer compare and no conversion to double.
     */
    bool
    bernoulliBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double normal();

    /** The two uniforms one normal() consumes, in draw order. */
    struct NormalDraw
    {
        /** Radius uniform in (0, 1): zero draws are redrawn. */
        double u1;
        /** Angle uniform in [0, 1). */
        double u2;
    };

    /**
     * Draw the uniforms of one normal(), consuming exactly its stream:
     * u1 with its zero-rejection loop, then u2.
     */
    NormalDraw
    drawNormal()
    {
        // Draw until the radius uniform is non-zero so log() is finite.
        double u1 = uniform();
        while (u1 <= 0.0)
            u1 = uniform();
        return {u1, uniform()};
    }

    /**
     * floor(256 u2) of drawNormal()'s angle uniform, consuming exactly
     * its stream, in integer form: the zero test u1 <= 0.0 is
     * (next() >> 11) == 0, and floor(256 (next() >> 11) 2^-53) is
     * next() >> 56, both exact. The Bernoulli trace planes need only
     * this byte of a kept cell's normal (workload/tracegen.hh).
     */
    std::uint32_t
    drawNormalAngleByte()
    {
        while ((next() >> 11) == 0) {
        }
        return static_cast<std::uint32_t>(next() >> 56);
    }

    /**
     * The Box-Muller transform sqrt(-2 ln u1) * cos(2 pi u2), so
     * normal() == boxMuller(drawNormal()). Its magnitude never exceeds
     * the radius sqrt(-2 ln u1), which the top-K trace generator's
     * pre-filter relies on (workload/tracegen.hh).
     */
    static double boxMuller(const NormalDraw &draw);

    /**
     * Sample @p count distinct indices from [0, n) (Floyd's algorithm),
     * returned unsorted. Requires count <= n. Each draw is checked
     * against the samples so far by a linear scan, so the work is
     * O(count^2).
     */
    std::vector<std::uint32_t> sampleWithoutReplacement(std::uint32_t n,
                                                        std::uint32_t count);

    /** Derive an independent child generator (for per-plane streams). */
    Rng split();

    /**
     * The generator's full 256-bit state. Two Rng objects with equal
     * state produce identical streams forever, so tests compare states
     * to prove two generation paths consumed the same draws.
     */
    std::array<std::uint64_t, 4> state() const;

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace antsim

#endif // ANTSIM_UTIL_RNG_HH
