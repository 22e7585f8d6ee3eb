/**
 * @file
 * First n+1 Indices within Range (FNIR) block -- bit-level model.
 *
 * The FNIR block (Sec. 4.4, Fig. 8) is combinational logic with two
 * parts:
 *
 *  1. k comparator blocks that, in parallel, test each candidate s
 *     index against [min, max], producing a k-bit request mask;
 *  2. a "first n+1" priority encoder built from n+1 serial
 *     Arbiter Select stages. Each stage is a fixed-priority arbiter:
 *     it grants the lowest set bit of its input (one-hot g), outputs
 *     the granted position in binary plus a valid bit, and forwards
 *     in AND NOT g to the next stage.
 *
 * The first n outputs select kernel values for the multiplier array;
 * the n+1-st output feeds back to the Kernel Indices Buffer controller
 * to set the next scan offset (Sec. 4.2, step 5).
 *
 * This model is bit-accurate: the arbiter-select chain is implemented
 * exactly as the hardware composition (tests check it against a naive
 * first-n+1 scan), and the same block drives both the ANT PE cycle
 * model and the area/delay estimator (Sec. 7.5).
 *
 * The ANT PE's counting runs need only what each window decides -- how
 * many ports fire and where the next window starts -- so they use a
 * stream form: one comparator pass over a group's whole candidate
 * stream into a bitset (compareStream), then a walk over its set bits
 * (window, inline and division-free, and idleWindows for runs of
 * empty windows). A stream whose candidates all lie in range needs
 * neither: its walk follows from its length alone (inRangeScan), so
 * such a stream is never compared or walked. tests/fnir_test.cc checks
 * the walk against evaluate() window by window, and the closed form
 * against the walk.
 */

#ifndef ANTSIM_ANT_FNIR_HH
#define ANTSIM_ANT_FNIR_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.hh"
#include "util/counters.hh"

namespace antsim {

/** One FNIR output port: a selected position and its valid bit. */
struct FnirOutput
{
    /** Binary-encoded position into the k-wide input window. */
    std::uint32_t position = 0;
    /** Whether this port selected anything. */
    bool valid = false;
};

/** Result of one combinational FNIR evaluation. */
struct FnirResult
{
    /** n+1 ports: first n feed the multiplier, last is the feedback. */
    std::vector<FnirOutput> ports;

    /** Number of valid multiplier-facing ports (first n). */
    std::uint32_t
    selectedCount() const
    {
        std::uint32_t count = 0;
        for (std::size_t i = 0; i + 1 < ports.size(); ++i)
            count += ports[i].valid ? 1 : 0;
        return count;
    }

    /** The n+1-st (feedback) port. */
    const FnirOutput &feedback() const { return ports.back(); }
};

/**
 * The comparator bank's verdicts over a whole candidate stream: bit i
 * of words (little-endian across words) is set when candidate i lies
 * in range. One zero word follows the last used one, so a k-lane
 * window read at any position in [0, size) needs no bounds check.
 */
struct FnirRangeBits
{
    std::vector<std::uint64_t> words;
    /** Candidates in the stream. */
    std::size_t size = 0;
};

/** One FNIR window of a stream scan (Sec. 4.2, steps 4-5). */
struct FnirWindow
{
    /** Lanes fed: k, or fewer where the window is clamped at the end. */
    std::uint32_t width = 0;
    /** Multiplier-facing ports that selected a candidate. */
    std::uint32_t selected = 0;
    /** Stream position of the next window. */
    std::size_t next = 0;
};

/**
 * The walk over a stream of length L >= 1 whose candidates all lie in
 * range, in closed form (Fnir::inRangeScan). Window t starts at t n: it
 * is min(k, L - t n) lanes wide and selects min(n, L - t n). Every
 * window but the last selects n and hands over n lanes on (to the
 * n+1-st lane when k > n, right after the window when k == n); the
 * last holds the r = L - (windows - 1) n <= n lanes left and selects
 * them all. No window idles.
 */
struct FnirInRangeScan
{
    /** Candidates in the stream. */
    std::size_t length = 0;
    std::uint32_t n = 0;
    std::uint32_t k = 0;
    /** Windows: ceil(length / n). */
    std::size_t windows = 0;
    /**
     * The leading windows that are k lanes wide; at most ceil(k / n)
     * narrower ones follow.
     */
    std::size_t fullWindows = 0;

    /** Lanes window @p t < windows is fed. */
    std::uint32_t
    width(std::size_t t) const
    {
        return t < fullWindows ? k
                               : static_cast<std::uint32_t>(length - t * n);
    }

    /** Ports window @p t < windows fills. */
    std::uint32_t
    selected(std::size_t t) const
    {
        return static_cast<std::uint32_t>(
            std::min<std::size_t>(n, length - t * n));
    }

    /**
     * Record what the walk records over these windows: one
     * FnirValidPartners sample per window (n, ..., n, r) and one
     * active cycle each.
     */
    void
    record(obs::UnitRecorder &rec) const
    {
        for (std::size_t t = 0; t + 1 < windows; ++t)
            rec.hist(obs::HistId::FnirValidPartners, n);
        rec.hist(obs::HistId::FnirValidPartners, selected(windows - 1));
        rec.advance(obs::SpanKind::Active, windows);
    }
};

/** Combinational FNIR block with parameters n and k. */
class Fnir
{
  public:
    /**
     * @param n Multiplier-array dimension: n+1 ports are produced.
     * @param k Input window width (Table 4 default 16).
     */
    Fnir(std::uint32_t n, std::uint32_t k);

    std::uint32_t n() const { return n_; }
    std::uint32_t k() const { return k_; }

    /**
     * Evaluate one window of uint32 candidate indices straight from a
     * CSR columns array (the ANT PE's SoA candidate stream).
     *
     * @param s_indices Up to k candidate s indices; a short span
     *        models a window clamped at the end of the buffer (the
     *        missing comparator lanes are treated as out of range).
     * @param min Inclusive lower bound (s_min).
     * @param max Inclusive upper bound (s_max).
     * @param counters Charged k comparator operations (2 integer
     *        compares per lane) per evaluation.
     */
    FnirResult evaluate(std::span<const std::uint32_t> s_indices,
                        std::int64_t min, std::int64_t max,
                        CounterSet &counters) const;

    /**
     * Run the comparator bank over a whole candidate stream, with the
     * same verdict per candidate as evaluate(). Charges nothing: a
     * stream scan charges 2k compares per window it evaluates.
     */
    static void compareStream(std::span<const std::uint32_t> s_indices,
                              std::int64_t min, std::int64_t max,
                              FnirRangeBits &bits);

    /**
     * The comparator bank, scalar ground truth: bit i of the
     * ceil(count / 64) words at @p bits is set when s_indices[i]
     * (zero-extended) lies in [min, max]. evaluate() and
     * compareStream() run rangeBitsAvx2 instead exactly when
     * hasAvx2Bank(); both banks are exposed so tests and micro benches
     * can compare them.
     */
    static void rangeBitsScalar(const std::uint32_t *s_indices,
                                std::size_t count, std::int64_t min,
                                std::int64_t max, std::uint64_t *bits);

#if defined(__x86_64__)
    /**
     * The same bank, eight lanes per AVX2 compare, with the same bits
     * as rangeBitsScalar. Call it only where hasAvx2Bank().
     */
    static void rangeBitsAvx2(const std::uint32_t *s_indices,
                              std::size_t count, std::int64_t min,
                              std::int64_t max, std::uint64_t *bits);
#endif

    /**
     * Whether this CPU runs rangeBitsAvx2: an x86-64 build on a CPU
     * that reports AVX2, checked once.
     */
    static bool hasAvx2Bank();

    /**
     * The window of @p bits starting at @p pos < bits.size, counted
     * instead of arbitrated: with c in-range lanes among the first
     * min(k, size - pos), selected = min(c, n), and the next window
     * starts at the n+1-st in-range lane when c > n, else right after
     * this one. Equal to evaluate() on the same lanes (selectedCount
     * and the feedback port), window by window. Inline, and free of
     * divisions, because the ANT PE's counting walk calls it once per
     * window.
     */
    FnirWindow window(const FnirRangeBits &bits, std::size_t pos) const;

    /**
     * Full k-lane windows from @p pos on that hold no in-range lane,
     * each of which selects nothing and hands over to the next k lanes.
     * It divides by k, so the counting walk calls it only from a window
     * that selects nothing.
     */
    std::size_t idleWindows(const FnirRangeBits &bits,
                            std::size_t pos) const;

    /**
     * The windows of a stream of @p length >= 1 candidates that all lie
     * in range: window() over an all-ones bitset, in closed form. Its
     * two divisions replace a walk of ceil(length / n) windows, so the
     * counting walk calls it for a whole group's stream.
     */
    FnirInRangeScan inRangeScan(std::size_t length) const;

    /**
     * The arbiter-select primitive: grant the lowest set bit of
     * @p request; returns the granted position via @p position /
     * @p valid and the request vector with that bit cleared.
     * Exposed for unit tests and the area model.
     */
    static std::uint64_t arbiterSelect(std::uint64_t request,
                                       std::uint32_t &position, bool &valid);

  private:
    /** Run the n+1 serial arbiter stages over a request mask. */
    FnirResult selectFromMask(std::uint64_t mask) const;

    std::uint32_t n_;
    std::uint32_t k_;
};

inline FnirWindow
Fnir::window(const FnirRangeBits &bits, std::size_t pos) const
{
    const auto width =
        static_cast<std::uint32_t>(std::min<std::size_t>(k_, bits.size - pos));
    // The window's lanes, lowest first: a 64-bit funnel shift across
    // the two words it can touch (the trailing zero word keeps the
    // second read in bounds).
    const std::size_t word = pos / 64;
    const unsigned offset = pos % 64;
    std::uint64_t lanes = bits.words[word] >> offset;
    if (offset != 0)
        lanes |= bits.words[word + 1] << (64 - offset);
    if (width < 64)
        lanes &= (1ull << width) - 1;

    // The first n in-range lanes fill the ports (cleared lowest first,
    // which needs no popcount: without a popcnt target it is a libgcc
    // call); the lowest one left is the n+1-st, where the feedback
    // restarts the scan.
    std::uint32_t selected = 0;
    for (std::uint32_t port = 0; port < n_; ++port) {
        selected += lanes != 0 ? 1 : 0;
        lanes &= lanes - 1;
    }
    if (lanes == 0)
        return {width, selected, pos + width};
    return {width, n_,
            pos + static_cast<std::size_t>(std::countr_zero(lanes))};
}

} // namespace antsim

#endif // ANTSIM_ANT_FNIR_HH
