/**
 * @file
 * Chunked functional execution of one (kernel, image) pair, a test
 * helper: tests check that splitting operands into buffer-capacity
 * chunks (sim/chunking.hh) keeps the output and counters exact.
 */

#ifndef ANTSIM_ORACLES_CHUNKED_RUN_HH
#define ANTSIM_ORACLES_CHUNKED_RUN_HH

#include <cstdint>

#include "sim/pe_model.hh"

namespace antsim {

/**
 * Split both operands with chunkByCapacity at @p capacity (PEs without
 * compressed operands stream them whole, as in the runner), run every
 * allChunkPairs pair with runPair and collect_output, and sum the
 * results: counters (Cycles is the plain sum of PE cycles, and
 * TasksProcessed counts the pairs) and output planes.
 */
PeResult runChunked(PeModel &pe, const ProblemSpec &spec,
                    const CsrMatrix &kernel, const CsrMatrix &image,
                    std::uint32_t capacity);

} // namespace antsim

#endif // ANTSIM_ORACLES_CHUNKED_RUN_HH
