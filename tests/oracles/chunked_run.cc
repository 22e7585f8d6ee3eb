#include "oracles/chunked_run.hh"

#include <limits>
#include <vector>

#include "sim/chunking.hh"

namespace antsim {

PeResult
runChunked(PeModel &pe, const ProblemSpec &spec, const CsrMatrix &kernel,
           const CsrMatrix &image, std::uint32_t capacity)
{
    if (!pe.usesCompressedOperands())
        capacity = std::numeric_limits<std::uint32_t>::max();
    const std::vector<CsrMatrix> kernel_chunks =
        chunkByCapacity(kernel, capacity);
    const std::vector<CsrMatrix> image_chunks =
        chunkByCapacity(image, capacity);

    PeResult total;
    total.output = Dense2d<double>(spec.outH(), spec.outW());
    for (const ChunkPair &pair : allChunkPairs(kernel_chunks, image_chunks)) {
        const PeResult r = pe.runPair(spec, *pair.kernel, *pair.image,
                                      /*collect_output=*/true);
        total.counters += r.counters;
        total.counters.add(Counter::TasksProcessed);
        for (std::size_t i = 0; i < total.output.data().size(); ++i)
            total.output.data()[i] += r.output.data()[i];
    }
    return total;
}

} // namespace antsim
