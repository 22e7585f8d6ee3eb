/**
 * @file
 * Tests for the 64-byte-aligned arena allocator (util/arena.hh) that
 * backs the SoA CSR/CSC storage, and for the alignment guarantee the
 * SIMD kernels (docs/MODEL.md Sec. 11) rely on: every values/columns/
 * row-pointer buffer of every construction path starts on a 64-byte
 * boundary, and every construction path -- a generated trace plane
 * included -- allocates exactly one slab.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/arena.hh"
#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

bool
aligned64(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment == 0;
}

TEST(Arena, AlignedRoundsUpToBlockAlignment)
{
    EXPECT_EQ(Arena::aligned(0), 0u);
    EXPECT_EQ(Arena::aligned(1), 64u);
    EXPECT_EQ(Arena::aligned(64), 64u);
    EXPECT_EQ(Arena::aligned(65), 128u);
}

TEST(Arena, EveryBlockIs64ByteAligned)
{
    Arena arena(1024);
    // Odd-sized blocks so misalignment would show immediately.
    const std::size_t a = arena.alloc<float>(3);
    const std::size_t b = arena.alloc<std::uint32_t>(7);
    const std::size_t c = arena.alloc<std::uint8_t>(1);
    EXPECT_TRUE(aligned64(arena.ptr<float>(a)));
    EXPECT_TRUE(aligned64(arena.ptr<std::uint32_t>(b)));
    EXPECT_TRUE(aligned64(arena.ptr<std::uint8_t>(c)));
    EXPECT_EQ(arena.used() % Arena::kAlignment, 0u);
}

TEST(Arena, BlocksAreZeroInitialized)
{
    Arena arena(256);
    const std::size_t off = arena.alloc<std::uint32_t>(16);
    const std::uint32_t *p = arena.ptr<std::uint32_t>(off);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(p[i], 0u);
}

TEST(Arena, CopyIsDeepAndOffsetsStayValid)
{
    Arena a(256);
    const std::size_t off = a.alloc<std::uint32_t>(4);
    a.ptr<std::uint32_t>(off)[0] = 7;

    Arena b(a);
    EXPECT_EQ(b.ptr<std::uint32_t>(off)[0], 7u);
    // Mutating the original must not show through the copy.
    a.ptr<std::uint32_t>(off)[0] = 99;
    EXPECT_EQ(b.ptr<std::uint32_t>(off)[0], 7u);
    EXPECT_TRUE(aligned64(b.ptr<std::uint32_t>(off)));
}

TEST(Arena, MoveTransfersTheSlab)
{
    Arena a(256);
    const std::size_t off = a.alloc<float>(2);
    a.ptr<float>(off)[1] = 2.5f;
    const Arena b(std::move(a));
    EXPECT_EQ(b.ptr<float>(off)[1], 2.5f);
    EXPECT_EQ(a.capacity(), 0u); // NOLINT: moved-from state is defined
}

TEST(ArenaDeathTest, OverflowPanicsInsteadOfCorrupting)
{
    Arena arena(64);
    arena.alloc<std::uint32_t>(16); // fills the slab exactly
    EXPECT_DEATH(arena.alloc<std::uint32_t>(1), "arena overflow");
}

TEST(AlignedVec, StorageStays64ByteAlignedAcrossGrowth)
{
    AlignedVec<std::uint32_t> v;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        v.push_back(i);
        ASSERT_TRUE(aligned64(v.data()));
    }
    for (std::uint32_t i = 0; i < 1000; ++i)
        ASSERT_EQ(v[i], i);
}

TEST(AlignedVec, AppendAndFillMatchPushBack)
{
    const std::vector<std::uint32_t> src = {5, 4, 3, 2, 1};
    AlignedVec<std::uint32_t> v;
    v.append(src.data(), src.size());
    v.appendFill(9u, 3);
    ASSERT_EQ(v.size(), 8u);
    for (std::size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(v[i], src[i]);
    for (std::size_t i = src.size(); i < 8; ++i)
        EXPECT_EQ(v[i], 9u);
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_GE(v.capacity(), 8u); // clear keeps the allocation
}

/** Every CSR/CSC construction path must hand out 64-byte-aligned SoA
 * buffers -- this is what lets the SIMD kernels use full-width loads
 * without a peeling prologue. */
TEST(ArenaLayout, AllCsrConstructionPathsAre64ByteAligned)
{
    Rng rng(11);
    const Dense2d<float> plane = bernoulliPlane(13, 9, 0.5, rng);

    const auto check_csr = [](const CsrMatrix &m, const char *what) {
        EXPECT_TRUE(aligned64(m.values().data())) << what;
        EXPECT_TRUE(aligned64(m.columns().data())) << what;
        EXPECT_TRUE(aligned64(m.rowPtr().data())) << what;
    };

    const CsrMatrix from_dense = CsrMatrix::fromDense(plane);
    check_csr(from_dense, "fromDense");
    check_csr(from_dense.rotated180(), "rotated180");
    check_csr(from_dense.transposed(), "transposed");
    check_csr(CsrMatrix(4, 4), "empty");
    const std::vector<float> raw_values{1.0f, 2.0f};
    const std::vector<std::uint32_t> raw_columns{0, 2};
    const std::vector<std::uint32_t> raw_row_ptr{0, 1, 2};
    check_csr(CsrMatrix::fromRaw(2, 3, raw_values, raw_columns, raw_row_ptr),
              "fromRaw");
    check_csr(CsrMatrix::fromCoo(3, 3, {{1.0f, 2, 1}, {3.0f, 0, 0}}),
              "fromCoo");

    const CsrMatrix copy = from_dense; // offsets survive the deep copy
    check_csr(copy, "copy");
    EXPECT_TRUE(copy == from_dense);

    const auto check_csc = [](const CscMatrix &m, const char *what) {
        EXPECT_TRUE(aligned64(m.values().data())) << what;
        EXPECT_TRUE(aligned64(m.rows().data())) << what;
        EXPECT_TRUE(aligned64(m.colPtr().data())) << what;
    };
    check_csc(CscMatrix::fromDense(plane), "csc fromDense");
    check_csc(CscMatrix::fromCsr(from_dense), "csc fromCsr");
}

/** Arena slabs the calling thread allocates while running @p build. */
template <typename Build>
std::uint64_t
slabsAllocatedBy(const Build &build)
{
    namespace m = obs::metrics;
    m::reset();
    build();
    return m::snapshot().counters[static_cast<std::size_t>(
        m::Counter::ArenaSlabs)];
}

/** Each CSR/CSC factory, and so each generated trace plane, allocates
 * exactly one slab (metered per slab by Arena::reset). */
TEST(ArenaLayout, EveryFactoryAllocatesOneSlab)
{
    obs::metrics::setEnabled(true);
    obs::metrics::threadAttach();
    Rng rng(12);
    const Dense2d<float> plane = bernoulliPlane(13, 9, 0.5, rng);
    const CsrMatrix csr = CsrMatrix::fromDense(plane);
    const std::vector<std::pair<const char *, std::uint64_t>> slabs = {
        {"fromDense", slabsAllocatedBy([&] { CsrMatrix::fromDense(plane); })},
        {"fromRaw", slabsAllocatedBy([] {
             const std::vector<float> values{1.0f, 2.0f};
             const std::vector<std::uint32_t> columns{0, 2};
             const std::vector<std::uint32_t> row_ptr{0, 1, 2};
             CsrMatrix::fromRaw(2, 3, values, columns, row_ptr);
         })},
        {"fromCoo", slabsAllocatedBy([] {
             CsrMatrix::fromCoo(3, 3, {{1.0f, 2, 1}, {3.0f, 0, 0}});
         })},
        {"empty", slabsAllocatedBy([] { CsrMatrix(4, 4); })},
        {"slice", slabsAllocatedBy([&] { csr.slice(1, 5); })},
        {"rotated180", slabsAllocatedBy([&] { csr.rotated180(); })},
        {"transposed", slabsAllocatedBy([&] { csr.transposed(); })},
        {"csc fromDense", slabsAllocatedBy([&] { CscMatrix::fromDense(plane); })},
        {"csc fromCsr", slabsAllocatedBy([&] { CscMatrix::fromCsr(csr); })},
    };
    for (const auto &[what, count] : slabs)
        EXPECT_EQ(count, 1u) << what;

    PlaneRecipe rotated_kernel =
        PlaneRecipe::plain(3, 3, 0.5, SparsifyMethod::Bernoulli);
    rotated_kernel.rotate = true;
    PlaneRecipe padded_image =
        PlaneRecipe::plain(30, 30, 0.9, SparsifyMethod::TopK);
    padded_image.outHeight = padded_image.outWidth = 32;
    padded_image.offset = 1;
    for (const PlaneRecipe &recipe : {rotated_kernel, padded_image}) {
        EXPECT_EQ(slabsAllocatedBy([&] { generateCsrPlane(recipe, rng); }),
                  1u)
            << "generated plane, rotate " << recipe.rotate;
    }
    obs::metrics::reset();
    obs::metrics::setEnabled(false);
}

} // namespace
} // namespace antsim
