/**
 * @file
 * Tests for the 64-byte-aligned arena allocator (util/arena.hh) that
 * backs the SoA CSR storage: every values/columns/row-pointer
 * buffer of every construction path -- each plane of a CsrStack
 * included -- starts on a 64-byte boundary, every construction path
 * allocates exactly one slab (a generated trace plane, and a whole
 * generated kernel stack), a stack's planes borrow its slab, and a
 * stack's check rejects a plane that breaks a CSR invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Every CSR construction path hands out 64-byte-aligned SoA buffers,
 * so no buffer shares a cache line with another. */
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

    const CsrMatrix copy = from_dense; // a compact copy in its own slab
    check_csr(copy, "copy");
    EXPECT_TRUE(copy == from_dense);

    PlaneRecipe recipe = PlaneRecipe::plain(5, 7, 0.5,
                                            SparsifyMethod::Bernoulli);
    const CsrStack stack = generateCsrStack(recipe, 6, rng);
    for (const CsrMatrix &plane : stack)
        check_csr(plane, "stack plane");
    const CsrMatrix stack_copy = stack[3];
    check_csr(stack_copy, "copy of a stack plane");
    EXPECT_TRUE(stack_copy == stack[3]);
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

/** Each CSR factory, and so each generated trace plane, allocates
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
        {"copy", slabsAllocatedBy([&] { CsrMatrix copy(csr); })},
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
    // A whole kernel stack is one slab, of either method, dense or
    // sparse; its planes borrow it.
    const PlaneRecipe top_k_kernels =
        PlaneRecipe::plain(7, 7, 0.9, SparsifyMethod::TopK);
    const PlaneRecipe dense_kernels =
        PlaneRecipe::plain(3, 3, 0.0, SparsifyMethod::Bernoulli);
    const PlaneRecipe sparse_gradients =
        PlaneRecipe::plain(32, 32, 0.42, SparsifyMethod::Bernoulli);
    for (const PlaneRecipe &recipe :
         {rotated_kernel, top_k_kernels, dense_kernels, sparse_gradients}) {
        EXPECT_EQ(slabsAllocatedBy([&] { generateCsrStack(recipe, 64, rng); }),
                  1u)
            << "64-plane stack of " << recipe.height << "x" << recipe.width;
    }
    obs::metrics::reset();
    obs::metrics::setEnabled(false);
}

TEST(ArenaLayout, CopiedStackPlaneOutlivesItsStack)
{
    Rng rng(13);
    const PlaneRecipe recipe =
        PlaneRecipe::plain(16, 16, 0.5, SparsifyMethod::Bernoulli);
    std::vector<CsrMatrix> copies;
    std::vector<std::vector<float>> values;
    {
        const CsrStack stack = generateCsrStack(recipe, 8, rng);
        for (const CsrMatrix &plane : stack) {
            copies.push_back(plane);
            values.emplace_back(plane.values().begin(), plane.values().end());
        }
    }
    // The stack's slab is gone; the copies own theirs.
    for (std::size_t i = 0; i < copies.size(); ++i) {
        copies[i].validate();
        EXPECT_GT(copies[i].nnz(), 0u);
        EXPECT_TRUE(std::ranges::equal(copies[i].values(), values[i]))
            << "plane " << i;
    }
}

TEST(ArenaLayout, StackGrowsPastItsSizingAndKeepsItsPlanes)
{
    namespace m = obs::metrics;
    m::setEnabled(true);
    m::threadAttach();
    m::reset();
    // Room for no entry at all: every non-empty plane grows the slab
    // (geometrically), and the planes before it move along.
    CsrStack stack(4, 2, 3, 0);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const CsrStack::PlaneSlot slot = stack.beginPlane(6);
        for (std::uint32_t k = 0; k <= i; ++k) {
            slot.values[k] = static_cast<float>(10 * i + k + 1);
            slot.columns[k] = k % 3;
        }
        // Row 0 holds min(i + 1, 3) entries and row 1 the rest.
        slot.rowPtr[1] = std::min(i + 1, 3u);
        slot.rowPtr[2] = i + 1;
        stack.endPlane(i + 1);
    }
    stack.validate();
    EXPECT_GT(m::snapshot().counters[static_cast<std::size_t>(
                  m::Counter::ArenaSlabs)],
              1u);
    m::reset();
    m::setEnabled(false);
    ASSERT_EQ(stack.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const CsrMatrix &plane = stack[i];
        EXPECT_TRUE(aligned64(plane.values().data()));
        EXPECT_TRUE(aligned64(plane.columns().data()));
        EXPECT_TRUE(aligned64(plane.rowPtr().data()));
        ASSERT_EQ(plane.nnz(), i + 1);
        for (std::uint32_t k = 0; k <= i; ++k)
            EXPECT_EQ(plane.values()[k], static_cast<float>(10 * i + k + 1));
    }
}

/**
 * Check a stack of two 3x4 planes: plane 0 holds one entry per row,
 * and plane 1 holds @p columns under @p row_ptr and closes with
 * @p nnz entries.
 */
void
validateStackWith(const std::vector<std::uint32_t> &row_ptr,
                  const std::vector<std::uint32_t> &columns, std::size_t nnz)
{
    CsrStack stack(2, 3, 4, 16);
    CsrStack::PlaneSlot slot = stack.beginPlane(3);
    for (std::uint32_t y = 0; y < 3; ++y) {
        slot.values[y] = 1.0f;
        slot.columns[y] = y;
        slot.rowPtr[y + 1] = y + 1;
    }
    stack.endPlane(3);
    slot = stack.beginPlane(columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        slot.values[i] = 1.0f;
        slot.columns[i] = columns[i];
    }
    std::copy(row_ptr.begin(), row_ptr.end(), slot.rowPtr);
    stack.endPlane(nnz);
    stack.validate();
}

TEST(ArenaLayout, StackAcceptsADescentAtARowStartAfterAnEmptyRow)
{
    // Row 0 holds columns 1 and 3, row 1 is empty, row 2 holds column
    // 0: the one descent (3, 0) is row 2's first entry.
    validateStackWith({0, 2, 2, 3}, {1, 3, 0}, 3);
}

TEST(ArenaLayoutDeathTest, StackRejectsBadPlaneContents)
{
    EXPECT_DEATH(validateStackWith({0, 3, 3, 3}, {0, 2, 1}, 3),
                 "strictly increasing in row 0");
    EXPECT_DEATH(validateStackWith({0, 0, 3, 3}, {0, 2, 2}, 3),
                 "strictly increasing in row 1");
    EXPECT_DEATH(validateStackWith({0, 1, 2, 2}, {1, 4}, 2),
                 "column 4 out of width 4");
    EXPECT_DEATH(validateStackWith({0, 2, 1, 3}, {0, 1, 2}, 3),
                 "non-decreasing at row 1");
    EXPECT_DEATH(validateStackWith({0, 1, 2, 2}, {0, 1, 2}, 3),
                 "rowPtr back 2 != values size 3");
}

TEST(ArenaLayoutDeathTest, StackRejectsAnUnfilledOrOverfullPlane)
{
    EXPECT_DEATH(
        {
            CsrStack stack(2, 1, 1, 32);
            stack.endPlane(0);
        },
        "endPlane");
    EXPECT_DEATH(
        {
            CsrStack stack(1, 1, 1, 32);
            stack.beginPlane(1);
            stack.endPlane(2);
        },
        "endPlane");
    EXPECT_DEATH(
        {
            CsrStack stack(2, 1, 1, 32);
            stack.beginPlane(1);
            stack.endPlane(0);
            stack.validate();
        },
        "planes");
}

} // namespace
} // namespace antsim
