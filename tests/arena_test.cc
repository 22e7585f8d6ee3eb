/**
 * @file
 * Tests for the arena allocator (util/arena.hh) that backs the SoA CSR
 * storage: every construction path allocates exactly one slab (a
 * generated trace plane, and a whole generated kernel stack), holding
 * exactly its arrays at natural alignment; a stack's planes borrow its
 * slab and sit back to back in it; and a stack's check rejects a plane
 * that breaks a CSR invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
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

TEST(Arena, BlocksAreZeroInitialized)
{
    Arena arena(256);
    const std::uint32_t *p = arena.alloc<std::uint32_t>(16);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(p[i], 0u);
}

TEST(Arena, MoveTransfersTheSlab)
{
    Arena a(256);
    float *block = a.alloc<float>(2);
    block[1] = 2.5f;
    const Arena b(std::move(a));
    EXPECT_EQ(block[1], 2.5f); // the slab moved, its blocks did not
    EXPECT_EQ(b.capacity(), 256u);
    EXPECT_EQ(a.capacity(), 0u); // NOLINT: moved-from state is defined
}

TEST(ArenaDeathTest, OverflowPanicsInsteadOfCorrupting)
{
    Arena arena(64);
    arena.alloc<std::uint32_t>(16); // fills the slab exactly
    EXPECT_DEATH(arena.alloc<std::uint32_t>(1), "arena overflow");
}

/**
 * Arena slabs the calling thread allocates while running @p build, or
 * their bytes with @p counter ArenaSlabBytes.
 */
template <typename Build>
std::uint64_t
slabsAllocatedBy(const Build &build, obs::metrics::Counter counter =
                                         obs::metrics::Counter::ArenaSlabs)
{
    namespace m = obs::metrics;
    m::reset();
    build();
    return m::snapshot().counters[static_cast<std::size_t>(counter)];
}

/** Bytes of a matrix's arrays: height + 1 row pointers, nnz values and
 * nnz columns, four bytes each. */
std::uint64_t
arrayBytes(const CsrMatrix &m)
{
    return (static_cast<std::uint64_t>(m.height()) + 1 + 2ull * m.nnz()) * 4;
}

/** Each CSR factory's one slab holds exactly the matrix's three arrays,
 * with no padding between or after them. */
TEST(ArenaLayout, EveryFactorySlabHoldsExactlyItsArrays)
{
    obs::metrics::setEnabled(true);
    obs::metrics::threadAttach();
    Rng rng(11);
    const Dense2d<float> plane = bernoulliPlane(13, 9, 0.5, rng);
    const CsrMatrix from_dense = CsrMatrix::fromDense(plane);
    ASSERT_GT(from_dense.nnz(), 5u);
    const std::vector<float> raw_values{1.0f, 2.0f};
    const std::vector<std::uint32_t> raw_columns{0, 2};
    const std::vector<std::uint32_t> raw_row_ptr{0, 1, 2};
    const CsrStack stack = generateCsrStack(
        PlaneRecipe::plain(5, 7, 0.5, SparsifyMethod::Bernoulli), 6, rng);
    PlaneRecipe padded_image =
        PlaneRecipe::plain(30, 30, 0.9, SparsifyMethod::TopK);
    padded_image.outHeight = padded_image.outWidth = 32;
    padded_image.offset = 1;

    // Each case builds its matrix inside the metered window and hands
    // it out, so its size is checked against the bytes it allocated.
    std::vector<std::pair<const char *, std::function<CsrMatrix()>>> cases;
    cases.emplace_back("empty", [] { return CsrMatrix(4, 4); });
    cases.emplace_back("fromDense",
                       [&] { return CsrMatrix::fromDense(plane); });
    cases.emplace_back("fromRaw", [&] {
        return CsrMatrix::fromRaw(2, 3, raw_values, raw_columns,
                                  raw_row_ptr);
    });
    cases.emplace_back("fromCoo", [] {
        return CsrMatrix::fromCoo(3, 3, {{1.0f, 2, 1}, {3.0f, 0, 0}});
    });
    cases.emplace_back("rotated180",
                       [&] { return from_dense.rotated180(); });
    cases.emplace_back("transposed",
                       [&] { return from_dense.transposed(); });
    cases.emplace_back("slice", [&] { return from_dense.slice(1, 5); });
    cases.emplace_back("copy", [&] { return CsrMatrix(from_dense); });
    cases.emplace_back("copy of a stack plane",
                       [&] { return CsrMatrix(stack[3]); });
    cases.emplace_back("generateCsrPlane", [&] {
        return generateCsrPlane(padded_image, rng);
    });
    for (const auto &[what, build] : cases) {
        std::optional<CsrMatrix> built;
        const std::uint64_t bytes =
            slabsAllocatedBy([&] { built.emplace(build()); },
                             obs::metrics::Counter::ArenaSlabBytes);
        ASSERT_TRUE(built.has_value()) << what;
        EXPECT_EQ(bytes, arrayBytes(*built))
            << what << ": " << built->height() << " rows, " << built->nnz()
            << " entries";
    }

    const CsrMatrix copy = from_dense;
    EXPECT_TRUE(copy == from_dense);
    const CsrMatrix stack_copy = stack[3];
    EXPECT_TRUE(stack_copy == stack[3]);
    obs::metrics::reset();
    obs::metrics::setEnabled(false);
}

/** Each CSR factory, and so each generated trace plane, allocates
 * exactly one slab (metered per slab by the Arena constructor). */
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
        ASSERT_EQ(plane.nnz(), i + 1);
        for (std::uint32_t k = 0; k <= i; ++k)
            EXPECT_EQ(plane.values()[k], static_cast<float>(10 * i + k + 1));
    }
}

/**
 * Expect @p stack's planes packed back to back: plane i's row pointers
 * at i x (height + 1) in the row-pointer region, and plane i + 1's
 * values and columns right after plane i's.
 */
void
expectPlanesAbut(const CsrStack &stack, const char *what)
{
    ASSERT_GT(stack.size(), 1u) << what;
    const CsrMatrix &first = stack[0];
    const std::size_t rows = static_cast<std::size_t>(first.height()) + 1;
    for (std::size_t i = 0; i < stack.size(); ++i) {
        EXPECT_EQ(stack[i].rowPtr().data(), first.rowPtr().data() + i * rows)
            << what << " plane " << i;
    }
    for (std::size_t i = 0; i + 1 < stack.size(); ++i) {
        const CsrMatrix &plane = stack[i];
        EXPECT_EQ(stack[i + 1].values().data(),
                  plane.values().data() + plane.nnz())
            << what << " plane " << i + 1;
        EXPECT_EQ(stack[i + 1].columns().data(),
                  plane.columns().data() + plane.nnz())
            << what << " plane " << i + 1;
    }
}

TEST(ArenaLayout, StackPlanesAbut)
{
    Rng rng(14);
    // Small planes at 90% leave many planes empty.
    for (const std::uint32_t side : {1u, 2u, 3u}) {
        const CsrStack stack = generateCsrStack(
            PlaneRecipe::plain(side, side, 0.9, SparsifyMethod::Bernoulli),
            48, rng);
        const bool has_empty = std::ranges::any_of(
            stack, [](const CsrMatrix &p) { return p.nnz() == 0; });
        const bool has_entries = std::ranges::any_of(
            stack, [](const CsrMatrix &p) { return p.nnz() > 0; });
        EXPECT_TRUE(has_empty && has_entries) << side << "x" << side;
        expectPlanesAbut(stack, "Bernoulli");
    }
    expectPlanesAbut(
        generateCsrStack(
            PlaneRecipe::plain(7, 7, 0.9, SparsifyMethod::TopK), 16, rng),
        "top-K");

    // Room for no entry at all: beginPlane grows the slab twice, and
    // the planes closed before each growth move along.
    CsrStack grown(5, 2, 3, 0);
    for (std::uint32_t i = 0; i < 5; ++i) {
        const std::uint32_t nnz = i % 3;
        const CsrStack::PlaneSlot slot = grown.beginPlane(3);
        for (std::uint32_t k = 0; k < nnz; ++k) {
            slot.values[k] = 1.0f;
            slot.columns[k] = k;
        }
        slot.rowPtr[1] = nnz;
        slot.rowPtr[2] = nnz;
        grown.endPlane(nnz);
    }
    grown.validate();
    expectPlanesAbut(grown, "grown");
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
