/**
 * @file
 * Tests for CSR compression, rotation (Algorithm 3), transposition,
 * and the structural invariants of Sec. 4.1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/audit.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

/** Materialize a read-only span accessor as a vector for EXPECT_EQ. */
template <typename T>
std::vector<T>
vec(std::span<const T> s)
{
    return {s.begin(), s.end()};
}

Dense2d<float>
samplePlane()
{
    // 3x4 plane:  . 2 . 0? -> zeros dropped
    Dense2d<float> d(3, 4);
    d.at(1, 0) = 2.0f;
    d.at(3, 0) = -1.0f;
    d.at(0, 1) = 5.0f;
    d.at(2, 2) = 7.0f;
    d.at(3, 2) = 4.0f;
    return d;
}

TEST(Csr, FromDenseRoundTrip)
{
    const Dense2d<float> d = samplePlane();
    const CsrMatrix csr = CsrMatrix::fromDense(d);
    EXPECT_EQ(csr.nnz(), 5u);
    EXPECT_EQ(csr.toDense(), d);
    csr.validate();
}

TEST(Csr, ArraysMatchSection41Layout)
{
    const CsrMatrix csr = CsrMatrix::fromDense(samplePlane());
    // Values in row-major order.
    const std::vector<float> want_values = {2.0f, -1.0f, 5.0f, 7.0f, 4.0f};
    EXPECT_EQ(vec(csr.values()), want_values);
    const std::vector<std::uint32_t> want_cols = {1, 3, 0, 2, 3};
    EXPECT_EQ(vec(csr.columns()), want_cols);
    const std::vector<std::uint32_t> want_rowptr = {0, 2, 3, 5};
    EXPECT_EQ(vec(csr.rowPtr()), want_rowptr);
}

TEST(Csr, EmptyMatrix)
{
    const CsrMatrix csr(4, 4);
    EXPECT_EQ(csr.nnz(), 0u);
    EXPECT_DOUBLE_EQ(csr.sparsity(), 1.0);
    EXPECT_EQ(csr.rowPtr().size(), 5u);
    csr.validate();
}

TEST(Csr, FullyDenseMatrix)
{
    Dense2d<float> d(2, 2, 1.0f);
    const CsrMatrix csr = CsrMatrix::fromDense(d);
    EXPECT_EQ(csr.nnz(), 4u);
    EXPECT_DOUBLE_EQ(csr.sparsity(), 0.0);
}

TEST(Csr, EntriesEnumerateInStorageOrder)
{
    const CsrMatrix csr = CsrMatrix::fromDense(samplePlane());
    const auto entries = csr.entries();
    ASSERT_EQ(entries.size(), 5u);
    // y must be non-decreasing (row-major).
    for (std::size_t i = 1; i < entries.size(); ++i)
        EXPECT_LE(entries[i - 1].y, entries[i].y);
}

TEST(Csr, FromCooSortsAndSumsDuplicates)
{
    std::vector<SparseEntry> coo = {
        {1.0f, 2, 1}, {3.0f, 0, 0}, {2.0f, 2, 1}, {4.0f, 1, 2}};
    const CsrMatrix csr = CsrMatrix::fromCoo(3, 3, coo);
    csr.validate();
    EXPECT_EQ(csr.nnz(), 3u);
    const Dense2d<float> d = csr.toDense();
    EXPECT_EQ(d.at(2, 1), 3.0f); // 1 + 2 summed
    EXPECT_EQ(d.at(0, 0), 3.0f);
    EXPECT_EQ(d.at(1, 2), 4.0f);
}

TEST(Csr, FromRawValidates)
{
    const std::vector<float> values{1.0f, 2.0f};
    const std::vector<std::uint32_t> columns{0, 2};
    const std::vector<std::uint32_t> row_ptr{0, 1, 2};
    const CsrMatrix csr = CsrMatrix::fromRaw(2, 3, values, columns, row_ptr);
    EXPECT_EQ(csr.nnz(), 2u);
}

TEST(CsrDeathTest, FromRawRejectsBadRowPtr)
{
    const std::vector<float> values{1.0f};
    const std::vector<std::uint32_t> columns{0};
    const std::vector<std::uint32_t> row_ptr{0, 2, 1};
    EXPECT_DEATH(CsrMatrix::fromRaw(2, 3, values, columns, row_ptr),
                 "rowPtr");
}

TEST(CsrDeathTest, FromRawRejectsUnsortedColumns)
{
    const std::vector<float> values{1.0f, 2.0f};
    const std::vector<std::uint32_t> columns{2, 1};
    const std::vector<std::uint32_t> row_ptr{0, 2};
    EXPECT_DEATH(CsrMatrix::fromRaw(1, 4, values, columns, row_ptr),
                 "strictly increasing");
}

TEST(CsrDeathTest, FromRawRejectsWideColumn)
{
    const std::vector<float> values{1.0f};
    const std::vector<std::uint32_t> columns{2};
    const std::vector<std::uint32_t> row_ptr{0, 1};
    EXPECT_DEATH(CsrMatrix::fromRaw(1, 2, values, columns, row_ptr),
                 "out of width");
}

TEST(CsrDeathTest, NnzNarrowingOverflowPanics)
{
    // 2^32 stored entries would wrap the uint32 index arrays; the
    // narrowing guard must panic instead of silently truncating.
    EXPECT_DEATH(narrowNnz(std::size_t{1} << 32), "overflow");
    EXPECT_EQ(narrowNnz((std::size_t{1} << 32) - 1), 0xffffffffu);
}

TEST(CsrDeathTest, CooEntryOutsidePlanePanics)
{
    // A COO entry with coordinates outside the plane must be caught at
    // build time, not when a PE later walks off the index arrays.
    std::vector<SparseEntry> bad = {{1.0f, 7, 0}}; // x=7 in a 3-wide plane
    EXPECT_DEATH(CsrMatrix::fromCoo(3, 3, bad), "outside");
}

TEST(Csr, AuditForcedOnValidatesEveryConstructor)
{
    // audit_env.cc forces ANTSIM_AUDIT on in test binaries, so every
    // construction path in this whole suite (not just fromRaw) runs
    // validate() -- this assertion is what makes that coverage real.
    ASSERT_TRUE(audit::enabled());
}

TEST(Csr, Rotation180MatchesAlgorithm3OnDense)
{
    const Dense2d<float> d = samplePlane();
    const CsrMatrix rotated = CsrMatrix::fromDense(d).rotated180();
    rotated.validate();
    const Dense2d<float> rd = rotated.toDense();
    for (std::uint32_t y = 0; y < d.height(); ++y)
        for (std::uint32_t x = 0; x < d.width(); ++x)
            EXPECT_EQ(rd.at(d.width() - 1 - x, d.height() - 1 - y),
                      d.at(x, y));
}

TEST(Csr, RotationIsInvolution)
{
    Rng rng(99);
    const Dense2d<float> plane = bernoulliPlane(7, 5, 0.6, rng);
    const CsrMatrix csr = CsrMatrix::fromDense(plane);
    EXPECT_EQ(csr.rotated180().rotated180(), csr);
}

TEST(Csr, RotationPreservesValueMultiset)
{
    Rng rng(7);
    const CsrMatrix csr =
        CsrMatrix::fromDense(bernoulliPlane(6, 6, 0.5, rng));
    auto a = vec(csr.values());
    auto b = vec(csr.rotated180().values());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
}

TEST(Csr, TransposeMatchesDense)
{
    const Dense2d<float> d = samplePlane();
    const CsrMatrix t = CsrMatrix::fromDense(d).transposed();
    t.validate();
    EXPECT_EQ(t.height(), d.width());
    EXPECT_EQ(t.width(), d.height());
    const Dense2d<float> td = t.toDense();
    for (std::uint32_t y = 0; y < d.height(); ++y)
        for (std::uint32_t x = 0; x < d.width(); ++x)
            EXPECT_EQ(td.at(y, x), d.at(x, y));
}

} // namespace
} // namespace antsim
