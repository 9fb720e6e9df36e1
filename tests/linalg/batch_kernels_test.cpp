/**
 * @file
 * The batched lane kernels (src/linalg/batch.hpp) must be
 * *bit-identical*, lane by lane, to the scalar MatrixT kernels they
 * widen: ControllerBank's equivalence proof reduces to this property.
 * These tests fuzz gemvBatch/axpyBatch against per-lane Matrix::gemv /
 * Matrix::axpy over random shapes, lane counts, and strides, with
 * NaN/Inf/signed-zero/denormal injection (no-zero-skip: 0 * NaN must
 * propagate), and pin that lanes beyond the active count are never
 * touched. The suite also runs as release/ (shipping flags),
 * sanitized/, and tsan/ copies — see tests/linalg/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "linalg/batch.hpp"
#include "linalg/matrix.hpp"

namespace mimoarch {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/**
 * Bit equality, with one carve-out: two NaNs always match. When a row
 * mixes NaN sources (an injected quiet NaN vs the x86 negative
 * "indefinite" NaN that Inf * 0 generates), IEEE 754 does not specify
 * which payload the sum carries, and the compiler may commute the add
 * — so payload identity across differently-optimized copies of the
 * kernel is not a property either side guarantees. Everything else —
 * including NaN-ness itself, infinity signs, and signed zeros — must
 * be bit-exact.
 */
testing::AssertionResult
sameBitsOrBothNan(double got, double want)
{
    if (bitsOf(got) == bitsOf(want))
        return testing::AssertionSuccess();
    if (std::isnan(got) && std::isnan(want))
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << got << " (0x" << std::hex << bitsOf(got) << ") vs "
           << want << " (0x" << bitsOf(want) << ")" << std::dec;
}

/** Poison pattern for untouched-lane checks (a signaling-ish NaN). */
constexpr double kSentinel = -1234.5678e99;

/**
 * Draw a matrix/plane element. Mostly finite noise, with exact zeros
 * (the no-zero-skip contract), signed zeros, denormals, NaN, and both
 * infinities. Comparisons go through sameBitsOrBothNan: everything is
 * bit-exact except NaN payloads, which IEEE leaves unspecified when
 * several NaN sources meet in one accumulation.
 */
double
fuzzValue(Rng &rng)
{
    switch (rng.uniformInt(12)) {
    case 0:
        return std::numeric_limits<double>::quiet_NaN();
    case 1:
        return std::numeric_limits<double>::infinity();
    case 2:
        return -std::numeric_limits<double>::infinity();
    case 3:
        return 0.0;
    case 4:
        return -0.0;
    case 5:
        return std::numeric_limits<double>::denorm_min();
    default:
        return rng.normal(0.0, 3.0);
    }
}

std::vector<double>
fuzzPlane(Rng &rng, size_t rows, size_t stride)
{
    std::vector<double> plane(rows * stride);
    for (double &v : plane)
        v = fuzzValue(rng);
    return plane;
}

/** Lane @p l of @p plane as a rows x 1 Matrix. */
Matrix
laneColumn(const std::vector<double> &plane, size_t rows, size_t stride,
           size_t l)
{
    Matrix col(rows, 1);
    for (size_t k = 0; k < rows; ++k)
        col[k] = plane[k * stride + l];
    return col;
}

TEST(BatchKernels, GemvMatchesScalarGemvBitwisePerLane)
{
    Rng rng(2016);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t rows = 1 + rng.uniformInt(8);
        const size_t cols = 1 + rng.uniformInt(8);
        const size_t lanes = 1 + rng.uniformInt(37);
        const size_t stride = lanes + rng.uniformInt(9);

        Matrix a(rows, cols);
        for (size_t i = 0; i < rows; ++i)
            for (size_t j = 0; j < cols; ++j)
                a(i, j) = fuzzValue(rng);

        const std::vector<double> x = fuzzPlane(rng, cols, stride);
        std::vector<double> out(rows * stride, kSentinel);

        batch::gemvBatch(out.data(), a.data().data(), rows, cols,
                         x.data(), lanes, stride);

        Matrix ref;
        for (size_t l = 0; l < lanes; ++l) {
            const Matrix xl = laneColumn(x, cols, stride, l);
            Matrix::gemv(ref, a, xl);
            for (size_t i = 0; i < rows; ++i) {
                EXPECT_TRUE(
                    sameBitsOrBothNan(out[i * stride + l], ref[i]))
                    << "trial " << trial << " lane " << l << " row "
                    << i;
            }
        }
        // Lanes in [lanes, stride) belong to other (future) lanes and
        // must come back bit-untouched.
        for (size_t i = 0; i < rows; ++i)
            for (size_t l = lanes; l < stride; ++l)
                ASSERT_EQ(bitsOf(out[i * stride + l]),
                          bitsOf(kSentinel))
                    << "trial " << trial << " touched tail lane " << l;
    }
}

TEST(BatchKernels, AxpyMatchesScalarAxpyBitwisePerLane)
{
    Rng rng(777);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t rows = 1 + rng.uniformInt(8);
        const size_t lanes = 1 + rng.uniformInt(37);
        const size_t stride = lanes + rng.uniformInt(9);
        const double alpha = fuzzValue(rng);

        const std::vector<double> x = fuzzPlane(rng, rows, stride);
        std::vector<double> y = fuzzPlane(rng, rows, stride);
        std::vector<double> y0 = y;
        for (size_t k = 0; k < rows; ++k)
            for (size_t l = lanes; l < stride; ++l)
                y[k * stride + l] = kSentinel;

        batch::axpyBatch(y.data(), alpha, x.data(), rows, lanes,
                         stride);

        for (size_t l = 0; l < lanes; ++l) {
            Matrix yl = laneColumn(y0, rows, stride, l);
            const Matrix xl = laneColumn(x, rows, stride, l);
            Matrix::axpy(yl, alpha, xl);
            for (size_t k = 0; k < rows; ++k) {
                EXPECT_TRUE(sameBitsOrBothNan(y[k * stride + l], yl[k]))
                    << "trial " << trial << " lane " << l << " row "
                    << k;
            }
        }
        for (size_t k = 0; k < rows; ++k)
            for (size_t l = lanes; l < stride; ++l)
                ASSERT_EQ(bitsOf(y[k * stride + l]), bitsOf(kSentinel))
                    << "trial " << trial << " touched tail lane " << l;
    }
}

TEST(BatchKernels, ZeroTimesNanPropagatesEveryLane)
{
    // A zero row coefficient against a NaN/Inf lane element must
    // poison the accumulator in that lane (no zero-skip), exactly as
    // the scalar kernel's contract demands — and only in that lane.
    const size_t rows = 2, cols = 3, lanes = 5, stride = 6;
    Matrix a(rows, cols);
    a(0, 0) = 0.0;
    a(0, 1) = 2.0;
    a(0, 2) = 0.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    a(1, 2) = -3.0;

    std::vector<double> x(cols * stride, 1.0);
    x[0 * stride + 1] = std::numeric_limits<double>::quiet_NaN();
    x[2 * stride + 3] = std::numeric_limits<double>::infinity();

    std::vector<double> out(rows * stride, kSentinel);
    batch::gemvBatch(out.data(), a.data().data(), rows, cols, x.data(),
                     lanes, stride);

    EXPECT_TRUE(std::isnan(out[0 * stride + 1])); // 0 * NaN row 0.
    EXPECT_TRUE(std::isnan(out[1 * stride + 1])); // 1 * NaN row 1.
    EXPECT_TRUE(std::isnan(out[0 * stride + 3])); // 0 * Inf row 0.
    // Row 1 lane 3: 1*1 + 0*1 + (-3)*Inf = -Inf, no NaN.
    EXPECT_TRUE(std::isinf(out[1 * stride + 3]));
    // Clean lanes stay clean.
    for (size_t l : {size_t{0}, size_t{2}, size_t{4}}) {
        EXPECT_EQ(out[0 * stride + l], 2.0);
        EXPECT_EQ(out[1 * stride + l], -2.0);
    }
}

TEST(BatchKernels, ExactVectorWidthAndTailLaneCounts)
{
    // lanes = 4 fills exactly one four-lane register block of
    // gemvBatch with no tail; lanes = 5 forces the per-lane tail loop;
    // lanes = 3 runs tail-only.
    Rng rng(99);
    for (const size_t lanes : {size_t{3}, size_t{4}, size_t{5},
                               size_t{8}, size_t{12}}) {
        const size_t rows = 4, cols = 4, stride = lanes;
        Matrix a(rows, cols);
        for (size_t i = 0; i < rows; ++i)
            for (size_t j = 0; j < cols; ++j)
                a(i, j) = rng.normal(0.0, 1.0);
        const std::vector<double> x = fuzzPlane(rng, cols, stride);
        std::vector<double> out(rows * stride, kSentinel);
        batch::gemvBatch(out.data(), a.data().data(), rows, cols,
                         x.data(), lanes, stride);
        Matrix ref;
        for (size_t l = 0; l < lanes; ++l) {
            Matrix::gemv(ref, a, laneColumn(x, cols, stride, l));
            for (size_t i = 0; i < rows; ++i)
                EXPECT_TRUE(
                    sameBitsOrBothNan(out[i * stride + l], ref[i]))
                    << "lanes " << lanes << " lane " << l;
        }
    }
}

TEST(BatchKernels, SingleLaneDegeneratesToScalar)
{
    // N = 1 is the scalar controller's own shape: one lane, stride 1.
    Rng rng(5);
    Matrix a(3, 3);
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = rng.normal(0.0, 2.0);
    std::vector<double> x = {0.5, -0.25, 3.0};
    std::vector<double> out(3, kSentinel);
    batch::gemvBatch(out.data(), a.data().data(), 3, 3, x.data(), 1, 1);
    Matrix xm(3, 1);
    xm[0] = x[0];
    xm[1] = x[1];
    xm[2] = x[2];
    Matrix ref;
    Matrix::gemv(ref, a, xm);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(bitsOf(out[i]), bitsOf(ref[i]));
}

} // namespace
} // namespace mimoarch
