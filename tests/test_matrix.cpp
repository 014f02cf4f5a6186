// Unit tests for the Matrix/Vector containers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/matrix.hpp"
#include "support/rng.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;

TEST(Vector, ConstructionAndFill) {
  Vector v(5, 2.0);
  EXPECT_EQ(v.size(), 5);
  for (Index i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(v[i], 2.0);
  v.fill(-1.0);
  EXPECT_DOUBLE_EQ(v[3], -1.0);
}

TEST(Vector, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(Vector, HeadAndSegment) {
  Vector v{1, 2, 3, 4, 5};
  const Vector h = v.head(2);
  EXPECT_EQ(h.size(), 2);
  EXPECT_DOUBLE_EQ(h[1], 2.0);
  const Vector s = v.segment(1, 3);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[2], 4.0);
  EXPECT_THROW(v.segment(3, 4), Error);
}

TEST(Vector, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(v.sum(), -1.0);
}

TEST(Vector, Norm2OverflowSafe) {
  Vector v(3, 1e200);
  EXPECT_NEAR(v.norm2(), std::sqrt(3.0) * 1e200, 1e186);
}

TEST(Vector, Arithmetic) {
  Vector a{1, 2}, b{3, 5};
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  c -= a;
  EXPECT_DOUBLE_EQ(c[1], 5.0);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c[0], 6.0);
  const Vector d = 3.0 * a;
  EXPECT_DOUBLE_EQ(d[1], 6.0);
  EXPECT_THROW(a += Vector{1.0}, Error);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 2, 1.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m(2, 1), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, InitializerListIsRowMajor) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), Error);
}

TEST(Matrix, ColumnMajorStorage) {
  Matrix m{{1, 3}, {2, 4}};
  // Column 0 is {1, 2}, contiguous.
  EXPECT_DOUBLE_EQ(m.data()[0], 1.0);
  EXPECT_DOUBLE_EQ(m.data()[1], 2.0);
  EXPECT_DOUBLE_EQ(m.data()[2], 3.0);
  EXPECT_DOUBLE_EQ(m.data()[3], 4.0);
}

TEST(Matrix, ColSpanIsContiguousView) {
  Matrix m{{1, 3}, {2, 4}};
  auto c1 = m.col_span(1);
  ASSERT_EQ(c1.size(), 2u);
  c1[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(Matrix, IdentityAndDiag) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 2), 0.0);
  const Matrix d = Matrix::diag(Vector{2, 5});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, GaussianIsDeterministicPerSeed) {
  Rng r1(5), r2(5);
  const Matrix a = Matrix::gaussian(4, 3, r1);
  const Matrix b = Matrix::gaussian(4, 3, r2);
  expect_matrix_near(a, b, 0.0);
}

TEST(Matrix, RowColExtraction) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Vector r1 = m.row(1);
  EXPECT_DOUBLE_EQ(r1[0], 3.0);
  EXPECT_DOUBLE_EQ(r1[1], 4.0);
  const Vector c0 = m.col(0);
  EXPECT_DOUBLE_EQ(c0[2], 5.0);
  EXPECT_THROW(m.row(3), Error);
  EXPECT_THROW(m.col(2), Error);
}

TEST(Matrix, BlockExtractionAndWrite) {
  Matrix m(4, 4);
  for (Index j = 0; j < 4; ++j) {
    for (Index i = 0; i < 4; ++i) m(i, j) = static_cast<double>(10 * i + j);
  }
  const Matrix b = m.block(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 23.0);

  Matrix target(4, 4, 0.0);
  target.set_block(2, 1, b);
  EXPECT_DOUBLE_EQ(target(2, 1), 12.0);
  EXPECT_DOUBLE_EQ(target(3, 2), 23.0);
  EXPECT_THROW(m.block(3, 3, 2, 2), Error);
  EXPECT_THROW(target.set_block(3, 3, b), Error);
}

TEST(Matrix, SetRowSetCol) {
  Matrix m(2, 3, 0.0);
  m.set_row(1, Vector{1, 2, 3});
  EXPECT_DOUBLE_EQ(m(1, 2), 3.0);
  m.set_col(0, Vector{7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_THROW(m.set_row(1, Vector{1}), Error);
  EXPECT_THROW(m.set_col(0, Vector{1}), Error);
}

TEST(Matrix, Transpose) {
  const Matrix m = testing::random_matrix(37, 21, 99);
  const Matrix t = m.transposed();
  ASSERT_EQ(t.rows(), 21);
  ASSERT_EQ(t.cols(), 37);
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) {
      EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
    }
  }
}

TEST(Matrix, TransposeTwiceIsIdentity) {
  const Matrix m = testing::random_matrix(50, 33, 7);
  expect_matrix_near(m.transposed().transposed(), m, 0.0);
}

TEST(Matrix, Norms) {
  Matrix m{{3, 0}, {0, -4}};
  EXPECT_DOUBLE_EQ(m.norm_fro(), 5.0);
  EXPECT_DOUBLE_EQ(m.norm_max(), 4.0);
  EXPECT_DOUBLE_EQ(m.norm_inf(), 4.0);  // max row abs-sum
}

TEST(Matrix, NormMaxPropagatesNonFinite) {
  // std::max(m, NaN) returns m; norm_max must not, or every scale and
  // finiteness guard built on it is blind to NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan((Matrix{{1.0, nan}}).norm_max()));
  EXPECT_TRUE(std::isnan((Matrix{{nan, 5.0}}).norm_max()));
  EXPECT_EQ((Matrix{{1.0, inf}}).norm_max(), inf);
  EXPECT_EQ((Matrix{{-inf, 1.0}}).norm_max(), inf);
  EXPECT_TRUE(std::isnan((Vector{1.0, nan}).norm_inf()));
  EXPECT_EQ((Vector{1.0, -inf}).norm_inf(), inf);
}

TEST(Matrix, Arithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(1, 1), 5.0);
  c = c - a;
  expect_matrix_near(c, b, 1e-15);
  c = 2.0 * a;
  EXPECT_DOUBLE_EQ(c(0, 1), 4.0);
  EXPECT_THROW(a += Matrix(3, 3), Error);
}

TEST(Matrix, HcatVcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3, 4}, {5, 6}};
  const Matrix h = hcat(a, b);
  ASSERT_EQ(h.rows(), 2);
  ASSERT_EQ(h.cols(), 3);
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 2), 6.0);

  Matrix c{{1, 2}};
  const Matrix v = vcat(c, b);
  ASSERT_EQ(v.rows(), 3);
  EXPECT_DOUBLE_EQ(v(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(v(2, 0), 5.0);
}

TEST(Matrix, HcatWithEmptyIsIdentityOp) {
  const Matrix a = testing::random_matrix(3, 2, 1);
  expect_matrix_near(hcat(Matrix{}, a), a, 0.0);
  expect_matrix_near(hcat(a, Matrix{}), a, 0.0);
  expect_matrix_near(vcat(Matrix{}, a), a, 0.0);
}

TEST(Matrix, HcatShapeMismatchThrows) {
  EXPECT_THROW(hcat(Matrix(2, 1), Matrix(3, 1)), Error);
  EXPECT_THROW(vcat(Matrix(1, 2), Matrix(1, 3)), Error);
}

TEST(Matrix, MultiBlockConcat) {
  std::vector<Matrix> blocks{Matrix(2, 1, 1.0), Matrix(2, 2, 2.0),
                             Matrix(2, 1, 3.0)};
  const Matrix h = hcat(blocks);
  ASSERT_EQ(h.cols(), 4);
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 3), 3.0);

  std::vector<Matrix> vblocks{Matrix(1, 2, 1.0), Matrix(3, 2, 2.0)};
  const Matrix v = vcat(vblocks);
  ASSERT_EQ(v.rows(), 4);
  EXPECT_DOUBLE_EQ(v(3, 1), 2.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
  EXPECT_THROW(max_abs_diff(a, Matrix(2, 2)), Error);
}

TEST(Matrix, ResizeReinitializes) {
  Matrix m(2, 2, 5.0);
  m.resize(3, 1, -1.0);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_DOUBLE_EQ(m(2, 0), -1.0);
}

TEST(Matrix, ToStringTruncates) {
  const Matrix m = testing::random_matrix(20, 20, 3);
  const std::string s = m.to_string(4);
  EXPECT_NE(s.find("Matrix 20x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(Matrix, NegativeDimensionsThrow) {
  EXPECT_THROW(Matrix(-1, 2), Error);
  EXPECT_THROW(Vector(-3), Error);
}

TEST(Matrix, EmptyMatrixBehaves) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.size(), 0);
}

}  // namespace
}  // namespace parsvd
