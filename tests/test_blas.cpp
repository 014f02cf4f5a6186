// BLAS kernel tests: level-1/2/3 against naive references, all transpose
// combinations, the threaded GEMM path, and a parameterized shape sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "linalg/blas.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::naive_matmul;
using testing::random_matrix;

TEST(Blas1, Dot) {
  Vector x{1, 2, 3}, y{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(x.span(), y.span()), 4 - 10 + 18);
  EXPECT_THROW(dot(x.span(), Vector{1.0}.span()), Error);
}

TEST(Blas1, Axpy) {
  Vector x{1, 2}, y{10, 20};
  axpy(3.0, x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(Blas1, Scal) {
  Vector x{2, -4};
  scal(-0.5, x.span());
  EXPECT_DOUBLE_EQ(x[0], -1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Blas1, Nrm2MatchesHypot) {
  Vector x{3, 4, 12};
  EXPECT_DOUBLE_EQ(nrm2(x.span()), 13.0);
}

TEST(Blas1, Nrm2ExtremeScales) {
  Vector tiny(4, 1e-200);
  EXPECT_NEAR(nrm2(tiny.span()), 2e-200, 1e-214);
  Vector huge(4, 1e200);
  EXPECT_NEAR(nrm2(huge.span()), 2e200, 1e186);
}

TEST(Blas2, GemvNoTrans) {
  const Matrix a = random_matrix(7, 5, 11);
  Vector x(5), y(7, 0.5);
  Rng rng(3);
  for (Index i = 0; i < 5; ++i) x[i] = rng.gaussian();
  Vector y_ref = y;
  // reference: y = 2 A x + 0.5 y
  for (Index i = 0; i < 7; ++i) {
    double s = 0.0;
    for (Index j = 0; j < 5; ++j) s += a(i, j) * x[j];
    y_ref[i] = 2.0 * s + 0.5 * y_ref[i];
  }
  gemv(Trans::No, 2.0, a, x.span(), 0.5, y.span());
  testing::expect_vector_near(y, y_ref, 1e-13);
}

TEST(Blas2, GemvTrans) {
  const Matrix a = random_matrix(6, 4, 13);
  Vector x(6, 1.0), y(4, 0.0);
  gemv(Trans::Yes, 1.0, a, x.span(), 0.0, y.span());
  for (Index j = 0; j < 4; ++j) {
    double s = 0.0;
    for (Index i = 0; i < 6; ++i) s += a(i, j);
    EXPECT_NEAR(y[j], s, 1e-13);
  }
}

TEST(Blas2, GemvShapeChecks) {
  const Matrix a(3, 2);
  Vector x(3), y(3);
  EXPECT_THROW(gemv(Trans::No, 1.0, a, x.span(), 0.0, y.span()), Error);
}

TEST(Blas2, Ger) {
  Matrix a(3, 2, 1.0);
  Vector x{1, 2, 3}, y{10, 20};
  ger(0.1, x.span(), y.span(), a);
  EXPECT_NEAR(a(0, 0), 1.0 + 0.1 * 1 * 10, 1e-14);
  EXPECT_NEAR(a(2, 1), 1.0 + 0.1 * 3 * 20, 1e-14);
}

TEST(Blas3, MatmulMatchesNaive) {
  const Matrix a = random_matrix(13, 7, 1);
  const Matrix b = random_matrix(7, 9, 2);
  expect_matrix_near(matmul(a, b), naive_matmul(a, b), 1e-12);
}

TEST(Blas3, TransposeACombination) {
  const Matrix a = random_matrix(7, 13, 3);
  const Matrix b = random_matrix(7, 9, 4);
  expect_matrix_near(matmul(a, b, Trans::Yes, Trans::No),
                     naive_matmul(a.transposed(), b), 1e-12);
}

TEST(Blas3, TransposeBCombination) {
  const Matrix a = random_matrix(5, 8, 5);
  const Matrix b = random_matrix(6, 8, 6);
  expect_matrix_near(matmul(a, b, Trans::No, Trans::Yes),
                     naive_matmul(a, b.transposed()), 1e-12);
}

TEST(Blas3, TransposeBothCombination) {
  const Matrix a = random_matrix(8, 5, 7);
  const Matrix b = random_matrix(9, 8, 8);
  expect_matrix_near(matmul(a, b, Trans::Yes, Trans::Yes),
                     naive_matmul(a.transposed(), b.transposed()), 1e-12);
}

TEST(Blas3, GemmAlphaBetaSemantics) {
  const Matrix a = random_matrix(4, 4, 9);
  const Matrix b = random_matrix(4, 4, 10);
  Matrix c(4, 4, 1.0);
  const Matrix c0 = c;
  gemm(Trans::No, Trans::No, 2.0, a, b, 3.0, c);
  const Matrix expected = 2.0 * naive_matmul(a, b) + 3.0 * c0;
  expect_matrix_near(c, expected, 1e-12);
}

TEST(Blas3, GemmBetaZeroIgnoresGarbage) {
  const Matrix a = random_matrix(3, 3, 11);
  const Matrix b = random_matrix(3, 3, 12);
  Matrix c(3, 3);
  c.fill(std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  expect_matrix_near(c, naive_matmul(a, b), 1e-12);
}

TEST(Blas3, GemmAlphaZeroShortCircuits) {
  const Matrix a = random_matrix(3, 3, 13);
  const Matrix b = random_matrix(3, 3, 14);
  Matrix c(3, 3, 2.0);
  gemm(Trans::No, Trans::No, 0.0, a, b, 1.0, c);
  expect_matrix_near(c, Matrix(3, 3, 2.0), 0.0);
}

TEST(Blas3, GemmInnerDimMismatchThrows) {
  Matrix c(2, 2);
  EXPECT_THROW(
      gemm(Trans::No, Trans::No, 1.0, Matrix(2, 3), Matrix(4, 2), 0.0, c),
      Error);
}

TEST(Blas3, GemmWrongOutputShapeThrows) {
  Matrix c(3, 3);
  EXPECT_THROW(
      gemm(Trans::No, Trans::No, 1.0, Matrix(2, 3), Matrix(3, 2), 0.0, c),
      Error);
}

TEST(Blas3, LargeGemmUsesThreadedPathCorrectly) {
  // Above kGemmParallelThreshold the pool fans out; verify it still
  // matches the naive product.
  const Index n = 90;  // 90^3 ≈ 7.3e5 > threshold (64^3 ≈ 2.6e5)
  const Matrix a = random_matrix(n, n, 15);
  const Matrix b = random_matrix(n, n, 16);
  expect_matrix_near(matmul(a, b), naive_matmul(a, b), 1e-10);
}

TEST(Blas3, GramMatchesExplicitProduct) {
  const Matrix a = random_matrix(20, 6, 17);
  const Matrix g = gram(a);
  expect_matrix_near(g, naive_matmul(a.transposed(), a), 1e-12);
  // symmetry is exact by construction
  for (Index i = 0; i < g.rows(); ++i) {
    for (Index j = 0; j < g.cols(); ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

TEST(Blas3, GramOddSizesMatchExplicitProduct) {
  // Sizes chosen to straddle the kGramBlock=48 column blocking and hit
  // ragged final blocks in the packed kernel.
  const int ms[] = {1, 7, 33};
  const int ns[] = {1, 5, 47, 49};
  for (const int m : ms) {
    for (const int n : ns) {
      const Matrix a = random_matrix(m, n, 500 + 10 * m + n);
      const Matrix g = gram(a);
      SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
      expect_matrix_near(g, naive_matmul(a.transposed(), a), 1e-11);
      for (Index i = 0; i < g.rows(); ++i) {
        for (Index j = 0; j < g.cols(); ++j) {
          EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
        }
      }
    }
  }
}

TEST(Blas3, GramParallelPathMatchesExplicitProduct) {
  // n^2 m / 2 = 40^2 * 600 / 2 = 4.8e5 > the 64^3 parallel threshold, so
  // the column blocks fan out across the pool.
  const Matrix a = random_matrix(600, 40, 21);
  const Matrix g = gram(a);
  expect_matrix_near(g, naive_matmul(a.transposed(), a), 1e-10);
  for (Index i = 0; i < g.rows(); ++i) {
    for (Index j = 0; j < g.cols(); ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

TEST(Blas2, GemvParallelPathMatchesReference) {
  // m*n = 512*300 = 1.536e5 > kGemvParallelThreshold (1.31e5), so both
  // orientations take the threaded row/column partitions.
  const Index m = 512, n = 300;
  const Matrix a = random_matrix(m, n, 22);
  Vector x(n), xt(m);
  Rng rng(23);
  for (Index j = 0; j < n; ++j) x[j] = rng.gaussian();
  for (Index i = 0; i < m; ++i) xt[i] = rng.gaussian();

  Vector y(m, 0.25), y_ref = y;
  for (Index i = 0; i < m; ++i) {
    double s = 0.0;
    for (Index j = 0; j < n; ++j) s += a(i, j) * x[j];
    y_ref[i] = 1.5 * s - 0.5 * y_ref[i];
  }
  gemv(Trans::No, 1.5, a, x.span(), -0.5, y.span());
  testing::expect_vector_near(y, y_ref, 1e-11);

  Vector z(n, 0.0), z_ref(n, 0.0);
  for (Index j = 0; j < n; ++j) {
    double s = 0.0;
    for (Index i = 0; i < m; ++i) s += a(i, j) * xt[i];
    z_ref[j] = s;
  }
  gemv(Trans::Yes, 1.0, a, xt.span(), 0.0, z.span());
  testing::expect_vector_near(z, z_ref, 1e-11);
}

TEST(Blas3, GemmRejectsAliasedOutput) {
  // The packed kernel reads A/B while writing C, so C overlapping either
  // operand is a hard error rather than silent corruption.
  Matrix a = random_matrix(4, 4, 24);
  const Matrix b = random_matrix(4, 4, 25);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, a), Error);
  Matrix b2 = random_matrix(4, 4, 26);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b2, 0.0, b2), Error);
  // Distinct matrices of identical shape must still be accepted.
  Matrix c(4, 4);
  EXPECT_NO_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c));
}

TEST(Blas3, OddAndPrimeSizesAllTransposeCombos) {
  // Shapes straddling the 8x6 micro tile and the MC = 96, KC = 256 and
  // NC = 4032 block edges: every combination exercises ragged packing in
  // at least one dimension.
  struct Shape {
    Index m, k, n;
  };
  std::vector<Shape> shapes;
  for (const Index s : {1, 3, 7, 63, 64, 65, 129}) {
    // Rectangular m,k,n derived from s so the three extents differ.
    shapes.push_back({s, std::max<Index>(1, s - 2), std::max<Index>(1, s - 1)});
  }
  for (const Index m : {95, 96, 97, 193}) {
    for (const Index k : {255, 256, 257, 513}) shapes.push_back({m, k, 13});
  }
  // n crosses NC in a product small enough to stay on one serial call,
  // so the packed driver itself walks past the NC edge.
  static_assert(8 * 8 * 4033 < kGemmParallelThreshold);
  shapes.push_back({8, 8, 4033});
  for (const Shape& sh : shapes) {
    const auto [m, k, n] = sh;
    for (int combo = 0; combo < 4; ++combo) {
      const Trans ta = (combo & 1) ? Trans::Yes : Trans::No;
      const Trans tb = (combo & 2) ? Trans::Yes : Trans::No;
      const std::uint64_t seed = static_cast<std::uint64_t>(m + k + combo);
      const Matrix a = (ta == Trans::No) ? random_matrix(m, k, 300 + seed)
                                         : random_matrix(k, m, 300 + seed);
      const Matrix b = (tb == Trans::No) ? random_matrix(k, n, 400 + seed)
                                         : random_matrix(n, k, 400 + seed);
      const Matrix lhs = (ta == Trans::No) ? a : a.transposed();
      const Matrix rhs = (tb == Trans::No) ? b : b.transposed();
      SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n="
                                        << n << " combo=" << combo);
      expect_matrix_near(matmul(a, b, ta, tb), naive_matmul(lhs, rhs), 1e-11);
    }
  }
}

// ----------------------------------------------------- shape sweep (TEST_P)

using GemmShape = std::tuple<int, int, int, int>;  // m, k, n, transpose-combo

class GemmShapeSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeSweep, MatchesNaive) {
  const auto [m, k, n, combo] = GetParam();
  const Trans ta = (combo & 1) ? Trans::Yes : Trans::No;
  const Trans tb = (combo & 2) ? Trans::Yes : Trans::No;
  const Matrix a = (ta == Trans::No) ? random_matrix(m, k, 100 + combo)
                                     : random_matrix(k, m, 100 + combo);
  const Matrix b = (tb == Trans::No) ? random_matrix(k, n, 200 + combo)
                                     : random_matrix(n, k, 200 + combo);
  const Matrix lhs = (ta == Trans::No) ? a : a.transposed();
  const Matrix rhs = (tb == Trans::No) ? b : b.transposed();
  expect_matrix_near(matmul(a, b, ta, tb), naive_matmul(lhs, rhs), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Combine(::testing::Values(1, 2, 17, 64),
                       ::testing::Values(1, 3, 32),
                       ::testing::Values(1, 5, 33),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace parsvd
