// eigh() tests: known decompositions, invariants over a random sweep,
// Gram-matrix positive semidefiniteness. The non-finite and scale-guard
// tests at the end run eigh() and the cyclic-Jacobi oracle (tests/oracle)
// side by side; test_eigh_tridiagonal.cpp cross-validates the two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_symmetric;

TEST(Eigh, DiagonalMatrix) {
  const Matrix a = Matrix::diag(Vector{3, 1, 2});
  const EighResult e = eigh(a);
  EXPECT_DOUBLE_EQ(e.values[0], 3.0);
  EXPECT_DOUBLE_EQ(e.values[1], 2.0);
  EXPECT_DOUBLE_EQ(e.values[2], 1.0);
}

TEST(Eigh, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1 with vectors (1,1), (1,-1).
  const Matrix a{{2, 1}, {1, 2}};
  const EighResult e = eigh(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-14);
  EXPECT_NEAR(e.values[1], 1.0, 1e-14);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::fabs(e.vectors(0, 0)), inv_sqrt2, 1e-14);
  EXPECT_NEAR(std::fabs(e.vectors(1, 0)), inv_sqrt2, 1e-14);
}

TEST(Eigh, IdentityHasUnitEigenvalues) {
  const EighResult e = eigh(Matrix::identity(5));
  for (Index i = 0; i < 5; ++i) EXPECT_NEAR(e.values[i], 1.0, 1e-15);
}

TEST(Eigh, ValuesDescending) {
  const Matrix a = random_symmetric(12, 21);
  const EighResult e = eigh(a);
  for (Index i = 1; i < e.values.size(); ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(Eigh, VectorsOrthonormal) {
  const Matrix a = random_symmetric(15, 22);
  const EighResult e = eigh(a);
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(Eigh, Reconstruction) {
  const Matrix a = random_symmetric(10, 23);
  const EighResult e = eigh(a);
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  const Matrix rec = naive_matmul(vd, e.vectors.transposed());
  expect_matrix_near(rec, a, 1e-11);
}

TEST(Eigh, EigenvalueEquationHolds) {
  const Matrix a = random_symmetric(8, 24);
  const EighResult e = eigh(a);
  for (Index j = 0; j < 8; ++j) {
    Vector av(8, 0.0);
    gemv(Trans::No, 1.0, a, e.vectors.col_span(j), 0.0, av.span());
    Vector lv = e.values[j] * e.vectors.col(j);
    EXPECT_LT(max_abs_diff(av, lv), 1e-11) << "pair " << j;
  }
}

TEST(Eigh, TraceEqualsEigenvalueSum) {
  const Matrix a = random_symmetric(9, 25);
  const EighResult e = eigh(a);
  double trace = 0.0;
  for (Index i = 0; i < 9; ++i) trace += a(i, i);
  EXPECT_NEAR(e.values.sum(), trace, 1e-11);
}

TEST(Eigh, GramMatrixIsPsd) {
  const Matrix g = gram(testing::random_matrix(20, 6, 26));
  const EighResult e = eigh(g);
  for (Index i = 0; i < e.values.size(); ++i) {
    EXPECT_GE(e.values[i], -1e-10);
  }
}

TEST(Eigh, RejectsNonSquare) {
  EXPECT_THROW(eigh(Matrix(3, 4)), Error);
}

TEST(Eigh, RejectsAsymmetric) {
  Matrix a{{1, 2}, {5, 1}};
  EXPECT_THROW(eigh(a), Error);
}

TEST(Eigh, HandlesRepeatedEigenvalues) {
  // 2 I plus a rank-1 bump: eigenvalues {3, 2, 2}.
  Matrix a = 2.0 * Matrix::identity(3);
  a(0, 0) = 3.0;
  const EighResult e = eigh(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-13);
  EXPECT_NEAR(e.values[1], 2.0, 1e-13);
  EXPECT_NEAR(e.values[2], 2.0, 1e-13);
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(Eigh, OneByOne) {
  const EighResult e = eigh(Matrix{{-4.0}});
  EXPECT_DOUBLE_EQ(e.values[0], -4.0);
  EXPECT_DOUBLE_EQ(std::fabs(e.vectors(0, 0)), 1.0);
}

class EighSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EighSweep, Invariants) {
  const auto [n, seed] = GetParam();
  const Matrix a = random_symmetric(n, 500 + seed);
  const EighResult e = eigh(a);
  EXPECT_LT(ortho_defect(e.vectors), 1e-11);
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  const Matrix rec = naive_matmul(vd, e.vectors.transposed());
  // Tolerance scales with matrix norm.
  expect_matrix_near(rec, a, 1e-10 * std::max(1.0, a.norm_fro()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EighSweep,
    ::testing::Combine(::testing::Values(2, 3, 7, 16, 33),
                       ::testing::Values(0u, 1u, 2u, 3u)));

// eigh() and the Jacobi oracle reject a NaN or infinite entry with the
// typed error, not with "eigh input is not symmetric" (NaN fails every
// comparison).
class EighNonFinite : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EighNonFinite, ThrowsNonFiniteError) {
  const auto [solver, bad] = GetParam();
  Matrix a = random_symmetric(40, 12);
  a(7, 3) = bad;
  a(3, 7) = bad;
  if (solver == 0) {
    EXPECT_THROW(oracle::eigh_jacobi(a), NonFiniteError);
  } else {
    EXPECT_THROW(eigh(a), NonFiniteError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EighNonFinite,
    ::testing::Combine(::testing::Values(0, 1),  // Jacobi oracle, eigh()
                       ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                                         std::numeric_limits<double>::infinity(),
                                         -std::numeric_limits<double>::infinity())));

TEST(Eigh, ExtremeScaleBothBackends) {
  // A 10 x 10 SPD matrix scaled by 1e±200 and 1e±300. Unguarded, cyclic
  // Jacobi's squared off-diagonal norm underflows to zero at 1e-200 and
  // it returns the diagonal as the spectrum (λ₀ off by 30%) without an
  // error. With the power-of-two scale guard the Jacobi oracle, like
  // eigh(), must return the scaled spectrum of the unit-scale matrix.
  const Matrix b = testing::random_matrix(10, 10, 27);
  const Matrix unit = naive_matmul(b.transposed(), b) + Matrix::identity(10);
  const EighResult ref = oracle::eigh_jacobi(unit);
  for (const bool jacobi : {true, false}) {
    for (const double scale : {1e200, 1e300, 1e-200, 1e-300}) {
      Matrix a = unit;
      a *= scale;
      const EighResult e = jacobi ? oracle::eigh_jacobi(a) : eigh(a);
      const double lmax = ref.values[0] * scale;
      for (Index i = 0; i < 10; ++i) {
        EXPECT_NEAR(e.values[i] / lmax, ref.values[i] / ref.values[0], 1e-12)
            << "scale " << scale << " eigenvalue " << i;
      }
      EXPECT_LT(ortho_defect(e.vectors), 1e-12) << "scale " << scale;
      const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
      const Matrix rec = naive_matmul(vd, e.vectors.transposed());
      EXPECT_LT(max_abs_diff(rec, a) / a.norm_max(), 1e-12) << "scale " << scale;
    }
  }
}

}  // namespace
}  // namespace parsvd
