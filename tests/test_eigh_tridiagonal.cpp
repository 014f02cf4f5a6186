// Tridiagonal (dsytd2/tql2) eigensolver tests: invariants, known cases,
// and cross-validation against the independently-implemented Jacobi
// oracle (tests/oracle) — two unrelated algorithms agreeing on random
// inputs is the strongest correctness evidence available without a
// reference LAPACK.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "linalg/qr.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::expect_vector_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_symmetric;

TEST(EighTridiagonal, DiagonalMatrix) {
  const EighResult e = eigh(Matrix::diag(Vector{3, 1, 2}));
  EXPECT_DOUBLE_EQ(e.values[0], 3.0);
  EXPECT_DOUBLE_EQ(e.values[1], 2.0);
  EXPECT_DOUBLE_EQ(e.values[2], 1.0);
}

TEST(EighTridiagonal, Known2x2) {
  const EighResult e = eigh(Matrix{{2, 1}, {1, 2}});
  EXPECT_NEAR(e.values[0], 3.0, 1e-14);
  EXPECT_NEAR(e.values[1], 1.0, 1e-14);
}

TEST(EighTridiagonal, OneByOne) {
  const EighResult e = eigh(Matrix{{-5.0}});
  EXPECT_DOUBLE_EQ(e.values[0], -5.0);
}

TEST(EighTridiagonal, AlreadyTridiagonal) {
  // The discrete 1-D Laplacian has eigenvalues 2 - 2cos(kπ/(n+1)).
  const Index n = 12;
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  const EighResult e = eigh(a);
  constexpr double kPi = 3.14159265358979323846;
  for (Index k = 0; k < n; ++k) {
    // Descending order → the k-th value uses mode (n - k).
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(n - k) * kPi /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(e.values[k], expected, 1e-12) << "k = " << k;
  }
}

TEST(EighTridiagonal, VectorsOrthonormal) {
  const EighResult e = eigh(random_symmetric(25, 81));
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(EighTridiagonal, Reconstruction) {
  const Matrix a = random_symmetric(18, 82);
  const EighResult e = eigh(a);
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  expect_matrix_near(naive_matmul(vd, e.vectors.transposed()), a, 1e-11);
}

TEST(EighTridiagonal, AgreesWithJacobiOnSpectra) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Matrix a = random_symmetric(20, 900 + seed);
    const EighResult ej = oracle::eigh_jacobi(a);
    const EighResult et = eigh(a);
    expect_vector_near(et.values, ej.values, 1e-11, "spectra");
  }
}

TEST(EighTridiagonal, AgreesWithJacobiOnSubspaces) {
  const Matrix a = random_symmetric(15, 83);
  const EighResult ej = oracle::eigh_jacobi(a);
  const EighResult et = eigh(a);
  // Eigenvectors agree up to sign for simple spectra.
  for (Index j = 0; j < 15; ++j) {
    const double c =
        std::fabs(dot(ej.vectors.col_span(j), et.vectors.col_span(j)));
    EXPECT_GT(c, 1.0 - 1e-9) << "pair " << j;
  }
}

TEST(EighTridiagonal, RepeatedEigenvalues) {
  Matrix a = 2.0 * Matrix::identity(4);
  a(0, 0) = 5.0;
  const EighResult e = eigh(a);
  EXPECT_NEAR(e.values[0], 5.0, 1e-13);
  for (Index i = 1; i < 4; ++i) EXPECT_NEAR(e.values[i], 2.0, 1e-13);
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
}

TEST(EighTridiagonal, NegativeSpectra) {
  Matrix a = random_symmetric(10, 84);
  a -= 100.0 * Matrix::identity(10);
  const EighResult e = eigh(a);
  for (Index i = 0; i < 10; ++i) EXPECT_LT(e.values[i], 0.0);
  const Matrix vd = naive_matmul(e.vectors, Matrix::diag(e.values));
  expect_matrix_near(naive_matmul(vd, e.vectors.transposed()), a, 1e-9);
}

TEST(EighTridiagonal, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(eigh(Matrix(3, 4)), Error);
  EXPECT_THROW(eigh(Matrix{{1, 2}, {5, 1}}), Error);
}

// Q diag(spectrum) Qᵀ with a random orthonormal Q (n x k).
Matrix with_spectrum(Index n, const Vector& spectrum, std::uint64_t seed) {
  const Matrix q = qr_thin(testing::random_matrix(n, spectrum.size(), seed)).q;
  return naive_matmul(naive_matmul(q, Matrix::diag(spectrum)), q.transposed());
}

struct KeptRankCase {
  const char* name;
  Index rank;
  Matrix (*make)();
};

// Names the case in test listings (and so in the ctest names).
void PrintTo(const KeptRankCase& c, std::ostream* os) { *os << c.name; }

const KeptRankCase kKeptRankCases[] = {
    // The APMOS local Gram (1024 x 256 block), cut at r1 = 50.
    {"ApmosGram", 50, [] { return gram(testing::random_matrix(1024, 256, 41)); }},
    // The Gram of the era5_stream root R, cut at K = 4.
    {"Era5Gram", 4, [] { return gram(qr_thin(testing::random_matrix(408, 204, 42)).r); }},
    // Gram of a wide 20 x 80 block: rank 20 of 80, noise-level tail.
    {"WideGram", 5, [] { return gram(testing::random_matrix(20, 80, 43)); }},
    {"RankOne", 1, [] { return with_spectrum(12, Vector{7.0}, 44); }},
    {"RankOneCut3", 3, [] { return with_spectrum(12, Vector{7.0}, 44); }},
    // λ = 2 three times across the cut at 3.
    {"RepeatedAtCut", 3, [] { return with_spectrum(6, Vector{5, 3, 2, 2, 2, 1}, 45); }},
    {"N1", 1, [] { return Matrix{{-2.5}}; }},
    {"N2", 1, [] { return random_symmetric(2, 46); }},
    {"N3", 2, [] { return random_symmetric(3, 47); }},
    {"RankEqualsN", 9, [] { return random_symmetric(9, 48); }},
    {"RankAboveN", 12, [] { return random_symmetric(9, 48); }},
};

class EighTridiagonalKeptRank : public ::testing::TestWithParam<KeptRankCase> {};

TEST_P(EighTridiagonalKeptRank, LeadingPairsOfFullSolve) {
  const KeptRankCase& c = GetParam();
  const Matrix a = c.make();
  const Index n = a.rows();
  const EighResult full = eigh(a);
  EighOptions opts;
  opts.rank = c.rank;
  const EighResult e = eigh(a, opts);
  const Index k = std::min(c.rank, n);
  ASSERT_EQ(e.values.size(), k);
  ASSERT_EQ(e.vectors.cols(), k);

  // The rank-r result is the leading r pairs of the rank-0 one.
  const double lmax = full.values.norm_inf();
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(e.values[j], full.values[j], 1e-14 * lmax) << "lambda " << j;
  }
  testing::expect_leading_columns(e.vectors, full.vectors, 1e-12, "vectors");

  // Against the Jacobi oracle: λ, orthogonality and A z_j = λ_j z_j.
  const EighResult ref = oracle::eigh_jacobi(a);
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(e.values[j], ref.values[j], 1e-12 * lmax) << "lambda " << j;
  }
  EXPECT_LT(ortho_defect(e.vectors), 1e-12);
  const Matrix az = naive_matmul(a, e.vectors);
  for (Index j = 0; j < k; ++j) {
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(az(i, j), e.values[j] * e.vectors(i, j), 1e-12 * lmax);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EighTridiagonalKeptRank, ::testing::ValuesIn(kKeptRankCases));

class EighTridiagonalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EighTridiagonalSweep, CrossValidatesJacobi) {
  const auto [n, seed] = GetParam();
  const Matrix a = random_symmetric(n, 1000 + seed);
  const EighResult ej = oracle::eigh_jacobi(a);
  const EighResult et = eigh(a);
  expect_vector_near(et.values, ej.values,
                     1e-10 * std::max(1.0, a.norm_fro()));
  EXPECT_LT(ortho_defect(et.vectors), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EighTridiagonalSweep,
    ::testing::Combine(::testing::Values(2, 3, 8, 17, 40, 64),
                       ::testing::Values(0u, 1u, 2u)));

}  // namespace
}  // namespace parsvd
