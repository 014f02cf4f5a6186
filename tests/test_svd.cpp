// SVD tests: exact small cases, invariant sweep over shapes x backends,
// agreement with the Jacobi oracle (tests/oracle), truncation,
// pseudoinverse axioms, sign fixing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "test_utils.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::expect_vector_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;
using testing::svd_backend;

Matrix reconstruct(const SvdResult& f) {
  Matrix us = f.u;
  for (Index j = 0; j < us.cols(); ++j) {
    for (Index i = 0; i < us.rows(); ++i) us(i, j) *= f.s[j];
  }
  return naive_matmul(us, f.v.transposed());
}

TEST(Svd, DiagonalMatrixExact) {
  const Matrix a = Matrix::diag(Vector{5, 3, 1});
  for (const int backend : {0, 1, 2}) {  // Jacobi oracle, MOS, GK
    const SvdResult f = svd_backend(backend, a);
    EXPECT_NEAR(f.s[0], 5.0, 1e-12);
    EXPECT_NEAR(f.s[1], 3.0, 1e-12);
    EXPECT_NEAR(f.s[2], 1.0, 1e-12);
  }
}

TEST(Svd, NegativeDiagonalGivesPositiveSingularValues) {
  const Matrix a = Matrix::diag(Vector{-7, 2});
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 7.0, 1e-13);
  EXPECT_NEAR(f.s[1], 2.0, 1e-13);
}

TEST(Svd, Known2x2) {
  // [[3, 0], [4, 5]] has singular values sqrt(45 ± sqrt(2025 - 225))... use
  // the exact values: σ² are eigenvalues of AᵀA = [[25, 20], [20, 25]],
  // i.e. 45 and 5 → σ = 3√5 and √5.
  const Matrix a{{3, 0}, {4, 5}};
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 3.0 * std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(f.s[1], std::sqrt(5.0), 1e-12);
}

TEST(Svd, RankOneMatrix) {
  // a = 2 * u vᵀ with unit u, v.
  Matrix a(4, 3);
  const Vector u{0.5, 0.5, 0.5, 0.5};
  const Vector v{1.0, 0.0, 0.0};
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 3; ++j) a(i, j) = 2.0 * u[i] * v[j];
  }
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 2.0, 1e-12);
  for (Index j = 1; j < f.s.size(); ++j) EXPECT_NEAR(f.s[j], 0.0, 1e-12);
}

TEST(Svd, SingularValuesMatchEigPhilosophy) {
  const Matrix a = random_matrix(9, 6, 30);
  const SvdResult f = svd(a);
  // σ_max bounds: ||A||_F² = Σ σ².
  double ssq = 0.0;
  for (Index i = 0; i < f.s.size(); ++i) ssq += f.s[i] * f.s[i];
  EXPECT_NEAR(ssq, a.norm_fro() * a.norm_fro(), 1e-9);
}

TEST(Svd, TruncationKeepsLeading) {
  const Matrix a = random_matrix(12, 8, 31);
  const SvdResult full = svd(a);
  SvdOptions opts;
  opts.rank = 3;
  const SvdResult trunc = svd(a, opts);
  ASSERT_EQ(trunc.s.size(), 3);
  ASSERT_EQ(trunc.u.cols(), 3);
  ASSERT_EQ(trunc.v.cols(), 3);
  for (Index i = 0; i < 3; ++i) EXPECT_NEAR(trunc.s[i], full.s[i], 1e-11);
}

TEST(Svd, ReconstructMethodMatchesManual) {
  const Matrix a = random_matrix(7, 5, 32);
  const SvdResult f = svd(a);
  expect_matrix_near(f.reconstruct(), reconstruct(f), 1e-12);
}

TEST(Svd, JacobiAndGolubKahanAgreeOnSpectrum) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Matrix a = random_matrix(20, 9, 600 + seed);
    const SvdResult fj = oracle::svd_jacobi(a);
    const SvdResult fg = svd(a);
    expect_vector_near(fj.s, fg.s, 1e-10, "spectra");
  }
}

TEST(Svd, MethodOfSnapshotsAgreesForWellSeparated) {
  Rng rng(33);
  const Vector spectrum = workloads::geometric_spectrum(6, 10.0, 0.5);
  const Matrix a = workloads::synthetic_low_rank(50, 10, spectrum, rng);
  SvdOptions opts;
  opts.method = SvdMethod::MethodOfSnapshots;
  const SvdResult f = svd(a, opts);
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(f.s[i], spectrum[i], 1e-7 * spectrum[0]);
  }
}

TEST(Svd, RecoversPlantedSpectrumExactly) {
  Rng rng(34);
  const Vector spectrum = workloads::geometric_spectrum(5, 4.0, 0.3);
  const Matrix a = workloads::synthetic_low_rank(30, 20, spectrum, rng);
  const SvdResult f = svd(a);
  for (Index i = 0; i < 5; ++i) EXPECT_NEAR(f.s[i], spectrum[i], 1e-11);
  for (Index i = 5; i < f.s.size(); ++i) EXPECT_NEAR(f.s[i], 0.0, 1e-11);
}

TEST(Svd, WideMatrixHandled) {
  const Matrix a = random_matrix(4, 11, 35);
  for (const int backend : {0, 2}) {  // Jacobi oracle, GK
    const SvdResult f = svd_backend(backend, a);
    ASSERT_EQ(f.u.rows(), 4);
    ASSERT_EQ(f.v.rows(), 11);
    expect_matrix_near(reconstruct(f), a, 1e-11);
  }
}

TEST(Svd, TallVeryThin) {
  const Matrix a = random_matrix(500, 3, 36);
  const SvdResult f = svd(a);
  expect_matrix_near(reconstruct(f), a, 1e-11);
  EXPECT_LT(ortho_defect(f.u), 1e-12);
}

TEST(Svd, SingleElement) {
  const Matrix a{{-3.0}};
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 3.0, 1e-15);
  EXPECT_NEAR(f.u(0, 0) * f.v(0, 0) * f.s[0], -3.0, 1e-14);
}

TEST(Svd, ZeroMatrix) {
  const Matrix a(5, 3, 0.0);
  const SvdResult f = svd(a);
  for (Index i = 0; i < f.s.size(); ++i) EXPECT_DOUBLE_EQ(f.s[i], 0.0);
}

TEST(Svd, EmptyThrows) {
  EXPECT_THROW(svd(Matrix{}), Error);
}

TEST(Svd, SingularValuesHelper) {
  const Matrix a = random_matrix(8, 5, 37);
  const Vector s = singular_values(a);
  const SvdResult f = svd(a);
  expect_vector_near(s, f.s, 1e-12);
}

// ------------------------------------------------------------------ pinv

TEST(Pinv, MoorePenroseAxioms) {
  const Matrix a = random_matrix(8, 5, 38);
  const Matrix ap = pinv(a);
  ASSERT_EQ(ap.rows(), 5);
  ASSERT_EQ(ap.cols(), 8);
  // 1) A A⁺ A = A
  expect_matrix_near(naive_matmul(naive_matmul(a, ap), a), a, 1e-10);
  // 2) A⁺ A A⁺ = A⁺
  expect_matrix_near(naive_matmul(naive_matmul(ap, a), ap), ap, 1e-10);
  // 3) (A A⁺)ᵀ = A A⁺
  const Matrix aap = naive_matmul(a, ap);
  expect_matrix_near(aap.transposed(), aap, 1e-10);
  // 4) (A⁺ A)ᵀ = A⁺ A
  const Matrix apa = naive_matmul(ap, a);
  expect_matrix_near(apa.transposed(), apa, 1e-10);
}

TEST(Pinv, InvertsNonsingularSquare) {
  const Matrix a = random_matrix(6, 6, 39);
  const Matrix ap = pinv(a);
  expect_matrix_near(naive_matmul(a, ap), Matrix::identity(6), 1e-9);
}

TEST(Pinv, RankDeficientHandled) {
  Rng rng(40);
  const Vector spectrum = workloads::geometric_spectrum(2, 3.0, 0.5);
  const Matrix a = workloads::synthetic_low_rank(6, 6, spectrum, rng);
  const Matrix ap = pinv(a);
  // A A⁺ A = A still holds on the rank-2 matrix.
  expect_matrix_near(naive_matmul(naive_matmul(a, ap), a), a, 1e-10);
}

// ------------------------------------------------------------- sign fixing

TEST(FixSvdSigns, LargestEntryPositive) {
  const Matrix a = random_matrix(10, 4, 41);
  SvdResult f = svd(a);
  const Matrix before = reconstruct(f);
  fix_svd_signs(f.u, f.v);
  for (Index j = 0; j < f.u.cols(); ++j) {
    double best = 0.0;
    for (Index i = 0; i < f.u.rows(); ++i) {
      if (std::fabs(f.u(i, j)) > std::fabs(best)) best = f.u(i, j);
    }
    EXPECT_GT(best, 0.0) << "column " << j;
  }
  // Reconstruction unchanged by coordinated sign flips.
  expect_matrix_near(reconstruct(f), before, 1e-13);
}

TEST(FixModeSigns, Idempotent) {
  Matrix u = random_matrix(9, 3, 42);
  fix_mode_signs(u);
  Matrix again = u;
  fix_mode_signs(again);
  expect_matrix_near(again, u, 0.0);
}

// ------------------------------------------- kept-rank Golub–Kahan (TEST_P)

// Q diag(spectrum) Pᵀ with random orthonormal Q (m x k) and P (n x k).
Matrix with_spectrum(Index m, Index n, const Vector& spectrum, std::uint64_t seed) {
  const Index k = spectrum.size();
  const Matrix q = qr_thin(random_matrix(m, k, seed)).q;
  const Matrix p = qr_thin(random_matrix(n, k, seed + 1)).q;
  return naive_matmul(naive_matmul(q, Matrix::diag(spectrum)), p.transposed());
}

struct KeptRankCase {
  const char* name;
  Index rank;
  Matrix (*make)();
};

// Names the case in test listings (and so in the ctest names).
void PrintTo(const KeptRankCase& c, std::ostream* os) { *os << c.name; }

const KeptRankCase kKeptRankCases[] = {
    // The era5_stream root SVD: the R of the stacked 204-column panel.
    {"Era5R", 4, [] { return qr_thin(random_matrix(408, 204, 31)).r; }},
    // An APMOS local snapshot block, cut at r1 = 50.
    {"ApmosBlock", 50, [] { return random_matrix(1024, 256, 32); }},
    {"Wide", 5, [] { return random_matrix(20, 80, 33); }},
    // Exactly rank one: the zero-diagonal (zero_row) path.
    {"RankOne", 1, [] { return with_spectrum(30, 12, Vector{7.0}, 34); }},
    {"RankOneCut3", 3, [] { return with_spectrum(30, 12, Vector{7.0}, 34); }},
    // σ = 2 three times across the cut at 3.
    {"RepeatedSigmaAtCut", 3,
     [] { return with_spectrum(12, 6, Vector{5, 3, 2, 2, 2, 1}, 35); }},
    {"N1", 1, [] { return random_matrix(5, 1, 36); }},
    {"N2", 1, [] { return random_matrix(2, 2, 37); }},
    {"N3", 2, [] { return random_matrix(3, 3, 38); }},
    {"RankEqualsN", 6, [] { return random_matrix(12, 6, 39); }},
    {"RankAboveN", 9, [] { return random_matrix(12, 6, 39); }},
};

class GolubKahanKeptRank : public ::testing::TestWithParam<KeptRankCase> {};

TEST_P(GolubKahanKeptRank, LeadingTripletsOfFullSolve) {
  const KeptRankCase& c = GetParam();
  const Matrix a = c.make();
  SvdOptions opts;
  opts.method = SvdMethod::GolubKahan;
  const SvdResult full = svd(a, opts);
  opts.rank = c.rank;
  const SvdResult f = svd(a, opts);
  const Index k = std::min(c.rank, std::min(a.rows(), a.cols()));
  ASSERT_EQ(f.s.size(), k);
  ASSERT_EQ(f.u.cols(), k);
  ASSERT_EQ(f.v.cols(), k);

  // The rank-r result is the leading r triplets of the rank-0 one.
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(f.s[j], full.s[j], 1e-14 * full.s[0]) << "sigma " << j;
  }
  testing::expect_leading_columns(f.u, full.u, 1e-12, "u");
  testing::expect_leading_columns(f.v, full.v, 1e-12, "v");

  // Against the Jacobi oracle: σ, orthogonality and both residuals
  // A v_j = σ_j u_j and Aᵀ u_j = σ_j v_j.
  const SvdResult ref = oracle::svd_jacobi(a);
  const double smax = ref.s[0];
  for (Index j = 0; j < k; ++j) {
    EXPECT_NEAR(f.s[j], ref.s[j], 1e-12 * smax) << "sigma " << j;
  }
  EXPECT_LT(ortho_defect(f.u), 1e-12);
  EXPECT_LT(ortho_defect(f.v), 1e-12);
  const Matrix av = naive_matmul(a, f.v);
  const Matrix atu = naive_matmul(a.transposed(), f.u);
  for (Index j = 0; j < k; ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(av(i, j), f.s[j] * f.u(i, j), 1e-12 * smax);
    }
    for (Index i = 0; i < a.cols(); ++i) {
      EXPECT_NEAR(atu(i, j), f.s[j] * f.v(i, j), 1e-12 * smax);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GolubKahanKeptRank, ::testing::ValuesIn(kKeptRankCases));

// ----------------------------------------------- invariant sweep (TEST_P)

using SvdCase = std::tuple<int, int, int, std::uint64_t>;  // m, n, backend, seed

class SvdSweep : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdSweep, Invariants) {
  const auto [m, n, backend, seed] = GetParam();
  if (backend == 1 && m < n) {
    GTEST_SKIP() << "MOS assumes m >= n";
  }
  const Matrix a = random_matrix(m, n, 700 + seed);
  const SvdResult f = svd_backend(backend, a);

  // σ descending, non-negative.
  for (Index i = 0; i < f.s.size(); ++i) {
    EXPECT_GE(f.s[i], 0.0);
    if (i > 0) {
      EXPECT_GE(f.s[i - 1], f.s[i] - 1e-12);
    }
  }
  // Orthonormal factors (MOS loses precision near machine-eps spectra
  // but Gaussian matrices are well conditioned).
  EXPECT_LT(ortho_defect(f.u), 1e-9);
  EXPECT_LT(ortho_defect(f.v), 1e-9);
  // Reconstruction.
  const double scale = std::max(1.0, a.norm_max());
  expect_matrix_near(reconstruct(f), a, 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdSweep,
    ::testing::Combine(::testing::Values(1, 2, 6, 19, 48),
                       ::testing::Values(1, 2, 6, 19),
                       ::testing::Values(0, 1, 2),  // Jacobi oracle, MOS, GK
                       ::testing::Values(0u, 1u)));

}  // namespace
}  // namespace parsvd
