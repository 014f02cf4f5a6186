// Edge-case and robustness tests for the SVD backends: graded spectra,
// duplicate singular values, bidiagonal-already inputs, extreme scales,
// rank deficiency, and agreement on the paper's own data shapes. The
// reference is the Jacobi oracle (tests/oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "post/metrics.hpp"
#include "test_utils.hpp"
#include "workloads/burgers.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using testing::expect_vector_near;
using testing::ortho_defect;
using testing::svd_backend;
namespace wl = workloads;

TEST(SvdEdge, GolubKahanGradedSpectrum) {
  // GK's accuracy is absolute (eps * sigma_max), looser than the Jacobi
  // oracle's for tiny values — document the contract at 1e-8 sigma_max.
  Rng rng(2);
  Vector spectrum{1.0, 1e-4, 1e-8};
  const Matrix a = wl::synthetic_low_rank(30, 15, spectrum, rng);
  const SvdResult f = svd_golub_kahan(a);
  EXPECT_NEAR(f.s[0], 1.0, 1e-13);
  EXPECT_NEAR(f.s[1], 1e-4, 1e-12);
  EXPECT_NEAR(f.s[2], 1e-8, 1e-13 * 1.0);  // absolute eps*sigma_max bound
}

TEST(SvdEdge, DuplicateSingularValues) {
  // σ = {2, 2, 1}: the paired subspace is degenerate; factors must stay
  // orthonormal and reconstruct exactly even though individual vectors
  // are non-unique.
  Rng rng(3);
  const Vector spectrum{2.0, 2.0, 1.0};
  const Matrix a = wl::synthetic_low_rank(25, 12, spectrum, rng);
  for (const int backend : {0, 2, 1}) {  // Jacobi oracle, GK, MOS
    // Rank 3: the rank-deficient tail would yield zero U columns.
    const SvdResult f = svd_backend(backend, a, 3);
    EXPECT_NEAR(f.s[0], 2.0, 1e-10);
    EXPECT_NEAR(f.s[1], 2.0, 1e-10);
    EXPECT_NEAR(f.s[2], 1.0, 1e-10);
    EXPECT_LT(ortho_defect(f.u), 1e-9);
    testing::expect_matrix_near(f.reconstruct(), a, 1e-10);
  }
}

TEST(SvdEdge, AlreadyDiagonalRectangular) {
  Matrix a(5, 3, 0.0);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  a(2, 2) = 1.0;
  for (const int backend : {0, 2}) {  // Jacobi oracle, GK
    const SvdResult f = svd_backend(backend, a);
    EXPECT_NEAR(f.s[0], 3.0, 1e-14);
    EXPECT_NEAR(f.s[1], 2.0, 1e-14);
    EXPECT_NEAR(f.s[2], 1.0, 1e-14);
  }
}

TEST(SvdEdge, BidiagonalInput) {
  // Exercise the GK chasing on an input that IS bidiagonal (no
  // reduction work, straight to QL).
  Matrix a(4, 4, 0.0);
  a(0, 0) = 4.0; a(0, 1) = 1.0;
  a(1, 1) = 3.0; a(1, 2) = 1.0;
  a(2, 2) = 2.0; a(2, 3) = 1.0;
  a(3, 3) = 1.0;
  const SvdResult gk = svd_golub_kahan(a);
  const SvdResult jac = oracle::svd_jacobi(a);
  expect_vector_near(gk.s, jac.s, 1e-12);
  testing::expect_matrix_near(gk.reconstruct(), a, 1e-12);
}

// Every backend (and the Jacobi oracle) on a 12 x 8 Gaussian at the given
// scales: σ must be the scaled σ of the unit-scale matrix and the factors
// must reconstruct the input. Unguarded, Golub–Kahan's Wilkinson shift (~σ⁴) over- or
// underflows from 1e±78 on and the iteration never converges, and the
// method of snapshots' Gram (~σ²) overflows or flushes to zero.
void expect_all_backends_at_scales(std::uint64_t seed,
                                   std::initializer_list<double> scales) {
  Rng rng(seed);
  const Matrix unit = Matrix::gaussian(12, 8, rng);
  const SvdResult ref = oracle::svd_jacobi(unit);
  for (const int backend : {0, 2, 1}) {  // Jacobi oracle, GK, MOS
    for (const double scale : scales) {
      Matrix a = unit;
      a *= scale;
      const SvdResult f = svd_backend(backend, a);
      ASSERT_TRUE(std::isfinite(f.s[0]));
      for (Index i = 0; i < 8; ++i) {
        EXPECT_NEAR(f.s[i] / (ref.s[0] * scale), ref.s[i] / ref.s[0], 1e-12)
            << "backend " << backend << " scale " << scale
            << " sigma " << i;
      }
      testing::expect_matrix_near(f.reconstruct(), a, 1e-12 * scale);
    }
  }
}

TEST(SvdEdge, ExtremeScaleLarge) { expect_all_backends_at_scales(4, {1e150, 1e300}); }

TEST(SvdEdge, ExtremeScaleTiny) { expect_all_backends_at_scales(5, {1e-150, 1e-300}); }

TEST(SvdEdge, GolubKahanSubnormalDiagonalDeflates) {
  // An upper-bidiagonal input passes the bidiagonalization unchanged, so
  // the QR iteration starts on a block with a subnormal diagonal over a
  // noise-level superdiagonal: the state an exactly rank-one input (a
  // Burgers profile near the origin is one) reached. The block-relative
  // zero test never fires on it; the eps·‖B‖ floor must.
  Matrix a(3, 3, 0.0);
  a(0, 0) = 3.9;
  a(1, 1) = 4.35e-310;
  a(1, 2) = -4.8e-16;
  const SvdResult f = svd_golub_kahan(a);
  EXPECT_EQ(f.s[0], 3.9);
  EXPECT_LT(f.s[1], 1e-15);
  EXPECT_LT(ortho_defect(f.u), 1e-15);
  EXPECT_LT(ortho_defect(f.v), 1e-15);
  testing::expect_matrix_near(f.reconstruct(), a, 1e-15);
}

TEST(SvdEdge, GolubKahanExactlyRankOne) {
  // Columns that are scaled copies of one vector leave a noise-level
  // block, with subnormal or zero diagonals, after the bidiagonalization;
  // how it looks depends on rounding (FMA contraction among others).
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const Index m = 6 + static_cast<Index>(seed % 90);
    const Index n = 2 + static_cast<Index>(seed % 29);
    const Matrix c = Matrix::gaussian(m, 1, rng);
    Matrix a(m, n);
    for (Index j = 0; j < n; ++j) {
      a.set_col(j, c.col(0));
      scal(1.0 + 0.1 * static_cast<double>(j), a.col_span(j));
    }
    const SvdResult f = svd_golub_kahan(a);
    const SvdResult ref = oracle::svd_jacobi(a);
    EXPECT_NEAR(f.s[0], ref.s[0], 1e-13 * ref.s[0]) << "seed " << seed;
    for (Index i = 1; i < f.s.size(); ++i) {
      EXPECT_LT(f.s[i], 1e-14 * ref.s[0]) << "seed " << seed << " sigma " << i;
    }
    EXPECT_LT(ortho_defect(f.u), 1e-13) << "seed " << seed;
    EXPECT_LT(ortho_defect(f.v), 1e-13) << "seed " << seed;
    testing::expect_matrix_near(f.reconstruct(), a, 1e-13 * a.norm_max());
  }
}

// Every backend, and the Jacobi oracle, rejects a NaN or infinite entry
// at entry with the typed error. A 60 x 40 input with one bad entry used
// to run Golub–Kahan's whole iteration budget into a ConvergenceError,
// and to give Jacobi a NaN σ₀ with no error.
class SvdNonFinite : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SvdNonFinite, ThrowsNonFiniteError) {
  const auto [backend, bad] = GetParam();
  for (const bool wide : {false, true}) {
    Matrix a = testing::random_matrix(60, 40, 11);
    a(17, 23) = bad;
    if (wide) a = a.transposed();
    EXPECT_THROW(svd_backend(backend, a), NonFiniteError) << "wide " << wide;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SvdNonFinite,
    ::testing::Combine(::testing::Values(0, 1, 2),  // Jacobi oracle, MOS, GK
                       ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                                         std::numeric_limits<double>::infinity(),
                                         -std::numeric_limits<double>::infinity())));

TEST(SvdEdge, SingleRowAndColumn) {
  const Matrix row{{3.0, 4.0}};
  const SvdResult fr = svd(row);
  EXPECT_NEAR(fr.s[0], 5.0, 1e-14);
  Matrix col(2, 1);
  col(0, 0) = 3.0;
  col(1, 0) = 4.0;
  const SvdResult fc = svd(col);
  EXPECT_NEAR(fc.s[0], 5.0, 1e-14);
}

TEST(SvdEdge, OrthogonalInputHasUnitSpectrum) {
  Rng rng(6);
  const Matrix q = wl::random_orthonormal(20, 20, rng);
  const SvdResult f = svd(q);
  for (Index i = 0; i < 20; ++i) EXPECT_NEAR(f.s[i], 1.0, 1e-12);
}

TEST(SvdEdge, BurgersShapeBackendsAgree) {
  // The paper's data shape (tall snapshot matrix, fast-decaying
  // spectrum): both backends agree with the Jacobi oracle on the
  // retained spectrum.
  wl::BurgersConfig cfg;
  cfg.grid_points = 512;
  cfg.snapshots = 80;
  const Matrix a = wl::Burgers(cfg).snapshot_matrix();
  const SvdResult fj = oracle::svd_jacobi(a, 10);
  const SvdResult fg = svd_backend(2, a, 10);
  const SvdResult fm = svd_backend(1, a, 10);
  for (Index i = 0; i < 10; ++i) {
    EXPECT_NEAR(fg.s[i], fj.s[i], 1e-9 * fj.s[0]) << "GK sigma " << i;
    EXPECT_NEAR(fm.s[i], fj.s[i], 1e-7 * fj.s[0]) << "MOS sigma " << i;
  }
}

TEST(SvdEdge, MosTridiagonalMatchesMosJacobi) {
  // The method of snapshots (tridiagonal eigh of the Gram) against σ from
  // the Jacobi oracle's eigenvalues of the same Gram.
  Rng rng(7);
  const Matrix a = Matrix::gaussian(60, 25, rng);
  const EighResult ej = oracle::eigh_jacobi(gram(a));
  Vector sj(ej.values.size());
  for (Index i = 0; i < sj.size(); ++i) sj[i] = std::sqrt(std::max(ej.values[i], 0.0));
  const SvdResult ft = svd_backend(1, a);
  expect_vector_near(ft.s, sj, 1e-9 * sj[0]);
}

// pinv(a, rcond) rebuilt from the Jacobi oracle's factors.
Matrix oracle_pinv(const Matrix& a, double rcond) {
  const SvdResult f = oracle::svd_jacobi(a);
  Matrix vs = f.v;
  for (Index j = 0; j < vs.cols(); ++j) {
    const double sj = f.s[j];
    scal(sj > rcond * f.s[0] && sj > 0.0 ? 1.0 / sj : 0.0, vs.col_span(j));
  }
  return matmul(vs, f.u, Trans::No, Trans::Yes);
}

// post::principal_angles(a, b) rebuilt with the Jacobi oracle's σ.
Vector oracle_principal_angles(const Matrix& a, const Matrix& b) {
  Matrix qa = a;
  Matrix qb = b;
  orthonormalize_mgs2(qa);
  orthonormalize_mgs2(qb);
  const Vector cosines = oracle::svd_jacobi(matmul(qa, qb, Trans::Yes, Trans::No)).s;
  Vector angles(cosines.size());
  for (Index i = 0; i < cosines.size(); ++i) {
    angles[i] = std::acos(std::clamp(cosines[i], -1.0, 1.0));
  }
  return angles;
}

// singular_values(), pinv() and post::principal_angles() run on svd()
// (Golub–Kahan). On a graded spectrum (σ from 1 down to 1e-12) and on an
// exactly rank-2 matrix they match the same quantities built from the
// Jacobi oracle to absolute tolerances: σ to 1e-14·σ_max (Golub–Kahan's
// accuracy is absolute), angles to 1e-7 rad (acos amplifies an eps-level
// cosine error to ~sqrt(eps) next to 0), and pinv to 1e-13 on the
// rank-2 one. The graded pinv cuts at rcond = 1e-5: kept σ near 1e-12
// carry an absolute eps-level error, which 1/σ turns into a large one.
// Its bound is the one Golub–Kahan's absolute accuracy gives: a kept σ_k
// moves by about eps·σ_max, so 1/σ_k moves by eps·σ_max/σ_k², and its
// vectors by eps·σ_max/gap ≥ the same over 1/σ_k. With σ_min the smallest
// kept σ that is κ·eps·‖pinv‖ for κ = σ_max/σ_min and ‖pinv‖ = 1/σ_min
// (about 2e-8 here), computed from the oracle's σ.
TEST(SvdEdge, HelpersMatchOracleOnGradedAndRankTwo) {
  Rng rng(10);
  Vector graded(7);
  for (Index i = 0; i < 7; ++i) graded[i] = std::pow(10.0, -2.0 * static_cast<double>(i));
  const Matrix g = wl::synthetic_low_rank(40, 12, graded, rng);
  const Matrix r2 = wl::synthetic_low_rank(30, 8, Vector{3.0, 0.5}, rng);
  const Matrix probe = testing::random_matrix(40, 4, 12);

  expect_vector_near(singular_values(g), oracle::svd_jacobi(g).s, 1e-14);
  expect_vector_near(singular_values(r2), oracle::svd_jacobi(r2).s, 1e-14 * 3.0);

  const Vector gs = oracle::svd_jacobi(g).s;
  double s_min = gs[0];
  for (Index i = 0; i < gs.size(); ++i) {
    if (gs[i] > 1e-5 * gs[0]) s_min = gs[i];
  }
  const double kappa = gs[0] / s_min;
  const double pinv_bound = kappa * std::numeric_limits<double>::epsilon() / s_min;
  testing::expect_matrix_near(pinv(g, 1e-5), oracle_pinv(g, 1e-5), pinv_bound);
  testing::expect_matrix_near(pinv(r2), oracle_pinv(r2, 1e-15), 1e-13);

  // The graded matrix's leading columns against itself (angles ~0) and
  // against a random probe (angles spread over (0, π/2)).
  expect_vector_near(post::principal_angles(g.left_cols(4), g.left_cols(4)),
                     oracle_principal_angles(g.left_cols(4), g.left_cols(4)), 1e-7);
  expect_vector_near(post::principal_angles(g.left_cols(4), probe),
                     oracle_principal_angles(g.left_cols(4), probe), 1e-7);
  // The rank-2 matrix's column space against a random probe.
  const Matrix probe30 = testing::random_matrix(30, 3, 13);
  expect_vector_near(post::principal_angles(r2, probe30),
                     oracle_principal_angles(r2, probe30), 1e-7);
}

TEST(SvdEdge, SingularValuesOnlyBitIdenticalToFullSvd) {
  // singular_values() skips the rotation logs, their replay and the
  // back-transforms; the sweep is the same, so σ must match svd(a).s to
  // the bit: graded (down to 1e-24, with the power-of-two rescale off),
  // exactly rank 2, wide (the transposed route), 1 x n, and far from unit
  // scale (the rescaled route).
  Rng rng(21);
  Vector graded(9);
  for (Index i = 0; i < 9; ++i) graded[i] = std::pow(10.0, -3.0 * static_cast<double>(i));
  const Matrix inputs[] = {
      wl::synthetic_low_rank(50, 14, graded, rng),
      wl::synthetic_low_rank(30, 8, Vector{3.0, 0.5}, rng),
      testing::random_matrix(9, 37, 22),
      testing::random_matrix(1, 23, 23),
      scale_by_pow2(testing::random_matrix(17, 6, 24), 900),
  };
  for (const Matrix& a : inputs) {
    SCOPED_TRACE(::testing::Message() << a.rows() << " x " << a.cols());
    const Vector s = singular_values(a);
    const Vector full = svd(a).s;
    ASSERT_EQ(s.size(), full.size());
    for (Index i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], full[i]) << "sigma " << i;
  }
}

TEST(SvdEdge, RepeatedCallsDeterministic) {
  const Matrix a = testing::random_matrix(30, 18, 8);
  const SvdResult f1 = svd(a);
  const SvdResult f2 = svd(a);
  testing::expect_matrix_near(f1.u, f2.u, 0.0);
  testing::expect_matrix_near(f1.v, f2.v, 0.0);
  expect_vector_near(f1.s, f2.s, 0.0);
}

TEST(SvdEdge, NearRankDeficientStable) {
  // Two nearly-identical columns (differ at 1e-13): no backend may blow
  // up, and the tiny second singular value must be << the first.
  Matrix a(20, 2);
  Rng rng(9);
  for (Index i = 0; i < 20; ++i) {
    a(i, 0) = rng.gaussian();
    a(i, 1) = a(i, 0) * (1.0 + 1e-13);
  }
  for (const int backend : {0, 2}) {  // Jacobi oracle, GK
    const SvdResult f = svd_backend(backend, a);
    EXPECT_LT(f.s[1] / f.s[0], 1e-11);
    testing::expect_matrix_near(f.reconstruct(), a, 1e-12);
  }
}

}  // namespace
}  // namespace parsvd
