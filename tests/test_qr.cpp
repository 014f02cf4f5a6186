// QR factorization tests: reconstruction, orthogonality, sign convention,
// wide matrices, Q application, least squares, and Gram-Schmidt.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "obs/metrics.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;
using testing::frob_norm;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;

TEST(Qr, ReconstructsTall) {
  const Matrix a = random_matrix(20, 5, 1);
  const QrResult qr = qr_thin(a);
  ASSERT_EQ(qr.q.rows(), 20);
  ASSERT_EQ(qr.q.cols(), 5);
  ASSERT_EQ(qr.r.rows(), 5);
  ASSERT_EQ(qr.r.cols(), 5);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-12);
}

TEST(Qr, QHasOrthonormalColumns) {
  const Matrix a = random_matrix(50, 8, 2);
  const QrResult qr = qr_thin(a);
  EXPECT_LT(ortho_defect(qr.q), 1e-13);
}

TEST(Qr, RIsUpperTriangular) {
  const Matrix a = random_matrix(12, 6, 3);
  const QrResult qr = qr_thin(a);
  for (Index j = 0; j < qr.r.cols(); ++j) {
    for (Index i = j + 1; i < qr.r.rows(); ++i) {
      EXPECT_DOUBLE_EQ(qr.r(i, j), 0.0);
    }
  }
}

TEST(Qr, SignConventionPositiveDiagonal) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Matrix a = random_matrix(15, 6, 40 + seed);
    const QrResult qr = qr_thin(a);
    for (Index i = 0; i < 6; ++i) EXPECT_GE(qr.r(i, i), 0.0) << "seed " << seed;
  }
}

TEST(Qr, SignConventionMakesFactorizationUnique) {
  // Full-rank A has a unique QR with positive diag(R); scrambling the
  // input sign column-wise must not change Q·R, and must reproduce the
  // exact same R diag signs.
  const Matrix a = random_matrix(10, 4, 5);
  const QrResult qr1 = qr_thin(a);
  Matrix a2 = a;
  // A cosmetic perturbation: qr of the same matrix twice.
  const QrResult qr2 = qr_thin(a2);
  expect_matrix_near(qr1.q, qr2.q, 0.0);
  expect_matrix_near(qr1.r, qr2.r, 0.0);
}

TEST(Qr, WideMatrixReducedShapes) {
  const Matrix a = random_matrix(4, 9, 6);
  const QrResult qr = qr_thin(a);
  ASSERT_EQ(qr.q.rows(), 4);
  ASSERT_EQ(qr.q.cols(), 4);
  ASSERT_EQ(qr.r.rows(), 4);
  ASSERT_EQ(qr.r.cols(), 9);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-12);
  EXPECT_LT(ortho_defect(qr.q), 1e-13);
}

TEST(Qr, SquareMatrix) {
  const Matrix a = random_matrix(7, 7, 7);
  const QrResult qr = qr_thin(a);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-12);
}

TEST(Qr, SingleColumn) {
  const Matrix a = random_matrix(9, 1, 8);
  const QrResult qr = qr_thin(a);
  EXPECT_NEAR(qr.r(0, 0), a.col(0).norm2(), 1e-13);
}

TEST(Qr, RankDeficientStillFactors) {
  // Two identical columns: QR exists, R(1,1) = 0.
  Matrix a(6, 2);
  Rng rng(9);
  for (Index i = 0; i < 6; ++i) {
    a(i, 0) = rng.gaussian();
    a(i, 1) = a(i, 0);
  }
  const QrResult qr = qr_thin(a);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-12);
  EXPECT_NEAR(qr.r(1, 1), 0.0, 1e-12);
}

TEST(Qr, ZeroMatrixFactors) {
  const Matrix a(5, 3, 0.0);
  const QrResult qr = qr_thin(a);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-14);
}

TEST(Qr, EmptyThrows) {
  EXPECT_THROW(qr_thin(Matrix{}), Error);
}

TEST(HouseholderQr, ApplyQtThenQRoundTrips) {
  const Matrix a = random_matrix(12, 5, 10);
  const HouseholderQr f(a);
  Matrix b = random_matrix(12, 3, 11);
  const Matrix b0 = b;
  f.apply_qt(b);
  f.apply_q(b);
  expect_matrix_near(b, b0, 1e-12);
}

TEST(HouseholderQr, ApplyQtGivesRFromA) {
  const Matrix a = random_matrix(10, 4, 12);
  const HouseholderQr f(a);
  Matrix work = a;
  f.apply_qt(work);
  // Top 4x4 of QᵀA must equal R.
  const Matrix r = f.r();
  expect_matrix_near(work.top_rows(4), r, 1e-12);
  // Below the triangle everything must vanish.
  for (Index j = 0; j < 4; ++j) {
    for (Index i = 4; i < 10; ++i) EXPECT_NEAR(work(i, j), 0.0, 1e-12);
  }
}

TEST(HouseholderQr, FlopCounterCountsFactorAndApplies) {
  // The linalg.qr.flops cost model on a 40 x 12 panel: the factor
  // 2mnk - 2k^3/3, then 4mck - 2ck^2 per apply of the k = 12 reflectors
  // to an m x c block — thin_q (c = 12) and apply_qt (c = 3).
  obs::Counter& flops = obs::Registry::global().counter("linalg.qr.flops");
  const std::uint64_t before = flops.value();
  const HouseholderQr f(random_matrix(40, 12, 17));
  EXPECT_EQ(flops.value() - before, 10368u);
  const Matrix q = f.thin_q();
  EXPECT_EQ(flops.value() - before, 10368u + 19584u);
  Matrix b = random_matrix(40, 3, 18);
  f.apply_qt(b);
  EXPECT_EQ(flops.value() - before, 10368u + 19584u + 4896u);
}

TEST(HouseholderQr, LeastSquaresSolvesConsistentSystem) {
  const Matrix a = random_matrix(20, 5, 13);
  Vector x_true(5);
  Rng rng(14);
  for (Index i = 0; i < 5; ++i) x_true[i] = rng.gaussian();
  Vector b(20, 0.0);
  gemv(Trans::No, 1.0, a, x_true.span(), 0.0, b.span());
  const HouseholderQr f(a);
  const Vector x = f.solve_least_squares(b);
  testing::expect_vector_near(x, x_true, 1e-11);
}

TEST(HouseholderQr, LeastSquaresMinimizesResidualNorm) {
  const Matrix a = random_matrix(15, 3, 15);
  Vector b(15);
  Rng rng(16);
  for (Index i = 0; i < 15; ++i) b[i] = rng.gaussian();
  const HouseholderQr f(a);
  const Vector x = f.solve_least_squares(b);
  // Residual must be orthogonal to the column space: Aᵀ(b - Ax) = 0.
  Vector r = b;
  gemv(Trans::No, -1.0, a, x.span(), 1.0, r.span());
  Vector atr(3, 0.0);
  gemv(Trans::Yes, 1.0, a, r.span(), 0.0, atr.span());
  EXPECT_LT(atr.norm_inf(), 1e-11);
}

TEST(HouseholderQr, LeastSquaresRejectsWide) {
  const Matrix a = random_matrix(3, 5, 17);
  const HouseholderQr f(a);
  EXPECT_THROW(f.solve_least_squares(Vector(3)), Error);
}

// ------------------------------------------------- blocked compact-WY path

TEST(BlockedQr, MatchesUnblockedReference) {
  // Same matrix through the level-2 reference sweep (block 1) and the
  // compact-WY path (block 8): identical reflectors, so R must agree to
  // rounding and both Q factors must reconstruct A.
  const Matrix a = random_matrix(50, 20, 30);
  const HouseholderQr ref(a, 1);
  const HouseholderQr blk(a, 8);
  EXPECT_EQ(ref.block(), 1);
  EXPECT_EQ(blk.block(), 8);
  expect_matrix_near(blk.r(), ref.r(), 1e-12);
  expect_matrix_near(blk.thin_q(), ref.thin_q(), 1e-12);
}

TEST(BlockedQr, OrthogonalityAndReconstruction) {
  // The ISSUE acceptance gates: ||QᵀQ - I||_max <= 1e-12 and
  // ||A - QR||_F <= 1e-12 ||A||_F for the blocked factorization.
  const std::tuple<int, int, Index> cases[] = {
      {120, 40, 8}, {200, 64, 16}, {97, 33, 8}, {64, 64, 32}, {300, 48, 0}};
  for (const auto& [m, n, block] : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << m << " n=" << n << " block=" << block);
    const Matrix a = random_matrix(m, n, 600 + m + n);
    const HouseholderQr f(a, block);
    const Matrix q = f.thin_q();
    EXPECT_LE(orthogonality_error(q), 1e-12);
    Matrix residual = naive_matmul(q, f.r());
    for (Index j = 0; j < residual.cols(); ++j) {
      for (Index i = 0; i < residual.rows(); ++i) residual(i, j) -= a(i, j);
    }
    EXPECT_LE(frob_norm(residual), 1e-12 * frob_norm(a));
  }
}

TEST(BlockedQr, ApplyQtThenQRoundTrips) {
  const Matrix a = random_matrix(80, 30, 31);
  const HouseholderQr f(a, 8);
  Matrix b = random_matrix(80, 5, 32);
  const Matrix b0 = b;
  f.apply_qt(b);
  f.apply_q(b);
  expect_matrix_near(b, b0, 1e-12);
}

TEST(BlockedQr, ApplyQtAgreesWithUnblocked) {
  const Matrix a = random_matrix(70, 24, 33);
  const HouseholderQr ref(a, 1);
  const HouseholderQr blk(a, 8);
  Matrix b1 = random_matrix(70, 6, 34);
  Matrix b2 = b1;
  ref.apply_qt(b1);
  blk.apply_qt(b2);
  expect_matrix_near(b2, b1, 1e-12);
}

TEST(BlockedQr, WideMatrixFactorsWithPartialFinalPanel) {
  // m < n: only min(m,n) reflectors exist and the final panel is ragged.
  const Matrix a = random_matrix(20, 45, 35);
  const HouseholderQr f(a, 8);
  const Matrix q = f.thin_q();
  EXPECT_LE(orthogonality_error(q), 1e-12);
  expect_matrix_near(naive_matmul(q, f.r()), a, 1e-11);
}

TEST(BlockedQr, LeastSquaresMatchesUnblocked) {
  const Matrix a = random_matrix(90, 25, 36);
  Vector b(90);
  Rng rng(37);
  for (Index i = 0; i < 90; ++i) b[i] = rng.gaussian();
  const Vector x_ref = HouseholderQr(a, 1).solve_least_squares(b);
  const Vector x_blk = HouseholderQr(a, 8).solve_least_squares(b);
  testing::expect_vector_near(x_blk, x_ref, 1e-11);
}

TEST(Mgs2, OrthonormalizesWellConditioned) {
  Matrix a = random_matrix(30, 6, 18);
  const Index dropped = orthonormalize_mgs2(a);
  EXPECT_EQ(dropped, 0);
  EXPECT_LT(ortho_defect(a), 1e-13);
}

TEST(Mgs2, DetectsDependentColumns) {
  Matrix a(10, 3);
  Rng rng(19);
  for (Index i = 0; i < 10; ++i) {
    a(i, 0) = rng.gaussian();
    a(i, 1) = rng.gaussian();
    a(i, 2) = 2.0 * a(i, 0) - a(i, 1);  // dependent
  }
  const Index dropped = orthonormalize_mgs2(a);
  EXPECT_EQ(dropped, 1);
  // The dropped column is zeroed.
  EXPECT_DOUBLE_EQ(nrm2(a.col_span(2)), 0.0);
}

TEST(Mgs2, IllConditionedStaysOrthogonal) {
  // Near-dependent columns — the second pass is what saves this.
  Matrix a(50, 4);
  Rng rng(20);
  for (Index i = 0; i < 50; ++i) a(i, 0) = rng.gaussian();
  for (Index j = 1; j < 4; ++j) {
    for (Index i = 0; i < 50; ++i) {
      a(i, j) = a(i, 0) + 1e-7 * rng.gaussian();
    }
  }
  orthonormalize_mgs2(a);
  EXPECT_LT(ortho_defect(a), 1e-12);
}

TEST(OrthogonalityError, ZeroForExactQ) {
  EXPECT_DOUBLE_EQ(orthogonality_error(Matrix::identity(4)), 0.0);
}

// --------------------------------------------- extreme and subnormal scale

TEST(Qr, SubnormalScaleStaysFinite) {
  // At these scales |alpha - beta| of the first reflector is subnormal,
  // and 1/(alpha - beta) used to overflow to inf and poison Q and R.
  // make_reflector rescales by a power of two (LAPACK dlarfg's guard).
  for (const double scale : {1e-310, 1e-315}) {
    SCOPED_TRACE(::testing::Message() << "scale " << scale);
    const Matrix a = testing::subnormal_matrix(scale);
    const QrResult qr = qr_thin(a);
    testing::expect_subnormal_qr(a, qr.q, qr.r);
    const HouseholderQr unblocked(a, 1);
    testing::expect_subnormal_qr(a, unblocked.thin_q(), unblocked.r());
  }
}

// ------------------------------------- panel kernel at the pipeline shapes

// The local panels of the benchmark pipelines (burgers 4096 x 20, era5
// 2592 x 204 and 816 x 204, the TSQR root's 80 x 20) and two ragged
// m < n shapes, whose final panel is partial. Each runs through the
// blocked default, the unblocked reference and qr_thin, and is checked
// against oracles that run no QR code (testing::expect_qr_matches_oracle).
using PanelParam = std::tuple<std::pair<int, int>, testing::PanelCase>;

class QrPanelShapes : public ::testing::TestWithParam<PanelParam> {};

std::string panel_param_name(const ::testing::TestParamInfo<PanelParam>& p) {
  const std::pair<int, int> shape = std::get<0>(p.param);
  return std::to_string(shape.first) + "x" + std::to_string(shape.second) +
         "_" + testing::to_string(std::get<1>(p.param));
}

TEST_P(QrPanelShapes, MatchesOracles) {
  const auto [shape, c] = GetParam();
  const auto [m, n] = shape;
  const testing::PanelInput in =
      testing::panel_input(m, n, c, static_cast<std::uint64_t>(900 + m + n));
  for (const Index block : {Index{0}, Index{1}}) {
    SCOPED_TRACE(::testing::Message() << "block " << block);
    const HouseholderQr f(in.a, block);
    Matrix q = f.thin_q();
    Matrix r = f.r();
    const std::vector<double> signs = fix_r_signs(r);
    for (Index j = 0; j < q.cols(); ++j) {
      if (signs[static_cast<std::size_t>(j)] < 0.0) scal(-1.0, q.col_span(j));
    }
    testing::expect_qr_matches_oracle(in, q, r, 1e-12);
    if (c == testing::PanelCase::ZeroSubcolumn) {
      // tau_j = 0: the identity reflector leaves R(j, j) at exactly 3.
      const Index j = std::min(m, n) / 2;
      EXPECT_EQ(f.r()(j, j), 3.0);
    }
  }
  const QrResult qr = qr_thin(in.a);
  testing::expect_qr_matches_oracle(in, qr.q, qr.r, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, QrPanelShapes,
    ::testing::Combine(
        ::testing::Values(std::pair{4096, 20}, std::pair{2592, 204},
                          std::pair{816, 204}, std::pair{80, 20},
                          std::pair{20, 80}, std::pair{150, 204}),
        ::testing::Values(testing::PanelCase::Gaussian,
                          testing::PanelCase::ZeroSubcolumn,
                          testing::PanelCase::ExtremeScales)),
    panel_param_name);

// ------------------------------------- recursive panels and staircase trim

// The blocked factor at the default panel width and with one panel over
// every column (so the recursion starts from the full width) against the
// unblocked reference: widths around the base and panel boundaries, on
// shapes tall enough that every panel wider than the 8-column base
// recurses, plus wide m < n shapes.
class QrRecursive : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrRecursive, MatchesUnblockedReference) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, static_cast<std::uint64_t>(1000 + m + n));
  const Matrix b = random_matrix(m, 5, static_cast<std::uint64_t>(2000 + m));
  const HouseholderQr ref(a, 1);
  Matrix ref_q = b;
  Matrix ref_qt = b;
  ref.apply_q(ref_q);
  ref.apply_qt(ref_qt);
  for (const Index block : {Index{0}, Index{256}}) {
    SCOPED_TRACE(::testing::Message() << "block " << block);
    const HouseholderQr f(a, block);
    expect_matrix_near(f.r(), ref.r(), 1e-12, "R");
    expect_matrix_near(f.thin_q(), ref.thin_q(), 1e-12, "thin_q");
    Matrix q = b;
    Matrix qt = b;
    f.apply_q(q);
    f.apply_qt(qt);
    expect_matrix_near(q, ref_q, 1e-12, "apply_q");
    expect_matrix_near(qt, ref_qt, 1e-12, "apply_qt");
  }
}

std::vector<std::pair<int, int>> recursive_shapes() {
  std::vector<std::pair<int, int>> shapes;
  for (const int n : {1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97, 204}) {
    shapes.emplace_back(2 * n + 400, n);
  }
  for (const auto& wide : {std::pair{100, 204}, std::pair{70, 97}, std::pair{40, 65}}) {
    shapes.push_back(wide);
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, QrRecursive, ::testing::ValuesIn(recursive_shapes()),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& p) {
      return std::to_string(p.param.first) + "x" + std::to_string(p.param.second);
    });

/// Checks the blocked factor of `a` against the unblocked reference, which
/// runs every reflector over the full height: R, thin Q and both applies
/// at 1e-12. Rows from `zero_from` on are zero in `a`, so Q is the
/// identity there and both applies must return them untouched.
void expect_trim_matches_reference(const Matrix& a, Index zero_from) {
  const HouseholderQr trimmed(a);
  const HouseholderQr untrimmed(a, 1);
  expect_matrix_near(trimmed.r(), untrimmed.r(), 1e-12, "R");
  expect_matrix_near(trimmed.thin_q(), untrimmed.thin_q(), 1e-12, "thin_q");
  const Matrix b = random_matrix(a.rows(), 4, 3001);
  for (const bool transpose : {false, true}) {
    SCOPED_TRACE(transpose ? "apply_qt" : "apply_q");
    Matrix got = b;
    Matrix want = b;
    if (transpose) {
      trimmed.apply_qt(got);
      untrimmed.apply_qt(want);
    } else {
      trimmed.apply_q(got);
      untrimmed.apply_q(want);
    }
    expect_matrix_near(got, want, 1e-12);
    for (Index j = 0; j < b.cols(); ++j) {
      for (Index i = zero_from; i < b.rows(); ++i) ASSERT_EQ(got(i, j), b(i, j));
    }
  }
}

TEST(QrStaircase, ZeroTrailingRowsTrimmedApplyMatchesUntrimmed) {
  // A dense 300 x 72 panel (and its ZeroSubcolumn variant, whose column
  // 36 arrives with tau = 0) above 120 exactly-zero rows: every panel
  // stops at row 300.
  for (const auto c : {testing::PanelCase::Gaussian, testing::PanelCase::ZeroSubcolumn}) {
    SCOPED_TRACE(testing::to_string(c));
    const testing::PanelInput in = testing::panel_input(300, 72, c, 41);
    Matrix a(420, 72);
    a.set_block(0, 0, in.a);
    expect_trim_matches_reference(a, 300);
    if (c == testing::PanelCase::ZeroSubcolumn) {
      EXPECT_EQ(HouseholderQr(a).r()(36, 36), 3.0);
    }
  }
}

TEST(QrStaircase, InterleavedTrianglesMatchUntrimmed) {
  // The TSQR root's stack: four 72 x 72 upper triangles and a ragged
  // 15 x 72 trapezoid, interleaved by row index, so column j is nonzero
  // only in its first 4·min(j + 1, 72) + min(j + 1, 15) rows; then the
  // same stack above 50 zero rows.
  std::vector<Matrix> tri;
  for (const Index rows : {72, 72, 15, 72, 72}) {
    tri.push_back(HouseholderQr(random_matrix(rows + 100, 72, 3100 + rows)).r()
                      .top_rows(rows));
  }
  Index total = 0;
  for (const Matrix& t : tri) total += t.rows();
  for (const Index pad : {Index{0}, Index{50}}) {
    SCOPED_TRACE(::testing::Message() << "zero rows below " << pad);
    Matrix stack(total + pad, 72);
    Index s = 0;
    for (Index i = 0; i < 72; ++i) {
      for (const Matrix& t : tri) {
        if (i >= t.rows()) continue;
        for (Index j = 0; j < 72; ++j) stack(s, j) = t(i, j);
        ++s;
      }
    }
    expect_trim_matches_reference(stack, total);
  }
}

// ----------------------------------------------------------- shape sweep

class QrShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(QrShapeSweep, FactorizationInvariants) {
  const auto [m, n, seed] = GetParam();
  const Matrix a = random_matrix(m, n, seed);
  const QrResult qr = qr_thin(a);
  const Index k = std::min<Index>(m, n);
  ASSERT_EQ(qr.q.cols(), k);
  ASSERT_EQ(qr.r.rows(), k);
  expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-11);
  EXPECT_LT(ortho_defect(qr.q), 1e-12);
  for (Index i = 0; i < k; ++i) EXPECT_GE(qr.r(i, i), -1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 23, 64, 200, 300),
                       ::testing::Values(1, 2, 5, 23, 64),
                       ::testing::Values(0u, 1u, 2u)));

}  // namespace
}  // namespace parsvd
