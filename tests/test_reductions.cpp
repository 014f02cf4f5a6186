// The Householder reductions behind eigh() and the Golub–Kahan SVD, tested
// below the solvers: the blocked tridiagonalization (dsytrd) and
// bidiagonalization (dgebrd) against their column sweeps (panel width 1),
// and the compact-WY back-transform against applying one reflector at a
// time. Sizes straddle the panel width nb, the crossover below which the
// sweep runs whole, and the shapes the paper pipelines factor (the 256 x
// 256 APMOS Gram, a 204 x 204 R, a 640 x 50 block).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "linalg/autotune.hpp"
#include "linalg/householder.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::naive_matmul;
using testing::random_matrix;
using testing::random_symmetric;

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr Index kNb = autotune::kReductionBlock;
constexpr Index kCross = autotune::kReductionCrossover;

Matrix identity(Index rows, Index cols) {
  Matrix q(rows, cols);
  for (Index j = 0; j < std::min(rows, cols); ++j) q(j, j) = 1.0;
  return q;
}

double max_abs(const Matrix& a) {
  double m = 0.0;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) m = std::max(m, std::fabs(a(i, j)));
  }
  return m;
}

// ‖QᵀQ − I‖_max for Q with orthonormal columns.
double ortho_error(const Matrix& q) {
  Matrix g = naive_matmul(q.transposed(), q);
  for (Index j = 0; j < g.cols(); ++j) g(j, j) -= 1.0;
  return max_abs(g);
}

// The reflectors' back-transform applied one reflector at a time, each to
// every column of C: the reference the compact-WY panels must match.
void apply_one_at_a_time(const Matrix& v, const std::vector<double>& tau,
                         Index shift, Matrix& c) {
  const Index k = std::min(static_cast<Index>(tau.size()), c.rows() - shift);
  for (Index j = k - 1; j >= 0; --j) {
    const double t = tau[static_cast<std::size_t>(j)];
    if (t == 0.0) continue;
    for (Index q = 0; q < c.cols(); ++q) {
      detail::apply_reflector(t, v.col_data(j) + j + shift + 1, c.col_data(q),
                              j + shift, c.rows());
    }
  }
}

const Index kSquareSizes[] = {1,          2,          3,  kNb - 1,   kNb,
                              kNb + 1,    2 * kNb + 1, kCross - 1, kCross,
                              kCross + 1, 97,         204, 256};

class TridiagonalReduction : public ::testing::TestWithParam<Index> {};

TEST_P(TridiagonalReduction, BlockedMatchesColumnSweep) {
  const Index n = GetParam();
  const Matrix a = random_symmetric(n, 300 + static_cast<std::uint64_t>(n));
  const double anorm = testing::frob_norm(a);
  const detail::Tridiagonalization t = detail::tridiagonalize(a, kNb);
  const detail::Tridiagonalization ref = detail::tridiagonalize(a, 1);

  // Q from the blocked back-transform; QᵀAQ must be the tridiagonal T.
  Matrix q = identity(n, n);
  detail::apply_reflectors_backward(t.a, t.tau, 1, q, kNb);
  Matrix resid = naive_matmul(naive_matmul(q.transposed(), a), q);
  for (Index i = 0; i < n; ++i) {
    resid(i, i) -= t.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      resid(i + 1, i) -= t.e[static_cast<std::size_t>(i)];
      resid(i, i + 1) -= t.e[static_cast<std::size_t>(i)];
    }
  }
  const double bound = 10.0 * static_cast<double>(n) * kEps;
  EXPECT_LE(testing::frob_norm(resid), bound * anorm) << "Q^T A Q - T";
  EXPECT_LE(ortho_error(q), bound) << "Q^T Q - I";

  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(t.d[static_cast<std::size_t>(i)], ref.d[static_cast<std::size_t>(i)],
                1e-12 * anorm) << "d " << i;
    EXPECT_NEAR(std::fabs(t.e[static_cast<std::size_t>(i)]),
                std::fabs(ref.e[static_cast<std::size_t>(i)]), 1e-12 * anorm)
        << "e " << i;
  }
}

TEST_P(TridiagonalReduction, WyBackTransformMatchesOneReflectorAtATime) {
  const Index n = GetParam();
  const detail::Tridiagonalization t =
      detail::tridiagonalize(random_symmetric(n, 400 + static_cast<std::uint64_t>(n)), kNb);
  const Matrix c = random_matrix(n, 50, 17);
  Matrix ref = c;
  apply_one_at_a_time(t.a, t.tau, 1, ref);
  // The default panel, one that does not divide the reflector count, and
  // one a single column wide.
  for (const Index block : {kNb, Index{5}, Index{1}}) {
    SCOPED_TRACE(::testing::Message() << "block " << block);
    Matrix got = c;
    detail::apply_reflectors_backward(t.a, t.tau, 1, got, block);
    testing::expect_matrix_near(got, ref, 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagonalReduction, ::testing::ValuesIn(kSquareSizes),
                         [](const ::testing::TestParamInfo<Index>& p) {
                           return std::to_string(p.param).insert(0, 1, 'n');
                         });

// Panel widths other than the default take the same route through the
// blocked code: each one must still reduce A exactly.
TEST(TridiagonalReductionWidths, EveryPanelWidthMatchesColumnSweep) {
  const Index n = 150;
  const Matrix a = random_symmetric(n, 77);
  const double anorm = testing::frob_norm(a);
  const detail::Tridiagonalization ref = detail::tridiagonalize(a, 1);
  for (const Index block : {Index{2}, Index{3}, Index{8}, Index{32}, Index{48}}) {
    const detail::Tridiagonalization t = detail::tridiagonalize(a, block);
    for (Index i = 0; i < n; ++i) {
      ASSERT_NEAR(t.d[static_cast<std::size_t>(i)], ref.d[static_cast<std::size_t>(i)],
                  1e-12 * anorm) << "block " << block << " d " << i;
      ASSERT_NEAR(std::fabs(t.e[static_cast<std::size_t>(i)]),
                  std::fabs(ref.e[static_cast<std::size_t>(i)]), 1e-12 * anorm)
          << "block " << block << " e " << i;
    }
  }
}

struct Shape {
  Index m;
  Index n;
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.m << "x" << s.n; }

std::vector<Shape> bidiagonal_shapes() {
  std::vector<Shape> shapes;
  for (const Index n : kSquareSizes) {
    shapes.push_back({n, n});
    shapes.push_back({n + 1, n});
  }
  shapes.push_back({640, 50});
  shapes.push_back({300, 97});
  return shapes;
}

class BidiagonalReduction : public ::testing::TestWithParam<Shape> {};

TEST_P(BidiagonalReduction, BlockedMatchesColumnSweep) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 500 + static_cast<std::uint64_t>(m * 7 + n));
  const double anorm = testing::frob_norm(a);
  const detail::Bidiagonalization bd = detail::bidiagonalize(a, kNb);
  const detail::Bidiagonalization ref = detail::bidiagonalize(a, 1);

  // Thin Q_L (m x n) and Q_R (n x n); Q_Lᵀ A Q_R must be the bidiagonal B.
  Matrix ql = identity(m, n);
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, ql, kNb);
  Matrix qr = identity(n, n);
  detail::apply_reflectors_backward(bd.vr, bd.tau_r, 1, qr, kNb);
  Matrix resid = naive_matmul(naive_matmul(ql.transposed(), a), qr);
  for (Index i = 0; i < n; ++i) {
    resid(i, i) -= bd.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) resid(i, i + 1) -= bd.e[static_cast<std::size_t>(i)];
  }
  const double bound = 10.0 * static_cast<double>(std::max(m, n)) * kEps;
  EXPECT_LE(testing::frob_norm(resid), bound * anorm) << "Q_L^T A Q_R - B";
  EXPECT_LE(ortho_error(ql), bound) << "Q_L";
  EXPECT_LE(ortho_error(qr), bound) << "Q_R";

  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(std::fabs(bd.d[static_cast<std::size_t>(i)]),
                std::fabs(ref.d[static_cast<std::size_t>(i)]), 1e-12 * anorm) << "d " << i;
    if (i + 1 < n) {
      EXPECT_NEAR(std::fabs(bd.e[static_cast<std::size_t>(i)]),
                  std::fabs(ref.e[static_cast<std::size_t>(i)]), 1e-12 * anorm)
          << "e " << i;
    }
  }
}

TEST_P(BidiagonalReduction, WyBackTransformsMatchOneReflectorAtATime) {
  const auto [m, n] = GetParam();
  const detail::Bidiagonalization bd = detail::bidiagonalize(
      random_matrix(m, n, 600 + static_cast<std::uint64_t>(m * 7 + n)), kNb);
  // Wider than a panel, so the WY path runs (narrower C takes the loop).
  const Matrix cl = random_matrix(m, kNb + 4, 18);
  const Matrix cr = random_matrix(n, kNb + 4, 19);
  Matrix ref_l = cl, ref_r = cr;
  apply_one_at_a_time(bd.a, bd.tau_l, 0, ref_l);
  apply_one_at_a_time(bd.vr, bd.tau_r, 1, ref_r);
  Matrix got_l = cl, got_r = cr;
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, got_l, kNb);
  detail::apply_reflectors_backward(bd.vr, bd.tau_r, 1, got_r, kNb);
  testing::expect_matrix_near(got_l, ref_l, 1e-13, "left");
  testing::expect_matrix_near(got_r, ref_r, 1e-13, "right");
}

INSTANTIATE_TEST_SUITE_P(Shapes, BidiagonalReduction,
                         ::testing::ValuesIn(bidiagonal_shapes()),
                         [](const ::testing::TestParamInfo<Shape>& p) {
                           return std::to_string(p.param.m) + "x" +
                                  std::to_string(p.param.n);
                         });

// Below the crossover both reductions are the column sweep itself, so
// their output is bit-identical to width 1 (the small solves of the
// Burgers pipelines rely on it).
TEST(ReductionCrossover, SmallInputsRunTheColumnSweepBitIdentically) {
  for (const Index n : {Index{10}, Index{20}, kCross}) {
    const Matrix s = random_symmetric(n, 900 + static_cast<std::uint64_t>(n));
    const detail::Tridiagonalization t = detail::tridiagonalize(s, kNb);
    const detail::Tridiagonalization t1 = detail::tridiagonalize(s, 1);
    EXPECT_EQ(t.d, t1.d) << n;
    EXPECT_EQ(t.e, t1.e) << n;
    EXPECT_EQ(t.tau, t1.tau) << n;
    const Matrix a = random_matrix(4 * n, n, 950 + static_cast<std::uint64_t>(n));
    const detail::Bidiagonalization b = detail::bidiagonalize(a, kNb);
    const detail::Bidiagonalization b1 = detail::bidiagonalize(a, 1);
    EXPECT_EQ(b.d, b1.d) << n;
    EXPECT_EQ(b.e, b1.e) << n;
  }
}

// build_t forms only the tiles of VᵀV that reach its strict upper
// triangle, the part its recurrence reads (detail::vt_times_upper). That
// triangle must equal the full product's to the bit, on both of the
// product's paths (register tiles, and the column loop below the packing
// threshold) and for panels whose reflectors stop early (a staircase
// `end`); T, from the unchanged recurrence, then is bit-identical too. The
// recurrence kept here runs in a test built without -march=native, whose
// rounding of s += t·v (no fused multiply-add) can differ from the
// library's in the last bits, so T is held to 16·jb·eps·max|T| of it.
Matrix t_from_full_product(const detail::PanelV& v, const std::vector<double>& tau,
                           Matrix& vtv) {
  const Index jb = v.top.rows();
  vtv = Matrix(jb, jb);
  detail::vt_times(jb, jb, jb, v.top.data(), jb, v.top.data(), jb, vtv.data(), jb);
  detail::vt_times(jb, jb, v.dense_rows, v.dense, v.ld, v.dense, v.ld, vtv.data(), jb);
  Matrix t(jb, jb);
  for (Index i = 0; i < jb; ++i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    if (taui == 0.0) continue;
    t(i, i) = taui;
    for (Index l = 0; l < i; ++l) {
      double s = 0.0;
      for (Index p = l; p < i; ++p) s += t(l, p) * vtv(p, i);
      t(l, i) = -taui * s;
    }
  }
  return t;
}

TEST(BuildT, UpperTriangleOnlyMatchesFullProduct) {
  for (const Index rows : {Index{40}, Index{900}}) {
    for (Index jb = 1; jb <= 32; ++jb) {
      const Matrix v = random_matrix(rows, jb, 1200 + static_cast<std::uint64_t>(jb));
      for (const Index end : {jb, jb + 1, jb + 7, rows / 2, rows}) {
        for (const Index shift : {Index{0}, Index{1}}) {
          if (end > rows || end - shift < jb) continue;
          SCOPED_TRACE(::testing::Message() << "rows " << rows << " jb " << jb
                                            << " end " << end << " shift " << shift);
          const detail::PanelV pv = detail::panel_v(v, 0, jb, end, shift);
          // tau = 2 / ‖v‖², so each H is a true reflector, and one of them
          // the identity (tau = 0).
          std::vector<double> tau(static_cast<std::size_t>(jb));
          for (Index i = 0; i < jb; ++i) {
            double vv = 0.0;
            for (Index r = 0; r < jb; ++r) vv += pv.top(r, i) * pv.top(r, i);
            for (Index r = 0; r < pv.dense_rows; ++r) {
              vv += pv.dense[r + i * pv.ld] * pv.dense[r + i * pv.ld];
            }
            tau[static_cast<std::size_t>(i)] = (jb > 2 && i == 1) ? 0.0 : 2.0 / vv;
          }
          Matrix full;
          const Matrix ref = t_from_full_product(pv, tau, full);
          Matrix upper(jb, jb);
          detail::vt_times_upper(jb, jb, pv.top.data(), jb, pv.top.data(), jb,
                                 upper.data(), jb);
          detail::vt_times_upper(jb, pv.dense_rows, pv.dense, pv.ld, pv.dense, pv.ld,
                                 upper.data(), jb);
          const Matrix t = detail::build_t(pv, tau);
          const double tol = 16.0 * static_cast<double>(jb) * kEps * max_abs(ref);
          for (Index j = 0; j < jb; ++j) {
            for (Index i = 0; i < j; ++i) {
              ASSERT_EQ(upper(i, j), full(i, j)) << "VᵀV (" << i << ", " << j << ")";
            }
            for (Index i = 0; i <= j; ++i) {
              ASSERT_NEAR(t(i, j), ref(i, j), tol)
                  << "T (" << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace parsvd
