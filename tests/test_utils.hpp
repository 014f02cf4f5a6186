// Shared helpers for the parsvd test suite: naive reference kernels
// (deliberately independent from the library implementations), random
// matrix factories, and gtest matchers for matrix proximity.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/tsqr.hpp"
#include "jacobi.hpp"
#include "linalg/matrix.hpp"
#include "pmpi/comm.hpp"
#include "support/rng.hpp"

namespace parsvd::testing {

/// The SVD backends the parameterized sweeps run, by index: 0 the Jacobi
/// oracle (tests/oracle), 1 the method of snapshots, 2 Golub–Kahan.
inline SvdResult svd_backend(int backend, const Matrix& a, Index rank = 0) {
  if (backend == 0) return oracle::svd_jacobi(a, rank);
  SvdOptions opts;
  opts.method = backend == 1 ? SvdMethod::MethodOfSnapshots : SvdMethod::GolubKahan;
  opts.rank = rank;
  return svd(a, opts);
}

/// Reference O(mnk) matmul written against operator() only.
inline Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (Index k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

inline Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::gaussian(rows, cols, rng);
}

/// Random symmetric matrix with entries O(1).
inline Matrix random_symmetric(Index n, std::uint64_t seed) {
  const Matrix g = random_matrix(n, n, seed);
  Matrix s(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) s(i, j) = 0.5 * (g(i, j) + g(j, i));
  }
  return s;
}

inline void expect_matrix_near(const Matrix& actual, const Matrix& expected,
                               double tol, const char* what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  const double err = max_abs_diff(actual, expected);
  EXPECT_LE(err, tol) << what << " max |diff| = " << err;
}

inline void expect_vector_near(const Vector& actual, const Vector& expected,
                               double tol, const char* what = "") {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  const double err = max_abs_diff(actual, expected);
  EXPECT_LE(err, tol) << what << " max |diff| = " << err;
}

/// Max |AᵀA - I| — orthonormal-columns check.
inline double ortho_defect(const Matrix& q) {
  double worst = 0.0;
  for (Index i = 0; i < q.cols(); ++i) {
    for (Index j = 0; j < q.cols(); ++j) {
      double s = 0.0;
      for (Index r = 0; r < q.rows(); ++r) s += q(r, i) * q(r, j);
      const double target = (i == j) ? 1.0 : 0.0;
      worst = std::max(worst, std::fabs(s - target));
    }
  }
  return worst;
}

/// The leading got.cols() columns of `full`, each matched up to sign:
/// max |got(:, j) ∓ full(:, j)| <= tol for every j.
inline void expect_leading_columns(const Matrix& got, const Matrix& full,
                                   double tol, const char* what = "") {
  ASSERT_EQ(got.rows(), full.rows()) << what;
  ASSERT_LE(got.cols(), full.cols()) << what;
  for (Index j = 0; j < got.cols(); ++j) {
    double same = 0.0, flipped = 0.0;
    for (Index i = 0; i < got.rows(); ++i) {
      same = std::max(same, std::fabs(got(i, j) - full(i, j)));
      flipped = std::max(flipped, std::fabs(got(i, j) + full(i, j)));
    }
    EXPECT_LE(std::min(same, flipped), tol) << what << " column " << j;
  }
}

/// Frobenius norm accumulated with hypot, so subnormal entries don't
/// underflow their squares to zero.
inline double frob_norm(const Matrix& a) {
  double s = 0.0;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) s = std::hypot(s, a(i, j));
  }
  return s;
}

/// A 50 x 6 matrix of uniform [0, 1) entries times `scale`: at 1e-310
/// and 1e-315 the first reflector's alpha - beta is subnormal.
inline Matrix subnormal_matrix(double scale) {
  Rng rng(41);
  Matrix a(50, 6);
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) a(i, j) = rng.uniform() * scale;
  }
  return a;
}

/// Checks a QR of a subnormal-scale A: R finite, max |QᵀQ - I| <= 1e-12,
/// and ||A - QR||_F <= 1e-12 ||A||_F plus the resolution of the subnormal
/// grid. At 1e-315, 1e-12 ||A||_F is itself below the smallest subnormal
/// (2^-1074), and every entry of R and of the product QR is rounded to a
/// multiple of 2^-1074 (up to half of it each, so up to (k + 1)/2 ·
/// 2^-1074 per entry of QR for k = min(m, n)): no QR stored in binary64
/// reconstructs A more closely.
inline void expect_subnormal_qr(const Matrix& a, const Matrix& q,
                                const Matrix& r) {
  for (Index j = 0; j < r.cols(); ++j) {
    for (Index i = 0; i < r.rows(); ++i) ASSERT_TRUE(std::isfinite(r(i, j)));
  }
  EXPECT_LE(ortho_defect(q), 1e-12);
  Matrix residual = naive_matmul(q, r);
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) residual(i, j) -= a(i, j);
  }
  const auto k = static_cast<double>(std::min(a.rows(), a.cols()));
  const auto entries = static_cast<double>(a.rows() * a.cols());
  EXPECT_LE(frob_norm(residual),
            1e-12 * frob_norm(a) + std::sqrt(entries) * 0.5 * (k + 1.0) *
                                       std::numeric_limits<double>::denorm_min());
}

/// Upper-triangular R with diag(R) > 0 and AᵀA = RᵀR: the Cholesky
/// factor of the naive Gram matrix. For a well-conditioned, full-column-
/// rank A this is the R of A's thin QR under the diag(R) >= 0 convention,
/// obtained without running any QR code.
inline Matrix cholesky_r_of_gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix r(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      double s = 0.0;
      for (Index k = 0; k < a.rows(); ++k) s += a(k, i) * a(k, j);
      for (Index k = 0; k < i; ++k) s -= r(k, i) * r(k, j);
      r(i, j) = (i == j) ? std::sqrt(s) : s / r(i, i);
    }
  }
  return r;
}

/// Inputs for the QR panel-kernel tests (see PanelCase).
enum class PanelCase {
  Gaussian,       ///< plain N(0, 1) entries
  ZeroSubcolumn,  ///< column min(m,n)/2 is already zero below the diagonal
  ExtremeScales,  ///< columns alternately scaled by 1e300 and 1e-300
};

inline const char* to_string(PanelCase c) {
  switch (c) {
    case PanelCase::Gaussian: return "Gaussian";
    case PanelCase::ZeroSubcolumn: return "ZeroSubcolumn";
    case PanelCase::ExtremeScales: return "ExtremeScales";
  }
  return "?";
}

/// A test matrix for `c`: `a` is the matrix to factor, `unscaled` the
/// same matrix before its column scaling (the oracle's input) and
/// `scale[j]` the factor column j carries (a = unscaled · diag(scale)).
struct PanelInput {
  Matrix a;
  Matrix unscaled;
  std::vector<double> scale;
};

inline PanelInput panel_input(Index m, Index n, PanelCase c,
                              std::uint64_t seed) {
  PanelInput in{Matrix(), random_matrix(m, n, seed),
                std::vector<double>(static_cast<std::size_t>(n), 1.0)};
  if (c == PanelCase::ZeroSubcolumn) {
    // Row j is zero in every column left of j and column j is 3 e_j, so
    // the reflectors before j never touch row j and column j arrives at
    // its own step exactly zero below the diagonal: tau_j = 0.
    const Index j = std::min(m, n) / 2;
    for (Index col = 0; col < j; ++col) in.unscaled(j, col) = 0.0;
    for (Index i = 0; i < m; ++i) in.unscaled(i, j) = (i == j) ? 3.0 : 0.0;
  }
  if (c == PanelCase::ExtremeScales) {
    for (Index j = 0; j < n; ++j) {
      in.scale[static_cast<std::size_t>(j)] = (j % 2 == 0) ? 1e300 : 1e-300;
    }
  }
  in.a = in.unscaled;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) in.a(i, j) *= in.scale[static_cast<std::size_t>(j)];
  }
  return in;
}

/// Checks a thin QR (Q m x k, R k x n with diag(R) >= 0, k = min(m, n))
/// of `in.a` against oracles that run no QR code, each at `tol` relative,
/// column by column so that columns 600 decades apart are each held to
/// their own scale:
///   * orthogonality: max |QᵀQ - I| <= tol;
///   * reconstruction: ||(A - QR)(:, j)|| <= tol ||A(:, j)||;
///   * for m >= n, R against the Cholesky factor of the unscaled AᵀA,
///     scaled back column by column: |R - R_chol D|(:, j) <= tol ||R_chol(:, j)|| d_j.
inline void expect_qr_matches_oracle(const PanelInput& in, const Matrix& q,
                                     const Matrix& r, double tol) {
  const Index m = in.a.rows();
  const Index n = in.a.cols();
  const Index k = std::min(m, n);
  ASSERT_EQ(q.rows(), m);
  ASSERT_EQ(q.cols(), k);
  ASSERT_EQ(r.rows(), k);
  ASSERT_EQ(r.cols(), n);
  EXPECT_LE(ortho_defect(q), tol) << "orthogonality";
  const Matrix qr = naive_matmul(q, r);
  double worst_recon = 0.0;
  for (Index j = 0; j < n; ++j) {
    double res = 0.0, norm = 0.0;
    for (Index i = 0; i < m; ++i) {
      const double aij = in.a(i, j);
      res = std::hypot(res, qr(i, j) - aij);
      norm = std::hypot(norm, aij);
    }
    worst_recon = std::max(worst_recon, res / norm);
  }
  EXPECT_LE(worst_recon, tol) << "columnwise reconstruction";
  if (m < n) return;  // not full column rank: no Cholesky oracle
  const Matrix rc = cholesky_r_of_gram(in.unscaled);
  double worst_r = 0.0;
  for (Index j = 0; j < n; ++j) {
    const double d = in.scale[static_cast<std::size_t>(j)];
    double norm = 0.0, diff = 0.0;
    for (Index i = 0; i <= j; ++i) norm = std::hypot(norm, rc(i, j));
    for (Index i = 0; i < n; ++i) {
      diff = std::max(diff, std::fabs(r(i, j) / d - rc(i, j)));
    }
    worst_r = std::max(worst_r, diff / norm);
  }
  EXPECT_LE(worst_r, tol) << "R against the Cholesky factor of AᵀA";
}

/// Collective: this rank's rows of the global thin Q of a tsqr() result,
/// i.e. q_times with the identity (read at root only).
inline Matrix q_local(pmpi::Communicator& comm, const TsqrResult& res) {
  return res.q_times(comm, comm.is_root() ? Matrix::identity(res.r.rows())
                                          : Matrix{});
}

}  // namespace parsvd::testing
