#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace parsvd {
namespace {

// The reflectors of one panel, V = [V1; V2] ((m - j0) x jb, unit lower
// trapezoidal). Only the jb x jb unit lower triangle V1 is copied out
// (its unit diagonal and the zeros above it are implicit in the factored
// storage); the dense rows V2 below it are read in place, so no panel
// ever materializes its m x jb V.
struct PanelV {
  Matrix top;           // V1, jb x jb
  const double* dense;  // V2(0, 0), leading dimension ld
  Index dense_rows;
  Index ld;
};

// The panel of reflectors [j0, j0 + jb) of the factored storage `qr`.
PanelV panel_v(const Matrix& qr, Index j0, Index jb) {
  const Index m = qr.rows();
  Matrix top(jb, jb);
  for (Index jj = 0; jj < jb; ++jj) {
    top(jj, jj) = 1.0;
    const double* col = qr.col_data(j0 + jj) + j0;
    for (Index r = jj + 1; r < jb; ++r) top(r, jj) = col[r];
  }
  return {std::move(top), qr.col_data(j0) + j0 + jb, m - j0 - jb, m};
}

Index default_qr_block() {
  // The autotune profile already folds in the PARSVD_QR_BLOCK override
  // (defaults -> profile file -> env; see linalg/autotune.hpp).
  return autotune::active_profile().qr_block;
}

// In-place C((m - j0) x nc, leading dim ldc) := (I - V op(T) Vᵀ) C — the
// compact-WY block reflector, i.e. Qᵀ C for op(T) = Tᵀ (transpose=true)
// and Q C for op(T) = T.  The rank-jb products with V1 and V2 run
// through the packed GEMM engine; the small jb x jb triangular product
// with T stays serial.
void apply_wy(const PanelV& v, const Matrix& t, bool transpose, double* c,
              Index ldc, Index nc) {
  const Index jb = v.top.rows();
  if (nc == 0) return;

  // W = Vᵀ C = V1ᵀ C1 + V2ᵀ C2  (jb x nc), with C1 the top jb rows of C.
  Matrix w(jb, nc);
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, nc, jb, 1.0,
                          v.top.data(), jb, c, ldc, w.data(), jb);
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, nc, v.dense_rows, 1.0,
                          v.dense, v.ld, c + jb, ldc, w.data(), jb);
  // W := op(T) W — T is jb x jb upper triangular.
  if (transpose) {
    // (Tᵀ W)_i = Σ_{l<=i} T(l,i) W_l; descending i keeps inputs intact.
    for (Index col = 0; col < nc; ++col) {
      double* wc = w.col_data(col);
      for (Index i = jb - 1; i >= 0; --i) {
        double s = 0.0;
        for (Index l = 0; l <= i; ++l) s += t(l, i) * wc[l];
        wc[i] = s;
      }
    }
  } else {
    // (T W)_i = Σ_{l>=i} T(i,l) W_l; ascending i keeps inputs intact.
    for (Index col = 0; col < nc; ++col) {
      double* wc = w.col_data(col);
      for (Index i = 0; i < jb; ++i) {
        double s = 0.0;
        for (Index l = i; l < jb; ++l) s += t(i, l) * wc[l];
        wc[i] = s;
      }
    }
  }
  // C -= V W, i.e. C1 -= V1 W and C2 -= V2 W.
  detail::gemm_accumulate(Trans::No, Trans::No, jb, nc, jb, -1.0,
                          v.top.data(), jb, w.data(), jb, c, ldc);
  detail::gemm_accumulate(Trans::No, Trans::No, v.dense_rows, nc, jb, -1.0,
                          v.dense, v.ld, w.data(), jb, c + jb, ldc);
}

// Compact-WY T factor (jb x jb upper triangular) of the panel `v`, whose
// reflectors have the coefficients `tau` (jb of them).
Matrix build_t(const PanelV& v, std::span<const double> tau) {
  // LAPACK larft, forward columnwise: growing T so that
  // H_0 ... H_{i} = I - V(:,0:i+1) T(0:i+1,0:i+1) V(:,0:i+1)ᵀ with
  // T(0:i, i) = -tau_i T(0:i,0:i) (V(:,0:i)ᵀ v_i), T(i,i) = tau_i.
  // Every V(:,0:i)ᵀ v_i is a column of VᵀV's strict upper triangle, so
  // all of them come from one VᵀV = V1ᵀV1 + V2ᵀV2 through the packed engine.
  const Index jb = v.top.rows();
  Matrix vtv(jb, jb);
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, jb, jb, 1.0,
                          v.top.data(), jb, v.top.data(), jb, vtv.data(), jb);
  detail::gemm_accumulate(Trans::Yes, Trans::No, jb, jb, v.dense_rows, 1.0,
                          v.dense, v.ld, v.dense, v.ld, vtv.data(), jb);
  Matrix t(jb, jb);
  for (Index i = 0; i < jb; ++i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    if (taui == 0.0) continue;  // identity reflector: column stays zero
    t(i, i) = taui;
    for (Index l = 0; l < i; ++l) {
      double s = 0.0;
      for (Index p = l; p < i; ++p) s += t(l, p) * vtv(p, i);
      t(l, i) = -taui * s;
    }
  }
  return t;
}

}  // namespace

HouseholderQr::HouseholderQr(const Matrix& a) : HouseholderQr(a, 0) {}

HouseholderQr::HouseholderQr(const Matrix& a, Index block) : qr_(a) {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  PARSVD_REQUIRE(m > 0 && n > 0, "QR of an empty matrix");
  PARSVD_TRACE_SCOPE("linalg.qr.factor");
  static obs::Counter& calls = obs::Registry::global().counter("linalg.qr.calls");
  static obs::Counter& flops = obs::Registry::global().counter("linalg.qr.flops");
  calls.add(1);
  const Index k = std::min(m, n);
  // Householder QR cost model: 2mnk - 2k^3/3 (k = min(m, n)); since
  // k <= m and k <= n the subtraction can't wrap the unsigned counter.
  flops.add(2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
                static_cast<std::uint64_t>(k) -
            2ull * static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k) *
                static_cast<std::uint64_t>(k) / 3);
  tau_.assign(static_cast<std::size_t>(k), 0.0);
  block_ = (block > 0) ? block : default_qr_block();
  if (block_ <= 1) {
    factor_unblocked();
  } else {
    factor_blocked();
  }
}

void HouseholderQr::factor_unblocked() {
  factor_panel(0, rank_bound(), qr_.cols());
}

void HouseholderQr::factor_blocked() {
  const Index n = qr_.cols();
  const Index k = rank_bound();
  for (Index j0 = 0; j0 < k; j0 += block_) {
    const Index jb = std::min(block_, k - j0);
    factor_panel(j0, jb, j0 + jb);
    const PanelV v = panel_v(qr_, j0, jb);
    t_.push_back(build_t(v, std::span<const double>(tau_).subspan(
                                static_cast<std::size_t>(j0),
                                static_cast<std::size_t>(jb))));
    const Index next = j0 + jb;
    if (next < n) {
      // Level-3 trailing update: A(j0:m, next:n) := Q_panelᵀ A(j0:m, next:n).
      apply_wy(v, t_.back(), /*transpose=*/true, qr_.col_data(next) + j0,
               qr_.rows(), n - next);
    }
  }
}

void HouseholderQr::factor_panel(Index j0, Index jb, Index update_to) {
  const Index m = qr_.rows();
  for (Index jj = 0; jj < jb; ++jj) {
    const Index j = j0 + jj;
    double* colj = qr_.col_data(j);
    std::span<double> tail(colj + j + 1, static_cast<std::size_t>(m - j - 1));
    const detail::Reflector h = detail::make_reflector(colj[j], tail);
    tau_[static_cast<std::size_t>(j)] = h.tau;
    colj[j] = h.beta;
    if (h.tau == 0.0) continue;
    // Apply (I - tau v vᵀ) to the remaining panel columns.
    for (Index c = j + 1; c < update_to; ++c) {
      detail::apply_reflector(h.tau, colj + j + 1, qr_.col_data(c), j, m);
    }
  }
}

Matrix HouseholderQr::r() const {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  const Index k = std::min(m, n);
  Matrix out(k, n);
  for (Index j = 0; j < n; ++j) {
    const Index upto = std::min(j + 1, k);
    for (Index i = 0; i < upto; ++i) out(i, j) = qr_(i, j);
  }
  return out;
}

Matrix HouseholderQr::thin_q() const {
  const Index m = qr_.rows();
  const Index k = rank_bound();
  // Start from the leading k columns of I and apply Q = H_0 ... H_{k-1}
  // (the apply carries the linalg.qr.apply span).
  Matrix q(m, k);
  for (Index j = 0; j < k; ++j) q(j, j) = 1.0;
  apply_q(q);
  return q;
}

void HouseholderQr::apply_blocked(Matrix& b, bool transpose) const {
  const Index k = rank_bound();
  const Index nc = b.cols();
  const Index nblocks = (k + block_ - 1) / block_;
  // Qᵀ B applies the reflector blocks forward, Q B in reverse.
  for (Index bi = 0; bi < nblocks; ++bi) {
    const Index blk = transpose ? bi : nblocks - 1 - bi;
    const Index j0 = blk * block_;
    const Index jb = std::min(block_, k - j0);
    apply_wy(panel_v(qr_, j0, jb), t_[static_cast<std::size_t>(blk)], transpose,
             b.data() + j0, b.rows(), nc);
  }
}

void HouseholderQr::apply_qt(Matrix& b) const {
  const Index m = qr_.rows();
  PARSVD_REQUIRE(b.rows() == m, "apply_qt: row mismatch");
  PARSVD_TRACE_SCOPE("linalg.qr.apply");
  if (block_ > 1) {
    apply_blocked(b, /*transpose=*/true);
    return;
  }
  const Index k = rank_bound();
  // Qᵀ = H_{k-1} ... H_0 applied in forward order.
  for (Index j = 0; j < k; ++j) {
    const double tau = tau_[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    const double* v_tail = qr_.col_data(j) + j + 1;
    for (Index c = 0; c < b.cols(); ++c) {
      detail::apply_reflector(tau, v_tail, b.col_data(c), j, m);
    }
  }
}

void HouseholderQr::apply_q(Matrix& b) const {
  const Index m = qr_.rows();
  PARSVD_REQUIRE(b.rows() == m, "apply_q: row mismatch");
  PARSVD_TRACE_SCOPE("linalg.qr.apply");
  if (block_ > 1) {
    apply_blocked(b, /*transpose=*/false);
    return;
  }
  const Index k = rank_bound();
  // Q = H_0 ... H_{k-1} applied in reverse order.
  for (Index j = k - 1; j >= 0; --j) {
    const double tau = tau_[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    const double* v_tail = qr_.col_data(j) + j + 1;
    for (Index c = 0; c < b.cols(); ++c) {
      detail::apply_reflector(tau, v_tail, b.col_data(c), j, m);
    }
  }
}

Vector HouseholderQr::solve_least_squares(const Vector& b) const {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  PARSVD_REQUIRE(b.size() == m, "least-squares rhs length mismatch");
  PARSVD_REQUIRE(m >= n, "least squares requires m >= n");

  Matrix rhs(m, 1);
  rhs.set_col(0, b);
  apply_qt(rhs);

  // Back substitution on the n x n upper triangle.
  Vector x(n);
  for (Index i = n - 1; i >= 0; --i) {
    double s = rhs(i, 0);
    for (Index j = i + 1; j < n; ++j) s -= qr_(i, j) * x[j];
    const double rii = qr_(i, i);
    PARSVD_REQUIRE(rii != 0.0, "rank-deficient least-squares system");
    x[i] = s / rii;
  }
  return x;
}

QrResult qr_thin_raw(const Matrix& a) {
  HouseholderQr f(a);
  return {f.thin_q(), f.r()};
}

std::vector<double> fix_r_signs(Matrix& r) {
  const Index k = std::min(r.rows(), r.cols());
  std::vector<double> signs(static_cast<std::size_t>(k), 1.0);
  for (Index i = 0; i < k; ++i) {
    if (r(i, i) < 0.0) {
      signs[static_cast<std::size_t>(i)] = -1.0;
      for (Index j = 0; j < r.cols(); ++j) r(i, j) = -r(i, j);
    }
  }
  return signs;
}

QrResult qr_thin(const Matrix& a) {
  QrResult qr = qr_thin_raw(a);
  // Deterministic sign convention: flip so every diagonal of R is >= 0.
  const std::vector<double> signs = fix_r_signs(qr.r);
  for (Index i = 0; i < static_cast<Index>(signs.size()); ++i) {
    if (signs[static_cast<std::size_t>(i)] < 0.0) scal(-1.0, qr.q.col_span(i));
  }
  return qr;
}

namespace {

// fp32 column helpers with double accumulation (a float dot over 10^4+
// rows loses ~3 digits if accumulated in float; the widening is free on
// scalar units and irrelevant next to the fp32 GEMM savings).
double dot_f32(std::span<const float> x, std::span<const float> y) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return s;
}

void axpy_f32(float alpha, std::span<const float> x, std::span<float> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace

Index orthonormalize_mgs2_f32(MatrixF& a, float tol) {
  const Index n = a.cols();
  Index dropped = 0;
  std::vector<double> initial(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    initial[static_cast<std::size_t>(j)] =
        std::sqrt(dot_f32(a.col_span(j), a.col_span(j)));
  }

  for (Index j = 0; j < n; ++j) {
    auto colj = a.col_span(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (Index i = 0; i < j; ++i) {
        const double proj = dot_f32(a.col_span(i), colj);
        axpy_f32(static_cast<float>(-proj), a.col_span(i), colj);
      }
    }
    const double norm = std::sqrt(dot_f32(colj, colj));
    const double floor_norm = static_cast<double>(tol) *
                              std::max(initial[static_cast<std::size_t>(j)], 1.0);
    if (norm <= floor_norm) {
      std::fill(colj.begin(), colj.end(), 0.0f);
      ++dropped;
    } else {
      const float inv = static_cast<float>(1.0 / norm);
      for (float& v : colj) v *= inv;
    }
  }
  return dropped;
}

Index orthonormalize_mgs2(Matrix& a, double tol) {
  const Index n = a.cols();
  Index dropped = 0;
  std::vector<double> initial(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) initial[static_cast<std::size_t>(j)] = nrm2(a.col_span(j));

  for (Index j = 0; j < n; ++j) {
    auto colj = a.col_span(j);
    // Two MGS passes against all previous columns for CGS2-level
    // orthogonality (single-pass MGS loses orthogonality at kappa ~ 1e8).
    for (int pass = 0; pass < 2; ++pass) {
      for (Index i = 0; i < j; ++i) {
        const double proj = dot(a.col_span(i), colj);
        axpy(-proj, a.col_span(i), colj);
      }
    }
    const double norm = nrm2(colj);
    const double floor_norm = tol * std::max(initial[static_cast<std::size_t>(j)], 1.0);
    if (norm <= floor_norm) {
      std::fill(colj.begin(), colj.end(), 0.0);
      ++dropped;
    } else {
      scal(1.0 / norm, colj);
    }
  }
  return dropped;
}

namespace {

// Cholesky S = RᵀR of a symmetric matrix (full storage), R left in the
// upper triangle, strict lower zeroed. Fails (false) on a pivot at or
// below `pivot_floor` — the caller sets the floor to the Gram noise level
// of the precision that computed S, so "breakdown" means the
// factorization would be resolving noise, not data. The `!(d > ...)`
// form also catches NaN from an overflowed Gram.
bool cholesky_upper(Matrix& s, double pivot_floor) {
  const Index n = s.rows();
  for (Index j = 0; j < n; ++j) {
    double d = s(j, j);
    for (Index k = 0; k < j; ++k) d -= s(k, j) * s(k, j);
    if (!(d > pivot_floor)) return false;
    const double r = std::sqrt(d);
    s(j, j) = r;
    for (Index i = j + 1; i < n; ++i) {
      double v = s(j, i);
      for (Index k = 0; k < j; ++k) v -= s(k, j) * s(k, i);
      s(j, i) = v / r;
    }
  }
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) s(i, j) = 0.0;
  }
  return true;
}

// Inverse of an upper-triangular R by back substitution, column by
// column. n is the sketch width (tens), so the O(n^3) scalar loops are
// noise next to the m x n GEMMs around them.
Matrix upper_inverse(const Matrix& r) {
  const Index n = r.rows();
  Matrix inv(n, n);
  for (Index j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / r(j, j);
    for (Index i = j - 1; i >= 0; --i) {
      double s = 0.0;
      for (Index k = i + 1; k <= j; ++k) s += r(i, k) * inv(k, j);
      inv(i, j) = -s / r(i, i);
    }
  }
  return inv;
}

// One fp64 CholeskyQR pass. `pivot_rel` scales the breakdown floor by the
// largest Gram diagonal.
bool cholqr_pass(Matrix& a, double pivot_rel) {
  Matrix s = gram(a);
  double max_diag = 0.0;
  for (Index j = 0; j < s.cols(); ++j) max_diag = std::max(max_diag, s(j, j));
  if (!(max_diag > 0.0)) return false;
  if (!cholesky_upper(s, pivot_rel * max_diag)) return false;
  const Matrix rinv = upper_inverse(s);
  Matrix out(a.rows(), a.cols());
  gemm(Trans::No, Trans::No, 1.0, a, rinv, 0.0, out);
  a = std::move(out);
  return true;
}

// fp32 pass: Gram and the basis update through the packed fp32 engine,
// the small factorization in double (free, and it keeps one Cholesky).
bool cholqr_pass_f32(MatrixF& a, double pivot_rel) {
  MatrixF sf(a.cols(), a.cols());
  gemm_f32(Trans::Yes, Trans::No, 1.0f, a, a, 0.0f, sf);
  Matrix s(a.cols(), a.cols());
  double max_diag = 0.0;
  for (Index j = 0; j < sf.cols(); ++j) {
    for (Index i = 0; i < sf.rows(); ++i) s(i, j) = static_cast<double>(sf(i, j));
    max_diag = std::max(max_diag, s(j, j));
  }
  if (!(max_diag > 0.0)) return false;
  if (!cholesky_upper(s, pivot_rel * max_diag)) return false;
  const Matrix rinv = upper_inverse(s);
  MatrixF rinvf(rinv.rows(), rinv.cols());
  for (Index j = 0; j < rinv.cols(); ++j) {
    for (Index i = 0; i < rinv.rows(); ++i) {
      rinvf(i, j) = static_cast<float>(rinv(i, j));
    }
  }
  MatrixF out(a.rows(), a.cols());
  gemm_f32(Trans::No, Trans::No, 1.0f, a, rinvf, 0.0f, out);
  a = std::move(out);
  return true;
}

}  // namespace

Index orthonormalize_cholqr2(Matrix& a, double tol) {
  if (a.cols() == 0) return 0;
  // Pivot floor at the fp64 Gram noise level: kappa(A)^2 beyond ~1e13
  // means the first Gram is numerically singular and MGS2 (which never
  // squares the condition number) is the right tool.
  Matrix backup = a;
  if (cholqr_pass(a, 1e-13) && cholqr_pass(a, 1e-13)) return 0;
  a = std::move(backup);
  return orthonormalize_mgs2(a, tol);
}

Index orthonormalize_cholqr2_f32(MatrixF& a, float tol) {
  if (a.cols() == 0) return 0;
  // fp32 Gram noise sits near 1e-7 relative, so breakdown fires around
  // kappa(A) ~ 3e3 — exactly where fp32 CholeskyQR stops being safe.
  MatrixF backup = a;
  if (cholqr_pass_f32(a, 1e-6) && cholqr_pass_f32(a, 1e-6)) return 0;
  a = std::move(backup);
  return orthonormalize_mgs2_f32(a, tol);
}

double orthogonality_error(const Matrix& q) {
  const Matrix g = gram(q);
  double err = 0.0;
  for (Index j = 0; j < g.cols(); ++j) {
    for (Index i = 0; i < g.rows(); ++i) {
      const double target = (i == j) ? 1.0 : 0.0;
      err = std::max(err, std::fabs(g(i, j) - target));
    }
  }
  return err;
}

}  // namespace parsvd
