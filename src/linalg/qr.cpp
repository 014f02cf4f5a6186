#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

namespace {

obs::Counter& qr_flops() {
  static obs::Counter& flops =
      obs::Registry::global().counter("linalg.qr.flops");
  return flops;
}

/// Applying k reflectors to an m x c block: 4mck - 2ck^2 flops, written
/// 2ck(2m - k) so that (k <= m) the unsigned counter cannot wrap.
void count_apply(Index m, Index c, Index k) {
  qr_flops().add(2ull * static_cast<std::uint64_t>(c) *
                 static_cast<std::uint64_t>(k) *
                 (2ull * static_cast<std::uint64_t>(m) -
                  static_cast<std::uint64_t>(k)));
}

}  // namespace

HouseholderQr::HouseholderQr(Matrix a) : HouseholderQr(std::move(a), 0) {}

HouseholderQr::HouseholderQr(Matrix a, Index block) : qr_(std::move(a)) {
  const Index m = qr_.rows();
  const Index n = qr_.cols();
  PARSVD_REQUIRE(m > 0 && n > 0, "QR of an empty matrix");
  PARSVD_TRACE_SCOPE("linalg.qr.factor");
  static obs::Counter& calls = obs::Registry::global().counter("linalg.qr.calls");
  calls.add(1);
  const Index k = std::min(m, n);
  // Householder QR cost model: 2mnk - 2k^3/3 (k = min(m, n)); since
  // k <= m and k <= n the subtraction can't wrap the unsigned counter.
  qr_flops().add(2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
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
  count_apply(m, b.cols(), rank_bound());
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
  count_apply(m, b.cols(), rank_bound());
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
