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

using detail::apply_wy;
using detail::build_t;
using detail::panel_v;
using detail::PanelV;
using detail::triangular_left;
using detail::vt_times;

// Panels no wider than this run the level-2 sweep (factor_panel) and take
// T from one VᵀV product (build_t); wider panels recurse (factor_recursive)
// down to it, so only 8-column slivers ever run at level-2 speed. A panel
// whose halves' products stay below the engine's packing threshold gains
// nothing from recursing and keeps the sweep too.
constexpr Index kBaseWidth = 8;

// One past the last row where columns [j0, j0 + jb) of `a` hold a nonzero,
// and at least j0 + jb. Every reflector of the panel vanishes below it, so
// the panel's factor, its T and its GEMMs stop there: exact for any input.
// A dense panel finds m at its first column's last entry.
Index panel_end(const Matrix& a, Index j0, Index jb) {
  Index end = j0 + jb;
  for (Index j = j0; j < j0 + jb; ++j) {
    const double* col = a.col_data(j);
    for (Index i = a.rows() - 1; i >= end; --i) {
      if (col[i] != 0.0) {
        end = i + 1;
        break;
      }
    }
  }
  return end;
}

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
  block_ = (block > 0) ? block : autotune::active_profile().qr_block;
  if (block_ <= 1) {
    factor_unblocked();
  } else {
    factor_blocked();
  }
}

void HouseholderQr::factor_unblocked() {
  factor_panel(0, rank_bound(), qr_.cols(), qr_.rows());
}

void HouseholderQr::factor_blocked() {
  const Index n = qr_.cols();
  const Index k = rank_bound();
  for (Index j0 = 0; j0 < k; j0 += block_) {
    const Index jb = std::min(block_, k - j0);
    const Index end = panel_end(qr_, j0, jb);
    panels_.push_back({factor_recursive(j0, jb, end), end});
    const Index next = j0 + jb;
    if (next < n) {
      // Level-3 trailing update: A(j0:end, next:n) := Q_panelᵀ A(j0:end, next:n).
      apply_wy(panel_v(qr_, j0, jb, end, 0), panels_.back().t, /*transpose=*/true,
               qr_.col_data(next) + j0, qr_.rows(), n - next);
    }
  }
}

Matrix HouseholderQr::factor_recursive(Index j0, Index jb, Index end) {
  const Index n1 = jb / 2;
  const Index n2 = jb - n1;
  if (jb <= kBaseWidth || (end - j0) * n1 * n2 < kGemmPackThreshold) {
    factor_panel(j0, jb, j0 + jb, end);
    return build_t(panel_v(qr_, j0, jb, end, 0),
                   std::span<const double>(tau_).subspan(
                       static_cast<std::size_t>(j0), static_cast<std::size_t>(jb)));
  }
  // LAPACK dgeqrt3: factor the left half, update the right half with its
  // WY form, factor the right half, then join the two T factors:
  // T = [T11 T12; 0 T22] with T12 = −T11 (V1ᵀV2) T22.
  const Index m = qr_.rows();
  const Index j1 = j0 + n1;
  const Matrix t11 = factor_recursive(j0, n1, end);
  apply_wy(panel_v(qr_, j0, n1, end, 0), t11, /*transpose=*/true,
           qr_.col_data(j1) + j0, m, n2);
  const Matrix t22 = factor_recursive(j1, n2, end);

  // V2 vanishes above row j1, where V1 is dense: V1ᵀV2 is V1's rows
  // [j1, j1 + n2) against V2's unit triangle plus the rows below against
  // V2's dense rows.
  const PanelV v2 = panel_v(qr_, j1, n2, end, 0);
  Matrix x(n1, n2);
  vt_times(n1, n2, n2, qr_.col_data(j0) + j1, m, v2.top.data(), n2, x.data(),
           n1);
  vt_times(n1, n2, v2.dense_rows, qr_.col_data(j0) + j1 + n2, m, v2.dense, m,
           x.data(), n1);
  triangular_left(t11, /*transpose=*/false, x);
  // X := −X T22: column c of X T22 is Σ_{l<=c} T22(l, c) X(:, l), so a
  // descending c reads only columns not yet overwritten.
  for (Index c = n2 - 1; c >= 0; --c) {
    double* xc = x.col_data(c);
    const double tcc = -t22(c, c);
    for (Index i = 0; i < n1; ++i) xc[i] *= tcc;
    for (Index l = 0; l < c; ++l) {
      const double tlc = -t22(l, c);
      const double* xl = x.col_data(l);
      for (Index i = 0; i < n1; ++i) xc[i] += tlc * xl[i];
    }
  }
  Matrix t(jb, jb);
  t.set_block(0, 0, t11);
  t.set_block(0, n1, x);
  t.set_block(n1, n1, t22);
  return t;
}

void HouseholderQr::factor_panel(Index j0, Index jb, Index update_to,
                                 Index end) {
  for (Index jj = 0; jj < jb; ++jj) {
    const Index j = j0 + jj;
    double* colj = qr_.col_data(j);
    std::span<double> tail(colj + j + 1, static_cast<std::size_t>(end - j - 1));
    const detail::Reflector h = detail::make_reflector(colj[j], tail);
    tau_[static_cast<std::size_t>(j)] = h.tau;
    colj[j] = h.beta;
    if (h.tau == 0.0) continue;
    // Apply (I - tau v vᵀ) to the remaining panel columns.
    for (Index c = j + 1; c < update_to; ++c) {
      detail::apply_reflector(h.tau, colj + j + 1, qr_.col_data(c), j, end);
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
    const Panel& p = panels_[static_cast<std::size_t>(blk)];
    apply_wy(panel_v(qr_, j0, jb, p.end, 0), p.t, transpose, b.data() + j0,
             b.rows(), nc);
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
