#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "jacobi.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace parsvd::oracle {
namespace {

constexpr double kTol = 1e-13;  // normalized column coherence at convergence
constexpr int kMaxSweeps = 64;

/// Truncate an SVD result to the leading `rank` triplets (0 = keep all).
void truncate(SvdResult& r, Index rank) {
  if (rank <= 0 || rank >= r.s.size()) return;
  r.u = r.u.left_cols(rank);
  r.v = r.v.left_cols(rank);
  r.s = r.s.head(rank);
}

/// Sort an SVD result by descending singular value (stable).
void sort_descending(SvdResult& r) {
  const Index k = r.s.size();
  std::vector<Index> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(),
                   [&r](Index a, Index b) { return r.s[a] > r.s[b]; });
  bool sorted = true;
  for (Index i = 0; i < k; ++i) {
    if (order[static_cast<std::size_t>(i)] != i) { sorted = false; break; }
  }
  if (sorted) return;
  Matrix u(r.u.rows(), k), v(r.v.rows(), k);
  Vector s(k);
  for (Index i = 0; i < k; ++i) {
    const Index src = order[static_cast<std::size_t>(i)];
    u.set_col(i, r.u.col(src));
    v.set_col(i, r.v.col(src));
    s[i] = r.s[src];
  }
  r.u = std::move(u);
  r.v = std::move(v);
  r.s = std::move(s);
}

/// Core one-sided Jacobi on a square-ish working matrix W (m x n, m >= n).
/// On return W's columns are U scaled by the singular values and V holds
/// the accumulated right rotations.
SvdResult one_sided_jacobi(Matrix w) {
  const Index n = w.cols();
  Matrix v = Matrix::identity(n);

  // Normalize the working scale to ~1: at extreme magnitudes (|A| near
  // 1e±150) the squared-norm products the rotations use underflow or
  // overflow and the sweeps never converge. Singular values are scaled
  // back at the end.
  const double input_fro = w.norm_fro();
  const double scale_back = (input_fro > 0.0) ? input_fro : 1.0;
  if (input_fro > 0.0) w *= 1.0 / input_fro;

  // Columns whose squared norm falls below this are numerically zero:
  // rotating them against each other only chases round-off and keeps the
  // sweep loop from ever converging on rank-deficient inputs.
  const double fro = (input_fro > 0.0) ? 1.0 : 0.0;
  const double tiny2 = (1e-15 * fro) * (1e-15 * fro);

  // Sweep over all column pairs until every pair is numerically
  // orthogonal: |aᵢᵀaⱼ| <= tol * ||aᵢ|| ||aⱼ||.
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        auto colp = w.col_span(p);
        auto colq = w.col_span(q);
        const double app = dot(colp, colp);
        const double aqq = dot(colq, colq);
        const double apq = dot(colp, colq);
        if (app <= tiny2 || aqq <= tiny2) continue;
        if (std::fabs(apq) <= kTol * std::sqrt(app * aqq)) continue;
        rotated = true;

        // Two-sided rotation angle for the 2x2 Gram block.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        for (std::size_t i = 0; i < colp.size(); ++i) {
          const double xp = colp[i], xq = colq[i];
          colp[i] = c * xp - s * xq;
          colq[i] = s * xp + c * xq;
        }
        double* vp = v.col_data(p);
        double* vq = v.col_data(q);
        for (Index i = 0; i < n; ++i) {
          const double xp = vp[i], xq = vq[i];
          vp[i] = c * xp - s * xq;
          vq[i] = s * xp + c * xq;
        }
      }
    }
    if (!rotated) break;
    if (sweep + 1 == kMaxSweeps) {
      throw ConvergenceError("one-sided Jacobi SVD exceeded sweep budget");
    }
  }

  SvdResult out;
  out.s = Vector(n);
  out.u = Matrix(w.rows(), n);
  out.v = std::move(v);
  const double tiny = 1e-15 * fro;
  for (Index j = 0; j < n; ++j) {
    const double norm = nrm2(w.col_span(j));
    out.s[j] = norm * scale_back;
    if (norm > tiny) {
      auto src = w.col_span(j);
      double* dst = out.u.col_data(j);
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] / norm;
    }
    // Negligible column: the sweep guard above never rotated it, so its
    // direction is round-off junk — report σ but leave the U column
    // zero (same contract as the method-of-snapshots backend).
  }
  sort_descending(out);
  return out;
}

}  // namespace

SvdResult svd_jacobi(const Matrix& a, Index rank) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  if (!std::isfinite(a.norm_max())) {
    throw NonFiniteError("svd input has a non-finite entry");
  }
  const Index m = a.rows();
  const Index n = a.cols();

  SvdResult out;
  if (m >= n) {
    // QR preconditioning: Jacobi on the small n x n factor R, then lift
    // U back through Q. Cuts the rotation cost from O(m n^2 sweeps) to
    // O(n^3 sweeps) for tall matrices.
    if (m > 2 * n) {
      QrResult qr = qr_thin_raw(a);
      out = one_sided_jacobi(std::move(qr.r));
      out.u = matmul(qr.q, out.u);
    } else {
      out = one_sided_jacobi(a);
    }
  } else {
    // Wide matrix: factor the transpose and swap factors.
    out = svd_jacobi(a.transposed());
    std::swap(out.u, out.v);
  }
  truncate(out, rank);
  return out;
}

}  // namespace parsvd::oracle
