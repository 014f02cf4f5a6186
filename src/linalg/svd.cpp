#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "obs/trace.hpp"

namespace parsvd {

Matrix SvdResult::reconstruct() const {
  Matrix us = u;
  for (Index j = 0; j < us.cols(); ++j) {
    scal(s[j], us.col_span(j));
  }
  return matmul(us, v, Trans::No, Trans::Yes);
}

SvdResult snapshots_right_vectors(const Matrix& a, Index rank) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  const Index n = a.cols();

  // Gram matrix AᵀA = V Σ² Vᵀ; eigh gives descending eigenvalues.
  const Matrix g = gram(a);
  // The Gram squares the entries. When its trace ‖A‖_F² (within a factor
  // n of the largest squared column norm) leaves [2^-400, 2^400] it may
  // have over- or underflowed: redo the solve on an exact power-of-two
  // rescaling of A and scale σ back. A NaN or infinite entry of A makes
  // the trace non-finite, so the finiteness check lives on the same
  // branch. Checking the Gram, not A, keeps the common path free of an
  // extra pass over A.
  double trace = 0.0;
  for (Index j = 0; j < n; ++j) trace += g(j, j);
  if (!(trace >= 0x1p-400 && trace <= 0x1p400)) {
    const double amax = a.norm_max();
    if (!std::isfinite(amax)) throw NonFiniteError("svd input has a non-finite entry");
    if (const int e = safe_scale_exponent(amax); e != 0) {
      SvdResult out = snapshots_right_vectors(scale_by_pow2(a, -e), rank);
      for (Index j = 0; j < out.s.size(); ++j) out.s[j] = std::ldexp(out.s[j], e);
      return out;
    }
  }
  EighOptions eopts;
  eopts.rank = rank;
  EighResult eig = eigh(g, eopts);
  const Index k = eig.values.size();

  SvdResult out;
  out.s = Vector(k);
  out.v = std::move(eig.vectors);
  // Eigenvalues of a Gram matrix are >= 0 in exact arithmetic; clamp
  // round-off negatives.
  for (Index j = 0; j < k; ++j) {
    out.s[j] = std::sqrt(std::max(eig.values[j], 0.0));
  }
  return out;
}

SvdResult svd_method_of_snapshots(const Matrix& a, const SvdOptions& opts) {
  SvdResult out = snapshots_right_vectors(a, opts.rank);
  const Index k = out.s.size();

  // U = A V Σ⁻¹ over the k kept columns, computed only for numerically
  // nonzero singular values.
  const double cutoff = (k > 0 ? out.s[0] : 0.0) * 1e-14;
  out.u = matmul(a, out.v);
  for (Index j = 0; j < k; ++j) {
    if (out.s[j] > cutoff && out.s[j] > 0.0) {
      scal(1.0 / out.s[j], out.u.col_span(j));
    } else {
      auto col = out.u.col_span(j);
      std::fill(col.begin(), col.end(), 0.0);
      out.s[j] = (out.s[j] > 0.0) ? out.s[j] : 0.0;
    }
  }
  return out;
}

SvdResult svd(const Matrix& a, const SvdOptions& opts) {
  PARSVD_TRACE_SCOPE("linalg.svd");
  switch (opts.method) {
    case SvdMethod::MethodOfSnapshots:
      return svd_method_of_snapshots(a, opts);
    case SvdMethod::GolubKahan:
      return svd_golub_kahan(a, opts);
  }
  throw ConfigError("unknown SVD method");
}

Matrix pinv(const Matrix& a, double rcond) {
  SvdResult f = svd(a);
  const double cutoff = (f.s.size() > 0 ? f.s[0] : 0.0) * rcond;
  // A⁺ = V Σ⁺ Uᵀ.
  Matrix vs = f.v;
  for (Index j = 0; j < vs.cols(); ++j) {
    const double sj = f.s[j];
    const double inv = (sj > cutoff && sj > 0.0) ? 1.0 / sj : 0.0;
    scal(inv, vs.col_span(j));
  }
  return matmul(vs, f.u, Trans::No, Trans::Yes);
}

namespace {

/// The sign convention's one loop: flip every column j of U whose entry
/// of largest magnitude (lowest index on ties) is negative, and column j
/// of *v with it when v is given.
void flip_to_positive_pivots(Matrix& u, Matrix* v) {
  for (Index j = 0; j < u.cols(); ++j) {
    double best = 0.0;
    Index best_i = 0;
    const double* uc = u.col_data(j);
    for (Index i = 0; i < u.rows(); ++i) {
      if (std::fabs(uc[i]) > best) {
        best = std::fabs(uc[i]);
        best_i = i;
      }
    }
    if (uc[best_i] < 0.0) {
      scal(-1.0, u.col_span(j));
      if (v != nullptr) scal(-1.0, v->col_span(j));
    }
  }
}

}  // namespace

void fix_svd_signs(Matrix& u, Matrix& v) {
  PARSVD_REQUIRE(u.cols() == v.cols(), "fix_svd_signs: column count mismatch");
  flip_to_positive_pivots(u, &v);
}

void fix_mode_signs(Matrix& u) { flip_to_positive_pivots(u, nullptr); }

}  // namespace parsvd
