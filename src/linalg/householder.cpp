#include "linalg/householder.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace parsvd::detail {

Reflector make_reflector(double alpha, std::span<double> tail) {
  double xnorm = nrm2(tail);
  if (xnorm == 0.0) {
    // Nothing below the diagonal: identity reflector.
    return {0.0, alpha};
  }
  double beta = std::hypot(alpha, xnorm);
  if (alpha >= 0.0) beta = -beta;  // choose sign to avoid cancellation
  // LAPACK dlarfg's guard: once |beta| is tiny, 1/(alpha - beta) can
  // overflow (it does when alpha - beta is subnormal). Scale x by an exact
  // power of two into range, build the reflector there (tau and v are
  // scale-free), and scale only beta back.
  const int e = safe_scale_exponent(std::fabs(beta));
  if (e < 0) {
    alpha = std::ldexp(alpha, -e);
    for (double& x : tail) x = std::ldexp(x, -e);
    xnorm = nrm2(tail);
    beta = std::hypot(alpha, xnorm);
    if (alpha >= 0.0) beta = -beta;
  }
  const double tau = (beta - alpha) / beta;
  scal(1.0 / (alpha - beta), tail);
  return {tau, (e < 0) ? std::ldexp(beta, e) : beta};
}

void apply_reflector(double tau, const double* v_tail, double* c, Index j,
                     Index m) {
  const auto len = static_cast<std::size_t>(m - j - 1);
  const double w = tau * (c[j] + dot_kernel(v_tail, c + j + 1, len));
  c[j] -= w;
  axpy(-w, std::span<const double>(v_tail, len), std::span<double>(c + j + 1, len));
}

void apply_reflectors_backward(const Matrix& v, std::span<const double> tau,
                               Index shift, Matrix& c) {
  for (auto j = static_cast<Index>(tau.size()) - 1; j >= 0; --j) {
    const double t = tau[static_cast<std::size_t>(j)];
    if (t == 0.0) continue;
    const double* tail = v.col_data(j) + j + shift + 1;
    for (Index q = 0; q < c.cols(); ++q) {
      apply_reflector(t, tail, c.col_data(q), j + shift, c.rows());
    }
  }
}

Givens make_givens(double a, double b) {
  if (b == 0.0) return {1.0, 0.0, a};
  if (a == 0.0) return {0.0, 1.0, b};
  const double big = std::max(std::fabs(a), std::fabs(b));
  const double r = (big > 0x1p-480 && big < 0x1p480) ? std::sqrt(a * a + b * b)
                                                     : std::hypot(a, b);
  return {a / r, b / r, r};
}

void RotationLog::unwind(Matrix& y) {
  const Index rows = y.rows();
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    // Gᵀ on columns (j, k): the rotation with (c, -s).
    double* pj = y.col_data(it->j);
    double* pk = y.col_data(it->k);
    const double c = it->c, s = it->s;
    for (Index i = 0; i < rows; ++i) {
      const double xj = pj[i], xk = pk[i];
      pj[i] = c * xj - s * xk;
      pk[i] = s * xj + c * xk;
    }
  }
  entries_ = {};
}

}  // namespace parsvd::detail
