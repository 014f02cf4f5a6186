// Symmetric eigendecomposition via Householder tridiagonalization and
// implicit-shift QL iteration, written against Golub & Van Loan §8.3.
// The reduction is LAPACK's dsytrd (lower): dlatrd panels reduce 16
// columns at level-2 cost against the untouched trailing block (one symv
// per column), then one GEMM of depth 32 applies the panel's rank-32
// update; orders up to 64, and the last (at most 64) columns, run
// dsytd2's column sweep. The QL sweep is EISPACK's tql2 with its
// rotations logged instead of applied, so only the kept eigenvectors are
// ever formed (see RotationLog), and they go back through the reflectors
// in compact-WY panels (apply_reflectors_backward).
#include "linalg/eigh.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "obs/trace.hpp"

namespace parsvd {
namespace {

using detail::RotationLog;

/// The column sweep (dsytd2) over columns [i0, n) of the lower triangle:
/// every step is a reflector, a symv and a rank-2 update, each done as
/// sweeps down the columns of the trailing block, so all access is
/// unit-stride.
void sweep_columns(Matrix& a, Index i0, std::vector<double>& tau,
                   std::vector<double>& d, std::vector<double>& e) {
  const Index n = a.rows();
  std::vector<double> v(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n));

  for (Index i = i0; i + 1 < n; ++i) {
    double* coli = a.col_data(i);
    const detail::Reflector h = detail::make_reflector(
        coli[i + 1], std::span<double>(coli + i + 2, static_cast<std::size_t>(n - i - 2)));
    e[static_cast<std::size_t>(i)] = h.beta;
    tau[static_cast<std::size_t>(i)] = h.tau;
    d[static_cast<std::size_t>(i)] = coli[i];
    if (h.tau == 0.0) continue;

    // Trailing block S = A(i+1:n, i+1:n) (lower triangle), v = (1; tail).
    const Index p = n - i - 1;
    const Index off = i + 1;
    v[0] = 1.0;
    std::copy(coli + i + 2, coli + n, v.begin() + 1);
    // w = tau S v: column c adds S(c.., c) v_c below the diagonal and
    // takes S(c+1.., c)ᵀ v(c+1..) into w_c.
    std::fill(w.begin(), w.begin() + p, 0.0);
    for (Index c = 0; c < p; ++c) {
      const double* s = a.col_data(off + c) + off;
      const auto len = static_cast<std::size_t>(p - c - 1);
      const double vc = h.tau * v[static_cast<std::size_t>(c)];
      w[static_cast<std::size_t>(c)] +=
          s[c] * vc + h.tau * detail::dot_kernel(s + c + 1, v.data() + c + 1, len);
      axpy(vc, std::span<const double>(s + c + 1, len),
           std::span<double>(w.data() + c + 1, len));
    }
    // w -= (tau/2)(wᵀv) v, then S -= v wᵀ + w vᵀ on the lower triangle.
    const double alpha = -0.5 * h.tau *
                         detail::dot_kernel(w.data(), v.data(), static_cast<std::size_t>(p));
    axpy(alpha, std::span<const double>(v.data(), static_cast<std::size_t>(p)),
         std::span<double>(w.data(), static_cast<std::size_t>(p)));
    for (Index c = 0; c < p; ++c) {
      double* s = a.col_data(off + c) + off;
      const auto len = static_cast<std::size_t>(p - c);
      axpy(-w[static_cast<std::size_t>(c)], std::span<const double>(v.data() + c, len),
           std::span<double>(s + c, len));
      axpy(-v[static_cast<std::size_t>(c)], std::span<const double>(w.data() + c, len),
           std::span<double>(s + c, len));
    }
  }
  if (n > 0) d[static_cast<std::size_t>(n - 1)] = a(n - 1, n - 1);
}

/// LAPACK dlatrd (lower) on the panel of columns [i0, i0 + nb): reduces
/// them and returns, in w's columns (rows i0+1..n-1), the W with which the
/// trailing block's update is A -= V Wᵀ + W Vᵀ. The trailing block is
/// left untouched: each step's symv reads it as it was before the panel
/// and corrects with the panel's earlier V and W. Reflector i's unit
/// entry is written into a(i+1, i), where the trailing update reads it.
void reduce_panel(Matrix& a, Index i0, Index nb, Matrix& w,
                  std::vector<double>& tau, std::vector<double>& d,
                  std::vector<double>& e) {
  const Index n = a.rows();
  std::vector<double> t(static_cast<std::size_t>(nb));
  const double* v0 = a.col_data(i0);  // V, leading dimension n
  const double* w0 = w.data();        // W, leading dimension n
  for (Index jj = 0; jj < nb; ++jj) {
    const Index i = i0 + jj;
    double* coli = a.col_data(i);
    // Column i catches up with the panel so far:
    // A(i:n, i) -= V(i:n, :jj) W(i, :jj)ᵀ + W(i:n, :jj) V(i, :jj)ᵀ.
    for (Index q = 0; q < jj; ++q) t[static_cast<std::size_t>(q)] = w(i, q);
    detail::gemv_sub(n - i, jj, v0 + i, n, t.data(), coli + i);
    for (Index q = 0; q < jj; ++q) t[static_cast<std::size_t>(q)] = a(i, i0 + q);
    detail::gemv_sub(n - i, jj, w0 + i, n, t.data(), coli + i);

    const detail::Reflector h = detail::make_reflector(
        coli[i + 1], std::span<double>(coli + i + 2, static_cast<std::size_t>(n - i - 2)));
    e[static_cast<std::size_t>(i)] = h.beta;
    tau[static_cast<std::size_t>(i)] = h.tau;
    d[static_cast<std::size_t>(i)] = coli[i];
    coli[i + 1] = 1.0;

    // W(i+1:n, jj) = tau (S v - V (Wᵀv) - W (Vᵀv)), then the dsytd2
    // correction W -= (tau/2)(Wᵀv) v. tau = 0 leaves a zero column.
    const Index p = n - i - 1;
    const auto lp = static_cast<std::size_t>(p);
    const double* v = coli + i + 1;
    double* wj = w.col_data(jj) + i + 1;
    std::fill(wj, wj + p, 0.0);
    if (h.tau == 0.0) continue;
    detail::symv_lower(p, a.col_data(i + 1) + i + 1, n, v, wj);
    std::fill(t.begin(), t.begin() + jj, 0.0);
    detail::gemv_t(p, jj, w0 + i + 1, n, v, t.data());
    detail::gemv_sub(p, jj, v0 + i + 1, n, t.data(), wj);
    std::fill(t.begin(), t.begin() + jj, 0.0);
    detail::gemv_t(p, jj, v0 + i + 1, n, v, t.data());
    detail::gemv_sub(p, jj, w0 + i + 1, n, t.data(), wj);
    scal(h.tau, std::span<double>(wj, lp));
    const double alpha = -0.5 * h.tau * detail::dot_kernel(wj, v, lp);
    axpy(alpha, std::span<const double>(v, lp), std::span<double>(wj, lp));
  }
}

}  // namespace

namespace detail {

Tridiagonalization tridiagonalize(Matrix a, Index block) {
  const Index n = a.rows();
  std::vector<double> tau(static_cast<std::size_t>(n), 0.0);
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  std::vector<double> e(static_cast<std::size_t>(n), 0.0);
  Index i0 = 0;
  if (block > 1) {
    const Index nb = block;
    const Index nx = std::max(nb, autotune::kReductionCrossover);
    Matrix w(n, nb);
    // [V W] and [W V] side by side: the trailing update is one GEMM of
    // depth 2·nb, A -= [V W] [W V]ᵀ, on the lower triangle.
    Matrix vw(n, 2 * nb), wv(n, 2 * nb);
    for (; n - i0 > nx; i0 += nb) {
      reduce_panel(a, i0, nb, w, tau, d, e);
      const Index j = i0 + nb;
      const Index rows = n - j;
      for (Index q = 0; q < nb; ++q) {
        const double* vq = a.col_data(i0 + q) + j;
        const double* wq = w.col_data(q) + j;
        std::copy(vq, vq + rows, vw.col_data(q));
        std::copy(wq, wq + rows, vw.col_data(nb + q));
        std::copy(wq, wq + rows, wv.col_data(q));
        std::copy(vq, vq + rows, wv.col_data(nb + q));
      }
      // Column blocks of the lower triangle, each from its diagonal down
      // (the upper part of a diagonal block is updated too, and unread).
      for (Index c0 = 0; c0 < rows; c0 += nb) {
        const Index cb = std::min(nb, rows - c0);
        detail::gemm_accumulate(Trans::No, Trans::Yes, rows - c0, cb, 2 * nb, -1.0,
                                vw.data() + c0, n, wv.data() + c0, n,
                                a.col_data(j + c0) + j + c0, n);
      }
    }
  }
  sweep_columns(a, i0, tau, d, e);
  return {std::move(a), std::move(tau), std::move(d), std::move(e)};
}

}  // namespace detail

namespace {

/// Implicit-shift QL iteration on the tridiagonal (d, e); the rotations
/// it would apply to the eigenvector matrix go to `log` instead.
void tql2(std::vector<double>& d, std::vector<double>& e, RotationLog& log) {
  const auto n = static_cast<Index>(d.size());
  if (n == 1) return;

  constexpr double kEps = 2.220446049250313e-16;
  // Absolute deflation floor: rank-deficient inputs (e.g. Gram matrices
  // of low-rank data) leave trailing blocks whose d AND e entries are
  // all round-off noise ~ eps*||A||; the relative test |e| <= eps*dd
  // never fires there and the sweep stagnates. Dropping |e| <= eps*anorm
  // perturbs eigenvalues by at most eps*||A|| — the method's intrinsic
  // (backward-stable) accuracy.
  double anorm = 0.0;
  for (Index i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::fabs(d[static_cast<std::size_t>(i)]) +
                                std::fabs(e[static_cast<std::size_t>(i)]));
  }
  const double abs_floor = kEps * anorm;

  constexpr int kMaxIter = 50;
  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    Index m;
    do {
      // Look for a negligible subdiagonal element to split at.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[static_cast<std::size_t>(m)]) +
                          std::fabs(d[static_cast<std::size_t>(m + 1)]);
        const double em = std::fabs(e[static_cast<std::size_t>(m)]);
        if (em <= kEps * dd || em <= abs_floor) {
          break;
        }
      }
      if (m != l) {
        if (++iter > kMaxIter) {
          throw ConvergenceError("tql2 exceeded its iteration budget");
        }
        // Wilkinson shift from the leading 2x2.
        double g = (d[static_cast<std::size_t>(l + 1)] -
                    d[static_cast<std::size_t>(l)]) /
                   (2.0 * e[static_cast<std::size_t>(l)]);
        double r = detail::make_givens(g, 1.0).r;  // hypot(g, 1)
        g = d[static_cast<std::size_t>(m)] - d[static_cast<std::size_t>(l)] +
            e[static_cast<std::size_t>(l)] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        Index i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[static_cast<std::size_t>(i)];
          const double b = c * e[static_cast<std::size_t>(i)];
          const detail::Givens rot = detail::make_givens(g, f);  // c = g/r, s = f/r
          r = rot.r;
          e[static_cast<std::size_t>(i + 1)] = r;
          if (r == 0.0) {
            // Deflate without finishing the sweep.
            d[static_cast<std::size_t>(i + 1)] -= p;
            e[static_cast<std::size_t>(m)] = 0.0;
            break;
          }
          s = rot.s;
          c = rot.c;
          g = d[static_cast<std::size_t>(i + 1)] - p;
          r = (d[static_cast<std::size_t>(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[static_cast<std::size_t>(i + 1)] = g + p;
          g = c * r - b;
          // Z(:, i) := c Z(:, i) - s Z(:, i+1), Z(:, i+1) := s Z(:, i) + c Z(:, i+1).
          log.record(i, i + 1, c, -s);
        }
        if (r == 0.0 && i >= l) continue;
        d[static_cast<std::size_t>(l)] -= p;
        e[static_cast<std::size_t>(l)] = g;
        e[static_cast<std::size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
}

}  // namespace

EighResult eigh(const Matrix& input, const EighOptions& opts) {
  PARSVD_TRACE_SCOPE("linalg.eigh");
  PARSVD_REQUIRE(input.rows() == input.cols(),
                 "eigh requires a square matrix");
  const Index n = input.rows();
  if (n == 0) return {Vector{}, Matrix{}};

  const double amax = input.norm_max();
  if (!std::isfinite(amax)) throw NonFiniteError("eigh input has a non-finite entry");
  const double scale = std::max(amax, 1.0);
  Matrix a(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      PARSVD_REQUIRE(std::fabs(input(i, j) - input(j, i)) <= 1e-8 * scale,
                     "eigh input is not symmetric");
      a(j, i) = 0.5 * (input(i, j) + input(j, i));
    }
  }

  detail::Tridiagonalization t =
      detail::tridiagonalize(std::move(a), autotune::kReductionBlock);
  std::vector<double>& d = t.d;
  RotationLog log(2 * n * n);  // a sweep takes about n² rotations
  tql2(d, t.e, log);

  // Sort descending; keep the leading r (ties at the cut go to the lower
  // index, as the sort is stable).
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&d](Index x, Index y) {
    return d[static_cast<std::size_t>(x)] > d[static_cast<std::size_t>(y)];
  });
  const Index r = (opts.rank > 0 && opts.rank < n) ? opts.rank : n;

  EighResult out;
  out.values = Vector(r);
  Matrix y(r, n);
  for (Index q = 0; q < r; ++q) {
    const Index src = order[static_cast<std::size_t>(q)];
    out.values[q] = d[static_cast<std::size_t>(src)];
    y(q, src) = 1.0;
  }
  log.unwind(y);
  out.vectors = y.transposed();
  detail::apply_reflectors_backward(t.a, t.tau, 1, out.vectors,
                                    autotune::kReductionBlock);
  return out;
}

}  // namespace parsvd
