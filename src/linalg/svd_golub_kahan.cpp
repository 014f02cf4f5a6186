// Golub-Kahan-Reinsch SVD: Householder bidiagonalization followed by
// implicit-shift QR iteration on the bidiagonal with bulge chasing
// (Golub & Van Loan, Algorithm 8.6.2) — the LAPACK route NumPy's
// np.linalg.svd takes, and the default backend. One-sided Jacobi is the
// independent reference the tests cross-validate it against; the two
// share no code beyond the Matrix container.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"

namespace parsvd {
namespace {

/// Plane rotation: returns (c, s, r) with c*a + s*b = r, -s*a + c*b = 0.
struct Givens {
  double c;
  double s;
  double r;
};

Givens make_givens(double a, double b) {
  if (b == 0.0) return {1.0, 0.0, a};
  if (a == 0.0) return {0.0, 1.0, b};
  const double r = std::hypot(a, b);
  return {a / r, b / r, r};
}

/// col_j := c*col_j + s*col_k ; col_k := -s*col_j_old + c*col_k.
void rotate_cols(Matrix& m, Index j, Index k, double c, double s) {
  double* pj = m.col_data(j);
  double* pk = m.col_data(k);
  const Index rows = m.rows();
  for (Index i = 0; i < rows; ++i) {
    const double xj = pj[i], xk = pk[i];
    pj[i] = c * xj + s * xk;
    pk[i] = -s * xj + c * xk;
  }
}

struct Bidiagonalization {
  std::vector<double> d;  // diagonal, length n
  std::vector<double> e;  // superdiagonal, length n-1
  Matrix u;               // m x n, accumulated left reflectors
  Matrix v;               // n x n, accumulated right reflectors
};

/// Householder bidiagonalization of A (m >= n): A = U B Vᵀ with B upper
/// bidiagonal. U is returned thin (m x n).
Bidiagonalization bidiagonalize(const Matrix& input) {
  Matrix a = input;  // working copy; reflectors stored in place
  const Index m = a.rows();
  const Index n = a.cols();
  std::vector<double> tau_l(static_cast<std::size_t>(n), 0.0);
  std::vector<double> tau_r(static_cast<std::size_t>(n), 0.0);
  std::vector<double> rw(static_cast<std::size_t>(m));  // right-reflector work

  for (Index j = 0; j < n; ++j) {
    // --- left reflector: zero column j below the diagonal ---
    {
      double alpha = a(j, j);
      double xnorm = 0.0;
      for (Index i = j + 1; i < m; ++i) xnorm += a(i, j) * a(i, j);
      xnorm = std::sqrt(xnorm);
      if (xnorm != 0.0 || alpha != 0.0) {
        double beta = std::hypot(alpha, xnorm);
        if (alpha >= 0.0) beta = -beta;
        if (beta != 0.0 && xnorm != 0.0) {
          const double tau = (beta - alpha) / beta;
          const double inv = 1.0 / (alpha - beta);
          for (Index i = j + 1; i < m; ++i) a(i, j) *= inv;
          tau_l[static_cast<std::size_t>(j)] = tau;
          a(j, j) = beta;
          // Apply to trailing columns.
          for (Index c = j + 1; c < n; ++c) {
            double w = a(j, c);
            for (Index i = j + 1; i < m; ++i) w += a(i, j) * a(i, c);
            w *= tau;
            a(j, c) -= w;
            for (Index i = j + 1; i < m; ++i) a(i, c) -= w * a(i, j);
          }
        }
      }
    }
    // --- right reflector: zero row j beyond the superdiagonal ---
    if (j + 2 < n) {
      double alpha = a(j, j + 1);
      double xnorm = 0.0;
      for (Index c = j + 2; c < n; ++c) xnorm += a(j, c) * a(j, c);
      xnorm = std::sqrt(xnorm);
      if (xnorm != 0.0) {
        double beta = std::hypot(alpha, xnorm);
        if (alpha >= 0.0) beta = -beta;
        const double tau = (beta - alpha) / beta;
        const double inv = 1.0 / (alpha - beta);
        for (Index c = j + 2; c < n; ++c) a(j, c) *= inv;
        tau_r[static_cast<std::size_t>(j)] = tau;
        a(j, j + 1) = beta;
        // Apply to rows j+1..m-1 from the right, sweeping columns so
        // every access is unit-stride: rw = A(:, j+1:n) v, A -= tau rw vᵀ.
        for (Index i = j + 1; i < m; ++i) rw[static_cast<std::size_t>(i)] = a(i, j + 1);
        for (Index c = j + 2; c < n; ++c) {
          const double vc = a(j, c);
          const double* col = a.col_data(c);
          for (Index i = j + 1; i < m; ++i) rw[static_cast<std::size_t>(i)] += vc * col[i];
        }
        for (Index i = j + 1; i < m; ++i) {
          rw[static_cast<std::size_t>(i)] *= tau;
          a(i, j + 1) -= rw[static_cast<std::size_t>(i)];
        }
        for (Index c = j + 2; c < n; ++c) {
          const double vc = a(j, c);
          double* col = a.col_data(c);
          for (Index i = j + 1; i < m; ++i) col[i] -= rw[static_cast<std::size_t>(i)] * vc;
        }
      }
    }
  }

  Bidiagonalization out;
  out.d.resize(static_cast<std::size_t>(n));
  out.e.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (Index j = 0; j < n; ++j) out.d[static_cast<std::size_t>(j)] = a(j, j);
  for (Index j = 0; j + 1 < n; ++j) out.e[static_cast<std::size_t>(j)] = a(j, j + 1);

  // Form thin U = H_0 ... H_{n-1} I(:, 0..n-1), reflectors applied in
  // reverse order. Columns c < j are still e_c when H_j is applied, and
  // H_j (rows j..m-1) leaves them alone, so the sweeps start at c = j.
  out.u = Matrix(m, n);
  for (Index j = 0; j < n; ++j) out.u(j, j) = 1.0;
  for (Index j = n - 1; j >= 0; --j) {
    const double tau = tau_l[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    for (Index c = j; c < n; ++c) {
      double* colc = out.u.col_data(c);
      double w = colc[j];
      for (Index i = j + 1; i < m; ++i) w += a(i, j) * colc[i];
      w *= tau;
      colc[j] -= w;
      for (Index i = j + 1; i < m; ++i) colc[i] -= w * a(i, j);
    }
  }

  // Form V = G_0 ... G_{n-3} applied to I, reflectors living in rows.
  out.v = Matrix::identity(n);
  std::vector<double> refl(static_cast<std::size_t>(n));
  for (Index j = n - 3; j >= 0; --j) {
    const double tau = tau_r[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    // Reflector vector: v[j+1] = 1, v[c] = a(j, c) for c in j+2..n-1,
    // copied out of A's row j once so the sweeps below are unit-stride.
    // As for U, columns col <= j are still e_col and stay untouched.
    for (Index c = j + 2; c < n; ++c) refl[static_cast<std::size_t>(c)] = a(j, c);
    for (Index col = j + 1; col < n; ++col) {
      double* vc = out.v.col_data(col);
      double wc = vc[j + 1];
      for (Index c = j + 2; c < n; ++c) wc += refl[static_cast<std::size_t>(c)] * vc[c];
      wc *= tau;
      vc[j + 1] -= wc;
      for (Index c = j + 2; c < n; ++c) vc[c] -= wc * refl[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

/// One implicit-shift QR step with bulge chasing on block [lo, hi].
void qr_step(std::vector<double>& d, std::vector<double>& e, Index lo,
             Index hi, Matrix& u, Matrix& v) {
  auto D = [&](Index i) -> double& { return d[static_cast<std::size_t>(i)]; };
  auto E = [&](Index i) -> double& { return e[static_cast<std::size_t>(i)]; };

  // Wilkinson shift from the trailing 2x2 of BᵀB.
  const double dm1 = D(hi - 1), dm = D(hi);
  const double em1 = E(hi - 1);
  const double em2 = (hi - 1 > lo) ? E(hi - 2) : 0.0;
  const double t11 = dm1 * dm1 + em2 * em2;
  const double t12 = dm1 * em1;
  const double t22 = dm * dm + em1 * em1;
  const double delta = 0.5 * (t11 - t22);
  double mu;
  if (delta == 0.0 && t12 == 0.0) {
    mu = t22;
  } else {
    const double denom = delta + std::copysign(std::hypot(delta, t12), delta);
    mu = (denom != 0.0) ? t22 - t12 * t12 / denom : t22;
  }

  double y = D(lo) * D(lo) - mu;
  double z = D(lo) * E(lo);

  for (Index k = lo; k < hi; ++k) {
    // Right rotation on columns (k, k+1): zero z in the implicit first
    // column; introduces the bulge below the diagonal.
    Givens g = make_givens(y, z);
    if (k > lo) E(k - 1) = g.r;
    const double dk = D(k), ek = E(k), dk1 = D(k + 1);
    D(k) = g.c * dk + g.s * ek;
    E(k) = -g.s * dk + g.c * ek;
    double bulge = g.s * dk1;
    D(k + 1) = g.c * dk1;
    rotate_cols(v, k, k + 1, g.c, g.s);

    // Left rotation on rows (k, k+1): annihilate the bulge.
    g = make_givens(D(k), bulge);
    D(k) = g.r;
    const double ek2 = E(k), dk2 = D(k + 1);
    E(k) = g.c * ek2 + g.s * dk2;
    D(k + 1) = -g.s * ek2 + g.c * dk2;
    rotate_cols(u, k, k + 1, g.c, g.s);
    if (k + 1 < hi) {
      const double ek1 = E(k + 1);
      y = E(k);
      z = g.s * ek1;
      E(k + 1) = g.c * ek1;
    }
  }
}

/// Annihilate superdiagonal entry e[k] when d[k] is (numerically) zero by
/// chasing it along row k with left rotations against rows k+1..hi.
void zero_row(std::vector<double>& d, std::vector<double>& e, Index k,
              Index hi, Matrix& u) {
  auto D = [&](Index i) -> double& { return d[static_cast<std::size_t>(i)]; };
  auto E = [&](Index i) -> double& { return e[static_cast<std::size_t>(i)]; };

  double f = E(k);
  E(k) = 0.0;
  for (Index l = k + 1; l <= hi && f != 0.0; ++l) {
    const Givens g = make_givens(D(l), f);  // c = d/r, s = f/r
    D(l) = g.r;
    // Row k mixes with row l: U columns (k, l) rotate with (c, -s)
    // because new row_k = c*row_k - s*row_l.
    rotate_cols(u, l, k, g.c, g.s);
    if (l < hi) {
      f = -g.s * E(l);
      E(l) = g.c * E(l);
    }
  }
}

}  // namespace

SvdResult svd_golub_kahan(const Matrix& a, const SvdOptions& opts) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  // The Wilkinson shift squares d·e (~σ⁴): far from unit scale it over-
  // or underflows and the iteration never converges. Run at an exact
  // power-of-two rescaling instead and scale σ back.
  if (const int e = safe_scale_exponent(a.norm_max()); e != 0) {
    SvdResult out = svd_golub_kahan(scale_by_pow2(a, -e), opts);
    for (Index j = 0; j < out.s.size(); ++j) out.s[j] = std::ldexp(out.s[j], e);
    return out;
  }
  const Index m = a.rows();
  const Index n = a.cols();

  if (m < n) {
    SvdOptions o = opts;
    o.rank = 0;
    SvdResult out = svd_golub_kahan(a.transposed(), o);
    std::swap(out.u, out.v);
    if (opts.rank > 0 && opts.rank < out.s.size()) {
      out.u = out.u.left_cols(opts.rank);
      out.v = out.v.left_cols(opts.rank);
      out.s = out.s.head(opts.rank);
    }
    return out;
  }

  Bidiagonalization bd = bidiagonalize(a);
  std::vector<double>& d = bd.d;
  std::vector<double>& e = bd.e;
  constexpr double kEps = 2.220446049250313e-16;
  // Absolute floor for a "numerically zero" diagonal: eps·‖B‖, the
  // backward error the bidiagonalization already commits. The block-
  // relative test alone never fires on a block of noise-level or
  // subnormal entries, which an exactly rank-deficient input leaves
  // behind, and the shifted QR step then iterates on the noise forever.
  const double zero_floor = [&] {
    double bmax = 0.0;
    for (double x : d) bmax = std::max(bmax, std::fabs(x));
    for (double x : e) bmax = std::max(bmax, std::fabs(x));
    return kEps * bmax;
  }();

  const int max_iter = 100 * static_cast<int>(std::max<Index>(n, 1));
  int iter = 0;
  for (;;) {
    // Deflate negligible superdiagonal entries.
    for (Index i = 0; i + 1 < n; ++i) {
      const double thresh =
          kEps * (std::fabs(d[static_cast<std::size_t>(i)]) +
                  std::fabs(d[static_cast<std::size_t>(i + 1)]));
      if (std::fabs(e[static_cast<std::size_t>(i)]) <= thresh) {
        e[static_cast<std::size_t>(i)] = 0.0;
      }
    }
    // Find the trailing unreduced block [lo, hi].
    Index hi = n - 1;
    while (hi > 0 && e[static_cast<std::size_t>(hi - 1)] == 0.0) --hi;
    if (hi == 0) break;  // fully diagonal
    Index lo = hi - 1;
    while (lo > 0 && e[static_cast<std::size_t>(lo - 1)] != 0.0) --lo;

    if (++iter > max_iter) {
      throw ConvergenceError("Golub-Kahan QR iteration exceeded budget");
    }

    // Zero diagonal inside the block needs the row-annihilation special
    // case; otherwise run a shifted QR step (which also deflates a zero
    // at the block's bottom).
    bool handled_zero = false;
    const double dmax = [&] {
      double mval = 0.0;
      for (Index i = lo; i <= hi; ++i) {
        mval = std::max(mval, std::fabs(d[static_cast<std::size_t>(i)]));
      }
      return mval;
    }();
    const double dzero = std::max(zero_floor, kEps * dmax);
    for (Index i = lo; i < hi; ++i) {
      if (std::fabs(d[static_cast<std::size_t>(i)]) <= dzero) {
        d[static_cast<std::size_t>(i)] = 0.0;
        zero_row(d, e, i, hi, bd.u);
        handled_zero = true;
        break;
      }
    }
    if (!handled_zero) {
      qr_step(d, e, lo, hi, bd.u, bd.v);
    }
  }

  // Make singular values non-negative (flip matching V column).
  for (Index j = 0; j < n; ++j) {
    if (d[static_cast<std::size_t>(j)] < 0.0) {
      d[static_cast<std::size_t>(j)] = -d[static_cast<std::size_t>(j)];
      scal(-1.0, bd.v.col_span(j));
    }
  }

  // Sort descending.
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&d](Index x, Index y) {
    return d[static_cast<std::size_t>(x)] > d[static_cast<std::size_t>(y)];
  });

  SvdResult out;
  out.s = Vector(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (Index j = 0; j < n; ++j) {
    const Index src = order[static_cast<std::size_t>(j)];
    out.s[j] = d[static_cast<std::size_t>(src)];
    out.u.set_col(j, bd.u.col(src));
    out.v.set_col(j, bd.v.col(src));
  }
  if (opts.rank > 0 && opts.rank < out.s.size()) {
    out.u = out.u.left_cols(opts.rank);
    out.v = out.v.left_cols(opts.rank);
    out.s = out.s.head(opts.rank);
  }
  return out;
}

}  // namespace parsvd
