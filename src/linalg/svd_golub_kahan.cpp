// Golub-Kahan-Reinsch SVD: Householder bidiagonalization followed by
// implicit-shift QR iteration on the bidiagonal with bulge chasing
// (Golub & Van Loan, Algorithm 8.6.2) — the LAPACK route NumPy's
// np.linalg.svd takes, and the default backend. The bidiagonalization is
// LAPACK's dgebrd: dlabrd panels reduce 16 columns and rows against the
// untouched trailing block (one gemv pair per step), and two GEMMs of
// depth 16 apply the panel's update; up to 64 columns, and for the last
// 64, dgebd2's column sweep runs. Only the r = opts.rank kept singular
// vectors are formed: the sweep logs its rotations, which are replayed
// onto r columns and back-transformed through the reflectors (left in
// factored form, applied in compact-WY panels), so vector work is O(r),
// not O(n); the σ-only singular_values() logs and replays nothing. The tests
// cross-validate it against a one-sided Jacobi SVD (tests/oracle) that
// shares no code with it beyond the Matrix container and the Householder
// reflector.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/svd.hpp"
#include "obs/trace.hpp"

namespace parsvd {
namespace {

using detail::Givens;
using detail::make_givens;
using detail::RotationLog;

/// The column sweep (dgebd2) over columns and rows [j0, n) of `a`: a left
/// reflector zeroes column j below the diagonal, a right one row j beyond
/// the superdiagonal, each applied to the trailing block at once.
void sweep_columns(Matrix& a, Index j0, Matrix& vr, std::vector<double>& tau_l,
                   std::vector<double>& tau_r) {
  const Index m = a.rows();
  const Index n = a.cols();
  std::vector<double> rw(static_cast<std::size_t>(m));  // right-reflector work

  for (Index j = j0; j < n; ++j) {
    // --- left reflector: zero column j below the diagonal ---
    double* colj = a.col_data(j);
    const detail::Reflector hl = detail::make_reflector(
        colj[j], std::span<double>(colj + j + 1, static_cast<std::size_t>(m - j - 1)));
    tau_l[static_cast<std::size_t>(j)] = hl.tau;
    colj[j] = hl.beta;
    if (hl.tau != 0.0) {
      for (Index c = j + 1; c < n; ++c) {
        detail::apply_reflector(hl.tau, colj + j + 1, a.col_data(c), j, m);
      }
    }
    // --- right reflector: zero row j beyond the superdiagonal ---
    if (j + 2 < n) {
      // Row j's tail goes to column j of vr, contiguous from here on.
      double* vj = vr.col_data(j);
      for (Index c = j + 2; c < n; ++c) vj[c] = a(j, c);
      const detail::Reflector hr = detail::make_reflector(
          a(j, j + 1), std::span<double>(vj + j + 2, static_cast<std::size_t>(n - j - 2)));
      tau_r[static_cast<std::size_t>(j)] = hr.tau;
      a(j, j + 1) = hr.beta;
      if (hr.tau != 0.0) {
        // Apply to rows j+1..m-1 from the right, sweeping columns so
        // every access is unit-stride: rw = A(:, j+1:n) v, A -= tau rw vᵀ.
        for (Index i = j + 1; i < m; ++i) rw[static_cast<std::size_t>(i)] = a(i, j + 1);
        for (Index c = j + 2; c < n; ++c) {
          const double vc = vj[c];
          const double* col = a.col_data(c);
          for (Index i = j + 1; i < m; ++i) rw[static_cast<std::size_t>(i)] += vc * col[i];
        }
        for (Index i = j + 1; i < m; ++i) {
          rw[static_cast<std::size_t>(i)] *= hr.tau;
          a(i, j + 1) -= rw[static_cast<std::size_t>(i)];
        }
        for (Index c = j + 2; c < n; ++c) {
          const double vc = vj[c];
          double* col = a.col_data(c);
          for (Index i = j + 1; i < m; ++i) col[i] -= rw[static_cast<std::size_t>(i)] * vc;
        }
      }
    }
  }
}

/// LAPACK dlabrd (m >= n) on the panel of columns and rows [i0, i0 + nb):
/// reduces them and returns X (rows i0+1..m-1) and Y (rows i0+1..n-1)
/// such that the trailing block's update is A -= V Yᵀ + X U, with V the
/// panel's left reflectors (columns) and U its right ones (rows). The
/// trailing block is left untouched: each step's gemv pair reads it as it
/// was before the panel and corrects with the panel's earlier V, U, X, Y.
/// Each right reflector is built in vr's column and copied back into its
/// row of `a`, unit entry included, where the trailing update reads it;
/// each left reflector's unit entry stands in for its diagonal until the
/// caller restores d.
void reduce_panel(Matrix& a, Index i0, Index nb, Matrix& x, Matrix& y,
                  Matrix& vr, std::vector<double>& tau_l,
                  std::vector<double>& tau_r, std::vector<double>& d,
                  std::vector<double>& e) {
  const Index m = a.rows();
  const Index n = a.cols();
  std::vector<double> t(static_cast<std::size_t>(nb + 1));
  std::vector<double> neg(static_cast<std::size_t>(n));
  const double* v0 = a.col_data(i0);  // V, leading dimension m
  const double* x0 = x.data();        // X, leading dimension m
  const double* y0 = y.data();        // Y, leading dimension n
  const auto zero_t = [&t](Index k) { std::fill(t.begin(), t.begin() + k, 0.0); };
  for (Index jj = 0; jj < nb; ++jj) {
    const Index i = i0 + jj;
    double* coli = a.col_data(i);
    // U(:jj, c) for the trailing columns c > i, leading dimension m.
    const double* ut = a.col_data(i + 1) + i0;
    const Index mi = m - i;      // rows i..m-1
    const Index nt = n - i - 1;  // columns (or Y rows) i+1..n-1
    // Column i catches up with the panel so far:
    // A(i:m, i) -= V(i:m, :jj) Y(i, :jj)ᵀ + X(i:m, :jj) U(:jj, i).
    for (Index q = 0; q < jj; ++q) t[static_cast<std::size_t>(q)] = y(i, q);
    detail::gemv_sub(mi, jj, v0 + i, m, t.data(), coli + i);
    detail::gemv_sub(mi, jj, x0 + i, m, coli + i0, coli + i);
    // --- left reflector: zero column i below the diagonal ---
    const detail::Reflector hl = detail::make_reflector(
        coli[i], std::span<double>(coli + i + 1, static_cast<std::size_t>(m - i - 1)));
    tau_l[static_cast<std::size_t>(i)] = hl.tau;
    d[static_cast<std::size_t>(i)] = hl.beta;
    coli[i] = 1.0;
    const double* u = coli + i;  // the left reflector, unit entry first

    // Y(i+1:n, jj) = tau_l (A(i:m, i+1:n)ᵀ u - Y V(i:m, :jj)ᵀ u
    //                       - U(:jj, i+1:n)ᵀ X(i:m, :jj)ᵀ u).
    double* yj = y.col_data(jj) + i + 1;
    std::fill(yj, yj + nt, 0.0);
    detail::gemv_t(mi, nt, a.col_data(i + 1) + i, m, u, yj);
    zero_t(jj);
    detail::gemv_t(mi, jj, v0 + i, m, u, t.data());
    detail::gemv_sub(nt, jj, y0 + i + 1, n, t.data(), yj);
    zero_t(jj);
    detail::gemv_t(mi, jj, x0 + i, m, u, t.data());
    for (Index q = 0; q < jj; ++q) t[static_cast<std::size_t>(q)] = -t[static_cast<std::size_t>(q)];
    detail::gemv_t(jj, nt, ut, m, t.data(), yj);
    scal(hl.tau, std::span<double>(yj, static_cast<std::size_t>(nt)));

    // Row i catches up, in vr's column i (rows i+1..n-1):
    // A(i, i+1:n) -= Y(i+1:n, :jj+1) A(i, i0:i+1)ᵀ + U(:jj, i+1:n)ᵀ X(i, :jj)ᵀ.
    double* r = vr.col_data(i) + i + 1;
    for (Index c = 0; c < nt; ++c) r[c] = a(i, i + 1 + c);
    for (Index q = 0; q <= jj; ++q) t[static_cast<std::size_t>(q)] = a(i, i0 + q);
    detail::gemv_sub(nt, jj + 1, y0 + i + 1, n, t.data(), r);
    for (Index q = 0; q < jj; ++q) t[static_cast<std::size_t>(q)] = -x(i, q);
    detail::gemv_t(jj, nt, ut, m, t.data(), r);
    // --- right reflector: zero row i beyond the superdiagonal ---
    const detail::Reflector hr = detail::make_reflector(
        r[0], std::span<double>(r + 1, static_cast<std::size_t>(nt - 1)));
    tau_r[static_cast<std::size_t>(i)] = hr.tau;
    e[static_cast<std::size_t>(i)] = hr.beta;
    r[0] = 1.0;
    for (Index c = 0; c < nt; ++c) a(i, i + 1 + c) = r[c];
    const double* v = r;  // the right reflector, unit entry first

    // X(i+1:m, jj) = tau_r (A(i+1:m, i+1:n) v - V(i+1:m, :jj+1) Y(i+1:n, :jj+1)ᵀ v
    //                       - X(i+1:m, :jj) U(:jj, i+1:n) v).
    const Index mt = m - i - 1;
    double* xj = x.col_data(jj) + i + 1;
    std::fill(xj, xj + mt, 0.0);
    for (Index c = 0; c < nt; ++c) neg[static_cast<std::size_t>(c)] = -v[c];
    detail::gemv_sub(mt, nt, a.col_data(i + 1) + i + 1, m, neg.data(), xj);
    zero_t(jj + 1);
    detail::gemv_t(nt, jj + 1, y0 + i + 1, n, v, t.data());
    detail::gemv_sub(mt, jj + 1, v0 + i + 1, m, t.data(), xj);
    zero_t(jj);
    detail::gemv_sub(jj, nt, ut, m, neg.data(), t.data());
    detail::gemv_sub(mt, jj, x0 + i + 1, m, t.data(), xj);
    scal(hr.tau, std::span<double>(xj, static_cast<std::size_t>(mt)));
  }
}

}  // namespace

namespace detail {

Bidiagonalization bidiagonalize(Matrix a, Index block) {
  const Index m = a.rows();
  const Index n = a.cols();
  Bidiagonalization out;
  out.vr = Matrix(n, n);
  out.tau_l.assign(static_cast<std::size_t>(n), 0.0);
  out.tau_r.assign(static_cast<std::size_t>(n), 0.0);
  out.d.assign(static_cast<std::size_t>(n), 0.0);
  out.e.assign(static_cast<std::size_t>(n > 0 ? n - 1 : 0), 0.0);
  Index i0 = 0;
  if (block > 1) {
    const Index nb = block;
    const Index nx = std::max(nb, autotune::kReductionCrossover);
    Matrix x(m, nb), y(n, nb);
    for (; n - i0 > nx; i0 += nb) {
      reduce_panel(a, i0, nb, x, y, out.vr, out.tau_l, out.tau_r, out.d, out.e);
      // A(j:m, j:n) -= V(j:m, :) Y(j:n, :)ᵀ + X(j:m, :) U(:, j:n).
      const Index j = i0 + nb;
      double* c = a.col_data(j) + j;
      detail::gemm_accumulate(Trans::No, Trans::Yes, m - j, n - j, nb, -1.0,
                              a.col_data(i0) + j, m, y.data() + j, n, c, m);
      detail::gemm_accumulate(Trans::No, Trans::No, m - j, n - j, nb, -1.0,
                              x.data() + j, m, a.col_data(j) + i0, m, c, m);
      for (Index i = i0; i < j; ++i) {
        a(i, i) = out.d[static_cast<std::size_t>(i)];
        a(i, i + 1) = out.e[static_cast<std::size_t>(i)];
      }
    }
  }
  sweep_columns(a, i0, out.vr, out.tau_l, out.tau_r);
  for (Index j = i0; j < n; ++j) out.d[static_cast<std::size_t>(j)] = a(j, j);
  for (Index j = i0; j + 1 < n; ++j) out.e[static_cast<std::size_t>(j)] = a(j, j + 1);
  out.a = std::move(a);
  return out;
}

}  // namespace detail

namespace {

/// One implicit-shift QR step with bulge chasing on block [lo, hi]. The
/// rotations go to the logs `u` and `v` unless they are null (σ only).
void qr_step(std::vector<double>& d, std::vector<double>& e, Index lo,
             Index hi, RotationLog* u, RotationLog* v) {
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
    if (v != nullptr) v->record(k, k + 1, g.c, g.s);

    // Left rotation on rows (k, k+1): annihilate the bulge.
    g = make_givens(D(k), bulge);
    D(k) = g.r;
    const double ek2 = E(k), dk2 = D(k + 1);
    E(k) = g.c * ek2 + g.s * dk2;
    D(k + 1) = -g.s * ek2 + g.c * dk2;
    if (u != nullptr) u->record(k, k + 1, g.c, g.s);
    if (k + 1 < hi) {
      const double ek1 = E(k + 1);
      y = E(k);
      z = g.s * ek1;
      E(k + 1) = g.c * ek1;
    }
  }
}

/// Annihilate superdiagonal entry e[k] when d[k] is (numerically) zero by
/// chasing it along row k with left rotations against rows k+1..hi,
/// logged to `u` unless it is null.
void zero_row(std::vector<double>& d, std::vector<double>& e, Index k,
              Index hi, RotationLog* u) {
  auto D = [&](Index i) -> double& { return d[static_cast<std::size_t>(i)]; };
  auto E = [&](Index i) -> double& { return e[static_cast<std::size_t>(i)]; };

  double f = E(k);
  E(k) = 0.0;
  for (Index l = k + 1; l <= hi && f != 0.0; ++l) {
    const Givens g = make_givens(D(l), f);  // c = d/r, s = f/r
    D(l) = g.r;
    // Row k mixes with row l: U columns (k, l) rotate with (c, -s)
    // because new row_k = c*row_k - s*row_l.
    if (u != nullptr) u->record(l, k, g.c, g.s);
    if (l < hi) {
      f = -g.s * E(l);
      E(l) = g.c * E(l);
    }
  }
}

/// The Golub–Kahan SVD keeping the leading `rank` triplets (0 = all).
/// Without `vectors` it returns σ alone: the sweep logs no rotation, and
/// nothing is replayed or back-transformed. The sweep and the sort are
/// the same either way, so σ is bit-identical to the one with vectors.
SvdResult golub_kahan(const Matrix& a, Index rank, bool vectors) {
  PARSVD_REQUIRE(!a.empty(), "svd of an empty matrix");
  const double amax = a.norm_max();
  if (!std::isfinite(amax)) throw NonFiniteError("svd input has a non-finite entry");
  // The Wilkinson shift squares d·e (~σ⁴): far from unit scale it over-
  // or underflows and the iteration never converges. Run at an exact
  // power-of-two rescaling instead and scale σ back.
  if (const int e = safe_scale_exponent(amax); e != 0) {
    SvdResult out = golub_kahan(scale_by_pow2(a, -e), rank, vectors);
    for (Index j = 0; j < out.s.size(); ++j) out.s[j] = std::ldexp(out.s[j], e);
    return out;
  }
  const Index m = a.rows();
  const Index n = a.cols();

  if (m < n) {
    SvdResult out = golub_kahan(a.transposed(), rank, vectors);
    std::swap(out.u, out.v);
    return out;
  }

  detail::Bidiagonalization bd = detail::bidiagonalize(a, autotune::kReductionBlock);
  std::vector<double>& d = bd.d;
  std::vector<double>& e = bd.e;
  // A sweep takes about n² rotations per side on random input.
  std::optional<RotationLog> u_log, v_log;
  if (vectors) {
    u_log.emplace(2 * n * n);
    v_log.emplace(2 * n * n);
  }
  RotationLog* const u_rot = vectors ? &*u_log : nullptr;
  RotationLog* const v_rot = vectors ? &*v_log : nullptr;
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
        zero_row(d, e, i, hi, u_rot);
        handled_zero = true;
        break;
      }
    }
    if (!handled_zero) {
      qr_step(d, e, lo, hi, u_rot, v_rot);
    }
  }

  // Make singular values non-negative; the matching V column flips.
  std::vector<double> sign(static_cast<std::size_t>(n), 1.0);
  for (Index j = 0; j < n; ++j) {
    if (d[static_cast<std::size_t>(j)] < 0.0) {
      d[static_cast<std::size_t>(j)] = -d[static_cast<std::size_t>(j)];
      sign[static_cast<std::size_t>(j)] = -1.0;
    }
  }

  // Sort descending; keep the leading r (ties at the cut go to the lower
  // index, as the sort is stable).
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&d](Index x, Index y) {
    return d[static_cast<std::size_t>(x)] > d[static_cast<std::size_t>(y)];
  });
  const Index r = (rank > 0 && rank < n) ? rank : n;

  SvdResult out;
  out.s = Vector(r);
  if (!vectors) {
    for (Index q = 0; q < r; ++q) {
      out.s[q] = d[static_cast<std::size_t>(order[static_cast<std::size_t>(q)])];
    }
    return out;
  }
  // Only the kept columns are formed: the sweep's rotations are replayed
  // onto them, then they go back through the Householder reflectors.
  Matrix yu(r, n), yv(r, n);
  for (Index q = 0; q < r; ++q) {
    const auto src = static_cast<std::size_t>(order[static_cast<std::size_t>(q)]);
    out.s[q] = d[src];
    yu(q, static_cast<Index>(src)) = 1.0;
    yv(q, static_cast<Index>(src)) = sign[src];
  }
  u_log->unwind(yu);
  v_log->unwind(yv);
  out.u = Matrix(m, r);
  out.u.set_block(0, 0, yu.transposed());
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, out.u, autotune::kReductionBlock);
  out.v = yv.transposed();
  detail::apply_reflectors_backward(bd.vr, bd.tau_r, 1, out.v, autotune::kReductionBlock);
  return out;
}

}  // namespace

SvdResult svd_golub_kahan(const Matrix& a, const SvdOptions& opts) {
  return golub_kahan(a, opts.rank, /*vectors=*/true);
}

Vector singular_values(const Matrix& a) {
  PARSVD_TRACE_SCOPE("linalg.svd");
  return golub_kahan(a, 0, /*vectors=*/false).s;
}

}  // namespace parsvd
