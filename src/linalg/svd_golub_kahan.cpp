// Golub-Kahan-Reinsch SVD: Householder bidiagonalization followed by
// implicit-shift QR iteration on the bidiagonal with bulge chasing
// (Golub & Van Loan, Algorithm 8.6.2) — the LAPACK route NumPy's
// np.linalg.svd takes, and the default backend. Only the r = opts.rank
// kept singular vectors are formed: the sweep logs its rotations, which
// are replayed onto r columns and back-transformed through the reflectors
// (left in factored form), so vector work is O(r), not O(n); the σ-only
// singular_values() logs and replays nothing. The tests
// cross-validate it against a one-sided Jacobi SVD (tests/oracle) that
// shares no code with it beyond the Matrix container and the Householder
// reflector.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "linalg/householder.hpp"
#include "linalg/svd.hpp"
#include "obs/trace.hpp"

namespace parsvd {
namespace {

using detail::Givens;
using detail::make_givens;
using detail::RotationLog;

/// Householder bidiagonalization A = Q_L B Q_Rᵀ of A (m >= n), with B
/// upper bidiagonal. Q_L and Q_R stay in factored form: left reflector j
/// acts on rows j.. and its tail lives below the diagonal of `a`; right
/// reflector j acts on rows j+1.. of V and its tail lives in vr(j+2.., j).
struct Bidiagonalization {
  Matrix a;
  Matrix vr;                  // n x n
  std::vector<double> tau_l;  // length n
  std::vector<double> tau_r;  // length n (the last two stay 0)
  std::vector<double> d;      // diagonal, length n
  std::vector<double> e;      // superdiagonal, length n-1
};

Bidiagonalization bidiagonalize(Matrix a) {
  const Index m = a.rows();
  const Index n = a.cols();
  Matrix vr(n, n);
  std::vector<double> tau_l(static_cast<std::size_t>(n), 0.0);
  std::vector<double> tau_r(static_cast<std::size_t>(n), 0.0);
  std::vector<double> rw(static_cast<std::size_t>(m));  // right-reflector work

  for (Index j = 0; j < n; ++j) {
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

  Bidiagonalization out;
  out.d.resize(static_cast<std::size_t>(n));
  out.e.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (Index j = 0; j < n; ++j) out.d[static_cast<std::size_t>(j)] = a(j, j);
  for (Index j = 0; j + 1 < n; ++j) out.e[static_cast<std::size_t>(j)] = a(j, j + 1);
  out.a = std::move(a);
  out.vr = std::move(vr);
  out.tau_l = std::move(tau_l);
  out.tau_r = std::move(tau_r);
  return out;
}

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

  Bidiagonalization bd = bidiagonalize(a);
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
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, out.u);
  out.v = yv.transposed();
  detail::apply_reflectors_backward(bd.vr, bd.tau_r, 1, out.v);
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
