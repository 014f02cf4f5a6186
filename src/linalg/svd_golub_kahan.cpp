// Golub-Kahan-Reinsch SVD: Householder bidiagonalization followed by
// implicit-shift QR iteration on the bidiagonal with bulge chasing
// (Golub & Van Loan, Algorithm 8.6.2) — the LAPACK route NumPy's
// np.linalg.svd takes, and the default backend. The bidiagonalization is
// LAPACK's dgebrd: dlabrd panels reduce 16 columns and rows against the
// untouched trailing block (one gemv pair per step), and two GEMMs of
// depth 16 apply the panel's update; up to 64 columns, and for the last
// 64, dgebd2's column sweep runs. Only the r = opts.rank kept singular
// vectors are formed, and back-transformed through the reflectors (left
// in factored form, applied in compact-WY panels), by one of two routes:
//   * r < n at order 64 or more, with every kept σ separated from the
//     next by more than 1e-3·σ_1 (the cut included): LAPACK dbdsvdx's
//     route. Bisection on the Golub–Kahan tridiagonal TGK finds σ_1..σ_{r+1}
//     and inverse iteration on TGK one vector per kept σ, so the kept
//     triplets cost O(n·r) beyond the bidiagonalization.
//   * every other call (rank 0, full rank, small or clustered inputs, and
//     an inverse iteration that misses its residual check): the sweep
//     logs its rotations, which are replayed onto the r kept columns. The
//     σ-only singular_values() logs and replays nothing.
// The tests cross-validate both against a one-sided Jacobi SVD
// (tests/oracle) that shares no code with them beyond the Matrix
// container and the Householder reflector.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/gemm_engine.hpp"
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

/// The kept-triplet route's spectrum gate: each of σ_1..σ_r must stand
/// more than this fraction of σ_1 above the next one, σ_{r+1} included.
/// It is LAPACK dstein's cluster threshold (1e-3·‖T‖), so no kept vector
/// needs reorthogonalizing, and it keeps ±σ_r of the Golub–Kahan
/// tridiagonal at least 2e-3·σ_1 apart, clear of the loss of
/// orthogonality its vectors suffer near σ = 0.
constexpr double kSeparation = 1e-3;
/// Bisection chains run side by side, so their divisions pipeline: up to
/// kChains at once, as 256-bit vectors of kLanes (wider vectors measured
/// slower, their division's latency being longer).
constexpr int kLanes = 4;
constexpr int kChains = 16;
/// Inverse-iteration solves per kept vector.
constexpr int kPasses = 3;
/// A kept vector is accepted when ‖TGK z − σ z‖_∞ is within this many
/// eps·‖TGK‖ for the unit z.
constexpr double kResidual = 4.0;
constexpr double kEps = 2.220446049250313e-16;

/// The Golub–Kahan tridiagonal TGK of the upper bidiagonal B: order 2n,
/// zero diagonal and off-diagonal t = (d_0, e_0, d_1, …, e_{n-2}, d_{n-1}).
/// Its eigenvalues are ±σ_i, and the eigenvector of +σ_i interleaves
/// v_i (even entries) and u_i (odd entries), scaled by 1/√2.
struct Tgk {
  std::vector<double> t;
  std::vector<double> t2;  // t², the Sturm count's input
  double norm = 0.0;       // Gershgorin bound on ‖TGK‖, at least σ_1
  double pivmin = 0.0;     // smallest pivot magnitude a Sturm count uses
};

Tgk golub_kahan_tridiagonal(std::span<const double> d, std::span<const double> e) {
  const std::size_t n = d.size();
  Tgk g;
  g.t.resize(2 * n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    g.t[2 * i] = d[i];
    if (i + 1 < n) g.t[2 * i + 1] = e[i];
  }
  g.t2.resize(g.t.size());
  double tmax2 = 0.0;
  for (std::size_t i = 0; i < g.t.size(); ++i) {
    g.t2[i] = g.t[i] * g.t[i];
    tmax2 = std::max(tmax2, g.t2[i]);
    const double left = i > 0 ? std::fabs(g.t[i - 1]) : 0.0;
    g.norm = std::max(g.norm, left + std::fabs(g.t[i]));
  }
  g.norm = std::max(g.norm, std::fabs(g.t.back()));
  g.pivmin = std::numeric_limits<double>::min() * std::max(1.0, tmax2);
  return g;
}

/// For each of the kLanes·NV lanes c, the number of TGK eigenvalues below
/// x[c]: the signs of the LDLᵀ pivots of TGK − x[c]·I (LAPACK dlaneg on a
/// zero diagonal), a pivot smaller than pivmin in magnitude taken as
/// −pivmin. The lanes are independent, so each count is the same in any
/// lane. Each step is one division chain per lane; NV 256-bit vectors of
/// chains in flight hide its latency.
template <int NV>
void sturm_counts(const Tgk& g, const double* x, Index* count) {
  const double pivmin = g.pivmin;
#ifdef PARSVD_GEMM_VECTOR_EXT
  typedef double VecD4 __attribute__((vector_size(32), aligned(8)));
  typedef std::int64_t VecI4 __attribute__((vector_size(32), aligned(8)));
  static_assert(sizeof(VecD4) == kLanes * sizeof(double), "one vector of lanes");
  const VecD4 pm = VecD4{} + pivmin;
  VecD4 xv[NV], q[NV];
  VecI4 neg[NV];
  for (int v = 0; v < NV; ++v) {
    std::memcpy(&xv[v], x + v * kLanes, sizeof xv[v]);
    q[v] = -xv[v];
    q[v] = (q[v] < pm && q[v] > -pm) ? -pm : q[v];
    neg[v] = -(q[v] < 0.0);
  }
  for (const double t2 : g.t2) {
    for (int v = 0; v < NV; ++v) {
      q[v] = -xv[v] - t2 / q[v];
      q[v] = (q[v] < pm && q[v] > -pm) ? -pm : q[v];
      neg[v] -= q[v] < 0.0;
    }
  }
  for (int v = 0; v < NV; ++v) {
    for (int c = 0; c < kLanes; ++c) count[v * kLanes + c] = static_cast<Index>(neg[v][c]);
  }
#else
  constexpr int lanes = NV * kLanes;
  double q[lanes];
  for (int c = 0; c < lanes; ++c) {
    q[c] = std::fabs(x[c]) < pivmin ? -pivmin : -x[c];
    count[c] = q[c] < 0.0 ? 1 : 0;
  }
  for (const double t2 : g.t2) {
    for (int c = 0; c < lanes; ++c) {
      const double qc = -x[c] - t2 / q[c];
      q[c] = std::fabs(qc) < pivmin ? -pivmin : qc;
      count[c] += q[c] < 0.0 ? 1 : 0;
    }
  }
#endif
}

/// σ_{k0+1}..σ_{k0+k} of B (k <= kChains) as eigenvalues of TGK, written
/// to sigma[k0..k0+k): each is bisected from [0, ‖TGK‖] until its bracket
/// is within 2 ulp of its upper end, or that end falls to eps·‖TGK‖ (σ
/// that small cannot pass the gate). The k brackets shrink together, in
/// as few vectors of lanes as they fill.
void bisect_group(const Tgk& g, Index k0, Index k, std::vector<double>& sigma) {
  const Index order = static_cast<Index>(g.t.size()) + 1;
  const double top = g.norm * (1.0 + 4.0 * kEps) + g.pivmin;
  const double floor = kEps * g.norm;
  const int vectors = static_cast<int>((k + kLanes - 1) / kLanes);
  // Lane c brackets the (k0 + c + 1)-th largest eigenvalue, whose index
  // from below is order − k0 − c − 1; spare lanes repeat the last one.
  double lo[kChains], hi[kChains], mid[kChains];
  Index below[kChains], count[kChains];
  for (int c = 0; c < kChains; ++c) {
    below[c] = order - k0 - std::min<Index>(c, k - 1) - 1;
    lo[c] = 0.0;
    hi[c] = top;
  }
  // A bracket is done at 2 ulp, at the floor, or when its midpoint rounds
  // onto an end.
  const auto done = [&](int c) {
    return hi[c] - lo[c] <= 2.0 * kEps * hi[c] || hi[c] <= floor ||
           mid[c] <= lo[c] || mid[c] >= hi[c];
  };
  for (;;) {
    bool all_done = true;
    for (int c = 0; c < vectors * kLanes; ++c) {
      mid[c] = 0.5 * (lo[c] + hi[c]);
      all_done = all_done && done(c);
    }
    if (all_done) break;
    switch (vectors) {
      case 1: sturm_counts<1>(g, mid, count); break;
      case 2: sturm_counts<2>(g, mid, count); break;
      case 3: sturm_counts<3>(g, mid, count); break;
      default: sturm_counts<4>(g, mid, count); break;
    }
    for (int c = 0; c < vectors * kLanes; ++c) {
      if (!done(c)) (count[c] <= below[c] ? lo[c] : hi[c]) = mid[c];
    }
  }
  for (Index c = 0; c < k; ++c) sigma[static_cast<std::size_t>(k0 + c)] = mid[c];
}

/// The unit eigenvector z of TGK at the eigenvalue estimate `lambda`:
/// kPasses solves with TGK − λI = P L U (partial pivoting, LAPACK
/// dgttrf/dgttrs; a U pivot below eps·‖TGK‖ in magnitude is raised to
/// it), from a fixed start. False when the iterate is not finite or the
/// residual ‖TGK z − λ z‖_∞ exceeds kResidual·eps·‖TGK‖.
bool inverse_iteration(const Tgk& g, double lambda, std::vector<double>& z) {
  const std::size_t order = g.t.size() + 1;
  std::vector<double> dd(order, -lambda), du(g.t), dl(g.t), du2(order, 0.0);
  std::vector<char> swapped(order, 0);
  for (std::size_t i = 0; i + 1 < order; ++i) {
    if (std::fabs(dd[i]) >= std::fabs(dl[i])) {
      // No interchange; dl[i] is zero when dd[i] is.
      if (dd[i] != 0.0) {
        const double f = dl[i] / dd[i];
        dl[i] = f;
        dd[i + 1] -= f * du[i];
      }
    } else {
      // Interchange rows i and i + 1; row i + 1's U entries fill in.
      swapped[i] = 1;
      const double f = dd[i] / dl[i];
      dd[i] = dl[i];
      dl[i] = f;
      const double tmp = du[i];
      du[i] = dd[i + 1];
      dd[i + 1] = tmp - f * dd[i + 1];
      if (i + 2 < order) {
        du2[i] = du[i + 1];
        du[i + 1] = -f * du[i + 1];
      }
    }
  }
  const double pert = kEps * g.norm;
  for (double& p : dd) {
    if (std::fabs(p) < pert) p = std::copysign(pert, p);
  }

  // A fixed start spread over (−1, 1): a golden-ratio hash of the index.
  z.resize(order);
  for (std::size_t i = 0; i < order; ++i) {
    const std::uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ULL;
    z[i] = static_cast<double>(h >> 11) * 0x1p-52 - 1.0;
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    // L then U.
    for (std::size_t i = 0; i + 1 < order; ++i) {
      if (swapped[i] != 0) {
        const double zi = z[i];
        z[i] = z[i + 1];
        z[i + 1] = zi - dl[i] * z[i];
      } else {
        z[i + 1] -= dl[i] * z[i];
      }
    }
    z[order - 1] /= dd[order - 1];
    if (order > 1) z[order - 2] = (z[order - 2] - du[order - 2] * z[order - 1]) / dd[order - 2];
    for (std::size_t i = order - 2; i-- > 0;) {
      z[i] = (z[i] - du[i] * z[i + 1] - du2[i] * z[i + 2]) / dd[i];
    }
    const double norm = nrm2(std::span<const double>(z));
    if (!(norm > 0.0) || !std::isfinite(norm)) return false;
    scal(1.0 / norm, std::span<double>(z));
  }

  double res = 0.0;
  for (std::size_t i = 0; i < order; ++i) {
    double r = -lambda * z[i];
    if (i > 0) r += g.t[i - 1] * z[i - 1];
    if (i + 1 < order) r += g.t[i] * z[i + 1];
    res = std::max(res, std::fabs(r));
  }
  return res <= kResidual * kEps * g.norm;
}

}  // namespace

namespace detail {

SvdResult bidiagonal_sweep(std::vector<double> d, std::vector<double> e,
                           Index rank, bool vectors) {
  const Index n = static_cast<Index>(d.size());
  // A sweep takes about n² rotations per side on random input.
  std::optional<RotationLog> u_log, v_log;
  if (vectors) {
    u_log.emplace(2 * n * n);
    v_log.emplace(2 * n * n);
  }
  RotationLog* const u_rot = vectors ? &*u_log : nullptr;
  RotationLog* const v_rot = vectors ? &*v_log : nullptr;
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
  // onto them.
  Matrix yu(r, n), yv(r, n);
  for (Index q = 0; q < r; ++q) {
    const auto src = static_cast<std::size_t>(order[static_cast<std::size_t>(q)]);
    out.s[q] = d[src];
    yu(q, static_cast<Index>(src)) = 1.0;
    yv(q, static_cast<Index>(src)) = sign[src];
  }
  u_log->unwind(yu);
  v_log->unwind(yv);
  out.u = yu.transposed();
  out.v = yv.transposed();
  return out;
}

std::optional<SvdResult> bidiagonal_kept_triplets(std::span<const double> d,
                                                  std::span<const double> e,
                                                  Index rank) {
  const Index n = static_cast<Index>(d.size());
  PARSVD_REQUIRE(rank > 0 && rank < n, "kept triplets need 0 < rank < n");
  const Tgk g = golub_kahan_tridiagonal(d, e);
  if (!(g.norm > 0.0)) return std::nullopt;
  // σ_1..σ_{r+1}, kChains at a time; each pair's gap is checked as soon
  // as both are in, so a failing gate stops the bisection early.
  std::vector<double> sigma(static_cast<std::size_t>(rank + 1));
  for (Index k0 = 0; k0 <= rank; k0 += kChains) {
    const Index k = std::min<Index>(kChains, rank + 1 - k0);
    bisect_group(g, k0, k, sigma);
    for (Index j = std::max<Index>(k0, 1); j < k0 + k; ++j) {
      const double gap = sigma[static_cast<std::size_t>(j - 1)] - sigma[static_cast<std::size_t>(j)];
      if (!(gap > kSeparation * sigma[0])) return std::nullopt;
    }
  }

  SvdResult out;
  out.s = Vector(rank);
  out.u = Matrix(n, rank);
  out.v = Matrix(n, rank);
  std::vector<double> z;
  for (Index j = 0; j < rank; ++j) {
    const double s = sigma[static_cast<std::size_t>(j)];
    if (!inverse_iteration(g, s, z)) return std::nullopt;
    out.s[j] = s;
    double* u = out.u.col_data(j);
    double* v = out.v.col_data(j);
    for (Index i = 0; i < n; ++i) {
      v[i] = z[static_cast<std::size_t>(2 * i)];
      u[i] = z[static_cast<std::size_t>(2 * i + 1)];
    }
    scal(1.0 / nrm2(out.u.col_span(j)), out.u.col_span(j));
    scal(1.0 / nrm2(out.v.col_span(j)), out.v.col_span(j));
  }
  return out;
}

}  // namespace detail

namespace {

/// The Golub–Kahan SVD keeping the leading `rank` triplets (0 = all).
/// Without `vectors` it returns σ alone: the sweep logs no rotation, and
/// nothing is back-transformed. The sweep and the sort are the same
/// either way, so σ is bit-identical to the one with vectors. A kept rank
/// below n at order kReductionCrossover or more tries the bisection route
/// first, and takes the sweep when its gate or check says no.
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
  std::optional<SvdResult> kept;
  if (vectors && rank > 0 && rank < n && n >= autotune::kReductionCrossover) {
    kept = detail::bidiagonal_kept_triplets(bd.d, bd.e, rank);
  }
  SvdResult out = kept ? std::move(*kept)
                       : detail::bidiagonal_sweep(std::move(bd.d), std::move(bd.e),
                                                  rank, vectors);
  if (!vectors) return out;
  // B's kept vectors go back through the Householder reflectors.
  Matrix ub = std::move(out.u);
  out.u = Matrix(m, ub.cols());
  out.u.set_block(0, 0, ub);
  detail::apply_reflectors_backward(bd.a, bd.tau_l, 0, out.u, autotune::kReductionBlock);
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
