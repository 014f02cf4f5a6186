#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/autotune.hpp"
#include "linalg/gemm_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"

namespace parsvd {

bool compensated_enabled() {
  static const bool on = env::get_bool("PARSVD_COMPENSATED", false);
  return on;
}

namespace {

// Ogita–Rump–Oishi Dot2 core: error-free two-prod (FMA) and two-sum with
// a single running compensation term — the result is as accurate as if
// the sum were formed in roughly twice the working precision.
double dot2(const double* x, const double* y, std::size_t n) {
  double s = 0.0;
  double comp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = x[i] * y[i];
    const double ep = std::fma(x[i], y[i], -p);  // exact product error
    const double t = s + p;
    const double z = t - s;
    const double es = (s - (t - z)) + (p - z);   // exact sum error
    s = t;
    comp += ep + es;
  }
  return s + comp;
}

}  // namespace

namespace detail {

double dot_kernel(const double* x, const double* y, std::size_t n) {
  // A single running sum is one serial FMA chain, bound by add latency
  // (~2 GF/s). kLanes independent partial sums let the compiler keep
  // several vector accumulators in flight; the lanes are combined in a
  // fixed pairwise order, so the result is deterministic.
  constexpr std::size_t kLanes = 16;
  double acc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += x[i + l] * y[i + l];
  }
  double rest = 0.0;
  for (; i < n; ++i) rest += x[i] * y[i];
  for (std::size_t half = kLanes / 2; half > 0; half /= 2) {
    for (std::size_t l = 0; l < half; ++l) acc[l] += acc[l + half];
  }
  return acc[0] + rest;
}

}  // namespace detail

double dot(std::span<const double> x, std::span<const double> y) {
  PARSVD_REQUIRE(x.size() == y.size(), "dot: length mismatch");
  if (compensated_enabled()) return dot_compensated(x, y);
  return detail::dot_kernel(x.data(), y.data(), x.size());
}

double dot_compensated(std::span<const double> x, std::span<const double> y) {
  PARSVD_REQUIRE(x.size() == y.size(), "dot_compensated: length mismatch");
  static obs::Counter& calls =
      obs::Registry::global().counter("linalg.dot_compensated.calls");
  static obs::Counter& flops =
      obs::Registry::global().counter("linalg.dot_compensated.flops");
  calls.add(1);
  // Dot2 spends ~8 flops per element (2 for the product pair, 6 for the
  // compensated sum) against naive dot's 2.
  flops.add(8ull * static_cast<std::uint64_t>(x.size()));
  return dot2(x.data(), y.data(), x.size());
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  PARSVD_REQUIRE(x.size() == y.size(), "axpy: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double nrm2(std::span<const double> x) {
  // Unscaled sum of squares first: one vectorized pass with no divides.
  // Accept it unless it overflowed (or is NaN) or fell below
  // safmin/eps = 2^-970, where underflowed squares could matter (the
  // range check LAPACK's dnrm2 makes); then redo it with the scaled loop.
  const double sum_sq = detail::dot_kernel(x.data(), x.data(), x.size());
  if (sum_sq >= std::numeric_limits<double>::min() /
                    std::numeric_limits<double>::epsilon() &&
      sum_sq <= std::numeric_limits<double>::max()) {
    return std::sqrt(sum_sq);
  }
  double scale = 0.0, ssq = 1.0;
  for (double v : x) {
    if (v == 0.0) continue;
    const double av = std::fabs(v);
    if (scale < av) {
      ssq = 1.0 + ssq * (scale / av) * (scale / av);
      scale = av;
    } else {
      ssq += (av / scale) * (av / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

namespace {

bool pool_available() { return ThreadPool::global().size() > 0; }

void gemv_notrans_rows(const Matrix& a, double alpha,
                       std::span<const double> x, double beta,
                       std::span<double> y, Index i0, Index i1) {
  if (beta != 1.0) {
    for (Index i = i0; i < i1; ++i) {
      y[static_cast<std::size_t>(i)] =
          (beta == 0.0) ? 0.0 : beta * y[static_cast<std::size_t>(i)];
    }
  }
  const Index n = a.cols();
  // Column-major: accumulate one column segment at a time (unit stride).
  for (Index j = 0; j < n; ++j) {
    const double xj = alpha * x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    const double* colj = a.col_data(j);
    for (Index i = i0; i < i1; ++i) y[static_cast<std::size_t>(i)] += xj * colj[i];
  }
}

void gemv_trans_cols(const Matrix& a, double alpha, std::span<const double> x,
                     double beta, std::span<double> y, Index j0, Index j1) {
  const Index m = a.rows();
  for (Index j = j0; j < j1; ++j) {
    const double* colj = a.col_data(j);
    double s = 0.0;
    for (Index i = 0; i < m; ++i) s += colj[i] * x[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(j)] =
        alpha * s + ((beta == 0.0) ? 0.0 : beta * y[static_cast<std::size_t>(j)]);
  }
}

}  // namespace

void gemv(Trans trans_a, double alpha, const Matrix& a,
          std::span<const double> x, double beta, std::span<double> y) {
  const Index m = a.rows();
  const Index n = a.cols();
  const bool parallel = m * n >= kGemvParallelThreshold && pool_available();
  if (trans_a == Trans::No) {
    PARSVD_REQUIRE(static_cast<Index>(x.size()) == n &&
                       static_cast<Index>(y.size()) == m,
                   "gemv: shape mismatch");
    if (parallel) {
      ThreadPool::global().parallel_for(
          0, static_cast<std::size_t>(m), [&](std::size_t lo, std::size_t hi) {
            gemv_notrans_rows(a, alpha, x, beta, y, static_cast<Index>(lo),
                              static_cast<Index>(hi));
          });
    } else {
      gemv_notrans_rows(a, alpha, x, beta, y, 0, m);
    }
  } else {
    PARSVD_REQUIRE(static_cast<Index>(x.size()) == m &&
                       static_cast<Index>(y.size()) == n,
                   "gemv^T: shape mismatch");
    if (parallel) {
      ThreadPool::global().parallel_for(
          0, static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
            gemv_trans_cols(a, alpha, x, beta, y, static_cast<Index>(lo),
                            static_cast<Index>(hi));
          });
    } else {
      gemv_trans_cols(a, alpha, x, beta, y, 0, n);
    }
  }
}

void ger(double alpha, std::span<const double> x, std::span<const double> y,
         Matrix& a) {
  PARSVD_REQUIRE(static_cast<Index>(x.size()) == a.rows() &&
                     static_cast<Index>(y.size()) == a.cols(),
                 "ger: shape mismatch");
  for (Index j = 0; j < a.cols(); ++j) {
    const double yj = alpha * y[static_cast<std::size_t>(j)];
    if (yj == 0.0) continue;
    double* colj = a.col_data(j);
    for (Index i = 0; i < a.rows(); ++i) colj[i] += yj * x[static_cast<std::size_t>(i)];
  }
}

// ===================================================== packed GEMM engine
//
// The engine itself lives in linalg/gemm_engine.hpp (packing +
// micro-kernel). Its blocking is the constant autotune::active_profile().

namespace {

constexpr autotune::Blocking kBlocking = autotune::active_profile().f64;
static_assert(kBlocking.mr == 8 && kBlocking.nr == 6,
              "the blocking's micro tile must match the 8x6 kernel below");

// Shared accumulate driver: tiny products skip packing, large ones fan
// out over disjoint column panels of C (one chunk per pool slot, each
// running the full packed structure on its slice — thread-local packing
// buffers, no synchronization on writes).
template <typename T>
void accumulate_engine(const detail::OpViewT<T>& va,
                       const detail::OpViewT<T>& vb, Index m, Index n, Index k,
                       T alpha, T* c, Index ldc, bool allow_parallel) {
  const Index flops_proxy = m * n * k;
  if (flops_proxy < kGemmPackThreshold) {
    detail::gemm_small_serial<T>(va, vb, m, n, k, alpha, c, ldc);
    return;
  }

  if (allow_parallel && flops_proxy >= kGemmParallelThreshold &&
      pool_available()) {
    const std::size_t slots = ThreadPool::global().size() + 1;
    const std::size_t grain = static_cast<std::size_t>(detail::engine_round_up(
        (n + static_cast<Index>(slots) - 1) / static_cast<Index>(slots),
        kBlocking.nr));
    ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(n),
        [&](std::size_t lo, std::size_t hi) {
          const Index j0 = static_cast<Index>(lo);
          detail::gemm_packed_serial<T, 8, 6>(
              va, vb.shifted_cols(j0), m, static_cast<Index>(hi) - j0, k,
              alpha, c + j0 * ldc, ldc, kBlocking);
        },
        grain);
  } else {
    detail::gemm_packed_serial<T, 8, 6>(va, vb, m, n, k, alpha, c, ldc,
                                        kBlocking);
  }
}

}  // namespace

namespace detail {

void gemm_accumulate(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
                     double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     bool allow_parallel) {
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  const OpViewT<double> va = make_op_view(a, lda, trans_a == Trans::Yes);
  const OpViewT<double> vb = make_op_view(b, ldb, trans_b == Trans::Yes);
  accumulate_engine<double>(va, vb, m, n, k, alpha, c, ldc, allow_parallel);
}

}  // namespace detail

void gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix& c) {
  const Index m = (trans_a == Trans::No) ? a.rows() : a.cols();
  const Index k = (trans_a == Trans::No) ? a.cols() : a.rows();
  const Index kb = (trans_b == Trans::No) ? b.rows() : b.cols();
  const Index n = (trans_b == Trans::No) ? b.cols() : b.rows();
  PARSVD_REQUIRE(k == kb, "gemm: inner dimension mismatch");
  PARSVD_REQUIRE(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");
  PARSVD_REQUIRE(!c.aliases(a) && !c.aliases(b),
                 "gemm: C must not alias A or B");

  PARSVD_TRACE_SCOPE("linalg.gemm");
  static obs::Counter& calls = obs::Registry::global().counter("linalg.gemm.calls");
  static obs::Counter& flops = obs::Registry::global().counter("linalg.gemm.flops");
  calls.add(1);
  flops.add(2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(k));

  if (beta != 1.0) {
    if (beta == 0.0) {
      c.fill(0.0);
    } else {
      c *= beta;
    }
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  detail::gemm_accumulate(trans_a, trans_b, m, n, k, alpha, a.data(),
                          a.rows(), b.data(), b.rows(), c.data(), c.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a, Trans trans_b) {
  const Index m = (trans_a == Trans::No) ? a.rows() : a.cols();
  const Index n = (trans_b == Trans::No) ? b.cols() : b.rows();
  Matrix c(m, n);
  gemm(trans_a, trans_b, 1.0, a, b, 0.0, c);
  return c;
}

Matrix gram(const Matrix& a) {
  if (compensated_enabled()) return gram_compensated(a);
  const Index m = a.rows();
  const Index n = a.cols();
  Matrix g(n, n);
  if (n == 0) return g;
  PARSVD_TRACE_SCOPE("linalg.gram");
  static obs::Counter& flops = obs::Registry::global().counter("linalg.gemm.flops");
  flops.add(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(m));

  // Column-block width for the upper-triangle sweep: block J computes
  // G(0:j1, J) = Aᵀ(:, 0:j1)ᵀ-style panel product through the packed
  // kernel; the strict lower triangle is mirrored afterwards.
  constexpr Index kGramBlock = 48;
  const Index nblocks = (n + kGramBlock - 1) / kGramBlock;
  auto run_blocks = [&](Index b0, Index b1) {
    for (Index blk = b0; blk < b1; ++blk) {
      const Index j0 = blk * kGramBlock;
      const Index j1 = std::min(n, j0 + kGramBlock);
      detail::gemm_accumulate(Trans::Yes, Trans::No, j1, j1 - j0, m, 1.0,
                              a.data(), m, a.col_data(j0), m, g.col_data(j0),
                              n, /*allow_parallel=*/false);
    }
  };

  // The triangle halves the flops: n*n*m/2 against the GEMM threshold.
  if (n * n * m / 2 >= kGemmParallelThreshold && pool_available() && nblocks > 1) {
    ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(nblocks),
        [&](std::size_t lo, std::size_t hi) {
          run_blocks(static_cast<Index>(lo), static_cast<Index>(hi));
        },
        /*grain=*/1);  // later blocks are taller; unit grain load-balances
  } else {
    run_blocks(0, nblocks);
  }

  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) g(j, i) = g(i, j);
  }
  return g;
}

Matrix gram_compensated(const Matrix& a) {
  const Index m = a.rows();
  const Index n = a.cols();
  Matrix g(n, n);
  if (n == 0) return g;
  PARSVD_TRACE_SCOPE("linalg.gram_compensated");
  static obs::Counter& calls =
      obs::Registry::global().counter("linalg.gram_compensated.calls");
  static obs::Counter& flops =
      obs::Registry::global().counter("linalg.gram_compensated.flops");
  calls.add(1);
  // Upper triangle of Dot2 column dots at ~8 flops/element, mirrored.
  flops.add(8ull * static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(n + 1) / 2 *
            static_cast<std::uint64_t>(m));

  for (Index j = 0; j < n; ++j) {
    const double* cj = a.col_data(j);
    for (Index i = 0; i <= j; ++i) {
      const double v = dot2(a.col_data(i), cj, static_cast<std::size_t>(m));
      g(i, j) = v;
      if (i != j) g(j, i) = v;
    }
  }
  return g;
}

}  // namespace parsvd
