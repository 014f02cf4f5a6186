// Dense-kernel microbenchmark — the repo's machine-readable perf
// trajectory for the level-3 kernel engine (gemm / blocked QR / gram /
// gemv). Times each kernel across sizes and thread counts, compares the packed GEMM against
// a faithful copy of the pre-engine ("seed") kernel, and persists
// everything to BENCH_kernels.json so later perf PRs are measured against
// a recorded baseline.
//
// Usage:
//   bench_kernels              full sweep, writes BENCH_kernels.json
//   bench_kernels --smoke      tiny sizes, asserts kernel-vs-reference
//                              agreement and nonzero throughput (ctest
//                              hook); the full-size claim fields are
//                              emitted as JSON null — never as fake zeros
//   bench_kernels --out=F      write the JSON trajectory to F
//   PARSVD_BENCH_OUT=F         same as --out=F
//
// JSON schema (schema_version 2):
//   { bench, schema_version, smoke, hardware_concurrency,
//     blocking: {f64: {mc..nr}, qr_block, tuned},
//     results: [ {kernel, m, n, k, threads, seconds, gflops, flops} ... ],
//     gemm_512_seed_seconds, gemm_512_packed_seconds,
//     gemm_512_speedup_vs_seed, failures }
// Claim fields are numbers in a full run and null in smoke runs (the
// smoke sizes cannot support the claims). `seconds` is the best of the
// timed repetitions; `flops` is the deterministic per-shape flop model
// the CI checker compares exactly across runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using parsvd::HouseholderQr;
using parsvd::Index;
using parsvd::Matrix;
using parsvd::Rng;
using parsvd::Trans;
using parsvd::Vector;

// ------------------------------------------------------------ references

// Faithful copy of the seed GEMM (pre-engine axpy-blocked triple loop) —
// the baseline the packed kernel is measured against. Compiled with the
// same flags as the engine so the comparison is algorithmic, not a
// compiler-flag artifact.
void gemm_seed(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
               const Matrix& b, double beta, Matrix& c) {
  const Index m = (trans_a == Trans::No) ? a.rows() : a.cols();
  const Index k = (trans_a == Trans::No) ? a.cols() : a.rows();
  const Index n = (trans_b == Trans::No) ? b.cols() : b.rows();
  if (beta == 0.0) {
    c.fill(0.0);
  } else if (beta != 1.0) {
    c *= beta;
  }
  struct View {
    const double* data;
    Index stride_row, stride_col;
    double at(Index r, Index cc) const { return data[r * stride_row + cc * stride_col]; }
  };
  const View va = (trans_a == Trans::No) ? View{a.data(), 1, a.rows()}
                                         : View{a.data(), a.rows(), 1};
  const View vb = (trans_b == Trans::No) ? View{b.data(), 1, b.rows()}
                                         : View{b.data(), b.rows(), 1};
  constexpr Index kBlockK = 128;
  constexpr Index kBlockI = 128;
  for (Index jb = 0; jb < n; ++jb) {
    double* cj = c.col_data(jb);
    for (Index k0 = 0; k0 < k; k0 += kBlockK) {
      const Index k1 = std::min(k, k0 + kBlockK);
      for (Index i0 = 0; i0 < m; i0 += kBlockI) {
        const Index i1 = std::min(m, i0 + kBlockI);
        for (Index kk = k0; kk < k1; ++kk) {
          const double bkj = alpha * vb.at(kk, jb);
          if (bkj == 0.0) continue;
          const double* arow = va.data + kk * va.stride_col;
          if (va.stride_row == 1) {
            for (Index i = i0; i < i1; ++i) cj[i] += bkj * arow[i];
          } else {
            for (Index i = i0; i < i1; ++i) cj[i] += bkj * arow[i * va.stride_row];
          }
        }
      }
    }
  }
}

// O(mnk) reference written against operator() only (smoke checks).
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (Index p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::gaussian(rows, cols, rng);
}

// ---------------------------------------------------------------- timing

struct Result {
  std::string kernel;
  Index m, n, k;
  int threads;
  double seconds;
  double gflops;
  double flops;  // deterministic per-shape model, for the CI checker
};

// Best-of-reps wall time: repeat until >= 0.2 s of samples (min 3 reps).
template <typename Fn>
double time_best(Fn&& fn) {
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (reps < 3 || (total < 0.2 && reps < 50)) {
    parsvd::Stopwatch watch;
    watch.start();
    fn();
    const double s = watch.stop();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

class Harness {
 public:
  explicit Harness(bool smoke) : smoke_(smoke) {}

  void record(const std::string& kernel, Index m, Index n, Index k,
              int threads, double seconds, double flops) {
    const double gflops = (seconds > 0.0) ? flops / seconds * 1e-9 : 0.0;
    results_.push_back({kernel, m, n, k, threads, seconds, gflops, flops});
    std::printf("%-12s m=%-6td n=%-6td k=%-6td threads=%-2d  %10.4f ms  %8.2f GFLOP/s\n",
                kernel.c_str(), m, n, k, threads, seconds * 1e3, gflops);
    if (seconds <= 0.0 || gflops <= 0.0) {
      fail("kernel '" + kernel + "' reported nonpositive throughput");
    }
  }

  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failures_++;
  }

  int failures() const { return failures_; }
  const std::vector<Result>& results() const { return results_; }
  bool smoke() const { return smoke_; }

  // Full-size claim measurements; unset (emitted as null) in smoke runs.
  std::optional<double> seed_512_seconds;
  std::optional<double> packed_512_seconds;

 private:
  bool smoke_;
  std::vector<Result> results_;
  int failures_ = 0;
};

// ---------------------------------------------------------------- benches

double cube_flops(Index s) {
  return 2.0 * static_cast<double>(s) * static_cast<double>(s) *
         static_cast<double>(s);
}

void record_gemm(Harness& h, const std::string& name, Index s, double sec,
                 int threads) {
  h.record(name, s, s, s, threads, sec, cube_flops(s));
}

// Full runs repeat the smoke shapes (cheap) so a fresh smoke run and the
// committed full trajectory always share entries for the CI flop-model
// comparison.
void bench_gemm(Harness& h) {
  const std::vector<Index> sizes =
      h.smoke() ? std::vector<Index>{64} : std::vector<Index>{64, 128, 256, 512};
  const std::vector<int> threads = h.smoke() ? std::vector<int>{1}
                                             : std::vector<int>{1, 2, 4};
  for (const Index s : sizes) {
    const Matrix a = random_matrix(s, s, 1);
    const Matrix b = random_matrix(s, s, 2);
    Matrix c(s, s);
    for (const int t : threads) {
      parsvd::ThreadPool::set_global_threads(static_cast<std::size_t>(t));
      const double sec = time_best([&] {
        parsvd::gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
      });
      record_gemm(h, "gemm", s, sec, t);
      if (s == 512 && t == 1) h.packed_512_seconds = sec;
    }
  }
  parsvd::ThreadPool::set_global_threads(1);

  // Transposed operands route through the same packed kernel: record
  // points so regressions on the strided path show up in the trajectory.
  const std::vector<Index> tsizes =
      h.smoke() ? std::vector<Index>{48} : std::vector<Index>{48, 384};
  for (const Index ts : tsizes) {
    const Matrix at = random_matrix(ts, ts, 3);
    const Matrix bt = random_matrix(ts, ts, 4);
    Matrix ct(ts, ts);
    const double sec_tn = time_best([&] {
      parsvd::gemm(Trans::Yes, Trans::No, 1.0, at, bt, 0.0, ct);
    });
    record_gemm(h, "gemm_tn", ts, sec_tn, 1);
    const double sec_nt = time_best([&] {
      parsvd::gemm(Trans::No, Trans::Yes, 1.0, at, bt, 0.0, ct);
    });
    record_gemm(h, "gemm_nt", ts, sec_nt, 1);
  }

  // Seed-kernel comparison (single thread, same build flags).
  const std::vector<Index> csizes =
      h.smoke() ? std::vector<Index>{64} : std::vector<Index>{64, 512};
  for (const Index cs : csizes) {
    const Matrix a0 = random_matrix(cs, cs, 5);
    const Matrix b0 = random_matrix(cs, cs, 6);
    Matrix c0(cs, cs);
    const double sec_seed = time_best([&] {
      gemm_seed(Trans::No, Trans::No, 1.0, a0, b0, 0.0, c0);
    });
    record_gemm(h, "gemm_seed", cs, sec_seed, 1);
    if (cs == 512) h.seed_512_seconds = sec_seed;
  }
}

void bench_qr(Harness& h) {
  struct Shape {
    Index m, n;
  };
  const std::vector<Shape> shapes = h.smoke()
                                        ? std::vector<Shape>{{96, 24}}
                                        : std::vector<Shape>{{96, 24},
                                                             {2048, 128},
                                                             {8192, 64},
                                                             {512, 512}};
  for (const Shape s : shapes) {
    const Matrix a = random_matrix(s.m, s.n, 7);
    const double mm = static_cast<double>(s.m);
    const double nn = static_cast<double>(s.n);
    const double factor_flops = 2.0 * mm * nn * nn - 2.0 * nn * nn * nn / 3.0;
    const double sec_factor = time_best([&] { HouseholderQr f(a); });
    h.record("qr_factor", s.m, s.n, 0, 1, sec_factor, factor_flops);

    const HouseholderQr f(a);
    const double sec_q = time_best([&] { Matrix q = f.thin_q(); });
    h.record("qr_thin_q", s.m, s.n, 0, 1, sec_q, factor_flops);
  }
}

void bench_gram(Harness& h) {
  struct Shape {
    Index m, n;
  };
  const std::vector<Shape> shapes = h.smoke()
                                        ? std::vector<Shape>{{80, 24}}
                                        : std::vector<Shape>{{80, 24},
                                                             {8192, 256},
                                                             {2048, 512}};
  const std::vector<int> threads = h.smoke() ? std::vector<int>{1}
                                             : std::vector<int>{1, 4};
  for (const Shape s : shapes) {
    const Matrix a = random_matrix(s.m, s.n, 8);
    const double flops = static_cast<double>(s.m) * static_cast<double>(s.n) *
                         static_cast<double>(s.n);
    for (const int t : threads) {
      parsvd::ThreadPool::set_global_threads(static_cast<std::size_t>(t));
      const double sec = time_best([&] { Matrix g = parsvd::gram(a); });
      h.record("gram", s.m, s.n, 0, t, sec, flops);
    }
  }
  parsvd::ThreadPool::set_global_threads(1);
}

void bench_gemv(Harness& h) {
  struct Shape {
    Index m, n;
  };
  const std::vector<Shape> shapes = h.smoke()
                                        ? std::vector<Shape>{{96, 40}}
                                        : std::vector<Shape>{{96, 40},
                                                             {4096, 2048}};
  for (const Shape s : shapes) {
    const Matrix a = random_matrix(s.m, s.n, 9);
    Vector x(s.n), y(s.m);
    Rng rng(10);
    for (Index i = 0; i < s.n; ++i) x[i] = rng.gaussian();
    const double flops =
        2.0 * static_cast<double>(s.m) * static_cast<double>(s.n);
    const double sec_n = time_best([&] {
      parsvd::gemv(Trans::No, 1.0, a, x.span(), 0.0, y.span());
    });
    h.record("gemv", s.m, s.n, 0, 1, sec_n, flops);

    Vector xt(s.m), yt(s.n);
    for (Index i = 0; i < s.m; ++i) xt[i] = rng.gaussian();
    const double sec_t = time_best([&] {
      parsvd::gemv(Trans::Yes, 1.0, a, xt.span(), 0.0, yt.span());
    });
    h.record("gemv_t", s.m, s.n, 0, 1, sec_t, flops);
  }
}

// ------------------------------------------------------- smoke validation

void smoke_checks(Harness& h) {
  // GEMM: all four transpose combinations against the naive reference.
  {
    const Index m = 33, k = 17, n = 29;
    for (int combo = 0; combo < 4; ++combo) {
      const Trans ta = (combo & 1) ? Trans::Yes : Trans::No;
      const Trans tb = (combo & 2) ? Trans::Yes : Trans::No;
      const Matrix a = (ta == Trans::No) ? random_matrix(m, k, 20 + combo)
                                         : random_matrix(k, m, 20 + combo);
      const Matrix b = (tb == Trans::No) ? random_matrix(k, n, 30 + combo)
                                         : random_matrix(n, k, 30 + combo);
      const Matrix got = parsvd::matmul(a, b, ta, tb);
      const Matrix want =
          naive_matmul((ta == Trans::No) ? a : a.transposed(),
                       (tb == Trans::No) ? b : b.transposed());
      h.check(parsvd::max_abs_diff(got, want) < 1e-10,
              "gemm combo " + std::to_string(combo) + " disagrees with reference");
    }
  }
  // Packed GEMM vs the seed kernel on a size that engages packing.
  {
    const Matrix a = random_matrix(70, 65, 40);
    const Matrix b = random_matrix(65, 60, 41);
    Matrix c1(70, 60), c2(70, 60);
    parsvd::gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c1);
    gemm_seed(Trans::No, Trans::No, 1.0, a, b, 0.0, c2);
    h.check(parsvd::max_abs_diff(c1, c2) < 1e-10, "packed gemm vs seed gemm");
  }
  // Compensated dot recovers a catastrophically cancelled sum exactly.
  {
    const std::vector<double> x = {1e9, 1.5, 1e9};
    const std::vector<double> y = {1e8, 2.0, -1e8};
    // products are [1e17, 3, -1e17]; naive fp64 rounds 1e17 + 3 to 1e17
    // and returns 0, Dot2 keeps the 3 exactly.
    h.check(parsvd::dot_compensated(x, y) == 3.0,
            "dot_compensated failed the cancellation fixture");
  }
  // Compensated Gram carries the same exactness through AᵀA.
  {
    Matrix a(3, 2);
    a(0, 0) = 1e9;  a(1, 0) = 1.5;  a(2, 0) = 1e9;
    a(0, 1) = 1e8;  a(1, 1) = 2.0;  a(2, 1) = -1e8;
    const Matrix g = parsvd::gram_compensated(a);
    h.check(g(0, 1) == 3.0 && g(1, 0) == 3.0,
            "gram_compensated failed the cancellation fixture");
  }
  // Blocked QR vs the unblocked reference sweep.
  {
    const Matrix a = random_matrix(50, 20, 42);
    const HouseholderQr blocked(a, 8);
    const HouseholderQr unblocked(a, 1);
    h.check(parsvd::max_abs_diff(blocked.r(), unblocked.r()) < 1e-10,
            "blocked QR R differs from unblocked");
    const Matrix q = blocked.thin_q();
    h.check(parsvd::orthogonality_error(q) < 1e-12, "blocked QR Q not orthonormal");
    h.check(parsvd::max_abs_diff(naive_matmul(q, blocked.r()), a) <
                1e-12 * a.norm_fro(),
            "blocked QR does not reconstruct A");
  }
  // Gram vs explicit product.
  {
    const Matrix a = random_matrix(37, 19, 43);
    h.check(parsvd::max_abs_diff(parsvd::gram(a),
                                 naive_matmul(a.transposed(), a)) < 1e-10,
            "gram disagrees with AᵀA");
  }
  // Gemv vs naive.
  {
    const Matrix a = random_matrix(41, 23, 44);
    Vector x(23), y(41);
    Rng rng(45);
    for (Index i = 0; i < 23; ++i) x[i] = rng.gaussian();
    parsvd::gemv(Trans::No, 1.0, a, x.span(), 0.0, y.span());
    Vector want(41);
    for (Index i = 0; i < 41; ++i) {
      double s = 0.0;
      for (Index j = 0; j < 23; ++j) s += a(i, j) * x[j];
      want[i] = s;
    }
    h.check(parsvd::max_abs_diff(y, want) < 1e-12, "gemv disagrees with reference");
  }
  std::printf("smoke checks: %s\n", h.failures() == 0 ? "ok" : "FAILED");
}

// ------------------------------------------------------------ JSON output

void print_opt(std::FILE* f, const char* key, std::optional<double> v,
               const char* suffix) {
  if (v.has_value()) {
    std::fprintf(f, "  \"%s\": %.6e%s\n", key, *v, suffix);
  } else {
    std::fprintf(f, "  \"%s\": null%s\n", key, suffix);
  }
}

void print_blocking(std::FILE* f, const parsvd::autotune::Blocking& b) {
  std::fprintf(f,
               "{\"mc\": %lld, \"kc\": %lld, \"nc\": %lld, \"mr\": %lld, "
               "\"nr\": %lld}",
               static_cast<long long>(b.mc), static_cast<long long>(b.kc),
               static_cast<long long>(b.nc), static_cast<long long>(b.mr),
               static_cast<long long>(b.nr));
}

bool write_json(const Harness& h, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  // No timestamp (or any other wall-clock artifact): the JSON must be
  // bit-reproducible apart from the measured seconds, so CI can diff
  // structure run-to-run. Enforced by the bench-clock lint rule.
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", h.smoke() ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  const parsvd::autotune::Profile& prof = parsvd::autotune::active_profile();
  std::fprintf(f, "  \"blocking\": {\"f64\": ");
  print_blocking(f, prof.f64);
  std::fprintf(f, ", \"qr_block\": %lld, \"tuned\": %s},\n",
               static_cast<long long>(prof.qr_block),
               prof.tuned ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  const auto& rs = h.results();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Result& r = rs[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                 "\"threads\": %d, \"seconds\": %.6e, \"gflops\": %.4f, "
                 "\"flops\": %.6e}%s\n",
                 r.kernel.c_str(), static_cast<long long>(r.m),
                 static_cast<long long>(r.n), static_cast<long long>(r.k),
                 r.threads, r.seconds, r.gflops, r.flops,
                 (i + 1 < rs.size()) ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  print_opt(f, "gemm_512_seed_seconds", h.seed_512_seconds, ",");
  print_opt(f, "gemm_512_packed_seconds", h.packed_512_seconds, ",");
  std::optional<double> speedup_vs_seed;
  if (h.seed_512_seconds && h.packed_512_seconds && *h.packed_512_seconds > 0.0) {
    speedup_vs_seed = *h.seed_512_seconds / *h.packed_512_seconds;
  }
  print_opt(f, "gemm_512_speedup_vs_seed", speedup_vs_seed, ",");
  std::fprintf(f, "  \"failures\": %d\n", h.failures());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  std::string out = parsvd::env::get_string("PARSVD_BENCH_OUT",
                                            "BENCH_kernels.json");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  Harness h(smoke);
  smoke_checks(h);  // correctness gate runs in both modes (cheap)
  parsvd::ThreadPool::set_global_threads(1);
  bench_gemm(h);
  bench_qr(h);
  bench_gram(h);
  bench_gemv(h);

  if (!smoke && h.packed_512_seconds && h.seed_512_seconds) {
    std::printf("gemm 512^3 single-thread speedup vs seed kernel: %.2fx\n",
                *h.seed_512_seconds / *h.packed_512_seconds);
  }
  const bool wrote = write_json(h, out);
  return (h.failures() == 0 && wrote) ? 0 : 1;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
