// Ablation: randomized vs deterministic SVD kernels (paper §3.3 — "any
// SVD requirement ... may be randomized").
//
// Times rank-K factorization of tall matrices with a decaying spectrum —
// the shape of the matrices whose SVD the library randomizes — and
// attaches the rank-K reconstruction error as a counter so the
// speed/accuracy trade is visible in one table. Sweeps power iterations
// 0-2 to show where the extra passes pay off.
#include <benchmark/benchmark.h>

#include "core/randomized.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "workloads/lowrank.hpp"

namespace {

using namespace parsvd;

constexpr Index kRank = 10;

Matrix make_decaying(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  const Index k = std::min<Index>(n, 60);
  return workloads::synthetic_low_rank(
      m, n, workloads::algebraic_spectrum(k, 1.0, 1.0), rng);
}

double rank_k_error(const Matrix& a, const SvdResult& f) {
  Matrix us = f.u;
  for (Index j = 0; j < us.cols(); ++j) {
    for (Index i = 0; i < us.rows(); ++i) us(i, j) *= f.s[j];
  }
  const Matrix rec = matmul(us, f.v, Trans::No, Trans::Yes);
  return (a - rec).norm_fro() / a.norm_fro();
}

void BM_Deterministic(benchmark::State& state) {
  const Matrix a = make_decaying(state.range(0), state.range(1), 31);
  SvdOptions opts;
  opts.rank = kRank;
  SvdResult last;
  for (auto _ : state) {
    last = svd(a, opts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["rel_err"] = rank_k_error(a, last);
}

void BM_Randomized(benchmark::State& state) {
  const Matrix a = make_decaying(state.range(0), state.range(1), 31);
  RandomizedOptions opts;
  opts.rank = kRank;
  opts.oversampling = 8;
  opts.power_iterations = static_cast<int>(state.range(2));
  Rng rng(99);
  SvdResult last;
  for (auto _ : state) {
    last = randomized_svd(a, opts, rng);
    benchmark::DoNotOptimize(last);
  }
  state.counters["rel_err"] = rank_k_error(a, last);
}

BENCHMARK(BM_Deterministic)
    ->Args({2048, 256})
    ->Args({4096, 256})
    ->Args({8192, 512})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Randomized)
    ->Args({2048, 256, 0})
    ->Args({2048, 256, 1})
    ->Args({2048, 256, 2})
    ->Args({4096, 256, 1})
    ->Args({8192, 512, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
