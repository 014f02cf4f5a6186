// Ablation: symmetric eigensolver backend (cyclic Jacobi vs
// tridiagonalization + QL) on Gram matrices — the kernel behind the
// method-of-snapshots SVD that APMOS stage 1 runs on every rank. The
// crossover motivates SvdOptions::eigh_method. The kept-rank row is the
// APMOS shape: 50 of 256 eigenvectors.
#include <benchmark/benchmark.h>

#include "linalg/blas.hpp"
#include "linalg/eigh.hpp"
#include "support/rng.hpp"

namespace {

using namespace parsvd;

Matrix gram_input(Index n, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix a = Matrix::gaussian(4 * n, n, rng);
  return gram(a);
}

void run_eigh(benchmark::State& state, EighMethod method, Index rank) {
  const Matrix g = gram_input(state.range(0), 5);
  EighOptions opts;
  opts.method = method;
  opts.rank = rank;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(g, opts));
  }
}

void BM_EighJacobi(benchmark::State& state) { run_eigh(state, EighMethod::Jacobi, 0); }

void BM_EighTridiagonal(benchmark::State& state) {
  run_eigh(state, EighMethod::Tridiagonal, 0);
}

// Kept-rank rows, args (n, rank): only `rank` eigenpairs are kept.
void BM_EighJacobiKept(benchmark::State& state) {
  run_eigh(state, EighMethod::Jacobi, state.range(1));
}

void BM_EighTridiagonalKept(benchmark::State& state) {
  run_eigh(state, EighMethod::Tridiagonal, state.range(1));
}

BENCHMARK(BM_EighJacobi)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonal)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The APMOS stage-1 Gram: n = 256, r1 = 50 vectors kept.
BENCHMARK(BM_EighJacobiKept)->Args({256, 50})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonalKept)->Args({256, 50})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
