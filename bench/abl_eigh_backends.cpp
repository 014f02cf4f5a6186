// Ablation: symmetric eigensolver (the library's tridiagonalization + QL
// vs the cyclic-Jacobi test oracle) on Gram matrices — the kernel behind
// the method-of-snapshots SVD that APMOS stage 1 runs on every rank. The
// kept-rank row is the APMOS shape: 50 of 256 eigenvectors. The rows at
// the reduction crossover ± 1 and two panels past it put the blocked
// tridiagonalization's edges (linalg/autotune.hpp) in the smoke ctest.
// The Jacobi rows time tests/oracle, which is not selectable in the
// library.
#include <benchmark/benchmark.h>

#include "jacobi.hpp"
#include "linalg/autotune.hpp"
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

void run_eigh(benchmark::State& state, Index rank) {
  const Matrix g = gram_input(state.range(0), 5);
  EighOptions opts;
  opts.rank = rank;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(g, opts));
  }
}

void run_jacobi(benchmark::State& state, Index rank) {
  const Matrix g = gram_input(state.range(0), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::eigh_jacobi(g, rank));
  }
}

void BM_EighJacobi(benchmark::State& state) { run_jacobi(state, 0); }

void BM_EighTridiagonal(benchmark::State& state) { run_eigh(state, 0); }

// Kept-rank rows, args (n, rank): only `rank` eigenpairs are kept.
void BM_EighJacobiKept(benchmark::State& state) { run_jacobi(state, state.range(1)); }

void BM_EighTridiagonalKept(benchmark::State& state) {
  run_eigh(state, state.range(1));
}

BENCHMARK(BM_EighJacobi)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonal)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The blocked reduction's edges: the crossover (column sweep whole) and
// one past it (one panel), and one past two panels beyond it.
constexpr Index kCross = autotune::kReductionCrossover;
BENCHMARK(BM_EighTridiagonal)->Arg(kCross - 1)->Arg(kCross + 1)
    ->Arg(kCross + 2 * autotune::kReductionBlock + 1)->Unit(benchmark::kMillisecond);

// The APMOS stage-1 Gram: n = 256, r1 = 50 vectors kept.
BENCHMARK(BM_EighJacobiKept)->Args({256, 50})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EighTridiagonalKept)->Args({256, 50})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
