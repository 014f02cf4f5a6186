// Ablation: deterministic SVD backend choice (Golub-Kahan vs method of
// snapshots, against the one-sided Jacobi test oracle) across the matrix
// shapes the library actually sees — square R factors from the streaming
// update (in full and at its kept rank) and tall-skinny snapshot blocks
// from APMOS stage 1. The Golub–Kahan rows at the reduction crossover
// ± 1 and two panels past it put the blocked bidiagonalization's edges
// (linalg/autotune.hpp) in the smoke ctest, and the kept-rank rows run
// both of its kept-rank routes (bisection with inverse iteration, and the
// QR sweep). The Jacobi rows time tests/oracle, which is not selectable
// in the library.
#include <benchmark/benchmark.h>

#include "jacobi.hpp"
#include "linalg/autotune.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/rng.hpp"

namespace {

using namespace parsvd;

Matrix make_input(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::gaussian(m, n, rng);
}

void run_svd(benchmark::State& state, SvdMethod method, Index rank) {
  const Matrix a = make_input(state.range(0), state.range(1), 17);
  SvdOptions opts;
  opts.method = method;
  opts.rank = rank;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svd(a, opts));
  }
}

void run_jacobi(benchmark::State& state, Index rank) {
  const Matrix a = make_input(state.range(0), state.range(1), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::svd_jacobi(a, rank));
  }
}

void BM_SvdJacobi(benchmark::State& state) { run_jacobi(state, 0); }

void BM_SvdGolubKahan(benchmark::State& state) {
  run_svd(state, SvdMethod::GolubKahan, 0);
}

void BM_SvdMethodOfSnapshots(benchmark::State& state) {
  run_svd(state, SvdMethod::MethodOfSnapshots, 0);
}

// Kept-rank rows, args (m, n, rank): only `rank` triplets are kept.
void BM_SvdJacobiKept(benchmark::State& state) { run_jacobi(state, state.range(2)); }

void BM_SvdGolubKahanKept(benchmark::State& state) {
  run_svd(state, SvdMethod::GolubKahan, state.range(2));
}

void BM_SvdMethodOfSnapshotsKept(benchmark::State& state) {
  run_svd(state, SvdMethod::MethodOfSnapshots, state.range(2));
}

// Square R-factor shapes (streaming update inner SVD).
BENCHMARK(BM_SvdJacobi)->Args({60, 60})->Args({120, 120})->Args({240, 240})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdGolubKahan)->Args({60, 60})->Args({120, 120})->Args({240, 240})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdMethodOfSnapshots)->Args({60, 60})->Args({120, 120})
    ->Args({240, 240})->Unit(benchmark::kMillisecond);

// The blocked bidiagonalization's edges: the crossover (column sweep
// whole), one past it (one panel), and one past two panels beyond it.
constexpr Index kCross = autotune::kReductionCrossover;
constexpr Index kPast2 = kCross + 2 * autotune::kReductionBlock + 1;
BENCHMARK(BM_SvdGolubKahan)->Args({kCross - 1, kCross - 1})
    ->Args({kCross + 1, kCross + 1})->Args({kPast2, kPast2})
    ->Unit(benchmark::kMillisecond);

// Tall-skinny snapshot blocks (APMOS stage 1).
BENCHMARK(BM_SvdJacobi)->Args({4096, 64})->Args({8192, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdGolubKahan)->Args({4096, 64})->Args({8192, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdMethodOfSnapshots)->Args({4096, 64})->Args({8192, 64})
    ->Unit(benchmark::kMillisecond);

// The era5_stream root SVD: 204 x 204 R, K = 4 modes kept.
BENCHMARK(BM_SvdJacobiKept)->Args({204, 204, 4})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdGolubKahanKept)->Args({204, 204, 4})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdMethodOfSnapshotsKept)->Args({204, 204, 4})
    ->Unit(benchmark::kMillisecond);

// Golub–Kahan's two kept-rank routes. On Gaussian input, rank 4 and 10
// pass the spectrum gate and run bisection and inverse iteration, while
// ranks 50 and n/2 cut between σ closer than 1e-3·σ_1 and run the QR
// sweep; below the crossover (63) every rank runs the sweep. The
// separated rows plant n evenly spaced σ, so every kept rank takes the
// bisection route; their rank 0 is the full sweep, for scale.
BENCHMARK(BM_SvdGolubKahanKept)->Args({kCross - 1, kCross - 1, 4})
    ->Args({kCross, kCross, 4})->Args({kCross + 1, kCross + 1, 4})
    ->Args({204, 204, 10})->Args({204, 204, 50})->Args({204, 204, 102})
    ->Args({256, 256, 4})->Args({256, 256, 10})->Args({256, 256, 50})
    ->Args({256, 256, 128})->Unit(benchmark::kMillisecond);

void BM_SvdGolubKahanKeptSeparated(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(17);
  const Matrix q = qr_thin(Matrix::gaussian(n, n, rng)).q;
  const Matrix p = qr_thin(Matrix::gaussian(n, n, rng)).q;
  Vector s(n);
  for (Index i = 0; i < n; ++i) s[i] = 1.0 - 0.9 * static_cast<double>(i) / static_cast<double>(n);
  const Matrix a = matmul(matmul(q, Matrix::diag(s)), p, Trans::No, Trans::Yes);
  SvdOptions opts;
  opts.rank = state.range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svd(a, opts));
  }
}
BENCHMARK(BM_SvdGolubKahanKeptSeparated)->Args({204, 4})->Args({204, 50})
    ->Args({204, 102})->Args({204, 0})->Args({256, 4})->Args({256, 50})
    ->Args({256, 128})->Args({256, 0})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
