// Quickstart: the smallest end-to-end use of the library.
//
//   1. build a snapshot matrix (here: random low-rank data),
//   2. stream it through the serial streaming SVD in batches,
//   3. read back singular values and modes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/factory.hpp"
#include "support/error.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/lowrank.hpp"

int main() try {
  using namespace parsvd;

  // A 2000 x 200 data matrix with a known 8-mode spectrum.
  Rng rng(42);
  const Vector spectrum = workloads::geometric_spectrum(8, 100.0, 0.5);
  const Matrix data = workloads::synthetic_low_rank(2000, 200, spectrum, rng);

  // Configure the streaming SVD: keep 8 modes, no forgetting.
  StreamingOptions opts;
  opts.num_modes = 8;
  opts.forget_factor = 1.0;

  auto svd = make_streaming_svd(opts);

  // Stream the data in batches of 25 snapshots — the full matrix is
  // never handed to the solver at once.
  workloads::MatrixBatchSource source(data);
  svd->initialize(source.next_batch(25));
  while (!source.exhausted()) {
    svd->incorporate_data(source.next_batch(25));
  }

  std::printf("streamed %lld snapshots in %lld update steps\n",
              static_cast<long long>(svd->snapshots_seen()),
              static_cast<long long>(svd->iterations() + 1));
  std::printf("%-6s %14s %14s\n", "mode", "sigma (est)", "sigma (true)");
  for (Index i = 0; i < 8; ++i) {
    std::printf("%-6lld %14.6f %14.6f\n", static_cast<long long>(i),
                svd->singular_values()[i], spectrum[i]);
  }
  std::printf("modes matrix: %lld x %lld\n",
              static_cast<long long>(svd->modes().rows()),
              static_cast<long long>(svd->modes().cols()));
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
