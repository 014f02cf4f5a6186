// Online SVD with regime change — the "on the fly" use case the paper's
// §2 motivates (lightweight SVD for online computations).
//
// A simulated sensor field switches its dominant coherent structure
// halfway through the stream. Two streaming SVDs watch the same stream:
// one with ff = 1.0 (all history retained) and one with ff = 0.9
// (exponential forgetting). The monitor prints, per batch, each
// tracker's alignment with the currently-active structure — showing the
// forgetting tracker re-locking onto the new regime while the ff = 1
// tracker stays anchored to the historical average.
#include <cmath>
#include <cstdio>

#include "core/streaming.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "workloads/lowrank.hpp"

int main() try {
  using namespace parsvd;

  const Index m = env::get_int("PARSVD_GRID", 600);
  const Index batches = env::get_int("PARSVD_BATCHES", 24);
  const Index batch_cols = env::get_int("PARSVD_BATCH", 20);
  Rng rng(7);

  // Two orthogonal "physical" structures; regime A then regime B.
  const Matrix structures = workloads::random_orthonormal(m, 2, rng);

  auto make_batch = [&](Index batch_idx) {
    const bool regime_b = batch_idx >= batches / 2;
    Matrix batch(m, batch_cols);
    for (Index j = 0; j < batch_cols; ++j) {
      const double amp = 10.0 * (1.0 + 0.2 * rng.gaussian());
      const double weak = 2.0 * rng.gaussian();
      for (Index i = 0; i < m; ++i) {
        const double dominant = structures(i, regime_b ? 1 : 0);
        const double minor = structures(i, regime_b ? 0 : 1);
        batch(i, j) = amp * dominant + weak * minor + 0.1 * rng.gaussian();
      }
    }
    return batch;
  };

  StreamingOptions retain;
  retain.num_modes = 2;
  retain.forget_factor = 1.0;
  StreamingOptions forget = retain;
  forget.forget_factor = 0.9;

  SerialStreamingSVD tracker_retain(retain);
  SerialStreamingSVD tracker_forget(forget);

  std::printf("%-7s %-8s %22s %22s\n", "batch", "regime", "align ff=1.0",
              "align ff=0.9");
  for (Index b = 0; b < batches; ++b) {
    const Matrix batch = make_batch(b);
    if (b == 0) {
      tracker_retain.initialize(batch);
      tracker_forget.initialize(batch);
    } else {
      tracker_retain.incorporate_data(batch);
      tracker_forget.incorporate_data(batch);
    }
    const Index active = (b >= batches / 2) ? 1 : 0;
    const double a1 =
        post::mode_cosine(tracker_retain.modes(), 0, structures, active);
    const double a2 =
        post::mode_cosine(tracker_forget.modes(), 0, structures, active);
    std::printf("%-7lld %-8s %22.4f %22.4f\n", static_cast<long long>(b),
                active == 0 ? "A" : "B", a1, a2);
  }

  std::printf(
      "\nff = 0.9 re-locks onto regime B within a few batches; ff = 1.0\n"
      "stays dominated by whichever regime holds the larger cumulative\n"
      "energy — the trade-off the forget factor controls (paper §3.1).\n");
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
