// Reduced-order modeling with the streaming POD basis (paper §2).
//
// Builds a K-mode basis from the first half of the Burgers trajectory,
// then projects the *unseen* second half onto it: the modal coefficients
// a_j(t) = ⟨φ_j, u(t)⟩ are the reduced state a Galerkin ROM would evolve,
// and the reconstruction error measures how well the basis extrapolates
// beyond its training window.
#include <cmath>
#include <cstdio>

#include "core/streaming.hpp"
#include "io/matrix_io.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "workloads/burgers.hpp"

int main() try {
  using namespace parsvd;
  namespace wl = workloads;

  wl::BurgersConfig cfg;
  cfg.grid_points = env::get_int("PARSVD_GRID", 2048);
  cfg.snapshots = env::get_int("PARSVD_SNAPSHOTS", 200);
  const Index num_modes = env::get_int("PARSVD_MODES", 8);
  const Index half = cfg.snapshots / 2;

  wl::Burgers burgers(cfg);
  std::printf("Burgers ROM: %lld dof, K = %lld modes, train on snapshots "
              "1..%lld, test on %lld..%lld\n\n",
              static_cast<long long>(cfg.grid_points),
              static_cast<long long>(num_modes), static_cast<long long>(half),
              static_cast<long long>(half + 1),
              static_cast<long long>(cfg.snapshots));

  // Train the basis on the first half, streamed in batches of 25.
  StreamingOptions opts;
  opts.num_modes = num_modes;
  opts.forget_factor = 1.0;
  SerialStreamingSVD pod(opts);
  for (Index done = 0; done < half;) {
    const Index take = std::min<Index>(25, half - done);
    const Matrix batch = burgers.snapshot_block(0, cfg.grid_points, done, take);
    if (done == 0) {
      pod.initialize(batch);
    } else {
      pod.incorporate_data(batch);
    }
    done += take;
  }

  // Project train + test windows; report reconstruction error per time.
  std::printf("%-10s %12s %16s\n", "t", "window", "rel. rec. error");
  double train_worst = 0.0, test_worst = 0.0;
  for (Index j = 0; j < cfg.snapshots; j += cfg.snapshots / 20) {
    const Matrix snap = burgers.snapshot_block(0, cfg.grid_points, j, 1);
    const Matrix rec = pod.reconstruct(pod.project(snap));
    const double err = (snap - rec).norm_fro() / snap.norm_fro();
    const bool is_train = j < half;
    (is_train ? train_worst : test_worst) =
        std::max(is_train ? train_worst : test_worst, err);
    std::printf("%-10.3f %12s %16.3e\n", burgers.time_at(j),
                is_train ? "train" : "test", err);
  }

  // Leading modal coefficients over time (the ROM state trajectory).
  const Index probe = 6;
  Matrix coeffs(num_modes, probe);
  std::printf("\nleading modal coefficients a_j(t):\n%-10s", "t");
  for (Index k = 0; k < 3; ++k) std::printf(" %12s", ("a_" + std::to_string(k + 1)).c_str());
  std::printf("\n");
  for (Index p = 0; p < probe; ++p) {
    const Index j = p * (cfg.snapshots - 1) / (probe - 1);
    const Matrix snap = burgers.snapshot_block(0, cfg.grid_points, j, 1);
    const Matrix c = pod.project(snap);
    coeffs.set_block(0, p, c);
    std::printf("%-10.3f", burgers.time_at(j));
    for (Index k = 0; k < 3; ++k) std::printf(" %12.5f", c(k, 0));
    std::printf("\n");
  }
  io::write_csv("rom_coefficients.csv", coeffs.transposed());

  std::printf("\nworst relative reconstruction error: train %.3e, test "
              "%.3e\n",
              train_worst, test_worst);
  std::printf("(the advecting front leaves the training subspace — the "
              "classic POD\nlimitation for transport-dominated flows, and "
              "exactly why the paper's\nstreaming update matters:)\n");

  // The streaming fix: keep incorporating data as it arrives. The basis
  // refreshes and the late-time error collapses.
  for (Index done = half; done < cfg.snapshots;) {
    const Index take = std::min<Index>(25, cfg.snapshots - done);
    pod.incorporate_data(
        burgers.snapshot_block(0, cfg.grid_points, done, take));
    done += take;
  }
  double updated_worst = 0.0;
  for (Index j = half; j < cfg.snapshots; j += cfg.snapshots / 20) {
    const Matrix snap = burgers.snapshot_block(0, cfg.grid_points, j, 1);
    const Matrix rec = pod.reconstruct(pod.project(snap));
    updated_worst =
        std::max(updated_worst, (snap - rec).norm_fro() / snap.norm_fro());
  }
  std::printf("\nafter streaming the second half through "
              "incorporate_data():\n  worst test-window error %.3e "
              "(was %.3e)\n",
              updated_worst, test_worst);
  std::printf("wrote rom_coefficients.csv\n");
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
