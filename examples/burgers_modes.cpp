// Coherent-structure extraction from the viscous Burgers equation —
// the paper's first science case (§4.3).
//
// Runs the serial streaming SVD and the 4-rank distributed streaming SVD
// on the same analytical snapshot data, prints the singular values, the
// serial/parallel mode discrepancy, and an ASCII rendering of the first
// two modes. Writes modes + errors to CSV for external plotting.
//
// Environment knobs:
//   PARSVD_GRID=2048  PARSVD_SNAPSHOTS=200  PARSVD_RANKS=4  PARSVD_MODES=6
#include <cstdio>
#include <mutex>

#include "core/factory.hpp"
#include "core/parallel_streaming.hpp"
#include "io/matrix_io.hpp"
#include "post/export.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"

int main() try {
  using namespace parsvd;
  namespace wl = workloads;

  wl::BurgersConfig cfg;
  cfg.grid_points = env::get_int("PARSVD_GRID", 2048);
  cfg.snapshots = env::get_int("PARSVD_SNAPSHOTS", 200);
  const int ranks = static_cast<int>(env::get_int("PARSVD_RANKS", 4));
  const Index batch = env::get_int("PARSVD_BATCH", 50);

  StreamingOptions opts;
  opts.num_modes = env::get_int("PARSVD_MODES", 6);
  opts.forget_factor = env::get_double("PARSVD_FF", 0.95);

  wl::Burgers burgers(cfg);
  std::printf("Burgers: %lld grid points, %lld snapshots, Re = %.0f\n",
              static_cast<long long>(cfg.grid_points),
              static_cast<long long>(cfg.snapshots), cfg.reynolds);

  // --- serial reference ---------------------------------------------
  SerialStreamingSVD serial(opts);
  {
    wl::MatrixBatchSource src(burgers.snapshot_matrix());
    serial.initialize(src.next_batch(batch));
    while (!src.exhausted()) serial.incorporate_data(src.next_batch(batch));
  }

  // --- distributed run (blocks generated per rank, never the full
  //     matrix) ---------------------------------------------------------
  Matrix par_modes;
  Vector par_s;
  std::mutex mu;
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(cfg.grid_points, ranks, comm.rank());
    ParallelStreamingSVD psvd(comm, opts);
    Index done = 0;
    while (done < cfg.snapshots) {
      const Index take = std::min(batch, cfg.snapshots - done);
      const Matrix block =
          burgers.snapshot_block(part.offset, part.count, done, take);
      if (done == 0) {
        psvd.initialize(block);
      } else {
        psvd.incorporate_data(block);
      }
      done += take;
    }
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      par_modes = psvd.modes();
      par_s = psvd.singular_values();
    }
  });

  // --- comparison (Fig 1a/b content) ----------------------------------
  std::printf("\n%-6s %16s %16s %14s\n", "mode", "sigma(serial)",
              "sigma(parallel)", "L2 mode error");
  const Vector errs = post::mode_errors_l2(par_modes, serial.modes());
  for (Index i = 0; i < opts.num_modes; ++i) {
    std::printf("%-6lld %16.8f %16.8f %14.3e\n", static_cast<long long>(i),
                serial.singular_values()[i], par_s[i], errs[i]);
  }

  for (Index m = 0; m < std::min<Index>(2, opts.num_modes); ++m) {
    std::printf("\nmode %lld shape (serial):\n", static_cast<long long>(m + 1));
    std::fputs(post::ascii_plot(serial.modes().col(m), 12, 72).c_str(),
               stdout);
  }

  io::write_csv("burgers_serial_modes.csv", serial.modes());
  io::write_csv("burgers_parallel_modes.csv", par_modes);
  std::printf(
      "\nwrote burgers_serial_modes.csv / burgers_parallel_modes.csv\n");
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
