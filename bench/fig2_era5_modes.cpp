// Reproduces Figure 2: the first two coherent-structure modes of the
// global surface-pressure dataset, computed with parallel IO through the
// chunked snapshot store and the distributed streaming SVD.
//
// The real ERA5 pressure field is access-gated; the synthetic analogue
// plants known planetary-wave modes (DESIGN.md §1), so in addition to
// rendering the two mode maps (what the paper shows) this bench scores
// the recovered modes against the planted ground truth.
//
// PARSVD_SNAPSHOTS (default 2000; paper period = 11688), PARSVD_RANKS.
#include <cstdio>
#include <mutex>

#include "core/parallel_streaming.hpp"
#include "io/snapshot_store.hpp"
#include "post/export.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/era5_synthetic.hpp"

int main() try {
  using namespace parsvd;
  namespace wl = workloads;

  wl::Era5Config cfg;
  cfg.n_lon = env::get_int("PARSVD_LON", 144);
  cfg.n_lat = env::get_int("PARSVD_LAT", 72);
  cfg.snapshots =
      env::get_int("PARSVD_SNAPSHOTS", env::get_bool("PARSVD_FULL", false)
                                           ? 11688
                                           : 2000);
  cfg.n_modes = 6;
  const int ranks = static_cast<int>(env::get_int("PARSVD_RANKS", 4));
  const Index batch = env::get_int("PARSVD_BATCH", 200);
  const std::string store = "fig2_era5.snap";

  std::printf("=== Figure 2: ERA5-analogue surface pressure modes ===\n");
  std::printf("grid %lld x %lld (%lld cells), %lld snapshots (6-hourly), "
              "%d ranks\n",
              static_cast<long long>(cfg.n_lat),
              static_cast<long long>(cfg.n_lon),
              static_cast<long long>(cfg.n_lat * cfg.n_lon),
              static_cast<long long>(cfg.snapshots), ranks);

  wl::Era5Synthetic era(cfg);

  Stopwatch io_watch;
  io_watch.start();
  {
    io::SnapshotWriter writer(store, era.grid_size(), 64);
    Index written = 0;
    while (written < cfg.snapshots) {
      const Index take = std::min<Index>(256, cfg.snapshots - written);
      writer.append_batch(era.snapshot_block(0, era.grid_size(), written,
                                             take, /*subtract_mean=*/true));
      written += take;
    }
    writer.close();
  }
  const double t_io = io_watch.stop();

  StreamingOptions opts;
  opts.num_modes = 4;
  opts.forget_factor = env::get_double("PARSVD_FF", 1.0);

  Matrix modes;
  Vector s;
  std::mutex mu;
  Stopwatch solve;
  solve.start();
  auto ctx = pmpi::run_with_stats(ranks, [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(era.grid_size(), ranks, comm.rank());
    wl::StoreBatchSource source(store, part.offset, part.count);
    ParallelStreamingSVD psvd(comm, opts);
    psvd.initialize(source.next_batch(batch));
    while (!source.exhausted()) {
      psvd.incorporate_data(source.next_batch(batch));
    }
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      modes = psvd.modes();
      s = psvd.singular_values();
    }
  });
  const double t_solve = solve.stop();

  std::printf("dataset write: %.2f s; distributed streaming SVD: %.2f s; "
              "comm volume: %.2f MB\n",
              t_io, t_solve,
              static_cast<double>(ctx->total_bytes()) / (1024.0 * 1024.0));

  std::printf("\n%-6s %14s %20s\n", "mode", "sigma", "cosine vs planted");
  for (Index m = 0; m < opts.num_modes; ++m) {
    std::printf("%-6lld %14.4f %20.6f\n", static_cast<long long>(m + 1), s[m],
                post::mode_cosine(modes, m, era.true_modes(), m));
  }

  for (Index m = 0; m < 2; ++m) {
    const std::string pgm = "fig2_mode" + std::to_string(m + 1) + ".pgm";
    post::write_mode_pgm(pgm, modes.col(m), cfg.n_lat, cfg.n_lon);
    std::printf("\nFigure 2, mode %lld (image: %s):\n",
                static_cast<long long>(m + 1), pgm.c_str());
    std::fputs(
        post::ascii_heatmap(modes.col(m), cfg.n_lat, cfg.n_lon, 18, 72)
            .c_str(),
        stdout);
  }
  std::printf("\n");
  std::remove(store.c_str());
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
