// Global-pressure coherent structures with parallel IO — the paper's
// second science case (§4.3, Fig 2), on the synthetic ERA5 analogue.
//
// Pipeline: generate the reanalysis-like dataset → write it through the
// chunked SnapshotStore → four ranks stream disjoint row-blocks out of
// the shared file into the distributed streaming SVD → export the first
// two modes as PGM images and ASCII heatmaps → score them against the
// planted ground truth (which the real ERA5 could not provide).
//
// Environment knobs:
//   PARSVD_LON=144 PARSVD_LAT=72 PARSVD_SNAPSHOTS=1000 PARSVD_RANKS=4
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
  cfg.snapshots = env::get_int("PARSVD_SNAPSHOTS", 1000);
  cfg.n_modes = 6;
  const int ranks = static_cast<int>(env::get_int("PARSVD_RANKS", 4));
  const Index batch = env::get_int("PARSVD_BATCH", 100);
  const std::string store_path =
      env::get_string("PARSVD_STORE", "era5_synth.snap");

  wl::Era5Synthetic era(cfg);
  std::printf("ERA5 analogue: %lld x %lld grid (%lld cells), %lld snapshots\n",
              static_cast<long long>(cfg.n_lat),
              static_cast<long long>(cfg.n_lon),
              static_cast<long long>(era.grid_size()),
              static_cast<long long>(cfg.snapshots));

  // Stage 1: the "simulation" writes the dataset to disk in chunks.
  Stopwatch io_watch;
  io_watch.start();
  {
    io::SnapshotWriter writer(store_path, era.grid_size(), 64);
    Index written = 0;
    while (written < cfg.snapshots) {
      const Index take = std::min<Index>(128, cfg.snapshots - written);
      writer.append_batch(era.snapshot_block(0, era.grid_size(), written,
                                             take, /*subtract_mean=*/true));
      written += take;
    }
    writer.close();
  }
  std::printf("wrote %s in %.2f s\n", store_path.c_str(), io_watch.stop());

  // Stage 2: distributed analysis — each rank reads only its rows.
  // PARSVD_WEIGHTED=1 switches on cos-latitude area weighting (the
  // standard EOF convention; modes become orthonormal under the
  // cell-area inner product instead of the plain Euclidean one).
  const bool weighted = env::get_bool("PARSVD_WEIGHTED", false);
  const Vector area_w = era.area_weights();
  StreamingOptions opts;
  opts.num_modes = 4;
  opts.forget_factor = 1.0;

  Matrix modes;
  Vector s;
  std::mutex mu;
  Stopwatch solve_watch;
  solve_watch.start();
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(era.grid_size(), ranks, comm.rank());
    wl::StoreBatchSource source(store_path, part.offset, part.count);
    StreamingOptions local_opts = opts;
    if (weighted) {
      local_opts.row_weights = area_w.segment(part.offset, part.count);
    }
    ParallelStreamingSVD psvd(comm, local_opts);
    psvd.initialize(source.next_batch(batch));
    while (!source.exhausted()) {
      psvd.incorporate_data(source.next_batch(batch));
    }
    Matrix physical = psvd.physical_modes();  // collective
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      modes = std::move(physical);
      s = psvd.singular_values();
    }
  });
  if (weighted) std::printf("(cos-latitude area weighting active)\n");
  std::printf("distributed streaming SVD (%d ranks) in %.2f s\n", ranks,
              solve_watch.stop());

  // Stage 3: post-processing + verification against the planted truth.
  std::printf("\n%-6s %14s %22s\n", "mode", "sigma", "cosine vs planted");
  for (Index m = 0; m < opts.num_modes; ++m) {
    std::printf("%-6lld %14.4f %22.6f\n", static_cast<long long>(m + 1), s[m],
                post::mode_cosine(modes, m, era.true_modes(), m));
  }

  for (Index m = 0; m < 2; ++m) {
    const std::string pgm = "era5_mode" + std::to_string(m + 1) + ".pgm";
    post::write_mode_pgm(pgm, modes.col(m), cfg.n_lat, cfg.n_lon);
    std::printf("\nmode %lld (%s):\n", static_cast<long long>(m + 1),
                pgm.c_str());
    std::fputs(
        post::ascii_heatmap(modes.col(m), cfg.n_lat, cfg.n_lon, 18, 72)
            .c_str(),
        stdout);
  }
  std::remove(store_path.c_str());
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
