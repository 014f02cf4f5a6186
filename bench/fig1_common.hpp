// Shared driver for the Figure 1(a)/(b) reproductions: serial SVD vs the
// randomized+parallel (APMOS, 4 ranks) SVD of the Burgers snapshot
// matrix, reported as the paper plots it — the singular-vector profile
// and the pointwise |serial - parallel| error curve for one mode.
//
// Paper parameters: 16384 grid points, 800 snapshots, Re = 1000, 4 ranks,
// r1 = 50, r2 = 5. Defaults here are scaled (4096 x 200) so the whole
// bench suite runs in minutes on a laptop; set PARSVD_FULL=1 to run the
// exact paper size.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>

#include "core/apmos.hpp"
#include "io/matrix_io.hpp"
#include "linalg/svd.hpp"
#include "post/export.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"

namespace parsvd::bench {

inline int run_fig1(Index mode, const std::string& csv_name) try {
  namespace wl = workloads;
  const bool full = env::get_bool("PARSVD_FULL", false);

  wl::BurgersConfig cfg;
  cfg.grid_points = env::get_int("PARSVD_GRID", full ? 16384 : 4096);
  cfg.snapshots = env::get_int("PARSVD_SNAPSHOTS", full ? 800 : 200);
  const int ranks = static_cast<int>(env::get_int("PARSVD_RANKS", 4));

  ApmosOptions aopts;
  aopts.r1 = env::get_int("PARSVD_R1", 50);
  aopts.r2 = env::get_int("PARSVD_R2", 5);
  aopts.low_rank = true;  // the paper's "randomized+parallel deployment"
  aopts.randomized.oversampling = 8;
  aopts.randomized.power_iterations = 2;
  // Local stage via method of snapshots (M_i >> N here, the case the
  // paper §3.2 calls out) on the fast tridiagonal eigensolver.
  aopts.method = SvdMethod::MethodOfSnapshots;
  aopts.eigh_method = EighMethod::Tridiagonal;

  std::printf("=== Figure 1(%c): singular vector %lld, serial vs "
              "randomized+parallel ===\n",
              mode == 0 ? 'a' : 'b', static_cast<long long>(mode + 1));
  std::printf("Burgers %lld x %lld, Re = %.0f, %d ranks, r1 = %lld, "
              "r2 = %lld\n",
              static_cast<long long>(cfg.grid_points),
              static_cast<long long>(cfg.snapshots), cfg.reynolds, ranks,
              static_cast<long long>(aopts.r1),
              static_cast<long long>(aopts.r2));

  wl::Burgers burgers(cfg);

  // Serial reference: method of snapshots (m >> n), exactly the
  // comparison baseline the paper uses.
  Stopwatch serial_watch;
  serial_watch.start();
  const Matrix data = burgers.snapshot_matrix();
  SvdOptions sopts;
  sopts.method = SvdMethod::MethodOfSnapshots;
  sopts.eigh_method = EighMethod::Tridiagonal;
  sopts.rank = aopts.r2;
  SvdResult serial = svd(data, sopts);
  fix_svd_signs(serial.u, serial.v);
  const double t_serial = serial_watch.stop();

  // Distributed randomized run.
  Matrix par_modes;
  Vector par_s;
  std::mutex mu;
  Stopwatch par_watch;
  par_watch.start();
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    const auto part = wl::partition_rows(cfg.grid_points, ranks, comm.rank());
    const Matrix local =
        burgers.snapshot_block(part.offset, part.count, 0, cfg.snapshots);
    ApmosResult res = apmos_svd(comm, local, aopts);
    std::vector<Matrix> blocks;
    for (auto& b : comm.gather_matrices(res.u_local, 0)) {
      blocks.push_back(std::move(b.value()));
    }
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      par_modes = vcat(blocks);
      par_s = res.s;
    }
  });
  const double t_parallel = par_watch.stop();

  // The paper's plotted quantities: mode profile + pointwise error.
  const Matrix aligned = post::align_signs(par_modes, serial.u);
  const Vector err = post::pointwise_mode_error(par_modes, serial.u, mode);

  std::printf("\nsigma_%lld: serial = %.8f, parallel = %.8f\n",
              static_cast<long long>(mode + 1), serial.s[mode], par_s[mode]);
  std::printf("timing: serial SVD %.3f s, randomized+parallel %.3f s "
              "(%d thread-backed ranks)\n",
              t_serial, t_parallel, ranks);

  // Profile table, downsampled to 17 points across the domain (the
  // curve the paper draws).
  std::printf("\n%-10s %16s %16s %14s\n", "x", "serial U", "parallel U",
              "|error|");
  const Index stride = std::max<Index>(1, cfg.grid_points / 16);
  for (Index i = 0; i < cfg.grid_points; i += stride) {
    const double x = static_cast<double>(i) /
                     static_cast<double>(cfg.grid_points - 1);
    std::printf("%-10.4f %16.8f %16.8f %14.3e\n", x, serial.u(i, mode),
                aligned(i, mode), err[i]);
  }
  double mean_err = 0.0;
  for (Index i = 0; i < err.size(); ++i) mean_err += err[i];
  mean_err /= static_cast<double>(err.size());
  std::printf("\nerror: max = %.3e, mean = %.3e  (paper shows ~1e-4..1e-3 "
              "band for this comparison)\n",
              err.norm_inf(), mean_err);

  std::printf("\nmode %lld profile (serial):\n",
              static_cast<long long>(mode + 1));
  std::fputs(post::ascii_plot(serial.u.col(mode), 12, 72).c_str(), stdout);

  // Full-resolution curves for external plotting.
  Matrix csv(cfg.grid_points, 3);
  for (Index i = 0; i < cfg.grid_points; ++i) {
    csv(i, 0) = serial.u(i, mode);
    csv(i, 1) = aligned(i, mode);
    csv(i, 2) = err[i];
  }
  io::write_csv(csv_name, csv, {"serial", "parallel", "abs_error"});
  std::printf("wrote %s\n\n", csv_name.c_str());
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

}  // namespace parsvd::bench
