// Ablation: streaming-update inner SVD — the Levy-Lindenbaum update
// (Algorithm 1, the paper's choice) with its deterministic Golub–Kahan
// root SVD vs the randomized one (§3.3). Same stream, same K, same ff;
// the bench reports wall time and the spectrum deviation from the batch
// SVD for both.
#include <cstdio>

#include "core/streaming.hpp"
#include "io/matrix_io.hpp"
#include "linalg/svd.hpp"
#include "post/metrics.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"
#include "workloads/burgers.hpp"

int main() {
  using namespace parsvd;
  namespace wl = workloads;

  wl::BurgersConfig cfg;
  cfg.grid_points = env::get_int("PARSVD_GRID", 8192);
  cfg.snapshots = env::get_int("PARSVD_SNAPSHOTS", 400);
  const Index num_modes = env::get_int("PARSVD_MODES", 10);
  const Index batch = env::get_int("PARSVD_BATCH", 40);

  std::printf("=== Ablation: streaming update algorithm ===\n");
  std::printf("Burgers %lld x %lld, K = %lld, B = %lld, ff = 1.0\n\n",
              static_cast<long long>(cfg.grid_points),
              static_cast<long long>(cfg.snapshots),
              static_cast<long long>(num_modes),
              static_cast<long long>(batch));

  wl::Burgers burgers(cfg);
  const Matrix data = burgers.snapshot_matrix();
  SvdOptions ref_opts;
  ref_opts.method = SvdMethod::MethodOfSnapshots;
  ref_opts.eigh_method = EighMethod::Tridiagonal;
  ref_opts.rank = num_modes;
  const SvdResult ref = svd(data, ref_opts);

  StreamingOptions opts;
  opts.num_modes = num_modes;
  opts.forget_factor = 1.0;

  auto drive = [&](SvdBase& s) {
    Stopwatch watch;
    watch.start();
    Index done = 0;
    while (done < cfg.snapshots) {
      const Index take = std::min(batch, cfg.snapshots - done);
      const Matrix block = data.block(0, done, cfg.grid_points, take);
      if (done == 0) {
        s.initialize(block);
      } else {
        s.incorporate_data(block);
      }
      done += take;
    }
    return watch.stop();
  };

  std::printf("%-32s %10s %14s %22s\n", "algorithm", "time[s]", "snaps/s",
              "max rel sigma err");
  std::vector<std::array<double, 3>> rows;
  auto report = [&](const char* name, SvdBase& s, double t) {
    const double err =
        post::spectrum_relative_error(ref.s, s.singular_values()).norm_inf();
    std::printf("%-32s %10.3f %14.0f %22.3e\n", name, t,
                static_cast<double>(cfg.snapshots) / t, err);
    rows.push_back({t, static_cast<double>(cfg.snapshots) / t, err});
  };

  {
    SerialStreamingSVD ll(opts);
    const double t = drive(ll);
    report("Levy-Lindenbaum (paper Alg. 1)", ll, t);
  }
  {
    StreamingOptions ropts = opts;
    ropts.low_rank = true;
    ropts.randomized.oversampling = 8;
    ropts.randomized.power_iterations = 1;
    SerialStreamingSVD ll_rand(ropts);
    const double t = drive(ll_rand);
    report("Levy-Lindenbaum + randomized", ll_rand, t);
  }

  Matrix out(static_cast<Index>(rows.size()), 3);
  for (Index i = 0; i < out.rows(); ++i) {
    for (Index j = 0; j < 3; ++j) {
      out(i, j) = rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  io::write_csv("abl_streaming_algorithms.csv", out,
                {"time_s", "snaps_per_s", "max_rel_sigma_err"});
  std::printf("\nwrote abl_streaming_algorithms.csv\n\n");
  return 0;
}
