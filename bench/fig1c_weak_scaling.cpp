// Reproduces Figure 1(c): weak scaling of the parallelized + randomized
// SVD (APMOS, no streaming), 1024 grid points per rank — the paper's
// Theta experiment up to 256 KNL nodes.
//
// Substitution note (DESIGN.md §1): ranks here are threads on one
// machine, so raw wall-clock conflates scheduler contention with
// algorithmic cost once ranks exceed cores. The bench therefore reports
// three quantities per rank count:
//   * t_rank_max  — max per-rank thread-CPU time (the cost on dedicated
//                   cores, i.e. what an MPI wall clock would show);
//   * t_root      — rank 0's thread-CPU time (holds the extra gather-SVD
//                   work, the term that eventually bends the curve);
//   * comm volume — exact bytes moved (gather grows as O(p·r1·N),
//                   broadcast as O(p·r2·N)).
// Ideal weak scaling = flat t_rank_max; the measured shape reproduces
// the paper's near-ideal trend with the slow root-term growth.
//
// Caveat on this host: thread-CPU time excludes scheduler *wait*, but
// oversubscribing p threads onto few physical cores still inflates it
// through shared cache/memory-bandwidth contention. Interpret the curve
// above p = hardware cores together with the bytes/rank column (the
// machine-independent algorithmic communication term).
//
// PARSVD_MAX_RANKS (default 64), PARSVD_SNAPSHOTS (default 128),
// PARSVD_ROWS_PER_RANK (default 1024).
#include <cstdio>
#include <mutex>
#include <vector>

#include "core/apmos.hpp"
#include "io/matrix_io.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"

int main() try {
  using namespace parsvd;
  namespace wl = workloads;

  // Paper values: 1024 grid points per rank, 800 snapshots.
  const Index rows_per_rank = env::get_int("PARSVD_ROWS_PER_RANK", 1024);
  const Index snapshots = env::get_int("PARSVD_SNAPSHOTS", 800);
  const int max_ranks = static_cast<int>(env::get_int("PARSVD_MAX_RANKS", 64));

  ApmosOptions aopts;
  aopts.r1 = env::get_int("PARSVD_R1", 50);
  aopts.r2 = env::get_int("PARSVD_R2", 5);
  aopts.low_rank = true;
  aopts.randomized.oversampling = 8;
  aopts.randomized.power_iterations = 1;
  aopts.method = SvdMethod::MethodOfSnapshots;  // M_i >> N local stage
  aopts.eigh_method = EighMethod::Tridiagonal;

  std::printf("=== Figure 1(c): weak scaling, randomized+parallel SVD ===\n");
  std::printf("%lld rows/rank, %lld snapshots, r1 = %lld, r2 = %lld\n\n",
              static_cast<long long>(rows_per_rank),
              static_cast<long long>(snapshots),
              static_cast<long long>(aopts.r1),
              static_cast<long long>(aopts.r2));
  std::printf("%-7s %10s %14s %12s %14s %14s %11s\n", "ranks", "rows",
              "t_rank_max[s]", "t_root[s]", "bytes_total", "bytes/rank",
              "efficiency");

  double t_base = 0.0;
  std::vector<std::array<double, 2>> series;  // (p, t_rank_max) for CSV
  Matrix csv(0, 0);
  std::vector<std::array<double, 6>> rows_out;

  for (int p = 1; p <= max_ranks; p *= 2) {
    const Index global_rows = rows_per_rank * p;
    wl::BurgersConfig cfg;
    cfg.grid_points = global_rows;
    cfg.snapshots = snapshots;
    wl::Burgers burgers(cfg);

    std::vector<double> rank_cpu(static_cast<std::size_t>(p), 0.0);
    auto ctx = pmpi::run_with_stats(p, [&](pmpi::Communicator& comm) {
      const auto part = wl::partition_rows(global_rows, p, comm.rank());
      // Per the paper, data generation/IO is outside the timed region.
      const Matrix local =
          burgers.snapshot_block(part.offset, part.count, 0, snapshots);
      comm.barrier();
      const double cpu0 = thread_cpu_seconds();
      ApmosResult res = apmos_svd(comm, local, aopts);
      const double cpu1 = thread_cpu_seconds();
      rank_cpu[static_cast<std::size_t>(comm.rank())] = cpu1 - cpu0;
      (void)res;
    });

    double t_rank_max = 0.0;
    for (double t : rank_cpu) t_rank_max = std::max(t_rank_max, t);
    const double t_root = rank_cpu[0];
    if (p == 1) t_base = t_rank_max;
    const double efficiency = t_base / std::max(t_rank_max, 1e-12);
    const auto bytes = ctx->total_bytes();

    std::printf("%-7d %10lld %14.4f %12.4f %14llu %14llu %10.1f%%\n", p,
                static_cast<long long>(global_rows), t_rank_max, t_root,
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(bytes / static_cast<unsigned>(p)),
                100.0 * efficiency);
    rows_out.push_back({static_cast<double>(p),
                        static_cast<double>(global_rows), t_rank_max, t_root,
                        static_cast<double>(bytes), efficiency});
    series.push_back({static_cast<double>(p), t_rank_max});
  }

  Matrix out(static_cast<Index>(rows_out.size()), 6);
  for (Index i = 0; i < out.rows(); ++i) {
    for (Index j = 0; j < 6; ++j) {
      out(i, j) = rows_out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  io::write_csv("fig1c_weak_scaling.csv", out,
                {"ranks", "rows", "t_rank_max", "t_root", "bytes_total",
                 "efficiency"});
  std::printf("\nideal weak scaling = flat t_rank_max (100%% efficiency); "
              "the gather/bcast\nvolume terms grow linearly in ranks and "
              "eventually bend the curve, as on Theta.\n");
  std::printf("wrote fig1c_weak_scaling.csv\n\n");
  return 0;
} catch (const parsvd::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
