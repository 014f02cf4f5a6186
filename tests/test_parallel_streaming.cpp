// Distributed streaming SVD tests: serial/parallel equivalence (the
// paper's Fig 1(a)/(b) validation, as assertions), rank invariance,
// TSQR-variant independence, randomized path, mode gathering.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>

#include "core/apmos.hpp"
#include "core/factory.hpp"
#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
#include "post/metrics.hpp"
#include "test_utils.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/era5_synthetic.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using testing::ortho_defect;
using workloads::partition_rows;

Matrix burgers_data(Index m = 400, Index n = 120) {
  workloads::BurgersConfig cfg;
  cfg.grid_points = m;
  cfg.snapshots = n;
  return workloads::Burgers(cfg).snapshot_matrix();
}

struct ParallelRun {
  Matrix modes;  // gathered at root
  Vector s;
};

ParallelRun run_parallel_streaming(const Matrix& a, int p, Index batch,
                                   StreamingOptions opts) {
  ParallelRun out;
  std::mutex mu;
  pmpi::run(p, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), p, comm.rank());
    ParallelStreamingSVD s(comm, opts);
    Index done = std::min(batch, a.cols());
    s.initialize(a.block(part.offset, 0, part.count, done));
    while (done < a.cols()) {
      const Index take = std::min(batch, a.cols() - done);
      s.incorporate_data(a.block(part.offset, done, part.count, take));
      done += take;
    }
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      out.modes = s.modes();
      out.s = s.singular_values();
    }
  });
  return out;
}

void run_serial_reference(const Matrix& a, Index batch, StreamingOptions opts,
                          Matrix& modes, Vector& s) {
  SerialStreamingSVD serial(opts);
  Index done = std::min(batch, a.cols());
  serial.initialize(a.block(0, 0, a.rows(), done));
  while (done < a.cols()) {
    const Index take = std::min(batch, a.cols() - done);
    serial.incorporate_data(a.block(0, done, a.rows(), take));
    done += take;
  }
  modes = serial.modes();
  s = serial.singular_values();
}

/// ParallelStreamingSVD's P-rank stream at ff = 1 with the Jacobi oracle
/// as the root SVD of every update: the same APMOS initialization, TSQR,
/// sign convention and q_times rotation; only the root solver differs.
ParallelRun run_jacobi_root_stream(const Matrix& a, int p, Index k, Index batch) {
  ParallelRun out;
  pmpi::run(p, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), p, comm.rank());
    Index done = std::min(batch, a.cols());
    ApmosOptions aopts;
    aopts.r1 = aopts.r2 = std::min(k, done);
    ApmosResult init = apmos_svd(comm, a.block(part.offset, 0, part.count, done), aopts);
    Matrix u_local = std::move(init.u_local);
    std::vector<double> s(init.s.begin(), init.s.end());
    while (done < a.cols()) {
      const Index take = std::min(batch, a.cols() - done);
      Matrix ll = u_local;
      for (Index j = 0; j < ll.cols(); ++j) {
        scal(s[static_cast<std::size_t>(j)], ll.col_span(j));
      }
      const TsqrResult qr =
          tsqr(comm, hcat(ll, a.block(part.offset, done, part.count, take)));
      Matrix u_small;
      if (comm.is_root()) {
        SvdResult f = oracle::svd_jacobi(qr.r, k);
        fix_svd_signs(f.u, f.v);
        u_small = std::move(f.u);
        s.assign(f.s.begin(), f.s.end());
      }
      u_local = qr.q_times(comm, u_small);
      comm.bcast(s, 0);
      done += take;
    }
    std::vector<std::optional<Matrix>> blocks = comm.gather_matrices(u_local, 0);
    if (comm.is_root()) {
      std::vector<Matrix> rows;
      for (auto& b : blocks) rows.push_back(std::move(*b));
      out.modes = vcat(rows);
      out.s = Vector(static_cast<Index>(s.size()));
      std::copy(s.begin(), s.end(), out.s.begin());
    }
  });
  return out;
}

/// The default root SVD (Golub–Kahan) against the Jacobi-root run of the
/// same P-rank stream: σ within 1e-12 of Jacobi's (relative, per value)
/// and every mode at |cos| >= 1 - 1e-10.
void expect_default_matches_jacobi(const Matrix& a, int p, Index k, Index batch) {
  StreamingOptions fast;
  fast.num_modes = k;
  fast.forget_factor = 1.0;
  const ParallelRun got = run_parallel_streaming(a, p, batch, fast);
  const ParallelRun want = run_jacobi_root_stream(a, p, k, batch);
  ASSERT_EQ(got.s.size(), k);
  ASSERT_EQ(want.s.size(), k);
  for (Index i = 0; i < k; ++i) {
    EXPECT_NEAR(got.s[i], want.s[i], 1e-12 * want.s[i]) << "sigma " << i;
    EXPECT_GE(post::mode_cosine(got.modes, i, want.modes, i), 1.0 - 1e-10)
        << "mode " << i;
  }
}

TEST(ParallelStreaming, DefaultMatchesJacobiOnBurgersStreamShape) {
  // The burgers_stream benchmark shape: P = 4, K = 10, B = 10, over the
  // paper's 16384 x 800 Burgers matrix with 1e-3 RMS white noise.
  Matrix a = burgers_data(16384, 800);
  Rng rng(11);
  double* d = a.data();
  for (Index i = 0; i < a.size(); ++i) d[i] += 1e-3 * rng.gaussian();
  expect_default_matches_jacobi(a, 4, 10, 10);
}

TEST(ParallelStreaming, DefaultMatchesJacobiOnEra5Synthetic) {
  // The era5_stream benchmark shape: P = 4, K = 4, B = 200 on the
  // 144 x 72 grid (mean removed), over 1000 snapshots: four updates whose
  // root SVD factors a 204 x 204 R.
  workloads::Era5Config cfg;
  cfg.snapshots = 1000;
  const workloads::Era5Synthetic era(cfg);
  const Matrix a = era.snapshot_block(0, era.grid_size(), 0, cfg.snapshots,
                                      /*subtract_mean=*/true);
  expect_default_matches_jacobi(a, 4, 4, 200);
}

TEST(ParallelStreaming, MatchesSerialOnBurgers) {
  // The paper's core validation (Fig 1a/b): parallel vs serial streaming
  // on Burgers snapshots, 4 ranks.
  const Matrix a = burgers_data();
  StreamingOptions opts;
  opts.num_modes = 6;
  opts.forget_factor = 0.95;

  const ParallelRun par = run_parallel_streaming(a, 4, 30, opts);
  Matrix serial_modes;
  Vector serial_s;
  run_serial_reference(a, 30, opts, serial_modes, serial_s);

  // The parallel initialization truncates each rank's right-vector
  // contribution to K columns (Listing 3), so agreement is at the 1e-4
  // level the paper's own Fig 1 error curves show — not machine epsilon.
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(par.s[i], serial_s[i], 1e-4 * serial_s[0]) << "sigma " << i;
  }
  const Vector errs = post::mode_errors_l2(par.modes, serial_modes);
  for (Index j = 0; j < errs.size(); ++j) {
    EXPECT_LT(errs[j], 5e-3) << "mode " << j;
  }
}

TEST(ParallelStreaming, FfOneEqualsBatchSvd) {
  Rng rng(400);
  const Matrix a = workloads::synthetic_low_rank(
      240, 60, workloads::geometric_spectrum(5, 10.0, 0.4), rng);
  StreamingOptions opts;
  opts.num_modes = 8;
  opts.forget_factor = 1.0;
  const ParallelRun par = run_parallel_streaming(a, 4, 12, opts);
  const SvdResult ref = svd(a);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(par.s[i], ref.s[i], 1e-7 * ref.s[0]) << "sigma " << i;
  }
  const Vector errs =
      post::mode_errors_l2(par.modes.left_cols(5), ref.u.left_cols(5));
  for (Index j = 0; j < 5; ++j) EXPECT_LT(errs[j], 1e-5) << "mode " << j;
}

TEST(ParallelStreaming, RankCountInvariance) {
  const Matrix a = burgers_data(300, 80);
  StreamingOptions opts;
  opts.num_modes = 5;
  opts.forget_factor = 0.95;
  const ParallelRun base = run_parallel_streaming(a, 1, 20, opts);
  for (int p : {2, 3, 4}) {
    const ParallelRun run = run_parallel_streaming(a, p, 20, opts);
    // The APMOS initialization truncates per-rank, so different rank
    // counts see slightly different initial subspaces; agreement is at
    // the same 1e-4 level as the serial/parallel comparison.
    testing::expect_vector_near(run.s, base.s, 1e-4 * base.s[0]);
    const Vector errs = post::mode_errors_l2(run.modes, base.modes);
    for (Index j = 0; j < errs.size(); ++j) {
      EXPECT_LT(errs[j], 5e-3) << "p=" << p << " mode " << j;
    }
  }
}

TEST(ParallelStreaming, FaultTolerantPathMatchesHealthy) {
  // Both fault policies run the same collectives, so when nobody dies
  // the results are bit-identical.
  const Matrix a = burgers_data(256, 60);
  StreamingOptions opts;
  opts.num_modes = 4;
  const ParallelRun healthy = run_parallel_streaming(a, 4, 15, opts);
  opts.fault_tolerant = true;
  const ParallelRun ft = run_parallel_streaming(a, 4, 15, opts);
  testing::expect_vector_near(healthy.s, ft.s, 0.0);
  testing::expect_matrix_near(healthy.modes, ft.modes, 0.0);
}

TEST(ParallelStreaming, GatheredModesOrthonormal) {
  const Matrix a = burgers_data(300, 90);
  StreamingOptions opts;
  opts.num_modes = 5;
  const ParallelRun run = run_parallel_streaming(a, 3, 30, opts);
  EXPECT_LT(ortho_defect(run.modes), 1e-8);
}

TEST(ParallelStreaming, LocalModesShapeAndOffsets) {
  const Matrix a = burgers_data(205, 40);
  StreamingOptions opts;
  opts.num_modes = 3;
  pmpi::run(3, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 3, comm.rank());
    ParallelStreamingSVD s(comm, opts);
    s.initialize(a.block(part.offset, 0, part.count, a.cols()));
    EXPECT_EQ(s.local_modes().rows(), part.count);
    EXPECT_EQ(s.local_modes().cols(), 3);
    EXPECT_EQ(s.row_offset(), part.offset);
    EXPECT_EQ(s.global_rows(), 205);
  });
}

TEST(ParallelStreaming, ModesOnlyAtRoot) {
  const Matrix a = burgers_data(120, 30);
  StreamingOptions opts;
  opts.num_modes = 2;
  pmpi::run(2, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 2, comm.rank());
    ParallelStreamingSVD s(comm, opts);
    s.initialize(a.block(part.offset, 0, part.count, a.cols()));
    if (comm.is_root()) {
      EXPECT_EQ(s.modes().rows(), 120);
    } else {
      EXPECT_TRUE(s.modes().empty());
    }
  });
}

TEST(ParallelStreaming, RandomizedPathCloseToDeterministic) {
  Rng rng(401);
  const Matrix a = workloads::synthetic_low_rank(
      300, 60, workloads::geometric_spectrum(5, 10.0, 0.4), rng);
  StreamingOptions det;
  det.num_modes = 5;
  det.forget_factor = 1.0;
  StreamingOptions rnd = det;
  rnd.low_rank = true;
  rnd.randomized.oversampling = 10;
  rnd.randomized.power_iterations = 2;

  const ParallelRun d = run_parallel_streaming(a, 4, 15, det);
  const ParallelRun r = run_parallel_streaming(a, 4, 15, rnd);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(r.s[i], d.s[i], 1e-3 * d.s[0]) << "sigma " << i;
  }
}

TEST(ParallelStreaming, CountersTrack) {
  const Matrix a = burgers_data(100, 45);
  StreamingOptions opts;
  opts.num_modes = 3;
  pmpi::run(2, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 2, comm.rank());
    ParallelStreamingSVD s(comm, opts);
    s.initialize(a.block(part.offset, 0, part.count, 15));
    s.incorporate_data(a.block(part.offset, 15, part.count, 15));
    s.incorporate_data(a.block(part.offset, 30, part.count, 15));
    EXPECT_EQ(s.iterations(), 2);
    EXPECT_EQ(s.snapshots_seen(), 45);
  });
}

TEST(ParallelStreaming, ApiContract) {
  StreamingOptions opts;
  opts.num_modes = 2;
  pmpi::run(2, [&](Communicator& comm) {
    ParallelStreamingSVD s(comm, opts);
    // Collective misuse must fail on every rank uniformly (all ranks
    // throw before communicating, so no deadlock).
    EXPECT_THROW(s.incorporate_data(Matrix(4, 2, 1.0)), Error);
  });
}

TEST(Factory, ParallelFactoryProducesWorkingObject) {
  const Matrix a = burgers_data(80, 20);
  StreamingOptions opts;
  opts.num_modes = 2;
  pmpi::run(2, [&](Communicator& comm) {
    auto s = make_streaming_svd(opts, comm);
    ASSERT_NE(s, nullptr);
    const auto part = partition_rows(a.rows(), 2, comm.rank());
    s->initialize(a.block(part.offset, 0, part.count, a.cols()));
    EXPECT_EQ(s->singular_values().size(), 2);
  });
}

}  // namespace
}  // namespace parsvd
