// APMOS distributed-SVD tests: agreement with the serial SVD, rank-count
// invariance, truncation (r1/r2) behaviour, randomized root SVD.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "core/apmos.hpp"
#include "linalg/blas.hpp"
#include "post/metrics.hpp"
#include "test_utils.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using testing::expect_vector_near;
using testing::ortho_defect;
using workloads::partition_rows;

/// Run APMOS over p ranks on row-blocks of `a` and reassemble the global
/// mode matrix.
ApmosResult run_apmos(const Matrix& a, int p, const ApmosOptions& opts) {
  std::vector<Matrix> u_blocks(static_cast<std::size_t>(p));
  Vector s;
  std::mutex mu;
  pmpi::run(p, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), p, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    ApmosResult res = apmos_svd(comm, local, opts);
    std::lock_guard<std::mutex> lock(mu);
    u_blocks[static_cast<std::size_t>(comm.rank())] = std::move(res.u_local);
    if (comm.is_root()) s = std::move(res.s);
  });
  return {vcat(u_blocks), std::move(s), {}};
}

Matrix burgers_data() {
  workloads::BurgersConfig cfg;
  cfg.grid_points = 512;
  cfg.snapshots = 120;
  return workloads::Burgers(cfg).snapshot_matrix();
}

TEST(Apmos, SingularValuesMatchSerialSvd) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 50;
  opts.r2 = 5;
  const ApmosResult res = run_apmos(a, 4, opts);
  const SvdResult serial = svd(a);
  ASSERT_EQ(res.s.size(), 5);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(res.s[i], serial.s[i], 1e-6 * serial.s[0]) << "sigma " << i;
  }
}

TEST(Apmos, ModesMatchSerialSvd) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 50;
  opts.r2 = 5;
  const ApmosResult res = run_apmos(a, 4, opts);
  const SvdResult serial = svd(a);
  const Vector errs =
      post::mode_errors_l2(res.u_local, serial.u.left_cols(5));
  for (Index j = 0; j < errs.size(); ++j) {
    EXPECT_LT(errs[j], 1e-5) << "mode " << j;
  }
}

TEST(Apmos, GlobalModesOrthonormal) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 40;
  opts.r2 = 4;
  const ApmosResult res = run_apmos(a, 3, opts);
  EXPECT_LT(ortho_defect(res.u_local), 1e-6);
}

TEST(Apmos, RankCountInvariance) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 30;
  opts.r2 = 4;
  const ApmosResult r1 = run_apmos(a, 1, opts);
  for (int p : {2, 4, 5}) {
    const ApmosResult rp = run_apmos(a, p, opts);
    expect_vector_near(rp.s, r1.s, 1e-7 * r1.s[0]);
    const Vector errs = post::mode_errors_l2(rp.u_local, r1.u_local);
    for (Index j = 0; j < errs.size(); ++j) {
      EXPECT_LT(errs[j], 1e-5) << "p=" << p << " mode " << j;
    }
  }
}

TEST(Apmos, ExactOnPlantedLowRank) {
  Rng rng(200);
  const Vector spectrum = workloads::geometric_spectrum(6, 10.0, 0.5);
  const Matrix a = workloads::synthetic_low_rank(200, 40, spectrum, rng);
  ApmosOptions opts;
  opts.r1 = 10;
  opts.r2 = 6;
  const ApmosResult res = run_apmos(a, 4, opts);
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(res.s[i], spectrum[i], 1e-8 * spectrum[0]);
  }
}

TEST(Apmos, SmallR1DegradesGracefully) {
  // r1 below the effective rank loses accuracy but must not blow up:
  // the leading mode is still recovered well.
  const Matrix a = burgers_data();
  ApmosOptions tight;
  tight.r1 = 3;
  tight.r2 = 3;
  const ApmosResult res = run_apmos(a, 4, tight);
  const SvdResult serial = svd(a);
  EXPECT_NEAR(res.s[0], serial.s[0], 1e-3 * serial.s[0]);
  EXPECT_GT(post::mode_cosine(res.u_local, 0, serial.u, 0), 0.999);
}

TEST(Apmos, R2LimitsReturnedModes) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 20;
  opts.r2 = 2;
  const ApmosResult res = run_apmos(a, 2, opts);
  EXPECT_EQ(res.s.size(), 2);
  EXPECT_EQ(res.u_local.cols(), 2);
}

TEST(Apmos, RandomizedRootSvdClose) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 30;
  opts.r2 = 4;
  opts.low_rank = true;
  opts.randomized.oversampling = 10;
  opts.randomized.power_iterations = 2;
  const ApmosResult res = run_apmos(a, 4, opts);
  const SvdResult serial = svd(a);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_NEAR(res.s[i], serial.s[i], 1e-3 * serial.s[0]) << "sigma " << i;
  }
}

TEST(Apmos, SingularValuesConsistentAcrossRanks) {
  const Matrix a = burgers_data();
  ApmosOptions opts;
  opts.r1 = 20;
  opts.r2 = 3;
  std::vector<Vector> s_per_rank(3);
  pmpi::run(3, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 3, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    const ApmosResult res = apmos_svd(comm, local, opts);
    s_per_rank[static_cast<std::size_t>(comm.rank())] = res.s;
  });
  for (int r = 1; r < 3; ++r) {
    expect_vector_near(s_per_rank[static_cast<std::size_t>(r)], s_per_rank[0],
                       0.0);
  }
}

TEST(Apmos, GenerateRightVectorsShapes) {
  const Matrix a = testing::random_matrix(30, 12, 201);
  const auto [v, s] = generate_right_vectors(a, 5, SvdMethod::GolubKahan);
  EXPECT_EQ(v.rows(), 12);
  EXPECT_EQ(v.cols(), 5);
  EXPECT_EQ(s.size(), 5);
  EXPECT_LT(ortho_defect(v), 1e-12);
  // The leading σ and right subspace of the Jacobi oracle.
  const SvdResult ref = oracle::svd_jacobi(a, 5);
  testing::expect_vector_near(s, ref.s, 1e-12 * ref.s[0]);
  for (Index j = 0; j < 5; ++j) {
    EXPECT_GT(std::fabs(dot(v.col_span(j), ref.v.col_span(j))), 1.0 - 1e-10) << j;
  }
}

TEST(Apmos, OptionValidation) {
  pmpi::run(1, [](Communicator& comm) {
    ApmosOptions bad;
    bad.r1 = 0;
    EXPECT_THROW(apmos_svd(comm, Matrix(4, 2, 1.0), bad), Error);
    ApmosOptions bad2;
    bad2.r2 = -1;
    EXPECT_THROW(apmos_svd(comm, Matrix(4, 2, 1.0), bad2), Error);
  });
}

}  // namespace
}  // namespace parsvd
