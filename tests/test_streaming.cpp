// Serial streaming SVD tests: exactness at ff = 1, forget-factor
// semantics, truncation, API contract, randomized inner path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/factory.hpp"
#include "core/streaming.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "post/metrics.hpp"
#include "test_utils.hpp"
#include "workloads/burgers.hpp"
#include "workloads/lowrank.hpp"

namespace parsvd {
namespace {

using testing::ortho_defect;
using testing::random_matrix;

Matrix burgers_data(Index m = 400, Index n = 100) {
  workloads::BurgersConfig cfg;
  cfg.grid_points = m;
  cfg.snapshots = n;
  return workloads::Burgers(cfg).snapshot_matrix();
}

/// Feed `a` into a streaming SVD in batches of `batch` columns.
void stream_in(SvdBase& svd_obj, const Matrix& a, Index batch) {
  svd_obj.initialize(a.block(0, 0, a.rows(), std::min(batch, a.cols())));
  Index done = std::min(batch, a.cols());
  while (done < a.cols()) {
    const Index take = std::min(batch, a.cols() - done);
    svd_obj.incorporate_data(a.block(0, done, a.rows(), take));
    done += take;
  }
}

TEST(SerialStreaming, SingleBatchEqualsBatchSvd) {
  const Matrix a = burgers_data();
  StreamingOptions opts;
  opts.num_modes = 8;
  opts.forget_factor = 1.0;
  SerialStreamingSVD s(opts);
  s.initialize(a);
  const SvdResult ref = svd(a);
  for (Index i = 0; i < 8; ++i) {
    EXPECT_NEAR(s.singular_values()[i], ref.s[i], 1e-9 * ref.s[0]);
  }
  const Vector errs = post::mode_errors_l2(s.modes(), ref.u.left_cols(8));
  for (Index j = 0; j < errs.size(); ++j) EXPECT_LT(errs[j], 1e-8);
}

TEST(SerialStreaming, ForgetFactorOneConvergesToBatchSvd) {
  // With ff = 1 and K >= numerical rank, streaming over batches must
  // reproduce the one-shot SVD (the paper's own statement in §3.1).
  Rng rng(300);
  const Vector spectrum = workloads::geometric_spectrum(6, 10.0, 0.5);
  const Matrix a = workloads::synthetic_low_rank(150, 60, spectrum, rng);

  StreamingOptions opts;
  opts.num_modes = 10;  // > rank 6
  opts.forget_factor = 1.0;
  SerialStreamingSVD s(opts);
  stream_in(s, a, 15);

  const SvdResult ref = svd(a);
  for (Index i = 0; i < 6; ++i) {
    EXPECT_NEAR(s.singular_values()[i], ref.s[i], 1e-8 * ref.s[0])
        << "sigma " << i;
  }
  const Vector errs =
      post::mode_errors_l2(s.modes().left_cols(6), ref.u.left_cols(6));
  for (Index j = 0; j < 6; ++j) EXPECT_LT(errs[j], 1e-6) << "mode " << j;
}

TEST(SerialStreaming, BatchSizeInvariantAtFfOne) {
  Rng rng(301);
  const Matrix a =
      workloads::synthetic_low_rank(100, 48,
                                    workloads::geometric_spectrum(5, 4.0, 0.4),
                                    rng);
  StreamingOptions opts;
  opts.num_modes = 8;
  opts.forget_factor = 1.0;

  SerialStreamingSVD s1(opts), s2(opts);
  stream_in(s1, a, 6);
  stream_in(s2, a, 16);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(s1.singular_values()[i], s2.singular_values()[i], 1e-8);
  }
}

TEST(SerialStreaming, ModesStayOrthonormal) {
  const Matrix a = burgers_data();
  StreamingOptions opts;
  opts.num_modes = 6;
  SerialStreamingSVD s(opts);
  stream_in(s, a, 20);
  EXPECT_LT(ortho_defect(s.modes()), 1e-10);
}

TEST(SerialStreaming, SingularValuesDescending) {
  const Matrix a = burgers_data();
  StreamingOptions opts;
  opts.num_modes = 6;
  SerialStreamingSVD s(opts);
  stream_in(s, a, 25);
  const Vector& sv = s.singular_values();
  for (Index i = 1; i < sv.size(); ++i) EXPECT_GE(sv[i - 1], sv[i]);
}

TEST(SerialStreaming, ForgetFactorDiscountsOldData) {
  // Phase 1 has energy only in direction e1, phase 2 only in e2. With a
  // small ff, the final leading mode must be e2, not e1.
  const Index m = 50;
  Matrix phase1(m, 20, 0.0), phase2(m, 20, 0.0);
  for (Index j = 0; j < 20; ++j) {
    phase1(0, j) = 10.0;
    phase2(1, j) = 5.0;  // weaker, but recent
  }
  StreamingOptions opts;
  opts.num_modes = 2;
  opts.forget_factor = 0.1;
  SerialStreamingSVD s(opts);
  s.initialize(phase1);
  for (int rep = 0; rep < 5; ++rep) s.incorporate_data(phase2);

  // Leading mode concentrated on coordinate 1 (e2).
  EXPECT_GT(std::fabs(s.modes()(1, 0)), 0.99);
  EXPECT_LT(std::fabs(s.modes()(0, 0)), 0.2);
}

TEST(SerialStreaming, FfOneRetainsOldData) {
  // Same two-phase experiment with ff = 1: e1 energy (10 > 5) must win.
  const Index m = 50;
  Matrix phase1(m, 20, 0.0), phase2(m, 20, 0.0);
  for (Index j = 0; j < 20; ++j) {
    phase1(0, j) = 10.0;
    phase2(1, j) = 5.0;
  }
  StreamingOptions opts;
  opts.num_modes = 2;
  opts.forget_factor = 1.0;
  SerialStreamingSVD s(opts);
  s.initialize(phase1);
  s.incorporate_data(phase2);
  EXPECT_GT(std::fabs(s.modes()(0, 0)), 0.99);
}

TEST(SerialStreaming, TruncatesToNumModes) {
  const Matrix a = random_matrix(60, 30, 302);
  StreamingOptions opts;
  opts.num_modes = 4;
  SerialStreamingSVD s(opts);
  stream_in(s, a, 10);
  EXPECT_EQ(s.modes().cols(), 4);
  EXPECT_EQ(s.singular_values().size(), 4);
}

TEST(SerialStreaming, KEffectiveCappedByFirstBatch) {
  // First batch narrower than K: retained modes = batch width.
  const Matrix a = random_matrix(40, 3, 303);
  StreamingOptions opts;
  opts.num_modes = 10;
  SerialStreamingSVD s(opts);
  s.initialize(a);
  EXPECT_EQ(s.modes().cols(), 3);
}

TEST(SerialStreaming, TracksCounters) {
  const Matrix a = random_matrix(30, 24, 304);
  StreamingOptions opts;
  opts.num_modes = 3;
  SerialStreamingSVD s(opts);
  EXPECT_FALSE(s.initialized());
  stream_in(s, a, 8);
  EXPECT_TRUE(s.initialized());
  EXPECT_EQ(s.iterations(), 2);       // 24 cols in batches of 8 → init + 2
  EXPECT_EQ(s.snapshots_seen(), 24);
}

TEST(SerialStreaming, ApiContractEnforced) {
  StreamingOptions opts;
  opts.num_modes = 2;
  SerialStreamingSVD s(opts);
  EXPECT_THROW(s.incorporate_data(Matrix(4, 2, 1.0)), Error);  // before init
  s.initialize(Matrix(4, 2, 1.0));
  EXPECT_THROW(s.initialize(Matrix(4, 2, 1.0)), Error);        // double init
  EXPECT_THROW(s.incorporate_data(Matrix(5, 2, 1.0)), Error);  // row change
  EXPECT_THROW(s.incorporate_data(Matrix{}), Error);           // empty batch
}

TEST(SerialStreaming, OptionValidation) {
  StreamingOptions bad;
  bad.num_modes = 0;
  EXPECT_THROW(SerialStreamingSVD{bad}, Error);
  StreamingOptions bad2;
  bad2.forget_factor = 0.0;
  EXPECT_THROW(SerialStreamingSVD{bad2}, Error);
  StreamingOptions bad3;
  bad3.forget_factor = 1.5;
  EXPECT_THROW(SerialStreamingSVD{bad3}, Error);
}

TEST(SerialStreaming, LowRankPathTracksDeterministic) {
  Rng rng(305);
  const Matrix a = workloads::synthetic_low_rank(
      200, 60, workloads::geometric_spectrum(5, 8.0, 0.4), rng);
  StreamingOptions det;
  det.num_modes = 5;
  det.forget_factor = 1.0;
  StreamingOptions rnd = det;
  rnd.low_rank = true;
  rnd.randomized.oversampling = 10;
  rnd.randomized.power_iterations = 2;

  SerialStreamingSVD sd(det), sr(rnd);
  stream_in(sd, a, 15);
  stream_in(sr, a, 15);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_NEAR(sr.singular_values()[i], sd.singular_values()[i],
                1e-4 * sd.singular_values()[0])
        << "sigma " << i;
  }
}

/// σ of Algorithm 1 at ff = 1 with the Jacobi oracle as its inner SVD:
/// QR of [U Σ | A_i], keep the leading k triplets of the SVD of R.
Vector jacobi_root_stream(const Matrix& a, Index k, Index batch) {
  Matrix modes;
  Vector s;
  for (Index done = 0; done < a.cols();) {
    const Index take = std::min(batch, a.cols() - done);
    Matrix block = a.block(0, done, a.rows(), take);
    if (done > 0) {
      Matrix us = modes;
      for (Index j = 0; j < us.cols(); ++j) scal(s[j], us.col_span(j));
      block = hcat(us, block);
    }
    const QrResult qr = qr_thin(block);
    const SvdResult f = oracle::svd_jacobi(qr.r, k);
    modes = matmul(qr.q, f.u);
    s = f.s;
    done += take;
  }
  return s;
}

TEST(SerialStreaming, GolubKahanBackendAgrees) {
  // The streaming root SVD (Golub–Kahan) against the same stream with the
  // Jacobi oracle at the root.
  const Matrix a = burgers_data(200, 60);
  StreamingOptions g;
  g.num_modes = 4;
  g.forget_factor = 1.0;
  SerialStreamingSVD sg(g);
  stream_in(sg, a, 15);
  const Vector sj = jacobi_root_stream(a, 4, 15);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_NEAR(sg.singular_values()[i], sj[i], 1e-8);
  }
}

TEST(Factory, SerialFactoryProducesWorkingObject) {
  StreamingOptions opts;
  opts.num_modes = 3;
  auto s = make_streaming_svd(opts);
  ASSERT_NE(s, nullptr);
  s->initialize(random_matrix(20, 10, 306));
  EXPECT_EQ(s->modes().cols(), 3);
}

}  // namespace
}  // namespace parsvd
