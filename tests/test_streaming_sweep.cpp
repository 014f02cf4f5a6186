// Parameterized property sweeps over the streaming SVD configuration
// space: every (K, batch, ff, parallel-ranks, fault-tolerant)
// combination must uphold the structural invariants regardless of
// accuracy — orthonormal modes, non-negative descending singular values,
// stable shapes — and the ff = 1 configurations must track the batch
// SVD.
#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "core/parallel_streaming.hpp"
#include "core/streaming.hpp"
#include "post/metrics.hpp"
#include "test_utils.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using testing::ortho_defect;
namespace wl = workloads;

const Matrix& shared_data() {
  static const Matrix data = [] {
    wl::BurgersConfig cfg;
    cfg.grid_points = 256;
    cfg.snapshots = 96;
    return wl::Burgers(cfg).snapshot_matrix();
  }();
  return data;
}

// ------------------------------------------------- serial sweep (TEST_P)

using SerialCase = std::tuple<int, int, double>;  // K, B, ff

class SerialStreamingSweep : public ::testing::TestWithParam<SerialCase> {};

TEST_P(SerialStreamingSweep, StructuralInvariants) {
  const auto [k, b, ff] = GetParam();
  const Matrix& data = shared_data();

  StreamingOptions opts;
  opts.num_modes = k;
  opts.forget_factor = ff;
  SerialStreamingSVD s(opts);

  wl::MatrixBatchSource src(data);
  s.initialize(src.next_batch(b));
  while (!src.exhausted()) s.incorporate_data(src.next_batch(b));

  // Shapes: the first batch caps the initial basis at min(K, B); later
  // updates widen the factorization, so the final count lies between
  // that floor and K.
  const Index k_floor = std::min<Index>(k, std::min<Index>(b, data.rows()));
  EXPECT_EQ(s.modes().rows(), data.rows());
  EXPECT_LE(s.modes().cols(), k);
  EXPECT_GE(s.modes().cols(), k_floor);
  EXPECT_EQ(s.singular_values().size(), s.modes().cols());
  EXPECT_EQ(s.snapshots_seen(), data.cols());
  const Index k_eff = s.modes().cols();

  // Orthonormality of the retained basis.
  EXPECT_LT(ortho_defect(s.modes()), 1e-9);

  // Spectrum sanity.
  const Vector& sv = s.singular_values();
  for (Index i = 0; i < sv.size(); ++i) {
    EXPECT_GE(sv[i], 0.0);
    if (i > 0) {
      EXPECT_GE(sv[i - 1], sv[i] - 1e-12);
    }
  }

  // ff = 1 tracks the batch SVD's leading values (loose bound: the
  // truncation tail perturbs at the percent level on full-rank data).
  if (ff == 1.0) {
    SvdOptions ref_opts;
    ref_opts.rank = k_eff;
    const SvdResult ref = svd(data, ref_opts);
    for (Index i = 0; i < std::min<Index>(2, k_eff); ++i) {
      EXPECT_NEAR(sv[i], ref.s[i], 5e-2 * ref.s[i]) << "sigma " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SerialStreamingSweep,
    ::testing::Combine(::testing::Values(1, 4, 12),          // K
                       ::testing::Values(8, 24, 96),         // batch
                       ::testing::Values(1.0, 0.95, 0.7)));  // ff

// ----------------------------------------------- parallel sweep (TEST_P)

using ParallelCase = std::tuple<int, int, int>;  // ranks, K, fault_tolerant

class ParallelStreamingSweep : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelStreamingSweep, StructuralInvariants) {
  const auto [p, k, fault_tolerant] = GetParam();
  const Matrix& data = shared_data();

  StreamingOptions opts;
  opts.num_modes = k;
  opts.forget_factor = 0.95;
  opts.fault_tolerant = fault_tolerant != 0;

  Matrix modes;
  Vector sv;
  std::mutex mu;
  pmpi::run(p, [&](Communicator& comm) {
    const auto part = wl::partition_rows(data.rows(), p, comm.rank());
    ParallelStreamingSVD s(comm, opts);
    wl::MatrixBatchSource src(data, part.offset, part.count);
    s.initialize(src.next_batch(24));
    while (!src.exhausted()) s.incorporate_data(src.next_batch(24));
    if (comm.is_root()) {
      std::lock_guard<std::mutex> lock(mu);
      modes = s.modes();
      sv = s.singular_values();
    }
  });

  EXPECT_EQ(modes.rows(), data.rows());
  EXPECT_EQ(modes.cols(), k);
  EXPECT_LT(ortho_defect(modes), 1e-8);
  for (Index i = 1; i < sv.size(); ++i) EXPECT_GE(sv[i - 1], sv[i] - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelStreamingSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),  // ranks
                       ::testing::Values(2, 6),           // K
                       ::testing::Values(0, 1)));         // strict, fault-tolerant policy

}  // namespace
}  // namespace parsvd
