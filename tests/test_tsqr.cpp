// Distributed TSQR tests: the direct TSQR against the serial QR, on a
// clean context and under a delay-fault plan, rank-count invariance,
// uneven row splits, orthogonality of the assembled Q, and the implicit
// Q·Y product (q_times) against the explicit local Q.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "pmpi/fault.hpp"
#include "test_utils.hpp"
#include "workloads/batch_source.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using testing::expect_matrix_near;
using testing::naive_matmul;
using testing::ortho_defect;
using testing::random_matrix;
using workloads::partition_rows;

/// Run TSQR over `p` ranks on row-blocks of `a`; reassemble the global Q
/// and return (Q, R). With `faulty` the context carries a delay-only
/// chaos plan, so every wait of the death-aware collectives runs armed
/// and some messages arrive late.
QrResult run_tsqr(const Matrix& a, int p, bool faulty = false) {
  std::vector<Matrix> q_blocks(static_cast<std::size_t>(p));
  Matrix r;
  std::mutex mu;
  auto ctx = std::make_shared<pmpi::Context>(p);
  if (faulty) {
    ctx->set_fault_plan(pmpi::FaultPlan::chaos(
        static_cast<std::uint64_t>(a.rows() * 31 + p), 0.1));
  }
  pmpi::run_on(ctx, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), p, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    TsqrResult res = tsqr(comm, local);
    std::lock_guard<std::mutex> lock(mu);
    q_blocks[static_cast<std::size_t>(comm.rank())] = res.q_local();
    if (comm.is_root()) r = std::move(res.r);
  });
  return {vcat(q_blocks), std::move(r)};
}

class TsqrSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};
// params: ranks, rows, cols, delay-fault plan

TEST_P(TsqrSweep, MatchesSerialQr) {
  const auto [p, m, n, faulty] = GetParam();
  if (m < p * n) GTEST_SKIP() << "blocks must be taller than wide for TSQR";
  const Matrix a = random_matrix(m, n, 77);
  const QrResult dist = run_tsqr(a, p, faulty != 0);
  const QrResult serial = qr_thin(a);

  // Same deterministic sign convention → exact same factors (up to fp).
  expect_matrix_near(dist.r, serial.r, 1e-10, "R");
  expect_matrix_near(dist.q, serial.q, 1e-10, "Q");
}

/// Largest |q_times(Y) - q_local()·Y| over the ranks that return, for
/// row blocks of the given heights, n columns and a Y of `c` columns
/// (the same seeded Y on every rank). `ctx` may carry a fault plan.
double q_times_defect(const std::vector<Index>& rows, Index n, Index c,
                      const std::shared_ptr<pmpi::Context>& ctx) {
  double worst = 0.0;
  int returned = 0;
  std::mutex mu;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const Matrix local = random_matrix(rows[r], n, 300 + r);
    const TsqrResult res = tsqr(comm, local);
    const Matrix y = random_matrix(res.r.rows(), c, 299);
    const Matrix implicit = res.q_times(y);
    const Matrix explicit_q = res.q_local();
    EXPECT_EQ(implicit.rows(), rows[r]);
    EXPECT_EQ(explicit_q.rows(), rows[r]);
    EXPECT_EQ(explicit_q.cols(), res.r.rows());
    const double d = max_abs_diff(implicit, naive_matmul(explicit_q, y));
    std::lock_guard<std::mutex> lock(mu);
    worst = std::max(worst, d);
    ++returned;
  });
  EXPECT_GT(returned, 0);
  return worst;
}

TEST_P(TsqrSweep, QTimesMatchesExplicitQ) {
  // No taller-than-wide skip here: at P = 7, 64 x 12 gives 9- and
  // 10-row blocks, the mᵢ < n case.
  const auto [p, m, n, faulty] = GetParam();
  std::vector<Index> rows;
  for (int r = 0; r < p; ++r) rows.push_back(partition_rows(m, p, r).count);
  auto ctx = std::make_shared<pmpi::Context>(p);
  if (faulty != 0) {
    ctx->set_fault_plan(pmpi::FaultPlan::chaos(
        static_cast<std::uint64_t>(m * 31 + p), 0.1));
  }
  for (const Index c : {Index{1}, Index{4}}) {
    EXPECT_LT(q_times_defect(rows, n, c, ctx), 1e-13) << "Y columns " << c;
  }
}

TEST(Tsqr, QTimesBlockShapes) {
  // Square blocks (mᵢ = n), short blocks (mᵢ < n, ragged), one rank, and
  // P from 2 to 6, each with a 1-, 4- and n-column Y.
  const std::vector<std::vector<Index>> layouts = {
      {12},          {8},          {12, 12},     {5, 12, 9},
      {3, 3, 3, 3},  {12, 12, 12, 12, 12},    {2, 7, 12, 4, 30, 1},
  };
  for (const auto& rows : layouts) {
    const int p = static_cast<int>(rows.size());
    for (const Index c : {Index{1}, Index{4}, Index{12}}) {
      EXPECT_LT(q_times_defect(rows, 12, c, std::make_shared<pmpi::Context>(p)),
                1e-13)
          << "P " << p << ", Y columns " << c;
    }
  }
}

TEST(Tsqr, QTimesOnSurvivorsWithAnExcludedRank) {
  // Rank 1 dies on its first op (the R gather post): the survivors'
  // q_times must still match their explicit Q rows.
  pmpi::FaultPlan plan;
  plan.kill_rank(1, 0);
  auto ctx = std::make_shared<pmpi::Context>(4);
  ctx->set_fault_plan(std::move(plan));
  EXPECT_LT(q_times_defect({20, 20, 20, 20}, 6, 4, ctx), 1e-13);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{1});
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TsqrSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values(64, 150),
                       ::testing::Values(1, 5, 12),
                       ::testing::Values(0, 1)));  // clean, faulty

// Local panels at the pipeline shapes (burgers 4096 x 20, era5 2592 x 204
// and 816 x 204, the root's 80 x 20) plus a ragged mᵢ < n block, at P = 4.
// The assembled Q and R are checked against oracles that run no QR code
// (testing::expect_qr_matches_oracle), and every rank's q_times(Y)
// against its rows of that Q times Y.
using PanelParam = std::tuple<std::pair<int, int>, testing::PanelCase>;

class TsqrPanelShapes : public ::testing::TestWithParam<PanelParam> {};

std::string panel_param_name(const ::testing::TestParamInfo<PanelParam>& p) {
  const std::pair<int, int> shape = std::get<0>(p.param);
  return std::to_string(shape.first) + "x" + std::to_string(shape.second) +
         "_" + testing::to_string(std::get<1>(p.param));
}

TEST_P(TsqrPanelShapes, QTimesMatchesOracles) {
  const auto [shape, c] = GetParam();
  const auto [rows_per_rank, n] = shape;
  constexpr int kRanks = 4;
  const testing::PanelInput in = testing::panel_input(
      kRanks * rows_per_rank, n, c, static_cast<std::uint64_t>(700 + n));
  std::vector<Matrix> q_blocks(kRanks);
  Matrix r;
  double q_times_defect = 0.0;
  std::mutex mu;
  pmpi::run(kRanks, [&](Communicator& comm) {
    const auto part = partition_rows(in.a.rows(), kRanks, comm.rank());
    const TsqrResult res = tsqr(comm, in.a.block(part.offset, 0, part.count, n));
    const Matrix q_block = res.q_local();
    const Matrix y = random_matrix(res.r.rows(), 10, 701);
    const double d = max_abs_diff(res.q_times(y), naive_matmul(q_block, y));
    std::lock_guard<std::mutex> lock(mu);
    q_times_defect = std::max(q_times_defect, d);
    q_blocks[static_cast<std::size_t>(comm.rank())] = q_block;
    if (comm.is_root()) r = res.r;
  });
  EXPECT_LT(q_times_defect, 1e-12);
  testing::expect_qr_matches_oracle(in, vcat(q_blocks), r, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, TsqrPanelShapes,
    ::testing::Combine(
        ::testing::Values(std::pair{4096, 20}, std::pair{2592, 204},
                          std::pair{816, 204}, std::pair{80, 20},
                          std::pair{15, 20}),
        ::testing::Values(testing::PanelCase::Gaussian,
                          testing::PanelCase::ZeroSubcolumn,
                          testing::PanelCase::ExtremeScales)),
    panel_param_name);

TEST(Tsqr, SubnormalScaleStaysFinite) {
  // The local and root reflectors of a 1e-310 / 1e-315 matrix have a
  // subnormal alpha - beta (see Qr.SubnormalScaleStaysFinite).
  for (const double scale : {1e-310, 1e-315}) {
    SCOPED_TRACE(::testing::Message() << "scale " << scale);
    const Matrix a = testing::subnormal_matrix(scale);
    const QrResult qr = run_tsqr(a, 4);
    testing::expect_subnormal_qr(a, qr.q, qr.r);
  }
}

TEST(Tsqr, ReconstructsInput) {
  const Matrix a = random_matrix(120, 8, 78);
  for (const bool faulty : {false, true}) {
    const QrResult qr = run_tsqr(a, 4, faulty);
    expect_matrix_near(naive_matmul(qr.q, qr.r), a, 1e-11);
    EXPECT_LT(ortho_defect(qr.q), 1e-12);
  }
}

TEST(Tsqr, UnevenRowDistribution) {
  // 5 ranks over 103 rows: blocks of 21/21/21/20/20.
  const Matrix a = random_matrix(103, 6, 79);
  const QrResult dist = run_tsqr(a, 5);
  const QrResult serial = qr_thin(a);
  expect_matrix_near(dist.q, serial.q, 1e-10);
}

TEST(Tsqr, RFactorIdenticalOnAllRanks) {
  const Matrix a = random_matrix(80, 5, 80);
  std::vector<Matrix> r_per_rank(4);
  pmpi::run(4, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 4, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    TsqrResult res = tsqr(comm, local);
    r_per_rank[static_cast<std::size_t>(comm.rank())] = std::move(res.r);
  });
  for (int r = 1; r < 4; ++r) {
    expect_matrix_near(r_per_rank[static_cast<std::size_t>(r)], r_per_rank[0],
                       0.0);
  }
}

TEST(Tsqr, VariantsAgreeWithEachOther) {
  // Recovered drops, duplicates and truncations deliver the same R
  // factors in the same order, so the run under a recoverable-fault
  // plan must reproduce the clean run exactly.
  const Matrix a = random_matrix(96, 7, 81);
  const QrResult clean = run_tsqr(a, 6);
  const QrResult faulty = run_tsqr(a, 6, /*faulty=*/true);
  expect_matrix_near(clean.q, faulty.q, 0.0);
  expect_matrix_near(clean.r, faulty.r, 0.0);
}

TEST(Tsqr, SingleRankEqualsSerial) {
  const Matrix a = random_matrix(40, 5, 82);
  const QrResult dist = run_tsqr(a, 1);
  const QrResult serial = qr_thin(a);
  expect_matrix_near(dist.q, serial.q, 0.0);
  expect_matrix_near(dist.r, serial.r, 0.0);
}

TEST(Tsqr, PositiveDiagonalConvention) {
  const Matrix a = random_matrix(72, 6, 83);
  const QrResult qr = run_tsqr(a, 3);
  for (Index i = 0; i < qr.r.rows(); ++i) EXPECT_GE(qr.r(i, i), 0.0);
}

TEST(Tsqr, EmptyLocalBlockThrows) {
  pmpi::run(1, [](Communicator& comm) {
    EXPECT_THROW(tsqr(comm, Matrix{}), Error);
  });
}

TEST(Tsqr, NonPowerOfTwoTreeRanks) {
  // Non-power-of-two rank counts: ragged row blocks at 5 and 6 ranks.
  for (int p : {5, 6}) {
    const Matrix a = random_matrix(90, 4, 84);
    const QrResult dist = run_tsqr(a, p);
    const QrResult serial = qr_thin(a);
    expect_matrix_near(dist.q, serial.q, 1e-10);
  }
}

}  // namespace
}  // namespace parsvd
