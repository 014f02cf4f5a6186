// Distributed TSQR tests: the direct TSQR against the serial QR, on a
// clean context and under a delay-fault plan, rank-count invariance,
// uneven row splits, orthogonality of the assembled Q, the root-only R,
// and the collective Q·Y product (q_times) against a dense serial Q·Y,
// also when a rank dies before or after posting its R factor.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
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
using testing::q_local;
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
    Matrix q = q_local(comm, res);
    std::lock_guard<std::mutex> lock(mu);
    q_blocks[static_cast<std::size_t>(comm.rank())] = std::move(q);
    if (comm.is_root()) r = std::move(res.r);
  });
  return {vcat(q_blocks), std::move(r)};
}

// q_times against the dense serial Q: the two factorizations differ only
// in rounding order.
constexpr double kSerialTol = 1e-13;

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

/// Largest |q_times(Y) - Q·Y| over the ranks that return, Q the dense
/// serial thin Q of the row blocks whose R factor reached the root, for
/// blocks of the given heights, n columns and a seeded Y of `c`
/// columns passed at root. `ctx` may carry a fault plan; the blocks of
/// `excluded` ranks (dead before posting R) are left out of Q.
double q_times_defect(const std::vector<Index>& rows, Index n, Index c,
                      const std::shared_ptr<pmpi::Context>& ctx,
                      const std::vector<int>& excluded = {}) {
  const std::size_t p = rows.size();
  const auto in_q = [&](std::size_t r) {
    return std::find(excluded.begin(), excluded.end(), static_cast<int>(r)) ==
           excluded.end();
  };
  std::vector<Matrix> locals(p);
  std::vector<Matrix> stack;
  for (std::size_t r = 0; r < p; ++r) {
    locals[r] = random_matrix(rows[r], n, 300 + r);
    if (in_q(r)) stack.push_back(locals[r]);
  }
  const Matrix q = qr_thin(vcat(stack)).q;
  const Matrix qy = naive_matmul(q, random_matrix(q.cols(), c, 299));

  std::vector<std::optional<Matrix>> got(p);
  std::mutex mu;
  pmpi::run_on(ctx, [&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const TsqrResult res = tsqr(comm, locals[r]);
    if (comm.is_root()) {
      EXPECT_EQ(res.excluded_ranks, excluded);
    }
    const Matrix y =
        comm.is_root() ? random_matrix(res.r.rows(), c, 299) : Matrix{};
    Matrix mine = res.q_times(comm, y);
    std::lock_guard<std::mutex> lock(mu);
    got[r] = std::move(mine);
  });
  double worst = 0.0;
  int returned = 0;
  Index offset = 0;
  for (std::size_t r = 0; r < p; ++r) {
    if (got[r]) {
      EXPECT_TRUE(in_q(r)) << "an excluded rank returned";
      EXPECT_EQ(got[r]->rows(), rows[r]);
      EXPECT_EQ(got[r]->cols(), c);
      worst = std::max(worst,
                       max_abs_diff(*got[r], qy.block(offset, 0, rows[r], c)));
      ++returned;
    }
    if (in_q(r)) offset += rows[r];
  }
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
  for (const Index c : {Index{1}, Index{4}, Index{n}}) {
    EXPECT_LT(q_times_defect(rows, n, c, ctx), kSerialTol) << "Y columns " << c;
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
                kSerialTol)
          << "P " << p << ", Y columns " << c;
    }
  }
}

TEST(Tsqr, QTimesOnSurvivorsWithAnExcludedRank) {
  // Rank 1 dies on its first op (the R gather post): the survivors'
  // q_times must match their rows of the serial Q of the other blocks.
  pmpi::FaultPlan plan;
  plan.kill_rank(1, 0);
  auto ctx = std::make_shared<pmpi::Context>(4);
  ctx->set_fault_plan(std::move(plan));
  EXPECT_LT(q_times_defect({20, 20, 20, 20}, 6, 4, ctx, {1}), kSerialTol);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{1});
}

TEST(Tsqr, QTimesOnSurvivorsWhenARankDiesAfterPostingR) {
  // Rank 2 posts its R factor, then dies waiting for its Q·Y block (its
  // second op). Its rows stay in the factorization and its block stays
  // unconsumed; the survivors' rows are those of the serial Q of all four
  // blocks, and nobody hangs.
  pmpi::FaultPlan plan;
  plan.kill_rank(2, 1);
  auto ctx = std::make_shared<pmpi::Context>(4);
  ctx->set_fault_plan(std::move(plan));
  EXPECT_LT(q_times_defect({20, 9, 20, 3}, 6, 4, ctx), kSerialTol);
  EXPECT_EQ(ctx->dead_ranks(), std::vector<int>{2});
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
// (testing::expect_qr_matches_oracle), and the q_times(Y) rows against
// that Q times Y.
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
  std::vector<Matrix> qy_blocks(kRanks);
  Matrix r;
  Matrix y;
  std::mutex mu;
  pmpi::run(kRanks, [&](Communicator& comm) {
    const auto part = partition_rows(in.a.rows(), kRanks, comm.rank());
    const TsqrResult res = tsqr(comm, in.a.block(part.offset, 0, part.count, n));
    Matrix q_block = q_local(comm, res);
    const Matrix y_root =
        comm.is_root() ? random_matrix(res.r.rows(), 10, 701) : Matrix{};
    Matrix qy_block = res.q_times(comm, y_root);
    std::lock_guard<std::mutex> lock(mu);
    q_blocks[static_cast<std::size_t>(comm.rank())] = std::move(q_block);
    qy_blocks[static_cast<std::size_t>(comm.rank())] = std::move(qy_block);
    if (comm.is_root()) {
      r = res.r;
      y = y_root;
    }
  });
  const Matrix q = vcat(q_blocks);
  EXPECT_LT(max_abs_diff(vcat(qy_blocks), naive_matmul(q, y)), 1e-12);
  testing::expect_qr_matches_oracle(in, q, r, 1e-12);
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

TEST(Tsqr, InterleavedStackMatchesOracles) {
  // The root stacks the R factors interleaved by row index. P = 2, 3, 4
  // with a ragged 15-row block (its R is 15 x n) and, at P = 3 and 4, a
  // rank that dies before posting its R. At n = 72 the stack spans three
  // panels, the first two cut short by the staircase trim. R and the
  // assembled Q are checked against oracles that run no QR code, and
  // q_times(Y) against that Q times Y.
  struct Layout {
    std::vector<Index> rows;
    int excluded;  // -1: none
  };
  const Layout layouts[] = {{{80, 15}, -1}, {{80, 15, 80}, 2}, {{80, 80, 15, 80}, 1}};
  for (const Index n : {Index{20}, Index{72}}) {
    for (const Layout& layout : layouts) {
      const auto p = static_cast<int>(layout.rows.size());
      SCOPED_TRACE(::testing::Message() << "P " << p << ", n " << n);
      std::vector<Matrix> locals;
      for (int r = 0; r < p; ++r) {
        locals.push_back(random_matrix(layout.rows[static_cast<std::size_t>(r)], n,
                                       static_cast<std::uint64_t>(500 + 10 * r + n)));
      }
      auto ctx = std::make_shared<pmpi::Context>(p);
      if (layout.excluded >= 0) {
        pmpi::FaultPlan plan;
        plan.kill_rank(layout.excluded, 0);
        ctx->set_fault_plan(std::move(plan));
      }
      std::vector<std::optional<Matrix>> q_blocks(static_cast<std::size_t>(p));
      std::vector<std::optional<Matrix>> qy_blocks(static_cast<std::size_t>(p));
      Matrix r;
      Matrix y;
      std::mutex mu;
      pmpi::run_on(ctx, [&](Communicator& comm) {
        const auto me = static_cast<std::size_t>(comm.rank());
        const TsqrResult res = tsqr(comm, locals[me]);
        Matrix q_mine = q_local(comm, res);
        const Matrix y_root =
            comm.is_root() ? random_matrix(res.r.rows(), 3, 501) : Matrix{};
        Matrix qy_mine = res.q_times(comm, y_root);
        std::lock_guard<std::mutex> lock(mu);
        q_blocks[me] = std::move(q_mine);
        qy_blocks[me] = std::move(qy_mine);
        if (comm.is_root()) {
          r = res.r;
          y = y_root;
        }
      });
      std::vector<Matrix> a_in, q_in, qy_in;
      for (int rank = 0; rank < p; ++rank) {
        const auto slot = static_cast<std::size_t>(rank);
        if (rank == layout.excluded) {
          EXPECT_FALSE(q_blocks[slot]) << "the excluded rank returned";
          continue;
        }
        ASSERT_TRUE(q_blocks[slot] && qy_blocks[slot]) << "rank " << rank;
        a_in.push_back(locals[slot]);
        q_in.push_back(*q_blocks[slot]);
        qy_in.push_back(*qy_blocks[slot]);
      }
      const Matrix a = vcat(a_in);
      const testing::PanelInput in{a, a, std::vector<double>(static_cast<std::size_t>(n), 1.0)};
      const Matrix q = vcat(q_in);
      testing::expect_qr_matches_oracle(in, q, r, 1e-12);
      EXPECT_LT(max_abs_diff(vcat(qy_in), naive_matmul(q, y)), 1e-12);
    }
  }
}

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

TEST(Tsqr, RFactorOnRootOnly) {
  // Only the root's SVD reads R, so it never leaves the root.
  const Matrix a = random_matrix(80, 5, 80);
  std::vector<Matrix> r_per_rank(4);
  pmpi::run(4, [&](Communicator& comm) {
    const auto part = partition_rows(a.rows(), 4, comm.rank());
    const Matrix local = a.block(part.offset, 0, part.count, a.cols());
    TsqrResult res = tsqr(comm, local);
    r_per_rank[static_cast<std::size_t>(comm.rank())] = std::move(res.r);
  });
  expect_matrix_near(r_per_rank[0], qr_thin(a).r, 1e-10);
  for (int r = 1; r < 4; ++r) {
    EXPECT_TRUE(r_per_rank[static_cast<std::size_t>(r)].empty()) << "rank " << r;
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
