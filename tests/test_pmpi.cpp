// Message-passing runtime tests: point-to-point semantics, FIFO/tag
// matching, every collective against hand-computed results, rank sweeps,
// error propagation and deadlock-free aborts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>

#include "pmpi/comm.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using pmpi::Communicator;
using pmpi::Op;
using testing::expect_matrix_near;

TEST(Pmpi, SingleRankRuns) {
  bool ran = false;
  pmpi::run(1, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    EXPECT_TRUE(comm.is_root());
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(Pmpi, InvalidSizeThrows) {
  EXPECT_THROW(pmpi::run(0, [](Communicator&) {}), Error);
}

TEST(Pmpi, PointToPointDelivers) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.5, 2.5, 3.5};
      comm.send<double>(data, 1, 7);
    } else {
      const std::vector<double> got = comm.recv<double>(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST(Pmpi, FifoOrderPerChannel) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        const std::vector<int> msg{i};
        comm.send<int>(msg, 1, 0);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        const std::vector<int> got = comm.recv<int>(0, 0);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], i);
      }
    }
  });
}

TEST(Pmpi, TagsMatchIndependently) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(std::vector<int>{111}, 1, 1);
      comm.send<int>(std::vector<int>{222}, 1, 2);
    } else {
      // Receive in reverse tag order: matching is by tag, not arrival.
      EXPECT_EQ(comm.recv<int>(0, 2).at(0), 222);
      EXPECT_EQ(comm.recv<int>(0, 1).at(0), 111);
    }
  });
}

TEST(Pmpi, NegativeUserTagRejected) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send<int>(std::vector<int>{1}, 1, -1), Error);
      comm.send<int>(std::vector<int>{1}, 1, 0);  // unblock peer
    } else {
      comm.recv<int>(0, 0);
    }
  });
}

TEST(Pmpi, MatrixRoundTripPreservesShape) {
  pmpi::run(2, [](Communicator& comm) {
    const Matrix m = testing::random_matrix(5, 3, 50);
    if (comm.rank() == 0) {
      comm.send_matrix(m, 1, 3);
    } else {
      const Matrix got = comm.recv_matrix(0, 3);
      expect_matrix_near(got, m, 0.0);
    }
  });
}

TEST(Pmpi, EmptyMatrixTravels) {
  pmpi::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_matrix(Matrix{}, 1, 0);
    } else {
      const Matrix got = comm.recv_matrix(0, 0);
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Pmpi, BarrierSynchronizes) {
  // All ranks must reach phase 1 before any proceeds to phase 2.
  std::atomic<int> in_phase1{0};
  std::atomic<bool> violated{false};
  pmpi::run(4, [&](Communicator& comm) {
    in_phase1.fetch_add(1);
    comm.barrier();
    if (in_phase1.load() != 4) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

class BcastSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcastSweep, AllRanksReceive) {
  const auto [size, root] = GetParam();
  if (root >= size) GTEST_SKIP();
  pmpi::run(size, [root = root](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == root) data = {1.0, 2.0, 3.0, 4.0};
    comm.bcast(data, root);
    ASSERT_EQ(data.size(), 4u);
    EXPECT_DOUBLE_EQ(data[3], 4.0);
  });
}

INSTANTIATE_TEST_SUITE_P(RankRootCombos, BcastSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5,
                                                              8),
                                            ::testing::Values(0, 1, 3)));

TEST(Pmpi, BcastMatrixFromNonzeroRoot) {
  pmpi::run(3, [](Communicator& comm) {
    Matrix m;
    if (comm.rank() == 2) m = testing::random_matrix(4, 2, 51);
    comm.bcast_matrix(m, 2);
    const Matrix expected = testing::random_matrix(4, 2, 51);
    expect_matrix_near(m, expected, 0.0);
  });
}

TEST(Pmpi, BcastScalarHelpers) {
  pmpi::run(4, [](Communicator& comm) {
    double d = comm.is_root() ? 3.25 : 0.0;
    comm.bcast_double(d, 0);
    EXPECT_DOUBLE_EQ(d, 3.25);
    Index i = comm.is_root() ? 77 : 0;
    comm.bcast_index(i, 0);
    EXPECT_EQ(i, 77);
  });
}

TEST(Pmpi, GatherMatricesInRankOrder) {
  pmpi::run(4, [](Communicator& comm) {
    Matrix local(2, 1, static_cast<double>(comm.rank()));
    const std::vector<std::optional<Matrix>> all =
        comm.gather_matrices(local, 0);
    if (comm.is_root()) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)].value()(0, 0),
                         static_cast<double>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Pmpi, GathervConcatenatesWithCounts) {
  pmpi::run(3, [](Communicator& comm) {
    // Rank r contributes r+1 values, all equal to r.
    std::vector<double> local(static_cast<std::size_t>(comm.rank() + 1),
                              static_cast<double>(comm.rank()));
    std::vector<std::size_t> counts;
    const std::vector<double> all = comm.gatherv<double>(local, 0, &counts);
    if (comm.is_root()) {
      ASSERT_EQ(counts.size(), 3u);
      EXPECT_EQ(counts[0], 1u);
      EXPECT_EQ(counts[1], 2u);
      EXPECT_EQ(counts[2], 3u);
      ASSERT_EQ(all.size(), 6u);
      EXPECT_DOUBLE_EQ(all[0], 0.0);
      EXPECT_DOUBLE_EQ(all[2], 1.0);
      EXPECT_DOUBLE_EQ(all[5], 2.0);
    }
  });
}

TEST(Pmpi, AllgatherVisibleEverywhere) {
  pmpi::run(5, [](Communicator& comm) {
    const std::vector<double> all =
        comm.allgather_double(static_cast<double>(comm.rank() * 10));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 10.0);
    }
    const std::vector<Index> idx = comm.allgather_index(comm.rank() + 100);
    EXPECT_EQ(idx[3], 103);
  });
}

TEST(Pmpi, ScatterRowsPartitions) {
  pmpi::run(3, [](Communicator& comm) {
    Matrix full;
    if (comm.is_root()) {
      full = Matrix(6, 2);
      for (Index i = 0; i < 6; ++i) {
        for (Index j = 0; j < 2; ++j) full(i, j) = static_cast<double>(10 * i + j);
      }
    }
    const std::vector<Index> counts{1, 2, 3};
    const Matrix mine = comm.scatter_rows(full, counts, 0);
    ASSERT_EQ(mine.rows(), counts[static_cast<std::size_t>(comm.rank())]);
    ASSERT_EQ(mine.cols(), 2);
    // Row offset of this rank: sum of previous counts.
    Index offset = 0;
    for (int r = 0; r < comm.rank(); ++r) offset += counts[static_cast<std::size_t>(r)];
    EXPECT_DOUBLE_EQ(mine(0, 0), static_cast<double>(10 * offset));
  });
}

TEST(Pmpi, ReduceSumAtRoot) {
  pmpi::run(4, [](Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()),
                             1.0};
    comm.reduce(data, Op::Sum, 0);
    if (comm.is_root()) {
      EXPECT_DOUBLE_EQ(data[0], 0 + 1 + 2 + 3);
      EXPECT_DOUBLE_EQ(data[1], 4.0);
    }
  });
}

TEST(Pmpi, AllreduceMaxMin) {
  pmpi::run(4, [](Communicator& comm) {
    const double mx =
        comm.allreduce_scalar(static_cast<double>(comm.rank()), Op::Max);
    EXPECT_DOUBLE_EQ(mx, 3.0);
    const double mn =
        comm.allreduce_scalar(static_cast<double>(comm.rank()), Op::Min);
    EXPECT_DOUBLE_EQ(mn, 0.0);
  });
}

TEST(Pmpi, AllreduceVectorSum) {
  pmpi::run(3, [](Communicator& comm) {
    std::vector<double> data{1.0, static_cast<double>(comm.rank())};
    comm.allreduce(data, Op::Sum);
    EXPECT_DOUBLE_EQ(data[0], 3.0);
    EXPECT_DOUBLE_EQ(data[1], 3.0);
  });
}

TEST(Pmpi, CommVolumeAccounted) {
  auto ctx = pmpi::run_with_stats(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(std::vector<double>(100, 1.0), 1, 0);
    } else {
      comm.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(ctx->total_bytes(), 100 * sizeof(double));
  EXPECT_EQ(ctx->rank_bytes(0), 100 * sizeof(double));
  EXPECT_EQ(ctx->rank_bytes(1), 0u);
  EXPECT_EQ(ctx->total_messages(), 1u);
}

TEST(Pmpi, RankExceptionPropagatesWithoutDeadlock) {
  // Rank 1 dies before sending; rank 0 is blocked in recv. abort_job
  // must wake rank 0 and the original error must surface.
  EXPECT_THROW(pmpi::run(2,
                         [](Communicator& comm) {
                           if (comm.rank() == 1) {
                             throw ConfigError("rank 1 exploded");
                           }
                           comm.recv<double>(1, 0);  // would deadlock
                         }),
               ConfigError);
}

TEST(Pmpi, BarrierAbortsOnPeerFailure) {
  EXPECT_THROW(pmpi::run(3,
                         [](Communicator& comm) {
                           if (comm.rank() == 2) {
                             throw ConfigError("died before barrier");
                           }
                           comm.barrier();
                         }),
               ConfigError);
}

TEST(Pmpi, PeerRangeValidated) {
  pmpi::run(2, [](Communicator& comm) {
    EXPECT_THROW(comm.send<int>(std::vector<int>{1}, 5, 0), Error);
    EXPECT_THROW(comm.recv<int>(-1, 0), Error);
  });
}

TEST(Pmpi, ManyRanksStress) {
  // Ring exchange with 16 ranks: each sends to (r+1) % p and receives
  // from (r-1+p) % p, twice, with a barrier between rounds.
  pmpi::run(16, [](Communicator& comm) {
    const int p = comm.size();
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    for (int round = 0; round < 2; ++round) {
      comm.send<int>(std::vector<int>{comm.rank() * 100 + round}, next, round);
      const std::vector<int> got = comm.recv<int>(prev, round);
      EXPECT_EQ(got.at(0), prev * 100 + round);
      comm.barrier();
    }
  });
}

}  // namespace
}  // namespace parsvd
